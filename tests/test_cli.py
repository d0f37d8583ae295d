import json
import pickle
from dataclasses import replace

import numpy as np
import pytest

from egomwf.audio_io import AudioClip, read_wav, write_wav
from egomwf.cli import main, run_sweep, write_sweep_outputs
from egomwf.config import ConfigError, EnhanceConfig, load_config, parse_config
from egomwf.metrics import stoi
from egomwf.scenegen import SceneConfig, render_scene, write_scene


@pytest.fixture(scope="module")
def scene_dir(tmp_path_factory, speech_wav):
    out = tmp_path_factory.mktemp("scene")
    scene = render_scene(
        SceneConfig(speech_path=speech_wav, target_snr_db=-10.0, seed=0, duration_s=4.0)
    )
    write_scene(scene, out)
    return out


@pytest.fixture(scope="module")
def config_file(tmp_path_factory):
    cfg = {
        "partition": {
            "speech_noise_channels": list(range(8)),
            "noise_only_channels": [12, 13, 14, 15],
            "ref_channel": 0,
        },
        "method": "pk-mwf",
        "spp_mode": "internal",
    }
    path = tmp_path_factory.mktemp("cfg") / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


# ------------------------------------------------------------------ config


def test_parse_config_minimal():
    cfg = parse_config({"partition": {"speech_noise_channels": [0, 1]}})
    assert isinstance(cfg, EnhanceConfig)
    assert cfg.method == "pk-mwf"
    assert cfg.partition.n_total == 2


@pytest.mark.parametrize(
    "raw",
    [
        {"input_path": "in.wav"},
        {"output_path": "out.wav"},
        {"report_path": "r.json"},
        {"external_path": "ext.wav"},
        {"speech_ref_path": "s.wav", "noise_ref_path": "n.wav", "spp_mode": "oracle"},
        {"stft": {"window": "rect"}},
    ],
)
def test_parse_config_rejects_paths_and_window(raw):
    # file paths come from flags; the window is fixed
    with pytest.raises(ConfigError) as err:
        parse_config({"partition": {"speech_noise_channels": [0]}, **raw})
    assert "unknown" in str(err.value)


def test_parse_config_collects_all_violations():
    raw = {
        "partition": {"speech_noise_channels": [0, 1], "noise_only_channels": [1]},
        "method": "magic",
        "spp_mode": "psychic",
        "bogus_key": 1,
    }
    with pytest.raises(ConfigError) as err:
        parse_config(raw)
    text = str(err.value)
    assert "overlap" in text
    assert "bogus_key" in text
    # overlapping channels reported from the partition section
    assert text.count("- ") >= 2


def test_parse_config_method_mode_violations():
    with pytest.raises(ConfigError) as err:
        parse_config(
            {"partition": {"speech_noise_channels": [0]}, "method": "magic", "spp_mode": "psychic"}
        )
    assert "method" in str(err.value)
    assert "spp_mode" in str(err.value)


def test_parse_config_ref_channel_out_of_range():
    with pytest.raises(ConfigError) as err:
        parse_config({"partition": {"speech_noise_channels": [0, 1], "ref_channel": 5}})
    assert "ref_channel" in str(err.value)


def test_parse_config_spp_db_shortcut():
    cfg = parse_config(
        {"partition": {"speech_noise_channels": [0]}, "spp": {"xi_h1_db": 10.0}}
    )
    assert cfg.spp.xi_h1 == pytest.approx(10.0)


def test_config_error_survives_pickling():
    err = pickle.loads(pickle.dumps(ConfigError(["bad method", "bad mode"])))
    assert err.violations == ["bad method", "bad mode"]
    assert str(err) == str(ConfigError(["bad method", "bad mode"]))


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "nope.json")


# ----------------------------------------------------------------- enhance


def test_cmd_enhance_runs(tmp_path, scene_dir, config_file):
    out = tmp_path / "enhanced.wav"
    report = tmp_path / "report.json"
    code = main(
        [
            "enhance",
            "--input", str(scene_dir / "mixture.wav"),
            "--output", str(out),
            "--config", config_file,
            "--report", str(report),
        ]
    )
    assert code == 0
    assert out.exists()
    data = json.loads(report.read_text())
    assert data["config"]["method"] == "pk-mwf"
    counts = data["per_bin_status_counts"]
    assert sum(counts.values()) == 257


def test_cmd_enhance_report_counts_match_library(tmp_path, scene_dir, config_file):
    report = tmp_path / "report.json"
    main(
        [
            "enhance",
            "--input", str(scene_dir / "mixture.wav"),
            "--output", str(tmp_path / "o.wav"),
            "--config", config_file,
            "--report", str(report),
        ]
    )
    from egomwf.pipeline import enhance

    cfg = load_config(config_file)
    clip = read_wav(scene_dir / "mixture.wav")
    result = enhance(clip, cfg)
    assert json.loads(report.read_text())["per_bin_status_counts"] == result.status_counts()


def test_cmd_enhance_missing_input_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["enhance", "--output", "x.wav", "--config", "c.json"])
    assert exc.value.code == 2
    assert "usage" in capsys.readouterr().err


def test_cmd_enhance_bad_config_exit_2(tmp_path, scene_dir):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"method": "nope"}))
    code = main(
        [
            "enhance",
            "--input", str(scene_dir / "mixture.wav"),
            "--output", str(tmp_path / "o.wav"),
            "--config", str(bad),
        ]
    )
    assert code == 2


def test_cmd_enhance_processing_error_exit_3(tmp_path, scene_dir, config_file, speech_wav):
    code = main(
        [
            "enhance",
            "--input", speech_wav,  # single channel, partition wants 12
            "--output", str(tmp_path / "o.wav"),
            "--config", config_file,
        ]
    )
    assert code == 3


def _assert_one_line_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


def test_cmd_enhance_clip_shorter_than_one_frame_exit_3(tmp_path, scene_dir, config_file, capsys):
    clip = read_wav(scene_dir / "mixture.wav")
    short = tmp_path / "short.wav"
    write_wav(AudioClip(clip.samples[:, :300], clip.sample_rate_hz), short, "32f")
    code = main(["enhance", "--input", str(short), "--output", str(tmp_path / "o.wav"),
                 "--config", config_file])
    assert code == 3
    _assert_one_line_error(capsys)


def test_cmd_enhance_singular_gsc_gram_exit_3(tmp_path, scene_dir, capsys):
    # silent noise-reference mics and no diagonal loading leave B^H R_nn B = 0
    clip = read_wav(scene_dir / "mixture.wav")
    samples = clip.samples.copy()
    samples[12:16] = 0.0
    dead = tmp_path / "dead_refs.wav"
    write_wav(AudioClip(samples, clip.sample_rate_hz), dead, "32f")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "partition": {"speech_noise_channels": [0, 1, 2, 3], "noise_only_channels": [12, 13, 14, 15]},
        "method": "pk-mwf",
        "delta": 0.0,
    }))
    code = main(["enhance", "--input", str(dead), "--output", str(tmp_path / "o.wav"),
                 "--config", str(cfg)])
    assert code == 3
    _assert_one_line_error(capsys)


def test_cmd_enhance_component_worker_error_exit_3(tmp_path, scene_dir, config_file,
                                                   capsys, monkeypatch):
    import egomwf.stft
    from egomwf.stft import StftError

    def failing(*args, **kwargs):
        raise StftError("component analysis failed")

    # only the shadow components are analysed through stft.analyze
    monkeypatch.setattr(egomwf.stft, "analyze", failing)
    code = main(["enhance", "--input", str(scene_dir / "mixture.wav"),
                 "--output", str(tmp_path / "o.wav"), "--config", config_file,
                 "--speech-ref", str(scene_dir / "speech.wav"),
                 "--noise-ref", str(scene_dir / "noise.wav")])
    assert code == 3
    err = capsys.readouterr().err
    assert err == "error: component analysis failed\n"
    assert not (tmp_path / "o.wav").exists()


def test_cmd_enhance_reference_length_mismatch_exit_3(tmp_path, scene_dir, config_file, capsys):
    # references cut to 20000 samples on a 64000-sample mixture
    refs = []
    for name in ("speech", "noise"):
        clip = read_wav(scene_dir / f"{name}.wav")
        path = tmp_path / f"{name}_short.wav"
        write_wav(AudioClip(clip.samples[:, :20000], clip.sample_rate_hz), path, "32f")
        refs.append(str(path))
    code = main(["enhance", "--input", str(scene_dir / "mixture.wav"),
                 "--output", str(tmp_path / "o.wav"), "--config", config_file,
                 "--speech-ref", refs[0], "--noise-ref", refs[1]])
    assert code == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "20000 samples" in err


def test_cmd_enhance_oracle_mode(tmp_path, scene_dir, config_file):
    out = tmp_path / "oracle.wav"
    code = main(
        [
            "enhance",
            "--input", str(scene_dir / "mixture.wav"),
            "--output", str(out),
            "--config", config_file,
            "--spp-mode", "oracle",
            "--speech-ref", str(scene_dir / "speech.wav"),
            "--noise-ref", str(scene_dir / "noise.wav"),
        ]
    )
    assert code == 0
    assert out.exists()


def test_cmd_enhance_shadow_export_feeds_evaluate(tmp_path, scene_dir, config_file):
    shadow_s = tmp_path / "shadow_s.wav"
    shadow_n = tmp_path / "shadow_n.wav"
    out = tmp_path / "enh.wav"
    assert main(
        [
            "enhance",
            "--input", str(scene_dir / "mixture.wav"),
            "--output", str(out),
            "--config", config_file,
            "--spp-mode", "oracle",
            "--speech-ref", str(scene_dir / "speech.wav"),
            "--noise-ref", str(scene_dir / "noise.wav"),
            "--shadow-speech-out", str(shadow_s),
            "--shadow-noise-out", str(shadow_n),
        ]
    ) == 0
    report = tmp_path / "m.json"
    assert main(
        [
            "evaluate",
            "--clean", str(scene_dir / "speech.wav"),
            "--processed", str(out),
            "--noisy", str(scene_dir / "mixture.wav"),
            "--shadow-speech", str(shadow_s),
            "--shadow-noise", str(shadow_n),
            "--report", str(report),
        ]
    ) == 0
    data = json.loads(report.read_text())
    assert data["snr_improvement_db"] is not None
    assert data["snr_improvement_db"] > 0.0
    assert data["flags"] == []


def test_cmd_enhance_oracle_without_refs_exit_2(tmp_path, scene_dir, config_file):
    code = main(
        [
            "enhance",
            "--input", str(scene_dir / "mixture.wav"),
            "--output", str(tmp_path / "o.wav"),
            "--config", config_file,
            "--spp-mode", "oracle",
        ]
    )
    assert code == 2


def test_cmd_enhance_external_mode(tmp_path, scene_dir, config_file):
    code = main(
        [
            "enhance",
            "--input", str(scene_dir / "mixture.wav"),
            "--output", str(tmp_path / "x.wav"),
            "--config", config_file,
            "--spp-mode", "external",
            "--external", str(scene_dir / "external.wav"),
        ]
    )
    assert code == 0


# ---------------------------------------------------------------- simulate


def test_cmd_simulate_single_scene(tmp_path, speech_wav):
    scene_cfg = tmp_path / "scene.json"
    scene_cfg.write_text(json.dumps({"target_snr_db": -10.0, "seed": 3, "duration_s": 2.0}))
    code = main(
        [
            "simulate",
            "--scene-config", str(scene_cfg),
            "--output-dir", str(tmp_path / "out"),
            "--speech", speech_wav,
        ]
    )
    assert code == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["achieved_snr_db"] == pytest.approx(-10.0, abs=0.1)


def test_cmd_simulate_deterministic_bytes(tmp_path, speech_wav):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = main(
            [
                "simulate",
                "--scene-config", "/dev/null/x",  # unused branch guard
                "--output-dir", str(out),
                "--speech", speech_wav,
            ]
        )
        # bad scene config file gives config error
        assert code == 2
    for name in ("c", "d"):
        out = tmp_path / name
        scene_cfg = tmp_path / f"{name}.json"
        scene_cfg.write_text(json.dumps({"seed": 7, "duration_s": 1.5}))
        code = main(
            [
                "simulate",
                "--scene-config", str(scene_cfg),
                "--output-dir", str(out),
                "--speech", speech_wav,
            ]
        )
        assert code == 0
        outs.append((out / "mixture.wav").read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize(
    "raw",
    [
        [{"seed": 1}],
        {"seed": 1, "geometry": {"array": [[0, 0, 0]]}},
        {"duration_s": -1},  # values SceneConfig rejects
        {"rotor_speeds_rpm": [4000.0, 4100.0]},
    ],
)
def test_cmd_simulate_malformed_scene_config_exit_2(tmp_path, speech_wav, capsys, raw):
    scene_cfg = tmp_path / "scene.json"
    scene_cfg.write_text(json.dumps(raw))
    code = main(
        [
            "simulate",
            "--scene-config", str(scene_cfg),
            "--output-dir", str(tmp_path / "out"),
            "--speech", speech_wav,
        ]
    )
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: bad scene config:")
    assert not (tmp_path / "out").exists()


def test_cmd_simulate_render_error_exit_3(tmp_path, capsys):
    # a valid config on speech material under one second fails in rendering
    speech = tmp_path / "short_speech.wav"
    write_wav(AudioClip(np.full((1, 8000), 0.1), 16000), speech, "32f")
    scene_cfg = tmp_path / "scene.json"
    scene_cfg.write_text(json.dumps({"seed": 1}))  # no duration_s: nothing pads the speech
    code = main(["simulate", "--scene-config", str(scene_cfg),
                 "--output-dir", str(tmp_path / "out"), "--speech", str(speech)])
    assert code == 3
    err = capsys.readouterr().err
    assert err == "error: speech material shorter than one second\n"


@pytest.mark.parametrize("command", ["simulate", "sweep"])
@pytest.mark.parametrize("duration", ["-2.5", "0", "nan", "inf"])
def test_cmd_bad_duration_exit_2(tmp_path, speech_wav, capsys, command, duration):
    scene_cfg = tmp_path / "scene.json"
    scene_cfg.write_text(json.dumps({"seed": 1}))
    extra = {"simulate": ["--scene-config", str(scene_cfg)], "sweep": ["--workers", "1"]}
    code = main(
        [command, "--output-dir", str(tmp_path / "out"), "--speech", speech_wav,
         "--duration", duration, *extra[command]]
    )
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: --duration")
    assert not (tmp_path / "out").exists()


def test_cmd_simulate_requires_mode(tmp_path, speech_wav):
    code = main(["simulate", "--output-dir", str(tmp_path), "--speech", speech_wav])
    assert code == 2


# ---------------------------------------------------------------- evaluate


def test_cmd_evaluate_self_is_unity(tmp_path, scene_dir):
    # pull the ground-truth reference channel out of speech.wav
    from egomwf.audio_io import write_wav

    speech = read_wav(scene_dir / "speech.wav")
    clean = tmp_path / "clean.wav"
    write_wav(speech.channel(0), clean, "32f")
    noisy = tmp_path / "noisy.wav"
    write_wav(read_wav(scene_dir / "mixture.wav").channel(0), noisy, "32f")
    report = tmp_path / "rep.json"
    code = main(
        [
            "evaluate",
            "--clean", str(clean),
            "--processed", str(clean),
            "--noisy", str(noisy),
            "--report", str(report),
        ]
    )
    assert code == 0
    data = json.loads(report.read_text())
    assert data["stoi_out"] == pytest.approx(1.0, abs=1e-10)
    assert data["snr_improvement_db"] is None
    assert "no_ground_truth" in data["flags"]


def test_cmd_evaluate_matches_library(tmp_path, scene_dir):
    from egomwf.audio_io import write_wav

    speech = read_wav(scene_dir / "speech.wav").channel(0)
    mixture = read_wav(scene_dir / "mixture.wav").channel(0)
    clean = tmp_path / "clean.wav"
    noisy = tmp_path / "noisy.wav"
    write_wav(speech, clean, "32f")
    write_wav(mixture, noisy, "32f")
    report = tmp_path / "rep.json"
    code = main(
        [
            "evaluate",
            "--clean", str(clean),
            "--processed", str(noisy),
            "--noisy", str(noisy),
            "--report", str(report),
        ]
    )
    assert code == 0
    data = json.loads(report.read_text())
    direct = stoi(read_wav(clean), read_wav(noisy), 16000)
    assert data["stoi_out"] == pytest.approx(direct, abs=1e-12)


def test_cmd_evaluate_flags_capped_snr(tmp_path, scene_dir):
    speech = read_wav(scene_dir / "speech.wav").channel(0)
    clean = tmp_path / "clean.wav"
    noisy = tmp_path / "noisy.wav"
    silent = tmp_path / "silent.wav"
    write_wav(speech, clean, "32f")
    write_wav(read_wav(scene_dir / "mixture.wav").channel(0), noisy, "32f")
    write_wav(AudioClip(np.zeros_like(speech.samples), speech.sample_rate_hz), silent, "32f")
    report = tmp_path / "rep.json"
    code = main(
        [
            "evaluate",
            "--clean", str(clean),
            "--processed", str(noisy),
            "--noisy", str(noisy),
            "--shadow-speech", str(clean),
            "--shadow-noise", str(silent),
            "--report", str(report),
        ]
    )
    assert code == 0
    data = json.loads(report.read_text())
    assert data["snr_out_db"] == 120.0
    assert data["flags"] == ["snr_capped"]
    assert set(data) == {
        "snr_in_db", "snr_out_db", "snr_improvement_db",
        "stoi_in", "stoi_out", "stoi_improvement", "flags",
    }


def test_cmd_evaluate_missing_file_exit_3(tmp_path):
    code = main(
        [
            "evaluate",
            "--clean", str(tmp_path / "a.wav"),
            "--processed", str(tmp_path / "b.wav"),
            "--noisy", str(tmp_path / "c.wav"),
            "--report", str(tmp_path / "r.json"),
        ]
    )
    assert code == 3


# ------------------------------------------------------------------- sweep


@pytest.fixture(scope="module")
def short_sweep(speech_wav):
    return run_sweep(speech_wav, seeds=[0], duration_s=2.0, workers=1)


def test_sweep_produces_all_cells(short_sweep):
    assert len(short_sweep) == 81
    assert all(row["status"] == "ok" for row in short_sweep)
    snrs = {row["snr_db"] for row in short_sweep}
    assert snrs == {-20.0, -10.0, 0.0}


def test_sweep_outputs_and_shape(tmp_path, short_sweep):
    write_sweep_outputs(short_sweep, tmp_path)
    lines = (tmp_path / "results.csv").read_text().strip().split("\n")
    assert len(lines) == 82  # header + 81 rows
    data = json.loads((tmp_path / "results.json").read_text())
    assert len(data) == 81


def test_sweep_deterministic(speech_wav, short_sweep, tmp_path):
    again = run_sweep(speech_wav, seeds=[0], duration_s=2.0, workers=1)
    a, b = tmp_path / "a", tmp_path / "b"
    write_sweep_outputs(short_sweep, a)
    write_sweep_outputs(again, b)
    assert (a / "results.csv").read_bytes() == (b / "results.csv").read_bytes()
    assert (a / "results.json").read_bytes() == (b / "results.json").read_bytes()


def test_sweep_parallel_matches_serial(speech_wav, short_sweep):
    parallel = run_sweep(speech_wav, seeds=[0], duration_s=2.0, workers=3)
    assert parallel == short_sweep


def test_cmd_sweep(tmp_path, speech_wav):
    code = main(
        [
            "sweep",
            "--output-dir", str(tmp_path / "sw"),
            "--speech", speech_wav,
            "--duration", "2.0",
            "--workers", "2",
        ]
    )
    assert code == 0
    assert (tmp_path / "sw" / "results.csv").exists()


def test_cmd_sweep_bad_seeds(tmp_path, speech_wav):
    code = main(
        ["sweep", "--output-dir", str(tmp_path), "--speech", speech_wav, "--seeds", "x,y"]
    )
    assert code == 2


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_cmd_sweep_bad_workers_exit_2(tmp_path, speech_wav, capsys, workers):
    code = main(
        [
            "sweep",
            "--output-dir", str(tmp_path / "sw"),
            "--speech", speech_wav,
            "--duration", "2.0",
            "--workers", workers,
        ]
    )
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and workers in err[0]
    assert not (tmp_path / "sw").exists()


def test_cmd_sweep_cell_failure_exit(tmp_path, speech_wav, monkeypatch):
    import egomwf.cli as cli

    real = cli.run_cell
    def broken(scene, cell):
        if cell.method == "pk-mwf" and cell.scene.target_snr_db == -10.0:
            raise ValueError("injected failure")
        return real(scene, cell)

    monkeypatch.setattr(cli, "run_cell", broken)
    code = main(
        [
            "sweep",
            "--output-dir", str(tmp_path / "sw"),
            "--speech", speech_wav,
            "--duration", "2.0",
            "--workers", "1",
        ]
    )
    assert code == 3
    rows = json.loads((tmp_path / "sw" / "results.json").read_text())
    failed = [r for r in rows if r["status"] != "ok"]
    assert len(failed) == 9  # 3 partitions x 3 spp modes at -10 dB
    assert all("injected failure" in r["status"] for r in failed)


def test_cli_output_matches_library_bytes(tmp_path, scene_dir, config_file):
    """The CLI writes byte-identical audio to a direct library call."""
    from egomwf.audio_io import write_wav
    from egomwf.pipeline import enhance

    out_cli = tmp_path / "cli.wav"
    assert main(
        [
            "enhance",
            "--input", str(scene_dir / "mixture.wav"),
            "--output", str(out_cli),
            "--config", config_file,
        ]
    ) == 0
    cfg = load_config(config_file)
    result = enhance(read_wav(scene_dir / "mixture.wav"), cfg)
    out_lib = tmp_path / "lib.wav"
    write_wav(result.enhanced, out_lib, "32f")
    assert out_cli.read_bytes() == out_lib.read_bytes()


def test_sweep_marks_package_error_row_failed(speech_wav, monkeypatch):
    import egomwf.cli as cli
    from egomwf.filters import FilterError
    from egomwf.scenegen import default_suite

    cells = default_suite(speech_wav, seed=0)[:2]
    real = cli.run_cell

    def broken(scene, cell):
        if cell is cells[0]:
            raise FilterError("singular noise-reference Gram matrix")
        return real(scene, cell)

    monkeypatch.setattr(cli, "run_cell", broken)
    rows = cli._run_scene_group((replace(cells[0].scene, duration_s=2.0), cells))
    assert rows[0]["status"] == "failed: singular noise-reference Gram matrix"
    assert rows[1]["status"] == "ok"


# ------------------------------------------------------- shared scene work


def _short_scene_group(speech_wav):
    from egomwf.scenegen import default_suite

    cells = [c for c in default_suite(speech_wav, seed=0) if c.scene.target_snr_db == -10.0]
    assert len(cells) == 27
    return replace(cells[0].scene, duration_s=2.0), cells


def test_scene_group_rows_match_per_cell_path(speech_wav):
    """Every cell run on the shared grids, masks and covariances gives the
    row of a standalone enhance + evaluate on the same scene."""
    import egomwf.cli as cli
    from egomwf.metrics import evaluate
    from egomwf.pipeline import enhance

    scene_cfg, cells = _short_scene_group(speech_wav)
    rows = cli._run_scene_group((scene_cfg, cells))
    scene = render_scene(scene_cfg)
    ext = scene.manifest["channels"]["external"]
    assert len(rows) == len(cells)
    for row, cell in zip(rows, cells):
        cfg = EnhanceConfig(
            partition=cell.partition,
            spp_mode=cell.spp_mode,
            spp_channel=ext if cell.spp_mode == "external" else None,
            method=cell.method,
        )
        result = enhance(scene.mixture, cfg, scene.speech_image, scene.noise_image)
        report = evaluate(result, scene.speech_image.channel(0), scene.mixture.channel(0))
        assert row["status"] == "ok"
        assert {k: row[k] for k in cell.key()} == cell.key()
        for key in ("snr_in_db", "snr_out_db", "snr_improvement_db",
                    "stoi_in", "stoi_out", "stoi_improvement"):
            assert abs(row[key] - getattr(report, key)) <= 1e-12, (cell.key(), key)


def test_scene_group_stft_count_does_not_grow_with_cells(speech_wav, monkeypatch):
    import egomwf.cli as cli
    import egomwf.pipeline
    import egomwf.scenegen

    calls = []
    for module in (egomwf.pipeline, egomwf.scenegen):
        real = module.analyze

        def counted(*args, _real=real, **kwargs):
            calls.append(1)
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, "analyze", counted)
    scene_cfg, cells = _short_scene_group(speech_wav)
    counts = []
    # the first nine cells hold every SPP mode and method, for one array size
    for group in (cells[:9], cells):
        calls.clear()
        rows = cli._run_scene_group((scene_cfg, group))
        assert all(r["status"] == "ok" for r in rows)
        counts.append(len(calls))
    assert counts[0] == counts[1]
    assert counts[1] <= 10
