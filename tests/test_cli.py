import json
import pickle
from itertools import product

import numpy as np
import pytest

from egomwf.audio_io import AudioClip, read_wav, write_wav
from egomwf.cli import main, run_sweep, write_sweep_outputs
from egomwf.config import ConfigError, EnhanceConfig, load_config, parse_config
from egomwf.filters import METHODS
from egomwf.metrics import stoi
from egomwf.scenegen import SceneConfig, render_scene, suite_partition, write_scene
from egomwf.spp import SPP_MODES


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
        {"spp": {"bogus": 1}},
        {"partition": {"speech_noise_channels": [0], "bogus": 1}},
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
    # overlapping channels reported from the partition section, and every
    # violation on the one line
    assert len(err.value.violations) >= 2
    assert "\n" not in text and text.count("; ") == len(err.value.violations) - 1


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


_PARTITION = '"partition": {"speech_noise_channels": [0, 1, 2, 3]}'
# strings where a number belongs, numeric-looking or not
STRING_NUMBERS = [
    f'{{{_PARTITION}, "delta": "0.5"}}',
    f'{{{_PARTITION}, "spp": {{"xi_h1_db": " 30 "}}}}',
    f'{{{_PARTITION}, "spp": {{"xi_h1": "2.0"}}}}',
    f'{{{_PARTITION}, "spp": {{"alpha_psd": "0.5"}}}}',
    f'{{{_PARTITION}, "spp": {{"spp_cap": "0.5"}}}}',
    f'{{{_PARTITION}, "spp": {{"threshold": "0.5"}}}}',
]

BAD_CONFIGS = [
    '{"method": "nope"}',
    # integers given as floats or bools
    f'{{{_PARTITION}, "stft": {{"fft_size": 512.0}}}}',
    f'{{{_PARTITION}, "stft": {{"hop": true}}}}',
    # the hop is always half of fft_size and cannot be set
    f'{{{_PARTITION}, "stft": {{"hop": 256}}}}',
    f'{{{_PARTITION}, "stft": {{"hop": 128}}}}',
    f'{{{_PARTITION}, "stft": {{"sample_rate_hz": 16000.5}}}}',
    f'{{{_PARTITION}, "spp": {{"init_frames": 2.5}}}}',
    f'{{{_PARTITION}, "spp": {{"init_frames": true}}}}',
    # bools where a number belongs
    f'{{{_PARTITION}, "delta": true}}',
    f'{{{_PARTITION}, "spp": {{"xi_h1": true}}}}',
    f'{{{_PARTITION}, "spp": {{"xi_h1_db": true}}}}',
    *STRING_NUMBERS,
    # the speech a-priori SNR set twice, linear and in dB
    f'{{{_PARTITION}, "spp": {{"xi_h1": 2.0, "xi_h1_db": 30}}}}',
    # numbers that do not parse, overflow or are not finite
    f'{{{_PARTITION}, "spp": {{"xi_h1_db": "x"}}}}',
    f'{{{_PARTITION}, "spp": {{"xi_h1_db": 4000}}}}',
    f'{{{_PARTITION}, "spp": {{"xi_h1": 1e400}}}}',
    f'{{{_PARTITION}, "delta": NaN}}',
    f'{{{_PARTITION}, "delta": Infinity}}',
    # channel numbers that are not non-negative integers
    f'{{{_PARTITION}, "spp_channel": 1.5}}',
    '{"partition": {"speech_noise_channels": [0.5, 1]}}',
    '{"partition": {"speech_noise_channels": [true, 2]}}',
    '{"partition": {"speech_noise_channels": "01"}}',
    '{"partition": {"speech_noise_channels": [0, 1], "ref_channel": 0.5}}',
    '{"partition": {"speech_noise_channels": [0, 1], "ref_channel": true}}',
    '{"partition": {"speech_noise_channels": [-1, 0]}}',
    # two violations still make one line
    '{"partition": {"speech_noise_channels": [0, 1], "noise_only_channels": [1]}, "x": 1}',
]


def test_cmd_enhance_bad_config_exit_2(tmp_path, scene_dir, capsys):
    bad = tmp_path / "bad.json"
    for text in BAD_CONFIGS:
        bad.write_text(text)
        code = main(
            [
                "enhance",
                "--input", str(scene_dir / "mixture.wav"),
                "--output", str(tmp_path / "o.wav"),
                "--config", str(bad),
            ]
        )
        assert code == 2, text
        _assert_one_line_error(capsys)
        assert not (tmp_path / "o.wav").exists()


@pytest.mark.parametrize("text", STRING_NUMBERS)
def test_config_string_number_is_rejected_by_name(text):
    """A numeric-looking string is not parsed as a number: the violation
    names the key and says it must be a number."""
    raw = json.loads(text)
    (key,) = set(raw.get("spp", raw)) - {"partition"}
    with pytest.raises(ConfigError, match=f"{key} must be a number"):
        parse_config(raw)


@pytest.mark.parametrize("kind", ["directory", "not_utf8", "nested_too_deep"])
@pytest.mark.parametrize("command", ["enhance", "simulate"])
def test_unreadable_config_file_exit_2(tmp_path, scene_dir, speech_wav, capsys, command, kind):
    """A config path that names a directory, a file that is not UTF-8 or
    JSON nested past the parser's recursion limit is a config error: exit 2
    with one line, nothing written."""
    path = tmp_path / "config.json"
    if kind == "directory":
        path.mkdir()
    elif kind == "not_utf8":
        path.write_bytes('{"method": "pk-mwf", "note": "caf\xe9"}'.encode("latin-1"))
    else:
        path.write_text("[" * 100_000 + "]" * 100_000)
    if command == "enhance":
        argv = ["enhance", "--input", str(scene_dir / "mixture.wav"),
                "--output", str(tmp_path / "o.wav"), "--config", str(path)]
    else:
        argv = ["simulate", "--scene-config", str(path),
                "--output-dir", str(tmp_path / "out"), "--speech", speech_wav]
    assert main(argv) == 2
    _assert_one_line_error(capsys)
    assert not (tmp_path / "o.wav").exists() and not (tmp_path / "out").exists()


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
    return err


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
    import egomwf.pipeline
    from egomwf.stft import StftError

    real = egomwf.pipeline._frame_spectra
    mixture = read_wav(scene_dir / "mixture.wav")

    def failing(clip, *args, **kwargs):
        # only the shadow components differ from the mixture
        if not np.array_equal(clip.samples, mixture.samples):
            raise StftError("component analysis failed")
        return real(clip, *args, **kwargs)

    monkeypatch.setattr(egomwf.pipeline, "_frame_spectra", failing)
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


def test_cmd_enhance_external_length_mismatch_exit_3(tmp_path, scene_dir, config_file, capsys):
    # a 24000-sample external microphone on a 64000-sample mixture
    ext = read_wav(scene_dir / "external.wav")
    short = tmp_path / "external_short.wav"
    write_wav(AudioClip(ext.samples[:, :24000], ext.sample_rate_hz), short, "32f")
    code = main(["enhance", "--input", str(scene_dir / "mixture.wav"),
                 "--output", str(tmp_path / "o.wav"), "--config", config_file,
                 "--spp-mode", "external", "--external", str(short)])
    assert code == 3
    err = capsys.readouterr().err
    assert err == "error: external microphone has 24000 samples but the input has 64000\n"
    assert not (tmp_path / "o.wav").exists()


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


def test_cmd_enhance_oracle_without_refs_exit_2(tmp_path, scene_dir, config_file, capsys):
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
    _assert_one_line_error(capsys)


def test_cmd_enhance_external_without_channel_exit_2(tmp_path, scene_dir, config_file, capsys):
    code = main(
        [
            "enhance",
            "--input", str(scene_dir / "mixture.wav"),
            "--output", str(tmp_path / "o.wav"),
            "--config", config_file,
            "--spp-mode", "external",
        ]
    )
    assert code == 2
    assert "--external" in _assert_one_line_error(capsys)
    assert not (tmp_path / "o.wav").exists()


@pytest.mark.parametrize(
    "refs, shadow_outs",
    [(["speech"], []), (["noise"], []), (["speech"], ["speech"]), ([], ["speech"]), ([], ["noise"])],
)
def test_cmd_enhance_half_reference_pair_exit_2(
    tmp_path, scene_dir, config_file, capsys, refs, shadow_outs
):
    """A ground-truth reference without its partner, or a shadow output
    without both references, is a usage error, not a silent no-op."""
    flags = [a for r in refs for a in (f"--{r}-ref", str(scene_dir / f"{r}.wav"))]
    flags += [a for s in shadow_outs for a in (f"--shadow-{s}-out", str(tmp_path / f"sh_{s}.wav"))]
    code = main(
        [
            "enhance",
            "--input", str(scene_dir / "mixture.wav"),
            "--output", str(tmp_path / "o.wav"),
            "--config", config_file,
            *flags,
        ]
    )
    assert code == 2
    _assert_one_line_error(capsys)
    assert not list(tmp_path.glob("*.wav"))


@pytest.mark.parametrize("shadow", ["speech", "noise"])
def test_cmd_enhance_shadow_out_from_single_channel_refs_exit_3(
    tmp_path, scene_dir, config_file, capsys, shadow
):
    """Single-channel references can drive an oracle mask but cannot be
    shadow-filtered, so a shadow output asked of them is an error."""
    refs = []
    for name in ("speech", "noise"):
        path = tmp_path / f"{name}_ch0.wav"
        write_wav(read_wav(scene_dir / f"{name}.wav").channel(0), path, "32f")
        refs += [f"--{name}-ref", str(path)]
    code = main(
        [
            "enhance",
            "--input", str(scene_dir / "mixture.wav"),
            "--output", str(tmp_path / "o.wav"),
            "--config", config_file,
            *refs,
            f"--shadow-{shadow}-out", str(tmp_path / "sh.wav"),
        ]
    )
    assert code == 3
    assert "every filter channel" in _assert_one_line_error(capsys)
    assert not (tmp_path / "o.wav").exists() and not (tmp_path / "sh.wav").exists()


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
        # integers given as floats, strings or bools
        {"seed": 1.5},
        {"seed": "abc"},
        {"seed": True},
        {"sample_rate_hz": 16000.5},
        # dB fields that are not finite numbers
        {"coupling_own_db": "x"},
        {"sensor_noise_db": None},
        {"target_snr_db": float("nan")},
        # rotor speeds that are not finite real numbers
        {"rotor_speeds_rpm": [float("nan"), 3920.0, 4040.0, 3960.0]},
        {"rotor_speeds_rpm": [float("inf"), 3920.0, 4040.0, 3960.0]},
        {"rotor_speeds_rpm": [True, 3920.0, 4040.0, 3960.0]},
        # a seed numpy's generators cannot take
        {"seed": -1},
        # so fast that no blade-pass partial falls below 0.95 x Nyquist
        {"rotor_speeds_rpm": [300000.0, 4000.0, 4000.0, 4000.0]},
        # the speech comes from --speech alone
        {"speech_path": 5},
        {"speech_path": None},
        {"speech_path": "other.wav"},
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
    extra = {"simulate": ["--scene-config", str(scene_cfg)], "sweep": []}
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
    direct = stoi(read_wav(clean), read_wav(noisy))
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


@pytest.mark.parametrize("given", ["speech", "noise"])
def test_cmd_evaluate_half_shadow_pair_exit_2(tmp_path, scene_dir, capsys, given):
    """One shadow component without the other cannot give an output SNR."""
    mixture = str(scene_dir / "mixture.wav")
    report = tmp_path / "r.json"
    code = main(["evaluate", "--clean", str(scene_dir / "speech.wav"), "--processed", mixture,
                 "--noisy", mixture, f"--shadow-{given}", mixture, "--report", str(report)])
    assert code == 2
    _assert_one_line_error(capsys)
    assert not report.exists()


def test_cmd_evaluate_processed_rate_mismatch_exit_3(tmp_path, scene_dir, capsys):
    mixture = read_wav(scene_dir / "mixture.wav").channel(0)
    paths = {name: tmp_path / f"{name}.wav" for name in ("clean", "noisy", "processed")}
    write_wav(read_wav(scene_dir / "speech.wav").channel(0), paths["clean"], "32f")
    write_wav(mixture, paths["noisy"], "32f")
    write_wav(AudioClip(mixture.samples, 8000), paths["processed"], "32f")
    code = main(["evaluate", *(f"--{name}={path}" for name, path in paths.items()),
                 "--report", str(tmp_path / "r.json")])
    assert code == 3
    err = capsys.readouterr().err
    assert err == "error: rate mismatch: clean 16000 Hz vs processed 8000 Hz\n"
    assert not (tmp_path / "r.json").exists()


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
    return run_sweep(speech_wav, seeds=[0], duration_s=2.0)


def test_sweep_produces_all_cells(short_sweep):
    assert len(short_sweep) == 81
    assert all(row["status"] == "ok" for row in short_sweep)
    snrs = {row["snr_db"] for row in short_sweep}
    assert snrs == {-20.0, -10.0, 0.0}


def test_run_sweep_runs_every_snr_given(speech_wav, short_sweep):
    rows = run_sweep(speech_wav, seeds=[0], duration_s=2.0, snrs=(5.0,))
    assert len(rows) == 27
    assert all(r["snr_db"] == 5.0 and r["status"] == "ok" for r in rows)
    key_fields = ("seed", "snr_db", "m_speech_noise", "m_noise_only", "spp_mode", "method")
    assert len({tuple(r[k] for k in key_fields) for r in short_sweep}) == 81
    for row in short_sweep + rows:
        part = suite_partition(row["m_speech_noise"])
        assert not set(part.speech_noise_channels) & set(part.noise_only_channels)
        assert row["m_noise_only"] == part.n_noise_only
        assert row["m_speech_noise"] + row["m_noise_only"] <= 16
        assert row["spp_mode"] in SPP_MODES and row["method"] in METHODS


def test_sweep_outputs_and_shape(tmp_path, short_sweep):
    write_sweep_outputs(short_sweep, tmp_path)
    lines = (tmp_path / "results.csv").read_text().strip().split("\n")
    assert len(lines) == 82  # header + 81 rows
    data = json.loads((tmp_path / "results.json").read_text())
    assert len(data) == 81


def test_sweep_deterministic(speech_wav, short_sweep, tmp_path):
    again = run_sweep(speech_wav, seeds=[0], duration_s=2.0)
    a, b = tmp_path / "a", tmp_path / "b"
    write_sweep_outputs(short_sweep, a)
    write_sweep_outputs(again, b)
    assert (a / "results.csv").read_bytes() == (b / "results.csv").read_bytes()
    assert (a / "results.json").read_bytes() == (b / "results.json").read_bytes()


def test_cmd_sweep(tmp_path, speech_wav):
    code = main(
        [
            "sweep",
            "--output-dir", str(tmp_path / "sw"),
            "--speech", speech_wav,
            "--duration", "2.0",
        ]
    )
    assert code == 0
    assert (tmp_path / "sw" / "results.csv").exists()


@pytest.mark.parametrize("seeds", ["x,y", "-1", "0,0"])
def test_cmd_sweep_bad_seeds(tmp_path, speech_wav, capsys, seeds):
    """A seed list that is not distinct integers >= 0 exits 2 before any render."""
    code = main(
        ["sweep", "--output-dir", str(tmp_path / "sw"), "--speech", speech_wav, "--seeds", seeds]
    )
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: bad --seeds")
    assert not (tmp_path / "sw").exists()


def test_cmd_sweep_workers_flag_usage_error(tmp_path, speech_wav, capsys):
    """The sweep runs in one process; there is no --workers flag."""
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--output-dir", str(tmp_path / "sw"), "--speech", speech_wav,
              "--workers", "2"])
    assert exc.value.code == 2
    assert "usage" in capsys.readouterr().err
    assert not (tmp_path / "sw").exists()


def test_cmd_sweep_cell_failure_exit(tmp_path, speech_wav, monkeypatch):
    import egomwf.cli as cli

    real = cli.run_cell
    def broken(analysis, inputs, cfg):
        if cfg.method == "pk-mwf" and round(inputs.snr_in_db) == -10:
            raise ValueError("injected failure")
        return real(analysis, inputs, cfg)

    monkeypatch.setattr(cli, "run_cell", broken)
    code = main(
        [
            "sweep",
            "--output-dir", str(tmp_path / "sw"),
            "--speech", speech_wav,
            "--duration", "2.0",
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

    real = cli.run_cell

    def broken(analysis, inputs, cfg):
        if (cfg.partition.n_speech_noise, cfg.spp_mode, cfg.method) == (4, "internal", "mwf"):
            raise FilterError("singular noise-reference Gram matrix")
        return real(analysis, inputs, cfg)

    monkeypatch.setattr(cli, "run_cell", broken)
    monkeypatch.setattr(cli, "DEFAULT_ARRAY_SIZES", (4,))
    rows = cli._run_scene_group(SceneConfig(speech_wav, target_snr_db=-20.0, duration_s=2.0), 1)
    assert len(rows) == 9
    assert rows[0]["status"] == "failed: singular noise-reference Gram matrix"
    assert all(r["status"] == "ok" for r in rows[1:])


# ------------------------------------------------------------- BLAS threads


def _nine_cell_sweep(speech_wav):
    return run_sweep(speech_wav, seeds=[0], duration_s=2.0, snrs=(-10.0,))


def test_sweep_cells_run_on_one_blas_thread_and_restore_it(speech_wav, monkeypatch, blas_threads):
    import egomwf.cli as cli

    before = blas_threads()
    real = cli.run_cell
    seen = []

    def counted(*args):
        seen.append(blas_threads())
        return real(*args)

    monkeypatch.setattr(cli, "run_cell", counted)
    monkeypatch.setattr(cli, "DEFAULT_ARRAY_SIZES", (4,))
    rows = _nine_cell_sweep(speech_wav)
    assert all(r["status"] == "ok" for r in rows)
    assert seen == [1] * 9
    assert blas_threads() == before

    def broken(*args):
        raise RuntimeError("not a processing error")

    monkeypatch.setattr(cli, "run_cell", broken)
    with pytest.raises(RuntimeError):
        _nine_cell_sweep(speech_wav)
    assert blas_threads() == before


def test_sweep_without_blas_pin_runs_one_lane_with_same_rows(speech_wav, monkeypatch):
    import threading

    import egomwf.cli as cli
    import egomwf.scenegen

    monkeypatch.setattr(cli, "DEFAULT_ARRAY_SIZES", (4,))
    pinned = _nine_cell_sweep(speech_wav)
    real = cli.run_cell
    threads = set()

    def recorded(*args):
        threads.add(threading.get_ident())
        return real(*args)

    def no_library(*args, **kwargs):
        raise OSError("no such library")

    monkeypatch.setattr(cli, "run_cell", recorded)
    monkeypatch.setattr(egomwf.scenegen, "CDLL", no_library)
    unpinned = _nine_cell_sweep(speech_wav)
    assert json.dumps(unpinned, sort_keys=True) == json.dumps(pinned, sort_keys=True)
    assert threads == {threading.get_ident()}


@pytest.mark.parametrize("lanes", [1, 2])
def test_sweep_mask_error_fails_exactly_its_mode(speech_wav, monkeypatch, lanes):
    import egomwf.cli as cli
    import egomwf.pipeline
    from egomwf.pipeline import PipelineError

    calls = []

    def no_oracle(*args, **kwargs):
        calls.append(1)
        raise PipelineError("oracle mask unavailable")

    monkeypatch.setattr(egomwf.pipeline, "make_oracle_mask", no_oracle)
    rows = cli._run_scene_group(_short_scene_cfg(speech_wav), lanes)
    # built once per scene, not retried by each of the mode's cells
    assert len(calls) == 1
    assert len(rows) == 27
    failed = [r for r in rows if r["spp_mode"] == "oracle"]
    assert len(failed) == 9
    assert all(r["status"] == "failed: oracle mask unavailable" for r in failed)
    assert all(r["status"] == "ok" for r in rows if r["spp_mode"] != "oracle")


def test_sweep_bank_error_fails_exactly_its_cells(speech_wav, monkeypatch):
    """A filter bank that raises while the scene prepares its cells fails
    those cells' rows with its message; the other cells keep their
    prepared shadows. Each bank is built once: a failed one is not built
    again by its cell."""
    import egomwf.cli as cli
    import egomwf.pipeline
    from egomwf.filters import FilterError

    real = egomwf.pipeline.build_filterbank
    calls = []

    def singular(stats, partition, method, delta):
        calls.append(method)
        if method == "mwf":
            raise FilterError("singular noise-reference Gram matrix")
        return real(stats, partition, method, delta)

    monkeypatch.setattr(egomwf.pipeline, "build_filterbank", singular)
    monkeypatch.setattr(cli, "DEFAULT_ARRAY_SIZES", (4,))
    rows = cli._run_scene_group(_short_scene_cfg(speech_wav), 2)
    assert sorted(calls) == sorted(METHODS * len(SPP_MODES))
    failed = [r for r in rows if r["method"] == "mwf"]
    assert len(failed) == 3
    assert all(r["status"] == "failed: singular noise-reference Gram matrix" for r in failed)
    assert all(r["status"] == "ok" and r["snr_out_db"] is not None
               for r in rows if r["method"] != "mwf")


def test_scene_group_error_stops_cells_not_started(speech_wav, monkeypatch):
    """A cell raising a non-processing error ends the scene group: the
    cells not yet started never run, on one lane or two."""
    import time

    import egomwf.cli as cli

    for lanes in (1, 2):
        started = []

        def first_cell_breaks(analysis, inputs, cfg):
            cell = (cfg.partition.n_speech_noise, cfg.spp_mode, cfg.method)
            started.append(cell)
            if cell == (4, SPP_MODES[0], METHODS[0]):  # the first cell in product order
                raise RuntimeError("not a processing error")
            time.sleep(0.05)
            return {}

        monkeypatch.setattr(cli, "run_cell", first_cell_breaks)
        with pytest.raises(RuntimeError, match="not a processing error"):
            cli._run_scene_group(_short_scene_cfg(speech_wav), lanes)
        assert len(started) <= lanes


# ------------------------------------------------------- shared scene work

_SCORE_KEYS = ("snr_in_db", "snr_out_db", "snr_improvement_db",
               "stoi_in", "stoi_out", "stoi_improvement")


def _short_scene_cfg(speech_wav):
    return SceneConfig(speech_wav, target_snr_db=-10.0, seed=0, duration_s=2.0)


def test_scene_group_rows_match_per_cell_path(speech_wav):
    """Every cell run on the shared grids, masks and covariances gives the
    row of a standalone enhance + evaluate on the same scene."""
    import egomwf.cli as cli
    from egomwf.metrics import evaluate
    from egomwf.pipeline import enhance

    scene_cfg = _short_scene_cfg(speech_wav)
    rows = cli._run_scene_group(scene_cfg, 1)
    scene = render_scene(scene_cfg)
    ext = scene.manifest["channels"]["external"]
    cells = list(product(cli.DEFAULT_ARRAY_SIZES, SPP_MODES, METHODS))
    assert len(rows) == len(cells) == 27
    for row, (m_speech_noise, spp_mode, method) in zip(rows, cells):
        partition = suite_partition(m_speech_noise)
        cfg = EnhanceConfig(
            partition=partition,
            spp_mode=spp_mode,
            spp_channel=ext if spp_mode == "external" else None,
            method=method,
        )
        result = enhance(scene.mixture, cfg, scene.speech_image, scene.noise_image)
        report = evaluate(result, scene.speech_image.channel(0), scene.mixture.channel(0))
        key = {"seed": 0, "snr_db": -10.0, "m_speech_noise": m_speech_noise,
               "m_noise_only": partition.n_noise_only, "spp_mode": spp_mode, "method": method}
        assert row.keys() == {*key, *_SCORE_KEYS, "status"}
        assert row["status"] == "ok"
        assert {k: row[k] for k in key} == key
        for name in _SCORE_KEYS:
            assert abs(row[name] - getattr(report, name)) <= 1e-12, (key, name)


def test_scene_group_builds_shared_work_once_on_many_lanes(speech_wav, monkeypatch):
    """More lanes than cores, switching threads often: each covariance and
    the input scores are still built once, and the rows do not change."""
    import sys

    import egomwf.cli as cli
    import egomwf.pipeline

    calls = []
    for module, name in ((egomwf.pipeline, "estimate_correlations"), (cli, "score_input")):
        real = getattr(module, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    scene_cfg = _short_scene_cfg(speech_wav)
    serial = cli._run_scene_group(scene_cfg, 1)
    calls.clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        crowded = cli._run_scene_group(scene_cfg, 8)
    finally:
        sys.setswitchinterval(interval)
    assert crowded == serial
    assert sorted(calls) == ["estimate_correlations"] * len(SPP_MODES) + ["score_input"]


def test_scene_group_builds_each_cell_config_once(speech_wav, monkeypatch):
    """A cell is one EnhanceConfig: each is built once per scene, and its
    cell runs on the very object the analysis was prepared for."""
    import egomwf.cli as cli

    built, handed = [], []

    def counted(*args, **kwargs):
        built.append(EnhanceConfig(*args, **kwargs))
        return built[-1]

    real = cli.run_cell

    def recorded(analysis, inputs, cfg):
        handed.append((cfg, any(cfg is key for key in analysis._runs)))
        return real(analysis, inputs, cfg)

    monkeypatch.setattr(cli, "EnhanceConfig", counted)
    monkeypatch.setattr(cli, "run_cell", recorded)
    monkeypatch.setattr(cli, "DEFAULT_ARRAY_SIZES", (4,))
    rows = cli._run_scene_group(_short_scene_cfg(speech_wav), 2)
    assert all(r["status"] == "ok" for r in rows)
    assert len(built) == len(rows) == 9
    assert all(prepared for _, prepared in handed)
    assert sorted(map(id, built)) == sorted(id(cfg) for cfg, _ in handed)


def test_scene_group_frees_component_grids_and_images(speech_wav):
    """A 2 s scene's 27 cells peak at 44 MB traced: the mixture grid, the
    speech image while its pass runs, the cells' speech shadows and the
    pass's block buffers. Holding a 16-channel grid of a component (8.2
    MB) or the mixture and noise images (8.7 MB) through that pass, as
    before the shadows were filtered straight from the speech image,
    lifts the peak past the 48 MB bound."""
    import tracemalloc

    import egomwf.cli as cli

    scene_cfg = SceneConfig(speech_wav, target_snr_db=-10.0, seed=0, duration_s=2.0)
    tracemalloc.start()
    try:
        rows = cli._run_scene_group(scene_cfg, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(r["status"] == "ok" for r in rows)
    assert peak < 48e6, peak


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
    scene_cfg = _short_scene_cfg(speech_wav)
    counts = []
    # one array size gives nine cells: every SPP mode and method
    for sizes in ((4,), (4, 8, 12)):
        monkeypatch.setattr(cli, "DEFAULT_ARRAY_SIZES", sizes)
        calls.clear()
        rows = cli._run_scene_group(scene_cfg, 1)
        assert len(rows) == 9 * len(sizes)
        assert all(r["status"] == "ok" for r in rows)
        counts.append(len(calls))
    assert counts[0] == counts[1]
    assert counts[1] <= 10
