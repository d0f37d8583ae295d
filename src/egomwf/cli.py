"""Command-line surface: enhance, simulate, evaluate, sweep.

Exit codes: 0 success, 2 configuration/usage error, 3 processing error;
main alone maps a ConfigError to 2 and any other processing error to 3.
JSON for configs and reports, CSV for the sweep table. The enhance
config file holds processing settings only; every file path comes from a
flag. The evaluate report is metrics.score_input on the clean/noisy pair
followed by metrics.score_output on the processed file. The sweep runs
one scene per seed and SNR, one after another in this process, and on
each scene every array size x SPP mode x method.

A sweep cell is one EnhanceConfig. Before a scene's cells start,
_run_scene_group builds what they share: the input scores, then one
InputAnalysis of the mixture on the 16 array and propeller channels
(its STFT grid, one mask and covariance per SPP mode) prepared for every
cell (its filter bank, and the speech image filtered for all cells in
one pass). A failure there fails exactly the cells it serves; a cell
then filters the mixture grid and scores. A scene holds BLAS at one
thread; its cells run on one thread per usable core (those of a scene
whose pin does not take, on one).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import asdict, replace
from itertools import product
from pathlib import Path

from .audio_io import AudioClip, read_wav, write_wav
from .config import ConfigError, EnhanceConfig, load_config
from .errors import EgomwfError
from .filters import METHODS
from .metrics import InputScores, score_input, score_output
from .pipeline import InputAnalysis, PipelineError, enhance
from .scenegen import DEFAULT_ARRAY_SIZES, DEFAULT_SNRS_DB, SceneConfig, SceneError, one_blas_thread
from .scenegen import render_scene, spread, suite_partition, usable_cores, write_scene
from .spp import SPP_MODES
from .stft import StftParams

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PROCESSING = 3

# every package exception derives from EgomwfError; OSError and ValueError
# cover file-system failures and invalid arrays from numpy
PROCESSING_ERRORS = (EgomwfError, OSError, ValueError)


def _fail_config(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return EXIT_CONFIG


def cmd_enhance(args: argparse.Namespace) -> int:
    if bool(args.speech_ref) != bool(args.noise_ref):
        return _fail_config("--speech-ref and --noise-ref must be given together")
    if not args.speech_ref and (args.shadow_speech_out or args.shadow_noise_out):
        return _fail_config("--shadow-*-out needs --speech-ref and --noise-ref")
    overrides = {key: getattr(args, key) for key in ("method", "spp_mode", "spp_channel")}
    cfg = load_config(args.config, overrides)
    clip = read_wav(args.input, args.external)
    if cfg.spp_mode == "external" and cfg.spp_channel is None:
        if args.external is None:
            return _fail_config("external SPP mode needs --external or --spp-channel")
        cfg = replace(cfg, spp_channel=clip.n_channels - 1)
    if cfg.spp_mode == "oracle" and not args.speech_ref:
        return _fail_config("oracle SPP mode needs --speech-ref and --noise-ref")
    refs = (args.speech_ref, args.noise_ref)  # both or neither
    speech_ref, noise_ref = [read_wav(path) if path else None for path in refs]
    t0 = time.perf_counter()
    result = enhance(clip, cfg, speech_ref, noise_ref)
    elapsed = time.perf_counter() - t0
    if (args.shadow_speech_out or args.shadow_noise_out) and result.shadow_speech is None:
        raise PipelineError("--shadow-*-out: the references do not carry every filter channel")
    write_wav(result.enhanced, args.output, "32f")
    if args.shadow_speech_out:
        write_wav(result.shadow_speech, args.shadow_speech_out, "32f")
    if args.shadow_noise_out:
        write_wav(result.shadow_noise, args.shadow_noise_out, "32f")
    if args.report:
        report = {
            "config": asdict(cfg),
            "per_bin_status_counts": result.status_counts(),
            "spp_activity_fraction": result.mask.activity_fraction(),
            "filter_compute_seconds": result.filterbank.compute_seconds,
            "elapsed_seconds": elapsed,
        }
        Path(args.report).write_text(json.dumps(report, indent=2, sort_keys=True))
    print(f"wrote {args.output}")
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    if not args.scene_config:
        return _fail_config("need --scene-config")
    cfg_path = Path(args.scene_config)
    if not cfg_path.is_file():
        return _fail_config(f"scene config not found: {cfg_path}")
    try:
        raw = json.loads(cfg_path.read_text())
        # a non-object, an unknown key (geometry is fixed) or speech_path
        # (--speech is its only source) is a TypeError
        cfg = SceneConfig(args.speech, **raw)
        if args.duration is not None:
            cfg = replace(cfg, duration_s=args.duration)
    except (TypeError, json.JSONDecodeError, UnicodeDecodeError, RecursionError, SceneError) as exc:
        return _fail_config(f"bad scene config: {exc}")
    write_scene(render_scene(cfg), Path(args.output_dir))
    print(f"wrote scene under {args.output_dir}")
    return EXIT_OK


def _reference_channel(path: str) -> AudioClip:
    """First (reference) channel of a possibly multichannel WAV."""
    return read_wav(path).channel(0)


def cmd_evaluate(args: argparse.Namespace) -> int:
    if bool(args.shadow_speech) != bool(args.shadow_noise):
        return _fail_config("--shadow-speech and --shadow-noise must be given together")
    shadows = (args.shadow_speech, args.shadow_noise)  # both or neither
    shadow_speech, shadow_noise = [_reference_channel(path) if path else None for path in shadows]
    inputs = score_input(_reference_channel(args.clean), _reference_channel(args.noisy))
    report = score_output(inputs, _reference_channel(args.processed), shadow_speech, shadow_noise)
    Path(args.report).write_text(json.dumps(asdict(report), indent=2, sort_keys=True))
    print(f"wrote {args.report}")
    return EXIT_OK


def run_cell(analysis: InputAnalysis, inputs: InputScores, cfg: EnhanceConfig) -> dict:
    """One sweep cell on its scene's prepared analysis; returns its scores."""
    result = analysis.enhance(cfg)
    scores = asdict(score_output(inputs, result.enhanced, result.shadow_speech, result.shadow_noise))
    del scores["flags"]
    return scores


def _run_scene_group(scene_cfg: SceneConfig, lanes: int) -> list[dict]:
    """Render one scene and run every array size x SPP mode x method on it,
    on `lanes` threads counting the caller; rows come back in product order.
    Each cell is one EnhanceConfig, keyed to its row labels."""
    with one_blas_thread() as pinned:
        lanes = lanes if pinned else 1
        scene = render_scene(scene_cfg)
        channels, ref = scene.manifest["channels"], scene.manifest["reference_channel"]
        cells = {}
        for m, spp_mode, method in product(DEFAULT_ARRAY_SIZES, SPP_MODES, METHODS):
            partition = suite_partition(m)
            spp_channel = channels["external"] if spp_mode == "external" else None
            cfg = EnhanceConfig(partition, spp_mode=spp_mode, spp_channel=spp_channel, method=method)
            cells[cfg] = {
                "seed": scene_cfg.seed,
                "snr_db": scene_cfg.target_snr_db,
                "m_speech_noise": partition.n_speech_noise,
                "m_noise_only": partition.n_noise_only,
                "spp_mode": spp_mode,
                "method": method,
            }
        inputs = score_input(scene.speech_image.channel(ref), scene.mixture.channel(ref))
        images = scene.mixture, StftParams(), scene.speech_image, scene.noise_image
        analysis = InputAnalysis(*images, channels["array"] + channels["propeller"], list(cells))
        del scene, images  # the analysis keeps the speech image alone, for its pass
        analysis.prepare(lanes)

        def run(cfg: EnhanceConfig) -> dict:
            row = dict(cells[cfg])
            try:
                row.update(run_cell(analysis, inputs, cfg), status="ok")
            except PROCESSING_ERRORS as exc:
                row["status"] = f"failed: {exc}"
            return row

        return spread(run, list(cells), lanes)


CSV_COLUMNS = [
    "seed", "snr_db", "m_speech_noise", "m_noise_only", "spp_mode", "method",
    "snr_in_db", "snr_out_db", "snr_improvement_db",
    "stoi_in", "stoi_out", "stoi_improvement", "status",
]


def run_sweep(
    speech_path: str,
    seeds: list[int],
    duration_s: float | None = None,
    snrs: tuple[float, ...] = DEFAULT_SNRS_DB,
    workers: int | None = None,
) -> list[dict]:
    """The full grid for every seed and SNR, one scene at a time on every
    usable core; rows come back in deterministic order. `workers` is
    ignored; the next benchmark change stops passing it and removes it."""
    tasks = [SceneConfig(speech_path, target_snr_db=float(snr), seed=seed, duration_s=duration_s)
             for seed in seeds for snr in snrs]
    grouped = [_run_scene_group(t, usable_cores()) for t in tasks]
    rows = [row for group in grouped for row in group]
    rows.sort(key=lambda r: (r["seed"], r["snr_db"], r["m_speech_noise"], r["spp_mode"], r["method"]))
    return rows


def write_sweep_outputs(rows: list[dict], out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "results.json").write_text(json.dumps(rows, indent=2, sort_keys=True))
    with open(out_dir / "results.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _fmt_csv(row.get(k)) for k in CSV_COLUMNS})


def _fmt_csv(value) -> str:
    return "" if value is None else repr(value) if isinstance(value, float) else str(value)


def cmd_sweep(args: argparse.Namespace) -> int:
    try:
        seeds = [int(s) for s in args.seeds.split(",")]
    except ValueError:
        return _fail_config(f"bad --seeds list: {args.seeds!r}")
    if min(seeds) < 0 or len(set(seeds)) < len(seeds):
        return _fail_config(f"bad --seeds list: {args.seeds!r} (need distinct seeds >= 0)")
    t0 = time.perf_counter()
    rows = run_sweep(args.speech, seeds, duration_s=args.duration)
    elapsed = time.perf_counter() - t0
    write_sweep_outputs(rows, Path(args.output_dir))
    failures = [r for r in rows if r["status"] != "ok"]
    print(f"{len(rows)} cells in {elapsed:.1f}s, {len(failures)} failed")
    for row in failures:
        print(f"  failed cell: {row}")
    return EXIT_PROCESSING if failures else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="egomwf", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enhance", help="run the enhancement pipeline on a WAV")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--method", choices=METHODS)
    p.add_argument("--report")
    p.add_argument("--spp-mode", dest="spp_mode", choices=SPP_MODES)
    p.add_argument("--spp-channel", dest="spp_channel", type=int)
    p.add_argument("--external", help="external-microphone WAV appended as the last channel")
    p.add_argument("--speech-ref", dest="speech_ref", help="ground-truth speech components WAV")
    p.add_argument("--noise-ref", dest="noise_ref", help="ground-truth noise components WAV")
    p.add_argument("--shadow-speech-out", dest="shadow_speech_out",
                   help="write the shadow-filtered speech component here")
    p.add_argument("--shadow-noise-out", dest="shadow_noise_out",
                   help="write the shadow-filtered noise component here")
    p.set_defaults(func=cmd_enhance)

    p = sub.add_parser("simulate", help="render a synthetic scene")
    p.add_argument("--scene-config", dest="scene_config")
    p.add_argument("--output-dir", dest="output_dir", required=True)
    p.add_argument("--speech", required=True)
    p.add_argument("--duration", type=float)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("evaluate", help="objective metrics for a processed file")
    p.add_argument("--clean", required=True)
    p.add_argument("--processed", required=True)
    p.add_argument("--noisy", required=True)
    p.add_argument("--shadow-speech", dest="shadow_speech")
    p.add_argument("--shadow-noise", dest="shadow_noise")
    p.add_argument("--report", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="simulate + enhance + evaluate the whole grid")
    p.add_argument("--output-dir", dest="output_dir", required=True)
    p.add_argument("--speech", required=True)
    p.add_argument("--seeds", default="0")
    p.add_argument("--duration", type=float)
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # simulate and sweep: reject a bad --duration before any work
    duration = getattr(args, "duration", None)
    if duration is not None and not 0 < duration < math.inf:
        return _fail_config(f"--duration must be finite and positive, got {duration}")
    # the one place that turns an error into an exit code
    try:
        return args.func(args)
    except ConfigError as exc:
        return _fail_config(str(exc))
    except PROCESSING_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PROCESSING


if __name__ == "__main__":
    raise SystemExit(main())
