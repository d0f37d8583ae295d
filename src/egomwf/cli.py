"""Command-line surface: enhance, simulate, evaluate, sweep.

Exit codes: 0 success, 2 configuration/usage error, 3 processing error.
JSON for configs and reports, CSV for the sweep table. The enhance
config file holds processing settings only; every file path comes from a
flag. The evaluate report is metrics.score_input on the clean/noisy pair
followed by metrics.score_output on the processed file. The sweep runs
--workers processes, by default min(4, cpu count).

The sweep renders each scene once, and its cells share what does not
depend on method or array size, each part computed on first use: the
STFT grids of the mixture, speech and noise images on the 16 array and
propeller channels (the external microphone is analysed on its own, for
its mask), one mask per SPP mode, one covariance per mask over those 16
channels (a cell's statistics are its principal sub-block on the cell's
own channels) and the input SNR/STOI. Each cell then filters and scores
through the same pipeline and metrics code as enhance and evaluate.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .audio_io import AudioClip, AudioError, read_wav, write_wav
from .config import ConfigError, EnhanceConfig, load_config
from .errors import EgomwfError
from .filters import METHODS
from .metrics import InputScores, score_input, score_output
from .pipeline import EnhanceResult, InputAnalysis, enhance
from .scenegen import (
    DEFAULT_SNRS_DB,
    SceneConfig,
    SceneError,
    SceneOutput,
    SweepCell,
    default_suite,
    render_scene,
    write_scene,
)
from .spp import SPP_MODES
from .stft import StftParams

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PROCESSING = 3

# every package exception derives from EgomwfError; OSError and ValueError
# cover file-system failures and invalid arrays from numpy/scipy
PROCESSING_ERRORS = (EgomwfError, OSError, ValueError)


def _fail_config(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return EXIT_CONFIG


def _load_multichannel(path: str, external: str | None) -> AudioClip:
    clip = read_wav(path)
    if external is None:
        return clip
    ext = read_wav(external)
    if ext.sample_rate_hz != clip.sample_rate_hz:
        raise AudioError("external microphone rate differs from the input")
    n = min(clip.n_frames, ext.n_frames)
    merged = np.vstack([clip.samples[:, :n], ext.samples[:1, :n]])
    return AudioClip(merged, clip.sample_rate_hz)


def _enhance_report(cfg: EnhanceConfig, result: EnhanceResult, elapsed: float) -> dict:
    counts = result.status_counts()
    return {
        "config": cfg.describe(),
        "per_bin_status_counts": counts,
        "spp_activity_fraction": result.mask.activity_fraction(),
        "filter_compute_seconds": result.filterbank.compute_seconds,
        "elapsed_seconds": elapsed,
    }


def cmd_enhance(args: argparse.Namespace) -> int:
    overrides = {
        "method": args.method,
        "spp_mode": args.spp_mode,
        "spp_channel": args.spp_channel,
    }
    try:
        cfg = load_config(args.config, overrides)
    except ConfigError as exc:
        return _fail_config(str(exc))
    try:
        clip = _load_multichannel(args.input, args.external)
        if cfg.spp_mode == "external" and cfg.spp_channel is None and args.external is not None:
            cfg = replace(cfg, spp_channel=clip.n_channels - 1)
        speech_ref = noise_ref = None
        if cfg.spp_mode == "oracle" and not (args.speech_ref and args.noise_ref):
            return _fail_config("oracle SPP mode needs --speech-ref and --noise-ref")
        if args.speech_ref and args.noise_ref:
            speech_ref = read_wav(args.speech_ref)
            noise_ref = read_wav(args.noise_ref)
        t0 = time.perf_counter()
        result = enhance(clip, cfg, speech_ref, noise_ref)
        elapsed = time.perf_counter() - t0
        write_wav(result.enhanced, args.output, "32f")
        if args.shadow_speech_out and result.shadow_speech is not None:
            write_wav(result.shadow_speech, args.shadow_speech_out, "32f")
        if args.shadow_noise_out and result.shadow_noise is not None:
            write_wav(result.shadow_noise, args.shadow_noise_out, "32f")
        if args.report:
            Path(args.report).write_text(
                json.dumps(_enhance_report(cfg, result, elapsed), indent=2, sort_keys=True)
            )
    except ConfigError as exc:
        return _fail_config(str(exc))
    except PROCESSING_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PROCESSING
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
        if not isinstance(raw, dict) or "geometry" in raw:
            raise TypeError("expected a JSON object of SceneConfig fields other than geometry")
        raw.setdefault("speech_path", args.speech)
        cfg = SceneConfig(**raw)
        if args.duration is not None:
            cfg = replace(cfg, duration_s=args.duration)
    except (TypeError, json.JSONDecodeError, SceneError) as exc:
        return _fail_config(f"bad scene config: {exc}")
    except PROCESSING_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PROCESSING
    try:
        write_scene(render_scene(cfg), Path(args.output_dir))
    except PROCESSING_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PROCESSING
    print(f"wrote scene under {args.output_dir}")
    return EXIT_OK


def _reference_channel(path: str) -> AudioClip:
    """First (reference) channel of a possibly multichannel WAV."""
    return read_wav(path).channel(0)


def cmd_evaluate(args: argparse.Namespace) -> int:
    try:
        shadow_speech = shadow_noise = None
        if args.shadow_speech and args.shadow_noise:
            shadow_speech = _reference_channel(args.shadow_speech)
            shadow_noise = _reference_channel(args.shadow_noise)
        report = score_output(
            score_input(_reference_channel(args.clean), _reference_channel(args.noisy)),
            _reference_channel(args.processed),
            shadow_speech,
            shadow_noise,
        ).to_dict()
        # there is no run to label the report with
        for key in ("method", "partition", "spp_mode"):
            del report[key]
        Path(args.report).write_text(json.dumps(report, indent=2, sort_keys=True))
    except PROCESSING_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PROCESSING
    print(f"wrote {args.report}")
    return EXIT_OK


class SharedScene:
    """A rendered scene and the work its sweep cells share."""

    def __init__(self, scene: SceneOutput):
        self.scene = scene
        channels = scene.manifest["channels"]
        self.analysis = InputAnalysis(
            scene.mixture,
            StftParams(),
            scene.speech_image,
            scene.noise_image,
            channels["array"] + channels["propeller"],
        )

    @cached_property
    def inputs(self) -> InputScores:
        ref = self.scene.manifest["reference_channel"]
        return score_input(self.scene.speech_image.channel(ref), self.scene.mixture.channel(ref))


def run_cell(shared: SharedScene, cell: SweepCell) -> dict:
    """One sweep cell on its scene's shared work; returns the CSV row."""
    ext = shared.scene.manifest["channels"]["external"]
    cfg = EnhanceConfig(
        partition=cell.partition,
        spp_mode=cell.spp_mode,
        spp_channel=ext if cell.spp_mode == "external" else None,
        method=cell.method,
    )
    result = shared.analysis.enhance(cfg)
    report = score_output(
        shared.inputs, result.enhanced, result.shadow_speech, result.shadow_noise
    )
    row = cell.key()
    row.update(
        {
            "snr_in_db": report.snr_in_db,
            "snr_out_db": report.snr_out_db,
            "snr_improvement_db": report.snr_improvement_db,
            "stoi_in": report.stoi_in,
            "stoi_out": report.stoi_out,
            "stoi_improvement": report.stoi_improvement,
            "status": "ok",
        }
    )
    return row


def _run_scene_group(task: tuple[SceneConfig, list[SweepCell]]) -> list[dict]:
    scene_cfg, cells = task
    shared = SharedScene(render_scene(scene_cfg))
    rows = []
    for cell in cells:
        try:
            rows.append(run_cell(shared, cell))
        except PROCESSING_ERRORS as exc:
            row = cell.key()
            row["status"] = f"failed: {exc}"
            rows.append(row)
    return rows


CSV_COLUMNS = [
    "seed", "snr_db", "m_speech_noise", "m_noise_only", "spp_mode", "method",
    "snr_in_db", "snr_out_db", "snr_improvement_db",
    "stoi_in", "stoi_out", "stoi_improvement", "status",
]


def _sweep_workers(workers: int | None) -> int:
    """The sweep's worker count: `workers` when given, else min(4, cpu count).

    Raises ValueError on a count below 1.
    """
    if workers is None:
        return min(4, os.cpu_count() or 1)
    if workers < 1:
        raise ValueError(f"worker count must be >= 1, got {workers}")
    return workers


def run_sweep(
    speech_path: str,
    seeds: list[int],
    duration_s: float | None = None,
    snrs: tuple[float, ...] = DEFAULT_SNRS_DB,
    workers: int | None = None,
) -> list[dict]:
    """The full grid for every seed; rows come back in deterministic order."""
    tasks: list[tuple[SceneConfig, list[SweepCell]]] = []
    for seed in seeds:
        by_scene: dict[float, list[SweepCell]] = {}
        for cell in default_suite(speech_path, seed=seed):
            if cell.scene.target_snr_db not in snrs:
                continue
            by_scene.setdefault(cell.scene.target_snr_db, []).append(cell)
        for snr, cells in by_scene.items():
            scene_cfg = replace(cells[0].scene, duration_s=duration_s)
            tasks.append((scene_cfg, cells))

    workers = _sweep_workers(workers)
    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            grouped = list(pool.map(_run_scene_group, tasks))
    else:
        grouped = [_run_scene_group(t) for t in tasks]
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
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def cmd_sweep(args: argparse.Namespace) -> int:
    try:
        seeds = [int(s) for s in args.seeds.split(",")]
    except ValueError:
        return _fail_config(f"bad --seeds list: {args.seeds!r}")
    try:
        workers = _sweep_workers(args.workers)
    except ValueError as exc:
        return _fail_config(str(exc))
    try:
        t0 = time.perf_counter()
        rows = run_sweep(args.speech, seeds, duration_s=args.duration, workers=workers)
        elapsed = time.perf_counter() - t0
        write_sweep_outputs(rows, Path(args.output_dir))
    except PROCESSING_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PROCESSING
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
    p.add_argument("--workers", type=int)
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # simulate and sweep: reject a bad --duration before any work
    duration = getattr(args, "duration", None)
    if duration is not None and not 0 < duration < math.inf:
        return _fail_config(f"--duration must be finite and positive, got {duration}")
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
