"""The benchmark's three seeded workloads.

Each workload makes its inputs from the workload seed in ``setup`` (not
timed as a request), returns one cycle of requests that the load loop
replays in order, and checks every request's output outside the timed
region. ``score`` runs once per distinct request after the timed loop and
returns its Outcome with the ΔSNR/ΔSTOI values behind ``dsnr_db`` and
``dstoi``, one per enhanced output.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import egomwf.cli
import egomwf.metrics
import egomwf.pipeline
from egomwf import audio_io, scenegen, speechgen
from egomwf.config import EnhanceConfig, load_config
from egomwf.filters import METHODS, ChannelPartition

from spans import digest

SAMPLE_RATE_HZ = 16000
DURATION_S = 10.0
SNRS_DB = (-20.0, -10.0, 0.0)
N_BINS = 257
# eval_oracle_m16: 12 array mics plus the 4 propeller mics
PARTITION_M16 = ChannelPartition(tuple(range(12)), (12, 13, 14, 15), 0)
# deploy_pk8: array mics 0-3 plus the 4 propeller mics
DEPLOY_CONFIG = {
    "partition": {
        "speech_noise_channels": [0, 1, 2, 3],
        "noise_only_channels": [12, 13, 14, 15],
        "ref_channel": 0,
    },
    "method": "pk-mwf",
    "spp_mode": "internal",
}


class CheckFailed(Exception):
    """A request's output broke one of the benchmark's output checks."""


@dataclass(frozen=True)
class Outcome:
    """What a checked request leaves behind.

    fingerprint must repeat exactly each time the request is replayed.
    """

    fingerprint: str
    dsnr_db: tuple[float, ...] = ()
    dstoi: tuple[float, ...] = ()


@dataclass(frozen=True)
class Request:
    label: str
    cells: int  # enhance calls the request makes, each on DURATION_S of audio
    run: Callable[[], object]
    check: Callable[[object], Outcome]


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def _finite(values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def _write_speech(seed: int, path: Path) -> Path:
    audio_io.write_wav(speechgen.speech_like(DURATION_S, SAMPLE_RATE_HZ, seed), path, "32f")
    return path


def _scenes(seed: int, work_dir: Path):
    """One scene per SNR, each with its own utterance and rotor noise.

    Scene k takes seed len(SNRS_DB) * seed + k, so no two scenes of any
    workload seed share content and the quality means average over three
    utterances rather than one.
    """
    for k, snr in enumerate(SNRS_DB):
        scene_seed = len(SNRS_DB) * seed + k
        speech = _write_speech(scene_seed, work_dir / f"speech_{k}.wav")
        cfg = scenegen.SceneConfig(
            speech_path=str(speech), target_snr_db=snr, seed=scene_seed, duration_s=DURATION_S
        )
        yield snr, scenegen.render_scene(cfg)


class Workload:
    """Defaults: one cycle at least, and outcomes need no scoring."""

    min_cycles = 1

    def score(self, label: str, outcome: Outcome) -> Outcome:
        return outcome


class DeployPk8(Workload):
    """In-process ``egomwf enhance`` on scenes written to disk in set-up."""

    name = "deploy_pk8"

    def setup(self, seed: int, work_dir: Path) -> None:
        self.scene_dirs = []
        for snr, scene in _scenes(seed, work_dir):
            scene_dir = work_dir / f"scene_{snr:+.0f}dB"
            scenegen.write_scene(scene, scene_dir)
            self.scene_dirs.append(scene_dir)
        self.config = work_dir / "config.json"
        self.config.write_text(json.dumps(DEPLOY_CONFIG))

    def _argv(self, scene_dir: Path) -> list[str]:
        return [
            "enhance",
            "--input", str(scene_dir / "mixture.wav"),
            "--external", str(scene_dir / "external.wav"),
            "--config", str(self.config),
            "--output", str(scene_dir / "enhanced.wav"),
            "--report", str(scene_dir / "report.json"),
        ]

    def cycle(self) -> list[Request]:
        return [
            Request(d.name, 1, self._runner(self._argv(d)), self._checker(d))
            for d in self.scene_dirs
        ]

    @staticmethod
    def _runner(argv: list[str]) -> Callable[[], int]:
        def run() -> int:
            # the CLI reports "wrote <path>" on stdout, which carries the result line
            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                return egomwf.cli.main(argv)

        return run

    @staticmethod
    def _checker(scene_dir: Path) -> Callable[[int], Outcome]:
        def check(code: int) -> Outcome:
            _require(code == 0, f"enhance exited with {code}")
            out = audio_io.read_wav(scene_dir / "enhanced.wav")
            n_in = audio_io.read_wav(scene_dir / "external.wav").n_frames
            _require(out.n_channels == 1, f"output has {out.n_channels} channels")
            _require(out.n_frames == n_in, f"output has {out.n_frames} samples, input {n_in}")
            _require(bool(np.all(np.isfinite(out.samples))), "output has non-finite samples")
            report = json.loads((scene_dir / "report.json").read_text())
            bins = sum(report["per_bin_status_counts"].values())
            _require(bins == N_BINS, f"status counts sum to {bins}, not {N_BINS}")
            return Outcome(digest(out.samples))

        return check

    def score(self, label: str, outcome: Outcome) -> Outcome:
        """Add ΔSNR and ΔSTOI to the (repeated) output of one scene.

        The request has no ground truth, so after the timed loop the
        benchmark re-runs its configuration through ``pipeline.enhance``
        with the scene's speech and noise images, requires the CLI's output
        back bit for bit (after the 32-bit float WAV round trip), and scores
        that run.
        """
        scene_dir = next(d for d in self.scene_dirs if d.name == label)
        written = audio_io.read_wav(scene_dir / "enhanced.wav").samples
        _require(digest(written) == outcome.fingerprint, "enhanced.wav changed after the run")
        mixture = audio_io.read_wav(scene_dir / "mixture.wav")
        external = audio_io.read_wav(scene_dir / "external.wav")
        clip = audio_io.AudioClip(np.vstack([mixture.samples, external.samples]), SAMPLE_RATE_HZ)
        speech = audio_io.read_wav(scene_dir / "speech.wav")
        noise = audio_io.read_wav(scene_dir / "noise.wav")
        result = egomwf.pipeline.enhance(clip, load_config(self.config), speech, noise)
        expected = result.enhanced.samples.astype(np.float32).astype(np.float64)
        _require(np.array_equal(written, expected), "CLI output differs from pipeline.enhance")
        report = egomwf.metrics.evaluate(result, speech.channel(0), mixture.channel(0))
        return Outcome(outcome.fingerprint, (report.snr_improvement_db,), (report.stoi_improvement,))


class EvalOracleM16(Workload):
    """Oracle-mask enhancement with shadow filtering, then metrics.evaluate."""

    name = "eval_oracle_m16"
    # 27 latencies, so the tail (ten samples beyond it) sits above the median
    min_cycles = 3

    def setup(self, seed: int, work_dir: Path) -> None:
        self.scenes = None  # let the previous set-up's scenes go before rendering
        self.scenes = list(_scenes(seed, work_dir))

    def cycle(self) -> list[Request]:
        return [
            Request(f"{snr:+.0f}dB/{method}", 1, self._runner(scene, method), self._check)
            for snr, scene in self.scenes
            for method in METHODS
        ]

    @staticmethod
    def _runner(scene: scenegen.SceneOutput, method: str) -> Callable:
        cfg = EnhanceConfig(partition=PARTITION_M16, spp_mode="oracle", method=method)

        def run():
            result = egomwf.pipeline.enhance(scene.mixture, cfg, scene.speech_image, scene.noise_image)
            report = egomwf.metrics.evaluate(
                result, scene.speech_image.channel(0), scene.mixture.channel(0)
            )
            return result, report

        return run

    @staticmethod
    def _check(output) -> Outcome:
        result, report = output
        enhanced = result.enhanced.samples
        parts = result.shadow_speech.samples + result.shadow_noise.samples
        residual = np.linalg.norm(enhanced - parts)
        _require(residual <= 1e-9 * np.linalg.norm(enhanced),
                 f"shadow components do not add up to the output (residual {residual:.3e})")
        _require(_finite([report.snr_improvement_db, report.stoi_improvement]),
                 "non-finite ΔSNR or ΔSTOI")
        bins = sum(result.status_counts().values())
        _require(bins == N_BINS, f"status counts sum to {bins}, not {N_BINS}")
        return Outcome(
            digest(enhanced, report.snr_improvement_db, report.stoi_improvement),
            (report.snr_improvement_db,),
            (report.stoi_improvement,),
        )


class SweepM27(Workload):
    """One scene's 27 sweep cells with a single worker."""

    name = "sweep_m27"
    snr_db = -10.0
    cells = 27

    def setup(self, seed: int, work_dir: Path) -> None:
        self.seed = seed
        self.speech = _write_speech(seed, work_dir / "speech.wav")

    def cycle(self) -> list[Request]:
        def run() -> list[dict]:
            return egomwf.cli.run_sweep(
                str(self.speech), [self.seed], duration_s=DURATION_S,
                snrs=(self.snr_db,), workers=1,
            )

        return [Request("sweep", self.cells, run, self._check)]

    def _check(self, rows: list[dict]) -> Outcome:
        _require(len(rows) == self.cells, f"{len(rows)} rows, not {self.cells}")
        bad = [r for r in rows if r.get("status") != "ok"]
        _require(not bad, f"{len(bad)} cells not ok, first: {bad[:1]}")
        numbers = [v for r in rows for v in r.values() if not isinstance(v, str)]
        _require(_finite(numbers), "a row has a non-finite or non-numeric field")
        return Outcome(
            digest(json.dumps(rows, sort_keys=True)),
            tuple(r["snr_improvement_db"] for r in rows),
            tuple(r["stoi_improvement"] for r in rows),
        )


WORKLOADS = {w.name: w for w in (DeployPk8, EvalOracleM16, SweepM27)}
