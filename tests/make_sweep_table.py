"""Write the stored output references that tier-1 compares against.

    PYTHONPATH=src python tests/make_sweep_table.py

- tests/data/sweep_seed0.json: the 81 rows of the seed-0 sweep on 10 s
  scenes, as test_acceptance_10 computes them;
- tests/data/enhance_2s.json: the output energies and per-bin status
  counts of the deploy_pk8 and eval_oracle_m16 benchmark configurations
  on one 2 s rendered scene, plus one deploy run whose references are
  rounded to float32, so the input is not their exact sum and both
  shadows are filtered.

The speech is the tests' `speech_wav` fixture. A change that means to move
outputs reruns this script and states the largest move of each field.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from egomwf.audio_io import AudioClip, write_wav
from egomwf.cli import run_sweep
from egomwf.config import EnhanceConfig
from egomwf.filters import METHODS, ChannelPartition
from egomwf.pipeline import enhance
from egomwf.scenegen import SceneConfig, render_scene
from egomwf.speechgen import speech_like

DATA = Path(__file__).resolve().parent / "data"
SWEEP_TABLE = DATA / "sweep_seed0.json"
ENHANCE_TABLE = DATA / "enhance_2s.json"

# the enhance configurations of the deploy_pk8 and eval_oracle_m16 benchmark workloads
DEPLOY = EnhanceConfig(partition=ChannelPartition((0, 1, 2, 3), (12, 13, 14, 15), 0))
M16 = ChannelPartition(tuple(range(12)), (12, 13, 14, 15), 0)


def write_speech(path: Path) -> str:
    """The speech of the tests' `speech_wav` fixture, written to path."""
    write_wav(speech_like(10.0, 16000, seed=7), path, "16")
    return str(path)


def _float32(clip: AudioClip) -> AudioClip:
    return AudioClip(clip.samples.astype(np.float32).astype(np.float64), clip.sample_rate_hz)


def enhance_runs(speech_path: str) -> dict[str, tuple]:
    """name -> (clip, config, speech reference, noise reference) of each run."""
    scene = render_scene(SceneConfig(speech_path, target_snr_db=-10.0, seed=0, duration_s=2.0))
    refs = scene.speech_image, scene.noise_image
    runs = {
        "deploy_pk8": (scene.mixture, DEPLOY, None, None),
        "deploy_pk8/float32_refs": (scene.mixture, DEPLOY, *map(_float32, refs)),
    }
    for method in METHODS:
        cfg = EnhanceConfig(partition=M16, spp_mode="oracle", method=method)
        runs[f"eval_oracle_m16/{method}"] = (scene.mixture, cfg, *refs)
    return runs


def enhance_summary(result) -> dict:
    """Output energy of the enhanced clip and each shadow, and the status counts."""
    clips = {"enhanced": result.enhanced, "shadow_speech": result.shadow_speech,
             "shadow_noise": result.shadow_noise}
    energy = {name: None if clip is None else float(np.sum(clip.samples**2))
              for name, clip in clips.items()}
    return {"energy": energy, "status_counts": result.status_counts()}


def main() -> int:
    DATA.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        speech_path = write_speech(Path(tmp) / "speech.wav")
        rows = run_sweep(speech_path, seeds=[0], duration_s=10.0)
        summaries = {name: enhance_summary(enhance(*run))
                     for name, run in enhance_runs(speech_path).items()}
    SWEEP_TABLE.write_text(json.dumps(rows, indent=1, sort_keys=True) + "\n")
    ENHANCE_TABLE.write_text(json.dumps(summaries, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(rows)} rows to {SWEEP_TABLE} and {len(summaries)} runs to {ENHANCE_TABLE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
