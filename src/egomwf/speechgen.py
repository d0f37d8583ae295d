"""Deterministic speech-like test material.

No speech corpus ships with the repository, so tests and demos use a
synthetic utterance: glottal-pulse-style syllables shaped by formant
resonators, occasional fricative bursts, and natural word pauses. Good
enough to drive the activity detector and the intelligibility metric;
not meant to sound pleasant.

Run ``python -m egomwf.speechgen out.wav`` to write a sample file.
"""

from __future__ import annotations

from functools import cache

import numpy as np
from scipy import signal as sps

from .audio_io import AudioClip, write_wav

_FORMANTS = ((700.0, 130.0), (1220.0, 160.0), (2600.0, 300.0))
# each (order, band, type, rate) is designed once; sosfilt only reads the result
_butter = cache(sps.butter)


def _resonator(freq: float, bandwidth: float, fs: float) -> tuple[np.ndarray, np.ndarray]:
    r = np.exp(-np.pi * bandwidth / fs)
    theta = 2.0 * np.pi * freq / fs
    a = np.array([1.0, -2.0 * r * np.cos(theta), r * r])
    b = np.array([1.0 - r])
    return b, a


def _voiced_syllable(dur: float, fs: int, rng: np.random.Generator) -> np.ndarray:
    n = int(dur * fs)
    pitch0 = rng.uniform(100.0, 150.0)
    pitch1 = pitch0 * rng.uniform(0.8, 1.2)
    inst = np.linspace(pitch0, pitch1, n)
    phase = 2.0 * np.pi * np.cumsum(inst) / fs
    # impulse-ish glottal excitation: rectified narrow pulses of a sawtooth
    saw = (phase / (2.0 * np.pi)) % 1.0
    excitation = np.maximum(0.0, 1.0 - 8.0 * saw) - 0.05
    out = np.zeros(n)
    for freq, bw in _FORMANTS:
        f = freq * rng.uniform(0.85, 1.15)
        b, a = _resonator(f, bw, fs)
        out += sps.lfilter(b, a, excitation)
    # voicing bar: male speech carries audible energy at the pitch
    # fundamental and its first harmonics
    out += 0.25 * np.sin(phase) + 0.12 * np.sin(2.0 * phase) + 0.06 * np.sin(3.0 * phase)
    # direct broadband path plus aspiration so inter-formant valleys and
    # high bins still carry genuine speech energy
    out += 0.15 * excitation
    breath = rng.standard_normal(n)
    highpass = _butter(2, 300.0, "highpass", fs=fs, output="sos")
    out += 0.06 * sps.sosfilt(highpass, breath) * np.sqrt(np.mean(out**2))
    env = np.sin(np.pi * np.arange(n) / n) ** 0.7
    return out * env


def _fricative(dur: float, fs: int, rng: np.random.Generator) -> np.ndarray:
    n = int(dur * fs)
    noise = rng.standard_normal(n)
    shaped = sps.sosfilt(_butter(4, (2000.0, 7500.0), "bandpass", fs=fs, output="sos"), noise)
    env = np.sin(np.pi * np.arange(n) / n)
    return 0.4 * shaped * env


def speech_like(duration_s: float = 10.0, rate_hz: int = 16000, seed: int = 0) -> AudioClip:
    """Synthesize a speech-like utterance of the requested duration."""
    rng = np.random.default_rng(seed)
    total = int(duration_s * rate_hz)
    out = np.zeros(total)
    # leading silence so noise-only PSD initialization has clean frames
    pos = int(0.3 * rate_hz)
    while pos < total - rate_hz // 4:
        n_sylls = rng.integers(1, 4)
        for _ in range(n_sylls):
            if rng.uniform() < 0.25:
                seg = _fricative(rng.uniform(0.06, 0.15), rate_hz, rng)
            else:
                seg = _voiced_syllable(rng.uniform(0.12, 0.35), rate_hz, rng)
            end = min(pos + seg.size, total)
            out[pos:end] += seg[: end - pos]
            pos = end + int(rng.uniform(0.01, 0.05) * rate_hz)
            if pos >= total:
                break
        pos += int(rng.uniform(0.15, 0.35) * rate_hz)
    peak = np.max(np.abs(out))
    if peak > 0:
        out *= 0.5 / peak
    return AudioClip(out[np.newaxis, :], rate_hz)


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description="write a synthetic speech-like WAV")
    parser.add_argument("output")
    parser.add_argument("--duration", type=float, default=10.0)
    parser.add_argument("--rate", type=int, default=16000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    write_wav(speech_like(args.duration, args.rate, args.seed), args.output, "16")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
