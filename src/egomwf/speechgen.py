"""Deterministic speech-like test material.

No speech corpus ships with the repository, so tests and demos use a
synthetic utterance: glottal-pulse-style syllables shaped by formant
resonators, occasional fricative bursts, and natural word pauses. Good
enough to drive the activity detector and the intelligibility metric;
not meant to sound pleasant.

Run ``python -m egomwf.speechgen out.wav`` to write a sample file.
"""

from __future__ import annotations

import math
import sys
from functools import cache

import numpy as np

from .audio_io import AudioClip, AudioError, write_wav

_FORMANTS = ((700.0, 130.0), (1220.0, 160.0), (2600.0, 300.0))
# Butterworth (order, edges in Hz): one edge is a highpass, two a bandpass
_BREATH_HIGHPASS = (2, (300.0,))
_FRICATIVE_BAND = (4, (2000.0, 7500.0))
# samples per block of _filter: a small in-block product, few carried states
_BLOCK = 64
# [j, i]: index of h[i - j] in the in-block product's h (-1: a zero after h)
_IN_BLOCK = np.maximum(np.subtract.outer(np.arange(_BLOCK), np.arange(_BLOCK)), -1).T


def _sections(residues: np.ndarray, poles: np.ndarray, direct: float = 0.0) -> tuple:
    """_filter's tables for the filter direct + sum_i Re(residues_i / (1 - poles_i/z)):
    the in-block product with its first _BLOCK impulse-response samples,
    each pole's state z[m] = x[m] + p z[m-1] after a block (real and
    imaginary parts), _BLOCK log p, and the map from states to the next block."""
    powers = np.exp(np.log(poles)[:, np.newaxis] * np.arange(_BLOCK + 1))  # within 1e-13
    weights = residues[:, np.newaxis] * powers
    response = np.append(weights[:, :_BLOCK].real.sum(axis=0), 0.0)
    response[0] += direct
    to_state = powers[:, _BLOCK - 1 :: -1].T
    return (response[_IN_BLOCK], np.concatenate([to_state.real, to_state.imag], axis=1),
            _BLOCK * np.log(poles), np.concatenate([weights[:, 1:].real, -weights[:, 1:].imag]))


def _filter(x: np.ndarray, sections: tuple) -> np.ndarray:
    """Run a stable filter of _sections over x from rest, _BLOCK samples at a
    time: each block's in-block product, plus the state each pole carries in,
    the sum over d of p^(_BLOCK d) times the state block k - 1 - d left alone."""
    inblock, to_state, log_step, from_state = sections
    n, poles = x.size, len(log_step)
    rows = -(-n // _BLOCK)
    blocks = np.zeros((rows, _BLOCK))
    blocks.reshape(-1)[:n] = x
    ends = blocks @ to_state
    ends = ends[:, :poles] + 1j * ends[:, poles:]
    decay = np.exp(log_step[:, np.newaxis] * np.arange(rows - 1))
    carry = np.zeros((rows, 2 * poles))
    for i in range(poles if rows > 1 else 0):
        state = np.convolve(ends[:, i], decay[i])[: rows - 1]
        carry[1:, i], carry[1:, poles + i] = state.real, state.imag
    return (blocks @ inblock + carry @ from_state).reshape(-1)[:n]


@cache
def _butter(order: int, edges: tuple[float, ...], fs: int) -> tuple:
    """_sections of scipy.signal.butter(order, edges, fs=fs), a highpass (one
    edge) or bandpass (two) of even order: the analog prototype at prewarped
    edges, bilinear to z, then one partial fraction per conjugate pole pair."""
    proto = -np.exp(1j * np.pi * np.arange(1 - order, order, 2) / (2 * order))
    w = 2.0 * fs * np.tan(np.pi * np.array(edges) / fs)
    if len(w) == 1:
        poles, gain, zeros = w[0] / proto, 1.0 / np.prod(-proto).real, np.ones(order)
    else:
        lowpass = proto * (w[1] - w[0]) / 2.0
        root = np.sqrt(lowpass**2 - w[0] * w[1])
        poles = np.concatenate([lowpass + root, lowpass - root])
        gain, zeros = (w[1] - w[0]) ** order, np.r_[np.ones(order), -np.ones(order)]
    gain *= ((2.0 * fs) ** order / np.prod(2.0 * fs - poles)).real
    poles = (2.0 * fs + poles) / (2.0 * fs - poles)
    upper = poles[poles.imag > 0]
    residues = [2.0 * gain * np.prod(1.0 - zeros / p) / np.prod(1.0 - poles[poles != p] / p) for p in upper]
    return _sections(np.array(residues), upper, (gain * np.prod(zeros) / np.prod(poles)).real)


def _voiced_syllable(dur: float, fs: int, rng: np.random.Generator) -> np.ndarray:
    n = int(dur * fs)
    pitch0 = rng.uniform(100.0, 150.0)
    pitch1 = pitch0 * rng.uniform(0.8, 1.2)
    inst = np.linspace(pitch0, pitch1, n)
    phase = 2.0 * np.pi * np.cumsum(inst) / fs
    # impulse-ish glottal excitation: rectified narrow pulses of a sawtooth
    saw = phase / (2.0 * np.pi)
    saw -= np.floor(saw)  # the phase is positive, so this is saw % 1.0
    excitation = np.maximum(0.0, 1.0 - 8.0 * saw) - 0.05
    # formant resonators (1 - r) / (1 - 2 r cos(theta) z^-1 + r^2 z^-2): impulse
    # response (1 - r) r^m sin((m + 1) theta) / sin(theta) = Re(R p^m)
    poles, residues = [], []
    for freq, bw in _FORMANTS:
        r = np.exp(-np.pi * bw / fs)
        theta = 2.0 * np.pi * (freq * rng.uniform(0.85, 1.15)) / fs
        poles.append(r * np.exp(1j * theta))
        residues.append(-1j * (1.0 - r) / np.sin(theta) * np.exp(1j * theta))
    voiced = _filter(excitation, _sections(np.array(residues), np.array(poles)))
    breath = _filter(rng.standard_normal(n), _butter(*_BREATH_HIGHPASS, fs))
    # voicing bar: male speech carries audible energy at the pitch
    # fundamental and its first harmonics, 0.25 sin(x) + 0.12 sin(2x) + 0.06 sin(3x)
    sin, cos = np.sin(phase), np.cos(phase)
    out = voiced + sin * (0.19 + 0.24 * cos * (1.0 + cos))
    # direct broadband path plus aspiration so inter-formant valleys and
    # high bins still carry genuine speech energy
    out += 0.15 * excitation
    out += 0.06 * breath * np.sqrt(np.mean(out**2))
    env = np.sin(np.pi * np.arange(n) / n) ** 0.7
    return out * env


def _fricative(dur: float, fs: int, rng: np.random.Generator) -> np.ndarray:
    n = int(dur * fs)
    shaped = _filter(rng.standard_normal(n), _butter(*_FRICATIVE_BAND, fs))
    env = np.sin(np.pi * np.arange(n) / n)
    return 0.4 * shaped * env


def speech_like(duration_s: float = 10.0, rate_hz: int = 16000, seed: int = 0) -> AudioClip:
    """Synthesize a speech-like utterance of the requested duration: one
    sample or more, at a rate above twice the fricative band (else AudioError)."""
    if not (math.isfinite(duration_s) and duration_s * rate_hz >= 1):
        raise AudioError(f"duration must be finite and hold a sample, got {duration_s} s")
    if rate_hz <= 2 * _FRICATIVE_BAND[1][1]:
        raise AudioError(f"rate must exceed {2 * _FRICATIVE_BAND[1][1]:.0f} Hz, got {rate_hz}")
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
    try:
        clip = speech_like(args.duration, args.rate, args.seed)
    except AudioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    write_wav(clip, args.output, "16")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
