"""Objective evaluation: energy-ratio SNR and short-time objective
intelligibility (STOI).

SNR is measured with shadow components: the fixed per-bin filter applied
separately to the known speech and noise parts, which is exact for a
linear filter. STOI follows the canonical recipe: 10 kHz rate, silent
frame removal over a 40 dB dynamic range, 15 one-third-octave bands from
150 Hz, 384 ms segments, -15 dB SDR clipping, averaged band/segment
correlations. Clips compared with each other must share one rate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audio_io import AudioClip, resample
from .errors import EgomwfError
from .pipeline import EnhanceResult
from .stft import frame_view, overlap_add

SNR_CAP_DB = 120.0

_STOI_RATE = 10000
_STOI_FRAME = 256
_STOI_HOP = 128
_STOI_FFT = 512
_STOI_N_BANDS = 15
_STOI_LOW_FREQ = 150.0
_STOI_SEG = 30
_STOI_BETA_DB = -15.0
_STOI_DYN_RANGE_DB = 40.0
_EPS = np.finfo(np.float64).eps


class MetricsError(EgomwfError):
    pass


@dataclass(frozen=True)
class MetricsReport:
    snr_in_db: float | None
    snr_out_db: float | None
    snr_improvement_db: float | None
    stoi_in: float
    stoi_out: float
    stoi_improvement: float
    flags: tuple[str, ...] = ()


def _mono(clip: AudioClip, what: str) -> np.ndarray:
    if clip.n_channels != 1:
        raise MetricsError(f"{what} must be single-channel, got {clip.n_channels}")
    return clip.samples[0]


def _same_rate(a: int, b: int, a_name: str, b_name: str) -> None:
    if a != b:
        raise MetricsError(f"rate mismatch: {a_name} {a} Hz vs {b_name} {b} Hz")


def snr_db(speech: AudioClip, noise: AudioClip) -> float:
    """10 log10 of the energy ratio, capped at +-120 dB for silent parts."""
    s = _mono(speech, "speech component")
    n = _mono(noise, "noise component")
    if s.size != n.size:
        raise MetricsError(f"length mismatch: speech {s.size} vs noise {n.size}")
    p_s = float(np.sum(s**2))
    p_n = float(np.sum(n**2))
    if p_n <= 0.0:
        return SNR_CAP_DB
    if p_s <= 0.0:
        return -SNR_CAP_DB
    return float(np.clip(10.0 * np.log10(p_s / p_n), -SNR_CAP_DB, SNR_CAP_DB))


def _stoi_frames(x: np.ndarray) -> np.ndarray:
    return frame_view(x, _STOI_FRAME, _STOI_HOP) * np.hanning(_STOI_FRAME + 2)[1:-1]


def _kept(y: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """y rebuilt by overlap-adding its frames where keep is set."""
    return overlap_add(_stoi_frames(y)[keep])


def _third_octave_matrix() -> np.ndarray:
    freqs = np.fft.rfftfreq(_STOI_FFT, 1.0 / _STOI_RATE)
    centers = _STOI_LOW_FREQ * 2.0 ** (np.arange(_STOI_N_BANDS) / 3.0)
    lo = centers * 2.0 ** (-1.0 / 6.0)
    hi = centers * 2.0 ** (1.0 / 6.0)
    return ((freqs[None, :] >= lo[:, None]) & (freqs[None, :] < hi[:, None])).astype(float)


def _band_envelopes(x: np.ndarray, obm: np.ndarray) -> np.ndarray:
    spec = np.fft.rfft(_stoi_frames(x), n=_STOI_FFT, axis=1)  # (frames, bins)
    power = np.abs(spec) ** 2
    return np.sqrt(power @ obm.T).T  # (bands, frames)


def _at_stoi_rate(clip: AudioClip) -> np.ndarray:
    """The samples of a single-channel clip at the 10 kHz STOI rate."""
    return resample(clip, _STOI_RATE).samples[0]


@dataclass(frozen=True, eq=False)
class _StoiReference:
    """The clean side of STOI on one 10 kHz signal, shared by every
    processed signal scored against it."""

    keep: np.ndarray  # frames within 40 dB of the loudest
    ceiling: np.ndarray  # the clipping bound of every (bands, segments, 30) envelope
    energy: np.ndarray  # sum of squares of each segment
    centred: np.ndarray  # segments less their means
    norms: np.ndarray  # norm of each centred segment


def _stoi_reference(x: np.ndarray) -> _StoiReference:
    if not np.any(x != 0):
        raise MetricsError("clean signal is all zeros")
    if x.size < _STOI_FRAME:
        raise MetricsError("input shorter than one analysis frame")
    frames = _stoi_frames(x)
    energies = 20.0 * np.log10(np.linalg.norm(frames, axis=1) + _EPS)
    keep = energies > np.max(energies) - _STOI_DYN_RANGE_DB
    xb = _band_envelopes(overlap_add(frames[keep]), _third_octave_matrix())
    if xb.shape[1] < _STOI_SEG:
        raise MetricsError(
            f"only {xb.shape[1]} non-silent frames; need {_STOI_SEG} (~384 ms of speech)"
        )
    xs = frame_view(xb, _STOI_SEG, 1)  # every 30-frame segment at once
    ceiling = (1.0 + 10.0 ** (-_STOI_BETA_DB / 20.0)) * xs
    xc = xs - np.mean(xs, axis=2, keepdims=True)
    return _StoiReference(keep, ceiling, np.sum(xs**2, axis=2), xc, np.linalg.norm(xc, axis=2))


def _stoi_score(ref: _StoiReference, y: np.ndarray) -> float:
    """STOI of the 10 kHz signal y against ref's clean signal."""
    ys = frame_view(_band_envelopes(_kept(y, ref.keep), _third_octave_matrix()), _STOI_SEG, 1)
    alpha = np.sqrt(ref.energy / (np.sum(ys**2, axis=2) + _EPS))
    ys_clip = np.minimum(alpha[:, :, None] * ys, ref.ceiling)
    yc = ys_clip - np.mean(ys_clip, axis=2, keepdims=True)
    num = np.sum(ref.centred * yc, axis=2)
    den = ref.norms * np.linalg.norm(yc, axis=2) + _EPS
    return float(np.mean(num / den))


def stoi(clean: AudioClip, processed: AudioClip) -> float:
    """Short-time objective intelligibility of `processed` given `clean`:
    score_input's stoi_in on the pair. Both clips must share one rate;
    they are resampled to 10 kHz before scoring."""
    return score_input(clean, processed).stoi_in


def evaluate(result: EnhanceResult, clean_ref: AudioClip, noisy_ref: AudioClip) -> MetricsReport:
    """Input/output SNR (via shadow components) and STOI for one run:
    score_input on the references, then score_output on the run's output."""
    inputs = score_input(clean_ref, noisy_ref)
    return score_output(inputs, result.enhanced, result.shadow_speech, result.shadow_noise)


@dataclass(frozen=True, eq=False)
class InputScores:
    """What score_input measures on a clean/noisy reference pair alone.

    Every run scored against the same pair shares it: clean is the clean
    side of STOI, rate_hz the rate the references (and the runs' outputs)
    are taken at.
    """

    clean: _StoiReference
    rate_hz: int
    n_samples: int
    snr_in_db: float
    stoi_in: float


def score_input(clean_ref: AudioClip, noisy_ref: AudioClip) -> InputScores:
    """Input SNR and STOI of a single-channel clean/noisy reference pair.

    The input noise component is noisy_ref - clean_ref.
    """
    clean = _mono(clean_ref, "clean reference")
    noisy = _mono(noisy_ref, "noisy reference")
    if clean.size != noisy.size:
        raise MetricsError("clean/noisy reference length mismatch")
    _same_rate(clean_ref.sample_rate_hz, noisy_ref.sample_rate_hz, "clean", "noisy")
    rate = clean_ref.sample_rate_hz
    ref = _stoi_reference(_at_stoi_rate(clean_ref))
    return InputScores(
        clean=ref,
        rate_hz=rate,
        n_samples=clean.size,
        snr_in_db=snr_db(clean_ref, AudioClip(noisy[None, :] - clean[None, :], rate)),
        stoi_in=_stoi_score(ref, _at_stoi_rate(noisy_ref)),
    )


def score_output(
    inputs: InputScores,
    enhanced: AudioClip,
    shadow_speech: AudioClip | None = None,
    shadow_noise: AudioClip | None = None,
) -> MetricsReport:
    """The report of one run against already scored references.

    Output SNR uses the shadow-filtered components; missing shadows flag
    the SNR fields and leave STOI as the only measure.
    """
    flags: list[str] = []
    snr_in = snr_out = improvement = None
    if shadow_speech is not None and shadow_noise is not None:
        snr_in = inputs.snr_in_db
        snr_out = snr_db(shadow_speech, shadow_noise)
        if abs(snr_in) >= SNR_CAP_DB or abs(snr_out) >= SNR_CAP_DB:
            flags.append("snr_capped")
        improvement = snr_out - snr_in
    else:
        flags.append("no_ground_truth")

    n = _mono(enhanced, "processed signal").size
    if n != inputs.n_samples:
        raise MetricsError(f"length mismatch: clean {inputs.n_samples} vs processed {n}")
    _same_rate(inputs.rate_hz, enhanced.sample_rate_hz, "clean", "processed")
    stoi_out = _stoi_score(inputs.clean, _at_stoi_rate(enhanced))
    return MetricsReport(
        snr_in_db=snr_in,
        snr_out_db=snr_out,
        snr_improvement_db=improvement,
        stoi_in=inputs.stoi_in,
        stoi_out=stoi_out,
        stoi_improvement=stoi_out - inputs.stoi_in,
        flags=tuple(flags),
    )

