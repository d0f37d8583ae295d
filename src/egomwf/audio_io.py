"""Multichannel WAV reading/writing and sample-rate conversion.

All in-memory audio is float64 in [-1, 1], shaped (channels, frames).
WAV is the only container; 16/24/32-bit PCM and 32-bit float are read,
16-bit PCM and 32-bit float are written.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import signal as sps
from scipy.io import wavfile

from .errors import EgomwfError


class AudioError(EgomwfError):
    """Raised for unreadable/unsupported audio files or invalid clips."""


@dataclass(frozen=True, eq=False)
class AudioClip:
    """Multichannel time-domain signal.

    samples: (channels, frames) float64, nominally in [-1, 1].
    sample_rate_hz: positive integer sample rate.
    """

    samples: np.ndarray
    sample_rate_hz: int

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=np.float64)
        if s.ndim == 1:
            s = s[np.newaxis, :]
        if s.ndim != 2:
            raise AudioError(f"samples must be 2-D (channels, frames), got ndim={s.ndim}")
        if self.sample_rate_hz <= 0:
            raise AudioError(f"sample_rate_hz must be positive, got {self.sample_rate_hz}")
        if not np.all(np.isfinite(s)):
            raise AudioError("samples contain NaN/Inf")
        object.__setattr__(self, "samples", s)

    @property
    def n_channels(self) -> int:
        return self.samples.shape[0]

    @property
    def n_frames(self) -> int:
        return self.samples.shape[1]

    def channel(self, index: int) -> "AudioClip":
        """Single-channel view as a new clip."""
        if not 0 <= index < self.n_channels:
            raise AudioError(f"channel {index} out of range (have {self.n_channels})")
        return AudioClip(self.samples[index : index + 1].copy(), self.sample_rate_hz)


# Full-scale divisors per container dtype. 24-bit PCM arrives from
# scipy as int32 with data in the top three bytes, so 2**31 applies.
_FULL_SCALE = {
    np.dtype(np.int16): 2.0**15,
    np.dtype(np.int32): 2.0**31,
    np.dtype(np.float32): 1.0,
    np.dtype(np.float64): 1.0,
}
# frames per transposing copy in read_wav, small enough to stay in cache
_READ_CHUNK = 4096


def read_wav(path: str | Path, external: str | Path | None = None) -> AudioClip:
    """Read a PCM 16/24/32-bit or 32-bit float WAV as a normalized clip.

    Samples are divided by the format's full-scale value; channel order on
    disk is preserved as row order in memory. With external, the first
    channel of that WAV (an external microphone of the same rate and
    length) is one more row. Each file is cast (and scaled) straight into
    its rows of one C-ordered array, _READ_CHUNK frames at a time.
    """
    files = []
    for source in (path,) if external is None else (path, external):
        source = Path(source)
        if not source.exists():
            raise AudioError(f"file not found: {source}")
        try:
            rate, data = wavfile.read(str(source))
        except Exception as exc:
            raise AudioError(f"unreadable WAV file {source}: {exc}") from exc
        if data.dtype not in _FULL_SCALE:
            raise AudioError(f"unsupported WAV sample format {data.dtype} in {source}")
        if data.size == 0:
            raise AudioError(f"zero-length audio in {source}")
        files.append((int(rate), data.reshape(len(data), -1)))
    (rate, data), *extra = files
    for ext_rate, ext in extra:
        if ext_rate != rate:
            raise AudioError("external microphone rate differs from the input")
        if len(ext) != len(data):
            raise AudioError(
                f"external microphone has {len(ext)} samples but the input has {len(data)}"
            )
    parts = [data, *(ext[:, :1] for _, ext in extra)]
    samples = np.empty((sum(part.shape[1] for part in parts), len(data)))
    for part, rows in zip(parts, np.split(samples, [data.shape[1]])):
        for f0 in range(0, len(data), _READ_CHUNK):
            rows[:, f0 : f0 + _READ_CHUNK] = part[f0 : f0 + _READ_CHUNK].T
        if _FULL_SCALE[part.dtype] != 1.0:  # float data: dividing by one would cost a pass
            rows /= _FULL_SCALE[part.dtype]
    return AudioClip(samples, rate)


def write_wav(clip: AudioClip, path: str | Path, bit_depth: str = "16") -> None:
    """Write a clip as WAV; bit_depth is "16" (PCM) or "32f" (float).

    For 16-bit output the samples are clamped to [-1, 1] before
    quantization, with +1.0 mapping to the largest positive code.
    """
    if clip.n_frames == 0:
        raise AudioError("refusing to write an empty clip")
    path = Path(path)
    x = clip.samples.T  # scipy wants (frames, channels)
    if bit_depth == "16":
        q = np.clip(x, -1.0, 1.0) * 32768.0
        data = np.clip(np.round(q), -32768, 32767).astype(np.int16)
    elif bit_depth == "32f":
        data = x.astype(np.float32)
    else:
        raise AudioError(f"unsupported bit depth {bit_depth!r} (use '16' or '32f')")
    if data.shape[1] == 1:
        data = data[:, 0]
    try:
        wavfile.write(str(path), clip.sample_rate_hz, data)
    except Exception as exc:
        raise AudioError(f"cannot write {path}: {exc}") from exc


_MAX_RATIO_TERM = 1024
_TAPS_PER_PHASE = 64
_KAISER_BETA = 8.6
_CUTOFF_FACTOR = 0.9


def resample(clip: AudioClip, target_rate_hz: int) -> AudioClip:
    """Polyphase resampling with a Kaiser-windowed-sinc anti-alias filter.

    The rate ratio must reduce to p/q with p, q <= 1024. Output length is
    ceil(frames * target / source); channels are converted independently.
    """
    if target_rate_hz <= 0:
        raise AudioError(f"target rate must be positive, got {target_rate_hz}")
    src = clip.sample_rate_hz
    if target_rate_hz == src:
        return clip
    g = math.gcd(target_rate_hz, src)
    up, down = target_rate_hz // g, src // g
    if up > _MAX_RATIO_TERM or down > _MAX_RATIO_TERM:
        raise AudioError(
            f"rate ratio {target_rate_hz}/{src} reduces to {up}/{down}; "
            f"both terms must be <= {_MAX_RATIO_TERM}"
        )
    cutoff = _CUTOFF_FACTOR * min(src, target_rate_hz) / 2.0
    taps = _TAPS_PER_PHASE * up + 1
    h = sps.firwin(taps, cutoff, window=("kaiser", _KAISER_BETA), fs=float(src * up))
    out = sps.resample_poly(clip.samples, up, down, axis=1, window=h)
    return AudioClip(out, target_rate_hz)
