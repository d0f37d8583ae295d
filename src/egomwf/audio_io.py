"""Multichannel WAV reading/writing and sample-rate conversion.

All in-memory audio is float64 in [-1, 1], shaped (channels, frames).
WAV is the only container; 16/24/32-bit PCM and 32/64-bit float are read
(plain or WAVE_FORMAT_EXTENSIBLE), 16-bit PCM and 32-bit float are
written. Only numpy is used.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

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


# (format tag, bits per sample) -> (little-endian sample dtype, full-scale
# multiplier); 24-bit PCM is read as int32 with its three bytes on top
_FORMATS = {(1, 16): ("<i2", 2.0**-15), (1, 24): ("<i4", 2.0**-31), (1, 32): ("<i4", 2.0**-31),
            (3, 32): ("<f4", 1.0), (3, 64): ("<f8", 1.0)}
# WAVE_FORMAT_EXTENSIBLE's subformat GUID after its two-byte format tag
_SUBFORMAT = b"\x00\x00\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
# frames per read, transposing copy or write, small enough to stay in cache
_CHUNK = 4096


def _layout(source: Path) -> tuple:
    """Rate, channels, frames, bits per sample, (dtype, full-scale multiplier)
    and data offset of a WAV file."""
    bad, fmt = f"unreadable WAV file {source}", None
    try:
        with open(source, "rb") as fh:
            size, magic = os.fstat(fh.fileno()).st_size, fh.read(12)
            if magic[:4] != b"RIFF" or magic[8:] != b"WAVE":
                raise AudioError(f"{bad}: not RIFF/WAVE but {magic[:4]!r}/{magic[8:]!r}")
            while len(head := fh.read(8)) == 8:
                chunk, length = struct.unpack("<4sI", head)
                offset = fh.tell()
                # a fmt chunk cut short leaves fmt unset and the loop at the end
                if chunk == b"fmt " and len(body := fh.read(min(length, 40))) >= 16:
                    fmt = struct.unpack("<HHIIHH", body[:16])
                    if fmt[0] == 0xFFFE and body[26:40] == _SUBFORMAT:  # extensible
                        fmt = struct.unpack("<H", body[24:26]) + fmt[1:]
                elif chunk == b"data":
                    break
                fh.seek(offset + length + length % 2)  # chunks are padded to even sizes
            else:
                raise AudioError(f"{bad}: no data chunk")
    except OSError as exc:
        raise AudioError(f"{bad}: {exc}") from exc
    if fmt is None:
        raise AudioError(f"{bad}: no fmt chunk before the data chunk")
    tag, channels, rate, _, align, bits = fmt
    if (tag, bits) not in _FORMATS:
        raise AudioError(f"unsupported WAV sample format (tag {tag:#x}, {bits} bits) in {source}")
    if channels == 0 or align != channels * bits // 8:
        raise AudioError(f"{bad}: {channels} channels in {align}-byte frames")
    if offset + length > size:
        raise AudioError(f"{bad}: data chunk of {length} bytes truncated to {size - offset}")
    if length < align:
        raise AudioError(f"zero-length audio in {source}")
    return rate, channels, length // align, bits, _FORMATS[tag, bits], offset


def read_wav(path: str | Path, external: str | Path | None = None) -> AudioClip:
    """Read a PCM 16/24/32-bit or 32/64-bit float WAV as a normalized clip.

    Samples are divided by the format's full-scale value; channel order on
    disk is preserved as row order in memory. With external, the first
    channel of that WAV (an external microphone of the same rate and
    length) is one more row. Each file is read, cast and scaled straight
    into its rows of one C-ordered array, _CHUNK frames at a time.
    """
    sources = [Path(p) for p in ((path,) if external is None else (path, external))]
    layouts = [_layout(source) for source in sources]
    (rate, channels, frames, *_), *extra = layouts
    for ext_rate, _, ext_frames, *_ in extra:
        if ext_rate != rate:
            raise AudioError("external microphone rate differs from the input")
        if ext_frames != frames:
            raise AudioError(f"external microphone has {ext_frames} samples but the input has {frames}")
    samples = np.empty((channels + len(extra), frames))
    for source, (_, stored, _, bits, (dtype, scale), offset), rows in zip(
        sources, layouts, np.split(samples, [channels])
    ):
        buffer = np.empty(_CHUNK * stored * bits // 8, np.uint8)  # one reused read buffer
        with open(source, "rb") as fh:
            fh.seek(offset)
            for f0 in range(0, frames, _CHUNK):
                raw = buffer[: stored * bits // 8 * min(_CHUNK, frames - f0)]
                if fh.readinto(raw) != raw.size:
                    raise AudioError(f"unreadable WAV file {source}: data ends early")
                if bits == 24:  # widened to int32 with its three bytes on top
                    raw = np.pad(raw.reshape(-1, 3), ((0, 0), (1, 0)))
                block = rows[:, f0 : f0 + _CHUNK]
                block[...] = raw.reshape(-1).view(dtype).reshape(-1, stored)[:, : len(rows)].T
                if scale != 1.0:  # a power of two: the product is the exact quotient
                    block *= scale
    return AudioClip(samples, rate)


def write_wav(clip: AudioClip, path: str | Path, bit_depth: str = "16") -> None:
    """Write a clip as WAV; bit_depth is "16" (PCM) or "32f" (float).

    For 16-bit output the samples are clamped to [-1, 1] before
    quantization, with +1.0 mapping to the largest positive code. The file
    is a 44-byte header and the interleaved little-endian samples,
    converted _CHUNK frames at a time.
    """
    if clip.n_frames == 0:
        raise AudioError("refusing to write an empty clip")
    if bit_depth not in ("16", "32f"):
        raise AudioError(f"unsupported bit depth {bit_depth!r} (use '16' or '32f')")
    tag, dtype = (1, np.dtype("<i2")) if bit_depth == "16" else (3, np.dtype("<f4"))
    (channels, frames), rate = clip.samples.shape, clip.sample_rate_hz
    align = channels * dtype.itemsize
    if 36 + frames * align > 0xFFFFFFFF:
        raise AudioError(f"{frames} frames of {channels} channels exceed a RIFF file's 4 GiB")
    header = struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + frames * align, b"WAVE", b"fmt ", 16,
                         tag, channels, rate, rate * align, align, 8 * dtype.itemsize,
                         b"data", frames * align)
    try:
        with open(path, "wb") as fh:
            fh.write(header)
            for f0 in range(0, frames, _CHUNK):
                x = clip.samples[:, f0 : f0 + _CHUNK].T
                if bit_depth == "16":
                    x = np.clip(np.round(np.clip(x, -1.0, 1.0) * 32768.0), -32768, 32767)
                fh.write(x.astype(dtype, order="C"))
    except OSError as exc:
        raise AudioError(f"cannot write {path}: {exc}") from exc


_MAX_RATIO_TERM = 1024
_TAPS_PER_PHASE = 64
_KAISER_BETA = 8.6
_CUTOFF_FACTOR = 0.9
# multiply-adds per product, at most: OpenBLAS runs a larger product on all
# its threads, which here costs more than the product
_PRODUCT_SIZE = 2**18


def _polyphase(x: np.ndarray, up: int, down: int, h: np.ndarray) -> np.ndarray:
    """scipy.signal.resample_poly(x, up, down, axis=-1, window=h) in numpy.

    Output k is sum_q up h[p + q up] x[b - q] for t = (k + skip) down - pre,
    p = t mod up, b = t // up: scipy's alignment, each output under the
    filter's centre. Outputs k and k + m up read windows m down >= taps
    apart, so each of the m up phases is one product of strided windows.
    """
    n_out = -(-x.shape[-1] * up // down)
    half = (len(h) - 1) // 2
    pre = down - half % down
    taps = -(-len(h) // up)
    m = -(-taps // down)
    t = (np.arange(m * up) + (half + pre) // down) * down - pre
    bank = np.zeros(taps * up)
    bank[: len(h)] = up * h
    bank = bank.reshape(taps, up)[::-1, t % up]  # column k: output k's taps, oldest input first
    first = t // up - (taps - 1)  # oldest input output k reads
    base, blocks = first.min(), -(-n_out // (m * up))
    stacks = -(-blocks * taps // _PRODUCT_SIZE)  # products per phase
    per = -(-blocks // stacks)  # windows per product
    blocks = -(-blocks // per) * per
    xp = np.zeros(x.shape[:-1] + ((blocks - 1) * m * down + first.max() - base + taps,))
    lo, hi = max(0, -base), min(xp.shape[-1], x.shape[-1] - base)
    xp[..., lo:hi] = x[..., lo + base : hi + base]
    windows = np.lib.stride_tricks.sliding_window_view(xp, taps, axis=-1)
    out = np.empty(x.shape[:-1] + (blocks * m * up,))
    for k in range(m * up):
        phase = windows[..., first[k] - base :: m * down, :][..., :blocks, :]
        products = phase.reshape(x.shape[:-1] + (-1, per, taps)) @ bank[:, k]
        out[..., k :: m * up] = products.reshape(x.shape[:-1] + (blocks,))
    return out[..., :n_out]


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
        raise AudioError(f"rate ratio {target_rate_hz}/{src} reduces to {up}/{down}; "
                         f"both terms must be <= {_MAX_RATIO_TERM}")
    # scipy.signal.firwin's lowpass at 0.9 x the lower Nyquist rate, in
    # units of the upsampled Nyquist rate, at unit DC gain
    cutoff = _CUTOFF_FACTOR * min(src, target_rate_hz) / (src * up)
    taps = _TAPS_PER_PHASE * up + 1
    h = np.sinc(cutoff * (np.arange(taps) - taps // 2)) * np.kaiser(taps, _KAISER_BETA)
    return AudioClip(_polyphase(clip.samples, up, down, h / h.sum()), target_rate_hz)
