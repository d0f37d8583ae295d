"""STFT analysis/synthesis with a square-root periodic Hann window.

The 512-point window at 50% overlap satisfies exact COLA, so a matched
analysis/synthesis pair reconstructs the interior of the signal to
machine precision. One-sided spectra only; all downstream per-bin math
runs on bins 0..fft_size/2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .audio_io import AudioClip
from .errors import EgomwfError


# frames per analysis block: small enough that a block's spectra are
# still in cache when they are transposed into the grid
_BLOCK = 16


class StftError(EgomwfError):
    pass


def sqrt_hann_periodic(n: int) -> np.ndarray:
    """Square root of the DFT-even (periodic) Hann window of length n."""
    t = np.arange(n)
    return np.sqrt(0.5 - 0.5 * np.cos(2.0 * np.pi * t / n))


@dataclass(frozen=True)
class StftParams:
    fft_size: int = 512
    hop: int = 256
    sample_rate_hz: int = 16000

    def __post_init__(self):
        if self.fft_size < 8 or self.fft_size % 2 != 0:
            raise StftError(f"fft_size must be even and >= 8, got {self.fft_size}")
        if self.hop <= 0 or self.hop > self.fft_size:
            raise StftError(f"hop must be in 1..fft_size, got {self.hop}")

    @property
    def n_bins(self) -> int:
        return self.fft_size // 2 + 1

    def window_values(self) -> np.ndarray:
        return sqrt_hann_periodic(self.fft_size)


@dataclass(frozen=True, eq=False)
class StftGrid:
    """Complex STFT tensor of shape (bins, frames, channels)."""

    data: np.ndarray
    params: StftParams
    n_samples: int | None = field(default=None)

    def __post_init__(self):
        d = np.asarray(self.data)
        if d.ndim != 3:
            raise StftError(f"grid data must be 3-D (bins, frames, channels), got {d.shape}")
        if d.shape[0] != self.params.n_bins:
            raise StftError(
                f"bin count {d.shape[0]} inconsistent with fft_size {self.params.fft_size}"
            )
        object.__setattr__(self, "data", d.astype(np.complex128, copy=False))

    @property
    def n_bins(self) -> int:
        return self.data.shape[0]

    @property
    def n_frames(self) -> int:
        return self.data.shape[1]

    @property
    def n_channels(self) -> int:
        return self.data.shape[2]

    def channel_slice(self, index: int) -> np.ndarray:
        """Single-channel spectrogram (bins, frames)."""
        if not 0 <= index < self.n_channels:
            raise StftError(f"channel {index} out of range (have {self.n_channels})")
        return self.data[:, :, index]


def frame_view(x: np.ndarray, size: int, hop: int) -> np.ndarray:
    """Read-only view (..., frames, size) of the full frames of x along its
    last axis, frame f starting at sample f*hop."""
    return np.lib.stride_tricks.sliding_window_view(x, size, axis=-1)[..., ::hop, :]


def overlap_add(frames: np.ndarray, hop: int) -> np.ndarray:
    """Sum frames (..., F, N) placed hop samples apart: (..., (F-1)*hop + N).

    Each output sample adds its frames in increasing frame order, the
    same order as a frame-by-frame loop, so the sums match it bit for bit.
    """
    n_frames, size = frames.shape[-2:]
    k = -(-size // hop)  # frames overlapping one hop-sized block
    lead = frames.shape[:-2]
    if size < k * hop:  # zero-pad each frame to whole hop-sized blocks
        padded = np.zeros(lead + (n_frames, k * hop))
        padded[..., :size] = frames
        frames = padded
    blocks = frames.reshape(lead + (n_frames, k, hop))
    out = np.zeros(lead + (n_frames + k - 1, hop))
    for j in range(k - 1, -1, -1):
        out[..., j : j + n_frames, :] += blocks[..., j, :]
    return out.reshape(lead + (-1,))[..., : (n_frames - 1) * hop + size]


def analyze(
    clip: AudioClip, params: StftParams | None = None, channels: Sequence[int] | None = None
) -> StftGrid:
    """Windowed one-sided STFT of the listed channels (default: all).

    Grid column j holds clip channel channels[j]. Frame f covers samples
    [f*hop, f*hop + fft_size); the final partial frame is zero-padded.
    Frames exist for every start offset below the signal length, i.e.
    n_frames = ceil(n / hop). The grid data is C-contiguous, so per-bin
    products over channels run as stacked BLAS calls without a copy.

    Frames are transformed _BLOCK at a time. A full frame is windowed
    straight from a strided view of its channel's samples, so the signal
    is never copied; only the frames that run past the end come from a
    small zero-padded copy of the last samples. Each block is windowed
    into a reused (channels, _BLOCK, fft_size) buffer, transformed along
    its contiguous last axis into a reused (channels, _BLOCK, bins)
    buffer, and written transposed into the grid while still in cache.
    Windowing is one exact product per sample wherever the frame comes
    from, and a frame's rfft does not depend on the frames batched with
    it, so the grid equals a frame-by-frame rfft of the zero-padded
    signal bit for bit, and a column equals the same channel's column in
    the full analysis.
    """
    params = params or StftParams()
    if clip.sample_rate_hz != params.sample_rate_hz:
        raise StftError(
            f"clip rate {clip.sample_rate_hz} != params rate {params.sample_rate_hz}"
        )
    channels = list(range(clip.n_channels) if channels is None else channels)
    if not channels:
        raise StftError("channel list must be nonempty")
    for c in channels:
        if not 0 <= c < clip.n_channels:
            raise StftError(f"channel {c} out of range (have {clip.n_channels})")
    n = clip.n_frames
    nfft, hop = params.fft_size, params.hop
    if n < nfft:
        raise StftError(f"clip of {n} samples shorter than one frame ({nfft})")
    n_frames = -(-n // hop)
    n_full = (n - nfft) // hop + 1  # frames that end inside the signal
    full = frame_view(clip.samples, nfft, hop)
    # the rest, zero-padded; one unread frame when every frame is full
    start = n_full * hop
    tail = np.zeros((len(channels), max(n_frames - n_full - 1, 0) * hop + nfft))
    tail[:, : n - start] = clip.samples[channels, start:]
    tail_frames = frame_view(tail, nfft, hop)
    window = params.window_values()
    spec = np.empty((params.n_bins, n_frames, len(channels)), dtype=np.complex128)
    windowed = np.empty((len(channels), _BLOCK, nfft))
    block_spec = np.empty((len(channels), _BLOCK, params.n_bins), dtype=np.complex128)
    for f0 in range(0, n_frames, _BLOCK):
        b = min(_BLOCK, n_frames - f0)
        split = min(max(n_full - f0, 0), b)  # full frames in this block
        if split:
            for row, c in zip(windowed, channels):
                np.multiply(full[c, f0 : f0 + split], window, out=row[:split])
        if split < b:
            t0 = f0 + split - n_full
            np.multiply(tail_frames[:, t0 : t0 + b - split], window, out=windowed[:, split:b])
        np.fft.rfft(windowed[:, :b], axis=-1, out=block_spec[:, :b])
        spec[:, f0 : f0 + b] = block_spec[:, :b].transpose(2, 1, 0)
    return StftGrid(spec, params, n_samples=n)


def synthesize(grid: StftGrid) -> AudioClip:
    """Overlap-add inverse with the matched synthesis window.

    Output is trimmed to the analyzed length when the grid records it.
    Perfect reconstruction holds on the COLA-valid interior; the first
    and last (fft_size - hop) samples carry partial window overlap.
    """
    params = grid.params
    nfft, hop = params.fft_size, params.hop
    w = params.window_values()
    out = overlap_add(np.fft.irfft(grid.data.transpose(2, 1, 0), n=nfft, axis=2) * w, hop)
    if grid.n_samples is not None:
        out = out[:, : grid.n_samples]
    return AudioClip(out, params.sample_rate_hz)
