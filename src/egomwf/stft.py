"""STFT analysis/synthesis with a square-root periodic Hann window.

The hop is always half the frame, where the squared windows sum to one:
a matched analysis/synthesis pair reconstructs the interior of the signal
to machine precision, each sample from two frames. One-sided spectra
only; all downstream per-bin math runs on bins 0..fft_size/2.
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
    sample_rate_hz: int = 16000

    def __post_init__(self):
        if type(self.fft_size) is not int or self.fft_size < 8 or self.fft_size % 2 != 0:
            raise StftError(f"fft_size must be an even integer >= 8, got {self.fft_size!r}")
        if type(self.sample_rate_hz) is not int or self.sample_rate_hz <= 0:
            raise StftError(f"sample_rate_hz must be an integer > 0, got {self.sample_rate_hz!r}")

    @property
    def hop(self) -> int:
        return self.fft_size // 2

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
            raise StftError(f"bin count {d.shape[0]} inconsistent with "
                            f"fft_size {self.params.fft_size}")
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


def overlap_add(frames: np.ndarray, out: np.ndarray | None = None, start: int = 0) -> np.ndarray:
    """Sum frames (..., F, N) of even length N placed N/2 samples apart:
    (..., (F + 1) * N/2).

    Each output sample sums two frames in frame order, (0 + second half of
    frame f-1) + first half of frame f, as a frame-by-frame loop does, so
    the sums match it bit for bit. Given out (..., whole hops, reshapable
    without a copy), the frames are added into it from hop `start` on.
    """
    n_frames, hop = frames.shape[-2], frames.shape[-1] // 2
    if out is None:
        out = np.zeros(frames.shape[:-2] + ((n_frames + 1) * hop,))
    acc = np.reshape(out, out.shape[:-1] + (-1, hop), copy=False)
    acc[..., start + 1 : start + 1 + n_frames, :] += frames[..., hop:]
    acc[..., start : start + n_frames, :] += frames[..., :hop]
    return out


def _frame_spectra(clip: AudioClip, params: StftParams, channels: Sequence[int], block: int):
    """(f0, spectra of frames f0 .. f0 + b - 1 in a reused (channels, b,
    bins) buffer) of a checked clip, up to `block` frames at a time.

    A full frame is windowed straight from a strided view of its channel's
    samples; only frames that run past the end come from a small
    zero-padded copy. Windowing is one exact product per sample, and a
    frame's rfft does not depend on its batch, so each block equals a
    frame-by-frame rfft of the zero-padded signal bit for bit.
    """
    n = clip.n_frames
    nfft, hop = params.fft_size, params.hop
    n_frames = -(-n // hop)
    n_full = (n - nfft) // hop + 1  # frames that end inside the signal
    full = frame_view(clip.samples, nfft, hop)
    # the rest, zero-padded; one unread frame when every frame is full
    start = n_full * hop
    tail = np.zeros((len(channels), max(n_frames - n_full - 1, 0) * hop + nfft))
    tail[:, : n - start] = clip.samples[channels, start:]
    tail_frames = frame_view(tail, nfft, hop)
    window = params.window_values()
    windowed = np.empty((len(channels), block, nfft))
    spectra = np.empty((len(channels), block, params.n_bins), dtype=np.complex128)
    for f0 in range(0, n_frames, block):
        b = min(block, n_frames - f0)
        split = min(max(n_full - f0, 0), b)  # full frames in this block
        if split:
            for row, c in zip(windowed, channels):
                np.multiply(full[c, f0 : f0 + split], window, out=row[:split])
        if split < b:
            t0 = f0 + split - n_full
            np.multiply(tail_frames[:, t0 : t0 + b - split], window, out=windowed[:, split:b])
        np.fft.rfft(windowed[:, :b], axis=-1, out=spectra[:, :b])
        yield f0, spectra[:, :b]


def analyze(
    clip: AudioClip, params: StftParams | None = None, channels: Sequence[int] | None = None
) -> StftGrid:
    """Windowed one-sided STFT of the listed channels (default: all).

    Grid column j holds clip channel channels[j]. Frame f covers samples
    [f*hop, f*hop + fft_size); the final partial frame is zero-padded.
    Frames exist for every start offset below the signal length, i.e.
    n_frames = ceil(n / hop). The grid data is C-contiguous, so per-bin
    products over channels run as stacked BLAS calls without a copy.

    Frames come from _frame_spectra _BLOCK at a time, each block written
    transposed into the grid while still in cache, so the grid equals a
    frame-by-frame rfft of the zero-padded signal bit for bit, and a
    column equals the same channel's column in the full analysis.
    """
    params = params or StftParams()
    if clip.sample_rate_hz != params.sample_rate_hz:
        raise StftError(f"clip rate {clip.sample_rate_hz} != params rate {params.sample_rate_hz}")
    channels = list(range(clip.n_channels) if channels is None else channels)
    if not channels:
        raise StftError("channel list must be nonempty")
    for c in channels:
        if not 0 <= c < clip.n_channels:
            raise StftError(f"channel {c} out of range (have {clip.n_channels})")
    n, nfft = clip.n_frames, params.fft_size
    if n < nfft:
        raise StftError(f"clip of {n} samples shorter than one frame ({nfft})")
    spec = np.empty((params.n_bins, -(-n // params.hop), len(channels)), dtype=np.complex128)
    for f0, block in _frame_spectra(clip, params, channels, _BLOCK):
        spec[:, f0 : f0 + block.shape[1]] = block.transpose(2, 1, 0)
    return StftGrid(spec, params, n_samples=n)


def synthesize(grid: StftGrid, out: Sequence[np.ndarray] | None = None,
               first: int = 0) -> AudioClip | None:
    """Overlap-add inverse with the matched synthesis window.

    Output is trimmed to the analyzed length when the grid records it.
    Perfect reconstruction holds on the interior; the first and last hop
    samples carry one frame only.

    Given out, one zeroed row of (frames + 1) * hop samples per channel
    (a 2-D array or a list of rows), the grid is its block from frame
    `first` on: its frames are added into out and nothing is returned.
    Blocks given in frame order sum as the whole grid would, bit for bit.
    """
    params = grid.params
    frames = np.fft.irfft(grid.data.transpose(2, 1, 0), n=params.fft_size, axis=2)
    frames *= params.window_values()  # in place: one frames-sized buffer, not two
    if out is not None:
        for channel, row in zip(frames, out):
            overlap_add(channel, row, first)
        return None
    samples = overlap_add(frames)[:, : grid.n_samples]
    return AudioClip(samples, params.sample_rate_hz)
