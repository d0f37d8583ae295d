"""Stacked correlation matrices from the STFT grid and an activity mask.

Batch estimation over the whole file: speech-plus-noise frames feed
R_yy, inactive frames feed R_nn, each averaged by its own frame count.
The result is one BinStatistics whose fields carry a leading bins axis;
stats[k] is the single-bin view of bin k.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .spp import SppMask
from .stft import StftGrid

DEFAULT_LOADING = 1e-6


@dataclass(frozen=True, eq=False)
class BinStatistics:
    """Hermitian (r_yy, r_nn) pairs for one frequency bin or a stack of bins.

    A single bin holds (M, M) matrices and int counts; a stack holds
    (bins, M, M) matrices and (bins,) int arrays; stats[k] is the bin-k
    view, and iterating a stack yields the views in bin order.
    l_on/l_off count the speech-active and inactive frames that entered
    each average; a zero count leaves the corresponding matrix zero and
    is resolved by the filter stage's fallbacks.
    """

    r_yy: np.ndarray
    r_nn: np.ndarray
    l_on: int | np.ndarray
    l_off: int | np.ndarray
    bin_index: int | np.ndarray

    def __getitem__(self, k: int) -> "BinStatistics":
        """Single-bin view of bin k of a stack."""
        return BinStatistics(
            r_yy=self.r_yy[k],
            r_nn=self.r_nn[k],
            l_on=int(self.l_on[k]),
            l_off=int(self.l_off[k]),
            bin_index=int(self.bin_index[k]),
        )

    def block(self, positions: Sequence[int]) -> "BinStatistics":
        """Principal sub-block on the listed channel positions, in that order.

        Every entry is its own masked average, so the block equals the
        statistics estimated on those channels alone: one estimate over
        many channels serves every channel subset of it.
        """
        rows = np.asarray(positions)[:, None]
        cols = rows.T
        return replace(self, r_yy=self.r_yy[..., rows, cols], r_nn=self.r_nn[..., rows, cols])


def _hermitize(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + np.conj(np.swapaxes(a, -2, -1)))


def estimate_correlations(
    grid: StftGrid, mask: SppMask, channels: Sequence[int]
) -> BinStatistics:
    """Accumulate masked outer products for every bin at once.

    r_yy(k) averages y y^H over frames with beta(k, l) = 1, r_nn(k) over
    the complement; y is restricted to `channels` in the given order.

    Bin k's (frames, M) slice of a C-contiguous (bins, frames, channels)
    grid already is y^T and is read in place; a channel list other than
    the full width in order, or a non-C-contiguous grid, is first copied
    once to that layout. conj(y) is written once as a contiguous (bins,
    M, frames) array, and each sum is conj((conj(y) * w) @ y^T), one
    stacked zgemm on a reused buffer. It equals (y * w) @ y^H bit for bit:
    the 0/1 weights make every masked entry exact, and conjugation only
    negates, which round-to-nearest mirrors exactly. The grid is not
    modified.
    """
    channels = list(channels)
    if not channels:
        raise ValueError("channel list must be nonempty")
    if len(set(channels)) != len(channels):
        raise ValueError(f"channel list has duplicates: {channels}")
    if any(not 0 <= c < grid.n_channels for c in channels):
        raise ValueError(f"channel list {channels} out of range for {grid.n_channels} channels")
    if mask.beta.shape != grid.data.shape[:2]:
        raise ValueError(
            f"mask shape {mask.beta.shape} does not match grid {grid.data.shape[:2]}"
        )
    g = grid.data
    if channels != list(range(grid.n_channels)) or not g.flags.c_contiguous:
        g = np.ascontiguousarray(g[:, :, channels])
    y_conj = np.empty((g.shape[0], g.shape[2], g.shape[1]), dtype=np.complex128)
    np.conjugate(np.swapaxes(g, 1, 2), out=y_conj)
    masked = np.empty_like(y_conj)
    beta = mask.beta.astype(np.float64)
    l_on = beta.sum(axis=1)
    l_off = beta.shape[1] - l_on

    # r_nn gets its own masked product: "total minus speech-active" would
    # cancel catastrophically when few frames are inactive
    def masked_average(w: np.ndarray, count: np.ndarray) -> np.ndarray:
        acc = np.conjugate(np.multiply(y_conj, w[:, None, :], out=masked) @ g)
        return _hermitize(acc / np.maximum(count, 1.0)[:, None, None])

    return BinStatistics(
        r_yy=masked_average(beta, l_on),
        r_nn=masked_average(1.0 - beta, l_off),
        l_on=l_on.astype(np.int64),
        l_off=l_off.astype(np.int64),
        bin_index=np.arange(grid.n_bins),
    )


def regularize(stats: BinStatistics, delta: float = DEFAULT_LOADING) -> BinStatistics:
    """Diagonal loading of r_nn by delta times its mean eigenvalue, per bin.

    Where r_nn is all-zero (no inactive frames) the loading level falls
    back to the trace of r_yy so the noise matrix is still invertible.
    Works on single-bin and stacked statistics alike.
    """
    if delta < 0:
        raise ValueError(f"delta must be >= 0, got {delta}")
    if delta == 0:
        return stats
    m = stats.r_nn.shape[-1]
    level = np.trace(stats.r_nn, axis1=-2, axis2=-1).real / m
    level = np.where(level == 0, np.trace(stats.r_yy, axis1=-2, axis2=-1).real / m, level)
    return replace(stats, r_nn=stats.r_nn + (delta * level)[..., None, None] * np.eye(m))
