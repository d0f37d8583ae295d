"""Per-bin filter weights: standard MWF and the prior-knowledge MWF.

Both filters share the rank-1 GEVD machinery: the speech covariance is
the best rank-1 PSD fit to R_yy - R_nn in the noise-whitened metric, and
the weight vector applies the Wiener gain 1 - sigma_n1/sigma_y1 along
the principal generalized eigendirection. The prior-knowledge variant
first cancels the noise-reference channels with an LCMV/GSC stage and
solves the reduced pencil, which constrains the implied speech
covariance to carry nothing on the reference channels.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .covariance import BinStatistics, regularize
from .errors import EgomwfError
from .gevd import gevd

STATUS_OK = "ok"
STATUS_NO_SPEECH = "no_speech_frames"
STATUS_NO_NOISE = "no_noise_frames"
STATUS_CLAMPED = "clamped_gain"

METHOD_MWF = "mwf"
METHOD_MWF_NOISE_MICS = "mwf-with-noise-mics"
METHOD_PKMWF = "pk-mwf"
METHODS = (METHOD_MWF, METHOD_MWF_NOISE_MICS, METHOD_PKMWF)


class FilterError(EgomwfError):
    pass


@dataclass(frozen=True)
class ChannelPartition:
    """Physical channel indices split into speech-plus-noise and
    noise-only (propeller) sets; ref_channel indexes into the first set.
    """

    speech_noise_channels: tuple[int, ...]
    noise_only_channels: tuple[int, ...] = ()
    ref_channel: int = 0

    def __post_init__(self):
        sn = tuple(int(c) for c in self.speech_noise_channels)
        no = tuple(int(c) for c in self.noise_only_channels)
        object.__setattr__(self, "speech_noise_channels", sn)
        object.__setattr__(self, "noise_only_channels", no)
        if not sn:
            raise FilterError("speech_noise_channels must be nonempty")
        if len(set(sn)) != len(sn) or len(set(no)) != len(no):
            raise FilterError("channel lists contain duplicates")
        if set(sn) & set(no):
            raise FilterError(
                f"channel lists overlap: {sorted(set(sn) & set(no))}"
            )
        if not 0 <= self.ref_channel < len(sn):
            raise FilterError(
                f"ref_channel {self.ref_channel} out of range for "
                f"{len(sn)} speech+noise channels"
            )

    @property
    def n_speech_noise(self) -> int:
        return len(self.speech_noise_channels)

    @property
    def n_noise_only(self) -> int:
        return len(self.noise_only_channels)

    @property
    def n_total(self) -> int:
        return self.n_speech_noise + self.n_noise_only

    @property
    def ordered_channels(self) -> tuple[int, ...]:
        """Physical indices in filter order: speech+noise first."""
        return self.speech_noise_channels + self.noise_only_channels

    def without_noise_mics(self) -> "ChannelPartition":
        return ChannelPartition(self.speech_noise_channels, (), self.ref_channel)

    def describe(self) -> dict:
        return {
            "speech_noise_channels": list(self.speech_noise_channels),
            "noise_only_channels": list(self.noise_only_channels),
            "ref_channel": self.ref_channel,
        }


@dataclass(frozen=True)
class FilterBank:
    """Per-bin weight vectors plus the partition that shaped them."""

    weights: np.ndarray  # (bins, M) complex
    method: str
    partition: ChannelPartition
    per_bin_status: tuple[str, ...]
    compute_seconds: float = field(default=0.0)

    def status_counts(self) -> dict[str, int]:
        counts = {s: 0 for s in (STATUS_OK, STATUS_NO_SPEECH, STATUS_NO_NOISE, STATUS_CLAMPED)}
        for s in self.per_bin_status:
            counts[s] = counts.get(s, 0) + 1
        return counts


def build_selection_blocking(partition: ChannelPartition) -> tuple[np.ndarray, np.ndarray]:
    """Selection matrix h = [I; 0] and blocking matrix b = [0; I] in the
    reordered (speech+noise first) basis."""
    k, mn = partition.n_speech_noise, partition.n_noise_only
    m = k + mn
    h = np.zeros((m, k))
    h[:k, :] = np.eye(k)
    b = np.zeros((m, mn))
    b[k:, :] = np.eye(mn)
    return h, b


def _wiener_gain(sigma_y1: np.ndarray, sigma_n1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Clamped gain max(0, 1 - sigma_n1/sigma_y1); flags where clamping hit."""
    sigma_y1 = np.asarray(sigma_y1, dtype=np.float64)
    sigma_n1 = np.asarray(sigma_n1, dtype=np.float64)
    safe = sigma_y1 > 0
    raw = np.where(safe, 1.0 - sigma_n1 / np.where(safe, sigma_y1, 1.0), -1.0)
    return np.maximum(raw, 0.0), raw < 0


def _rank1_weights(
    r_yy: np.ndarray, r_nn: np.ndarray, ref: int
) -> tuple[np.ndarray, np.ndarray]:
    """Batched MWF weights for stacked regularized pencils.

    Returns (weights (..., M), clamped flags (...,)).
    """
    dec = gevd(r_yy, r_nn)
    gain, clamped = _wiener_gain(dec.sigma_y[..., 0], dec.sigma_n[..., 0])
    m = dec.q.shape[-1]
    # u = diag(g, 0, ...) Q^H e_d has only its first entry populated
    u = np.zeros(dec.q.shape[:-2] + (m,), dtype=np.complex128)
    u[..., 0] = gain * np.conj(dec.q[..., ref, 0])
    qh = np.conj(np.swapaxes(dec.q, -2, -1))
    w = np.linalg.solve(qh, u[..., None])[..., 0]
    return w, clamped


def compute_mwf(stats: BinStatistics, ref: int = 0) -> tuple[np.ndarray, str]:
    """Standard MWF weights for one bin; returns (weights, status).

    Fallbacks: no speech frames suppress the bin (w = 0), no noise
    frames pass it through (w = e_d). A negative estimated speech power
    clamps the gain to zero and flags the bin.
    """
    m = stats.r_yy.shape[0]
    if not 0 <= ref < m:
        raise FilterError(f"ref index {ref} out of range for M={m}")
    fallback = _count_fallback(stats, ref, m)
    if fallback is not None:
        return fallback
    w, clamped = _rank1_weights(stats.r_yy, stats.r_nn, ref)
    return w, (STATUS_CLAMPED if bool(clamped) else STATUS_OK)


def _count_fallback(stats: BinStatistics, ref: int, m: int) -> tuple[np.ndarray, str] | None:
    if stats.l_on == 0:
        return np.zeros(m, dtype=np.complex128), STATUS_NO_SPEECH
    if stats.l_off == 0:
        e = np.zeros(m, dtype=np.complex128)
        e[ref] = 1.0
        return e, STATUS_NO_NOISE
    return None


def compute_gsc(r_nn: np.ndarray, h: np.ndarray, b: np.ndarray) -> np.ndarray:
    """LCMV solution in GSC form: C = H - B (B^H R B)^{-1} B^H R H.

    Satisfies H^H C = I exactly and minimizes trace(C^H R_nn C) over all
    constraint-satisfying matrices. Accepts stacked r_nn.
    """
    r_nn = np.asarray(r_nn, dtype=np.complex128)
    h = np.asarray(h, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if b.shape[-1] == 0:
        return np.broadcast_to(h, r_nn.shape[:-2] + h.shape).copy()
    bh = np.conj(b.T)
    gram = bh @ r_nn @ b
    cross = bh @ r_nn @ h
    try:
        f = np.linalg.solve(gram, cross)
    except np.linalg.LinAlgError as exc:
        raise FilterError(f"singular noise-reference Gram matrix: {exc}") from exc
    return h - b @ f


def compute_pkmwf(stats: BinStatistics, partition: ChannelPartition) -> tuple[np.ndarray, str]:
    """Prior-knowledge MWF weights for one bin; returns (weights, status).

    The GSC stage cancels the noise-reference channels, the reduced
    pencil is decomposed, and the weights are lifted back through C.
    Same per-bin fallbacks as compute_mwf.
    """
    m = partition.n_total
    if stats.r_yy.shape[0] != m:
        raise FilterError(
            f"stats are {stats.r_yy.shape[0]}x{stats.r_yy.shape[0]} but partition has M={m}"
        )
    fallback = _count_fallback(stats, partition.ref_channel, m)
    if fallback is not None:
        return fallback
    h, b = build_selection_blocking(partition)
    c = compute_gsc(stats.r_nn, h, b)
    r_red_yy = np.conj(c.T) @ stats.r_yy @ c
    r_red_nn = np.conj(c.T) @ stats.r_nn @ c
    w, clamped = _reduced_weights(r_red_yy, r_red_nn, c, partition.ref_channel)
    return w, (STATUS_CLAMPED if bool(clamped) else STATUS_OK)


def _reduced_weights(
    r_red_yy: np.ndarray, r_red_nn: np.ndarray, c: np.ndarray, ref: int
) -> tuple[np.ndarray, np.ndarray]:
    """Lift batched reduced-pencil MWF weights back through C."""
    z, clamped = _rank1_weights(r_red_yy, r_red_nn, ref)
    w = (c @ z[..., None])[..., 0]
    return w, clamped


def implied_speech_covariance(stats: BinStatistics, partition: ChannelPartition | None = None) -> np.ndarray:
    """Rank-1 speech covariance implied by the (PK-)MWF solution.

    With a partition this is H Q_r diag(s_y1 - s_n1, 0, ...) Q_r^H H^H from
    the reduced pencil; without one it is the standard-MWF estimate
    Q diag(s_y1 - s_n1, 0, ...) Q^H. The difference is clamped at zero to
    keep the result PSD.
    """
    if partition is None:
        dec = gevd(stats.r_yy, stats.r_nn)
        top = max(dec.sigma_y[0] - dec.sigma_n[0], 0.0)
        q1 = dec.q[:, 0]
        return top * np.outer(q1, np.conj(q1))
    h, b = build_selection_blocking(partition)
    c = compute_gsc(stats.r_nn, h, b)
    dec = gevd(np.conj(c.T) @ stats.r_yy @ c, np.conj(c.T) @ stats.r_nn @ c)
    top = max(dec.sigma_y[0] - dec.sigma_n[0], 0.0)
    hq1 = h @ dec.q[:, 0]
    return top * np.outer(hq1, np.conj(hq1))


def build_filterbank(
    stats: Sequence[BinStatistics],
    partition: ChannelPartition,
    method: str,
    delta: float = 1e-6,
) -> FilterBank:
    """Per-bin weights for all bins, with regularization and fallbacks.

    Methods: "mwf" runs the standard filter on the speech+noise channels
    only; "mwf-with-noise-mics" runs it on all channels; "pk-mwf" adds
    the blocking constraint. Bins are batched through the GEVD kernel.
    """
    if method not in METHODS:
        raise FilterError(f"unknown method {method!r}; expected one of {METHODS}")
    eff = partition.without_noise_mics() if method == METHOD_MWF else partition
    m = eff.n_total
    ref = eff.ref_channel
    n_bins = len(stats)
    t0 = time.perf_counter()

    weights = np.zeros((n_bins, m), dtype=np.complex128)
    status: list[str] = [STATUS_OK] * n_bins
    solve_idx: list[int] = []
    solve_stats: list[BinStatistics] = []
    for k, st in enumerate(stats):
        if st.r_yy.shape[0] != m:
            raise FilterError(
                f"bin {k} stats are {st.r_yy.shape[0]}-channel but method {method} needs {m}"
            )
        fb = _count_fallback(st, ref, m)
        if fb is not None:
            weights[k], status[k] = fb
            continue
        reg = regularize(st, delta)
        if np.trace(reg.r_nn).real <= 0:
            # all-zero bin: nothing to estimate, suppress with zero gain
            status[k] = STATUS_CLAMPED
            continue
        solve_idx.append(k)
        solve_stats.append(reg)

    if solve_idx:
        r_yy = np.stack([st.r_yy for st in solve_stats])
        r_nn = np.stack([st.r_nn for st in solve_stats])
        if method == METHOD_PKMWF:
            h, b = build_selection_blocking(eff)
            c = compute_gsc(r_nn, h, b)
            ch = np.conj(np.swapaxes(c, -2, -1))
            w, clamped = _reduced_weights(ch @ r_yy @ c, ch @ r_nn @ c, c, ref)
        else:
            w, clamped = _rank1_weights(r_yy, r_nn, ref)
        for i, k in enumerate(solve_idx):
            weights[k] = w[i]
            if clamped[i]:
                status[k] = STATUS_CLAMPED
    elapsed = time.perf_counter() - t0
    return FilterBank(
        weights=weights,
        method=method,
        partition=eff,
        per_bin_status=tuple(status),
        compute_seconds=elapsed,
    )
