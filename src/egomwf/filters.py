"""Filter weights for stacked frequency bins: standard MWF and the
prior-knowledge MWF.

build_filterbank is the one way to compute weights: filter_partition
maps the method to the partition its filter runs on, and one core
computes every bin of a stacked BinStatistics at once. Both filters
share the rank-1 GEVD machinery: the speech covariance is the best
rank-1 PSD fit to R_yy - R_nn in the noise-whitened metric, and the
weight vector applies the Wiener gain 1 - sigma_n1/sigma_y1 along the
principal generalized eigendirection. The prior-knowledge variant first
cancels the noise-reference channels with an LCMV/GSC stage and solves
the reduced pencil, which constrains the implied speech covariance to
carry nothing on the reference channels.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .covariance import DEFAULT_LOADING, BinStatistics, regularize
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


def is_channel(value) -> bool:
    """True for a non-negative integer channel index (numpy integers too, bools not)."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= 0


@dataclass(frozen=True)
class ChannelPartition:
    """Physical channel indices split into speech-plus-noise and
    noise-only (propeller) sets; ref_channel indexes into the first set.
    Every index must be a non-negative integer; they are stored as int.
    """

    speech_noise_channels: tuple[int, ...]
    noise_only_channels: tuple[int, ...] = ()
    ref_channel: int = 0

    def __post_init__(self):
        given = (*self.speech_noise_channels, *self.noise_only_channels, self.ref_channel)
        bad = [c for c in given if not is_channel(c)]
        if bad:
            raise FilterError(f"channel indices must be non-negative integers, got {bad}")
        sn = tuple(int(c) for c in self.speech_noise_channels)
        no = tuple(int(c) for c in self.noise_only_channels)
        object.__setattr__(self, "speech_noise_channels", sn)
        object.__setattr__(self, "noise_only_channels", no)
        object.__setattr__(self, "ref_channel", int(self.ref_channel))
        if not sn:
            raise FilterError("speech_noise_channels must be nonempty")
        if len(set(sn)) != len(sn) or len(set(no)) != len(no):
            raise FilterError("channel lists contain duplicates")
        if set(sn) & set(no):
            raise FilterError(f"channel lists overlap: {sorted(set(sn) & set(no))}")
        if not 0 <= self.ref_channel < len(sn):
            raise FilterError(f"ref_channel {self.ref_channel} out of range for "
                              f"{len(sn)} speech+noise channels")

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


@dataclass(frozen=True, eq=False)
class FilterBank:
    """Per-bin weight vectors plus the partition that shaped them."""

    weights: np.ndarray  # (bins, M) complex
    partition: ChannelPartition
    per_bin_status: tuple[str, ...]
    compute_seconds: float = field(default=0.0)

    def status_counts(self) -> dict[str, int]:
        statuses = (STATUS_OK, STATUS_NO_SPEECH, STATUS_NO_NOISE, STATUS_CLAMPED)
        return {s: self.per_bin_status.count(s) for s in statuses}


def _wiener_gain(sigma_y1: np.ndarray, sigma_n1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Clamped gain max(0, 1 - sigma_n1/sigma_y1); flags where clamping hit."""
    safe = sigma_y1 > 0
    raw = np.where(safe, 1.0 - sigma_n1 / np.where(safe, sigma_y1, 1.0), -1.0)
    return np.maximum(raw, 0.0), raw < 0


def compute_gsc(r_nn: np.ndarray, k: int) -> np.ndarray:
    """LCMV solution in GSC form for (..., M, M) r_nn whose first k
    channels are kept and the rest blocked.

    With selection H = [I; 0] and blocking B = [0; I] this is
    C = H - B (B^H R B)^{-1} B^H R H = [I; -R_bb^{-1} R_bh], where R_bb
    and R_bh are the noise-reference rows of r_nn. It satisfies H^H C = I
    exactly and minimizes trace(C^H R_nn C) over all such matrices.
    """
    r_nn = np.asarray(r_nn, dtype=np.complex128)
    try:
        f = np.linalg.solve(r_nn[..., k:, k:], r_nn[..., k:, :k])
    except np.linalg.LinAlgError as exc:
        raise FilterError(f"singular noise-reference Gram matrix: {exc}") from exc
    c = np.zeros(r_nn.shape[:-1] + (k,), dtype=np.complex128)
    c[..., :k, :] = np.eye(k)
    c[..., k:, :] -= f
    return c


def _reduced_pencil(
    r_yy: np.ndarray, r_nn: np.ndarray, partition: ChannelPartition
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The pencil the rank-1 fit runs on, plus the GSC matrix C that lifts
    its solution back to all channels (None without noise-only channels,
    where the pencil is used as it is)."""
    if not partition.n_noise_only:
        return r_yy, r_nn, None
    c = compute_gsc(r_nn, partition.n_speech_noise)
    ch = np.conj(np.swapaxes(c, -2, -1))
    return ch @ r_yy @ c, ch @ r_nn @ c, c


def _filter(
    stats: BinStatistics, partition: ChannelPartition, delta: float
) -> tuple[np.ndarray, np.ndarray]:
    """Weights (bins, M) and status codes (bins,) for stacked stats.

    Loads r_nn by delta, then resolves the count fallbacks: no speech
    frames suppress the bin (w = 0), no noise frames pass it through
    (w = e_ref), and an all-zero loaded r_nn suppresses it as clamped.
    The remaining bins go through the GSC stage (only with noise-only
    channels) and one batched GEVD; a negative estimated speech power
    clamps the Wiener gain to zero and flags the bin.
    """
    m = partition.n_total
    if stats.r_yy.shape[-1] != m:
        raise FilterError(f"stats are {stats.r_yy.shape[-1]}-channel but the filter needs M={m}")
    r_nn = regularize(stats, delta).r_nn
    ref = partition.ref_channel
    no_speech = np.asarray(stats.l_on) == 0
    no_noise = ~no_speech & (np.asarray(stats.l_off) == 0)
    all_zero = ~(no_speech | no_noise) & (np.trace(r_nn, axis1=-2, axis2=-1).real <= 0)
    solve = ~(no_speech | no_noise | all_zero)

    weights = np.zeros(solve.shape + (m,), dtype=np.complex128)
    weights[no_noise, ref] = 1.0
    clamped = np.array(all_zero)
    if np.any(solve):
        r_yy_red, r_nn_red, c = _reduced_pencil(stats.r_yy[solve], r_nn[solve], partition)
        dec = gevd(r_yy_red, r_nn_red)
        gain, gain_clamped = _wiener_gain(dec.sigma_y[..., 0], dec.sigma_n[..., 0])
        clamped[solve] = gain_clamped
        # u = diag(g, 0, ...) Q^H e_ref has only its first entry populated
        u = np.zeros(dec.q.shape[:-1], dtype=np.complex128)
        u[..., 0] = gain * np.conj(dec.q[..., ref, 0])
        w = np.linalg.solve(np.conj(np.swapaxes(dec.q, -2, -1)), u[..., None])
        weights[solve] = (w if c is None else c @ w)[..., 0]
    status = np.select(
        [no_speech, no_noise, clamped], [STATUS_NO_SPEECH, STATUS_NO_NOISE, STATUS_CLAMPED], STATUS_OK
    )
    return weights, status


def implied_speech_covariance(stats: BinStatistics, partition: ChannelPartition) -> np.ndarray:
    """Rank-1 speech covariances (..., M, M) implied by the filter solution.

    This is the paper's R_ss estimate H Q_r diag(s_y1 - s_n1, 0, ...) Q_r^H H^H
    from the (reduced) pencil, where H = [I; 0] embeds the speech+noise
    channels; without noise-only channels it is Q diag(s_y1 - s_n1, 0, ...) Q^H.
    The difference is clamped at zero to keep the result PSD. No diagonal
    loading is applied.
    """
    r_yy_red, r_nn_red, _ = _reduced_pencil(stats.r_yy, stats.r_nn, partition)
    dec = gevd(r_yy_red, r_nn_red)
    top = np.maximum(dec.sigma_y[..., 0] - dec.sigma_n[..., 0], 0.0)
    hq1 = np.zeros(stats.r_yy.shape[:-1], dtype=np.complex128)
    hq1[..., : partition.n_speech_noise] = dec.q[..., :, 0]
    return top[..., None, None] * hq1[..., :, None] * np.conj(hq1[..., None, :])


def filter_partition(partition: ChannelPartition, method: str) -> ChannelPartition:
    """The partition the method's filter runs on, in filter channel order.

    "mwf" keeps only the speech+noise channels, "mwf-with-noise-mics"
    treats the noise-only channels as speech+noise channels too, and
    "pk-mwf" keeps them blocked.
    """
    if method == METHOD_PKMWF:
        return partition
    extra = partition.noise_only_channels if method == METHOD_MWF_NOISE_MICS else ()
    return ChannelPartition(partition.speech_noise_channels + extra, (), partition.ref_channel)


def build_filterbank(
    stats: BinStatistics,
    partition: ChannelPartition,
    method: str,
    delta: float = DEFAULT_LOADING,
) -> FilterBank:
    """Weights for a stack of bins, with regularization and fallbacks.

    Methods: "mwf" runs the standard filter on the speech+noise channels
    only; "mwf-with-noise-mics" runs it on all channels; "pk-mwf" adds
    the blocking constraint. All bins share one batched GEVD.
    """
    if method not in METHODS:
        raise FilterError(f"unknown method {method!r}; expected one of {METHODS}")
    if np.ndim(stats.l_on) != 1:
        raise FilterError("build_filterbank needs stacked statistics, one entry per bin")
    eff = filter_partition(partition, method)
    t0 = time.perf_counter()
    weights, status = _filter(stats, eff, delta)
    return FilterBank(
        weights=weights,
        partition=eff,
        per_bin_status=tuple(status.tolist()),
        compute_seconds=time.perf_counter() - t0,
    )
