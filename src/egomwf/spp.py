"""Speech presence probability on a single channel, thresholded to the
binary activity indicator used by the covariance estimator.

Fixed-prior MMSE-style estimator: a-posteriori SNR against a recursively
tracked noise PSD, with the PSD update guarded against lock-up by
capping the probability it sees.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EgomwfError

SPP_MODES = ("internal", "external", "oracle")


class SppError(EgomwfError):
    pass


def is_number(value) -> bool:
    """True for an int or float (numpy's too), bools not."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


@dataclass(frozen=True)
class SppParams:
    xi_h1: float = 10.0 ** (15.0 / 10.0)  # a-priori SNR under speech, linear
    alpha_psd: float = 0.8
    spp_cap: float = 0.99
    init_frames: int = 5
    threshold: float = 0.5

    def __post_init__(self):
        if not is_number(self.alpha_psd) or not 0.0 < self.alpha_psd < 1.0:
            raise SppError(f"alpha_psd must be a number in (0,1), got {self.alpha_psd!r}")
        if not is_number(self.spp_cap) or not 0.0 < self.spp_cap < 1.0:
            raise SppError(f"spp_cap must be a number in (0,1), got {self.spp_cap!r}")
        if not is_number(self.threshold) or not 0.0 < self.threshold < 1.0:
            raise SppError(f"threshold must be a number in (0,1), got {self.threshold!r}")
        if not is_number(self.xi_h1) or not 0 < self.xi_h1 < np.inf:
            raise SppError(f"xi_h1 must be a number > 0 and finite, got {self.xi_h1!r}")
        if type(self.init_frames) is not int or self.init_frames < 1:
            raise SppError(f"init_frames must be an integer >= 1, got {self.init_frames!r}")


@dataclass(frozen=True, eq=False)
class SppMask:
    """Per-(bin, frame) probability and binary indicator."""

    spp: np.ndarray
    beta: np.ndarray

    @property
    def n_frames(self) -> int:
        return self.beta.shape[1]

    def activity_fraction(self) -> float:
        return float(np.mean(self.beta))


def estimate_spp(spectrogram: np.ndarray, params: SppParams | None = None) -> SppMask:
    """SPP and activity indicator for one channel's (bins, frames) STFT.

    The noise PSD starts as the mean periodogram of the first
    `init_frames` frames (assumed noise-only) and then follows
    sigma2 <- a*sigma2 + (1-a)*[p*sigma2 + (1-p)*|y|^2] with p the
    cap-limited SPP of the current frame.
    """
    params = params or SppParams()
    spec = np.asarray(spectrogram)
    if spec.ndim != 2:
        raise SppError(f"expected (bins, frames) spectrogram, got shape {spec.shape}")
    n_bins, n_frames = spec.shape
    if n_frames < params.init_frames:
        raise SppError(f"need at least init_frames={params.init_frames} frames, got {n_frames}")
    power = np.abs(spec) ** 2
    eps = np.finfo(np.float64).eps
    sigma2 = np.mean(power[:, : params.init_frames], axis=1)
    sigma2 = np.maximum(sigma2, eps)

    xi = params.xi_h1
    glr_gain = xi / (1.0 + xi)
    alpha = params.alpha_psd
    # frame-major so each frame is a contiguous row; the loop evaluates
    #   p = 1 / (1 + (1 + xi) * exp(-gamma * glr_gain)),  gamma = |y|^2 / sigma2
    #   periodogram = p_c * sigma2 + (1 - p_c) * |y|^2,   p_c = min(p, cap)
    #   sigma2 = max(a * sigma2 + (1 - a) * periodogram, eps)
    # operation by operation into buffers reused across frames (IEEE
    # products and sums commute and (-g)*x == g*(-x), so each step rounds
    # exactly as the expressions above)
    power_t = np.ascontiguousarray(power.T)
    spp_t = np.empty((n_frames, n_bins))
    t = np.empty(n_bins)
    p_c = np.empty(n_bins)
    for y, p in zip(power_t, spp_t):
        np.divide(y, sigma2, out=t)
        np.multiply(t, -glr_gain, out=t)
        np.exp(t, out=t)
        np.multiply(t, 1.0 + xi, out=t)
        np.add(t, 1.0, out=t)
        np.divide(1.0, t, out=p)
        np.minimum(p, params.spp_cap, out=p_c)
        np.multiply(p_c, sigma2, out=t)
        np.subtract(1.0, p_c, out=p_c)
        np.multiply(p_c, y, out=p_c)
        np.add(t, p_c, out=t)
        np.multiply(sigma2, alpha, out=sigma2)
        np.multiply(t, 1.0 - alpha, out=t)
        np.add(sigma2, t, out=sigma2)
        np.maximum(sigma2, eps, out=sigma2)
    spp = np.ascontiguousarray(spp_t.T)
    beta = (spp >= params.threshold).astype(np.uint8)
    return SppMask(spp=spp, beta=beta)

