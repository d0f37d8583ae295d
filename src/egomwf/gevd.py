"""Hermitian GEVD on batched LAPACK.

The generalized eigendecomposition of the pencil {R_yy, R_nn} via
Cholesky whitening, a lower-triangular solve on each side and the
Hermitian eigensolver of numpy.linalg. It accepts stacked inputs
(..., M, M); LAPACK factors each slice on its own, so a slice's result
does not depend on what else shares the batch.

Convention: gevd() returns Q with R_nn = Q Q^H and R_yy = Q diag(s_y) Q^H,
i.e. the noise eigenvalues are normalized to one and the ratio sort
reduces to sorting s_y descending. Eigenvectors carry a fixed phase: the
largest-magnitude entry of each one is real and positive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EgomwfError


class NotPositiveDefiniteError(EgomwfError):
    """Cholesky hit a non-positive pivot; caller should regularize."""


@dataclass(frozen=True, eq=False)
class PencilDecomposition:
    """GEVD of {r_yy, r_nn}: columns of q are generalized eigenvectors.

    sigma_y / sigma_n are sorted by descending ratio; with the sigma_n == 1
    convention that is simply sigma_y descending.
    """

    q: np.ndarray
    sigma_y: np.ndarray
    sigma_n: np.ndarray


def _herm(a: np.ndarray) -> np.ndarray:
    return np.conj(np.swapaxes(a, -2, -1))


def _fix_phase(v: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude entry of each eigenvector real-positive."""
    idx = np.argmax(np.abs(v), axis=-2)[..., None, :]
    lead = np.take_along_axis(v, idx, axis=-2)
    mag = np.abs(lead)
    return v * np.where(mag > 0, np.conj(lead) / np.where(mag > 0, mag, 1.0), 1.0)


def gevd(r_yy: np.ndarray, r_nn: np.ndarray) -> PencilDecomposition:
    """GEVD of the pencil {r_yy, r_nn} via Cholesky whitening.

    r_nn must be positive definite (regularize first); a non-positive
    pivot anywhere in the stack raises NotPositiveDefiniteError. The
    returned decomposition satisfies r_yy = Q diag(sigma_y) Q^H and
    r_nn = Q diag(sigma_n) Q^H with sigma_n identically one.
    """
    r_yy = np.asarray(r_yy, dtype=np.complex128)
    r_nn = np.asarray(r_nn, dtype=np.complex128)
    if r_yy.shape != r_nn.shape:
        raise ValueError(f"pencil shape mismatch: {r_yy.shape} vs {r_nn.shape}")
    if r_nn.ndim < 2 or r_nn.shape[-1] != r_nn.shape[-2]:
        raise ValueError(f"expected square matrices, got shape {r_nn.shape}")
    try:
        low = np.linalg.cholesky(r_nn)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(f"Cholesky factorization failed: {exc}") from exc
    t = np.linalg.solve(low, r_yy)  # L^-1 R_yy
    w = _herm(np.linalg.solve(low, _herm(t)))  # L^-1 R_yy L^-H
    lam, u = np.linalg.eigh(0.5 * (w + _herm(w)))
    lam, u = lam[..., ::-1], _fix_phase(u[..., ::-1])
    return PencilDecomposition(q=low @ u, sigma_y=lam, sigma_n=np.ones_like(lam))
