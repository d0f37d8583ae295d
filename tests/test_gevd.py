import numpy as np
import pytest
import scipy.linalg

from conftest import rand_hermitian
from egomwf.gevd import NotPositiveDefiniteError, PencilDecomposition, gevd


def _eig(a):
    """Eigendecomposition of a Hermitian a as the GEVD of {a, I}."""
    dec = gevd(a, np.eye(a.shape[-1], dtype=complex))
    return dec.sigma_y, dec.q


def test_cholesky_rejects_indefinite(rng):
    a = np.diag([1.0, -1.0]).astype(complex)
    with pytest.raises(NotPositiveDefiniteError):
        gevd(np.eye(2, dtype=complex), a)


def test_eig_diagonal_case():
    lam, v = _eig(np.diag([1.0, 5.0, 2.0]).astype(complex))
    assert np.allclose(lam, [5.0, 2.0, 1.0])
    assert np.allclose(np.abs(v), np.eye(3)[:, [1, 2, 0]])


def test_eig_degenerate_spectrum(rng):
    a = 3.0 * np.eye(4, dtype=complex)
    lam, v = _eig(a)
    assert np.allclose(lam, 3.0)
    assert np.linalg.norm(a @ v - v * lam) <= 1e-8 * np.linalg.norm(a)
    assert np.linalg.norm(v.conj().T @ v - np.eye(4)) <= 1e-10


def test_eig_random_residuals(rng):
    for m in (2, 3, 8):
        a = rand_hermitian(rng, m)
        lam, v = _eig(a)
        assert np.linalg.norm(a @ v - v @ np.diag(lam)) <= 1e-8 * np.linalg.norm(a)
        assert np.linalg.norm(v.conj().T @ v - np.eye(m)) <= 1e-10
        assert np.all(np.diff(lam) <= 1e-12)


def test_eig_matches_lapack(rng):
    for m in (2, 5, 12):
        a = rand_hermitian(rng, m)
        lam, _ = _eig(a)
        lam_ref = np.sort(scipy.linalg.eigvalsh(a))[::-1]
        assert np.allclose(lam, lam_ref, rtol=1e-9, atol=1e-10 * np.linalg.norm(a))


def test_eig_phase_convention(rng):
    a = rand_hermitian(rng, 6)
    _, v = _eig(a)
    idx = np.argmax(np.abs(v), axis=0)
    leads = v[idx, np.arange(6)]
    assert np.all(leads.real > 0)
    assert np.allclose(leads.imag, 0.0, atol=1e-12)


def test_gevd_identity_noise(rng):
    r_yy = rand_hermitian(rng, 5)
    dec = gevd(r_yy, np.eye(5, dtype=complex))
    lam = np.sort(np.linalg.eigvalsh(r_yy))[::-1]
    assert np.allclose(dec.sigma_y, lam, atol=1e-10)
    assert np.linalg.norm(dec.q.conj().T @ dec.q - np.eye(5)) <= 1e-8


def test_gevd_diagonal_pencil():
    dec = gevd(np.diag([4.0, 1.0]).astype(complex), np.diag([2.0, 1.0]).astype(complex))
    assert np.allclose(dec.sigma_y, [2.0, 1.0])
    assert np.allclose(dec.sigma_n, [1.0, 1.0])
    assert np.allclose(np.abs(dec.q), np.diag([np.sqrt(2.0), 1.0]), atol=1e-12)


def test_gevd_reconstruction(rng):
    for m in (2, 3, 5, 8):
        r_yy = rand_hermitian(rng, m)
        r_nn = rand_hermitian(rng, m, pd_shift=0.5)
        dec = gevd(r_yy, r_nn)
        e_yy = np.linalg.norm(dec.q @ np.diag(dec.sigma_y) @ dec.q.conj().T - r_yy)
        e_nn = np.linalg.norm(dec.q @ np.diag(dec.sigma_n) @ dec.q.conj().T - r_nn)
        assert e_yy <= 1e-8 * np.linalg.norm(r_yy)
        assert e_nn <= 1e-8 * np.linalg.norm(r_nn)
        ratios = dec.sigma_y / dec.sigma_n
        assert np.all(np.diff(ratios) <= 1e-10)


def test_gevd_pencil_relation(rng):
    r_yy = rand_hermitian(rng, 6)
    r_nn = rand_hermitian(rng, 6, pd_shift=0.5)
    dec = gevd(r_yy, r_nn)
    x = np.linalg.inv(dec.q).conj().T  # right generalized eigenvectors
    lhs = r_yy @ x
    rhs = r_nn @ x @ np.diag(dec.sigma_y / dec.sigma_n)
    assert np.linalg.norm(lhs - rhs) <= 1e-8 * np.linalg.norm(lhs)


def test_gevd_scale_equivariance(rng):
    r_yy = rand_hermitian(rng, 4)
    r_nn = rand_hermitian(rng, 4, pd_shift=0.5)
    d1 = gevd(r_yy, r_nn)
    d2 = gevd(5.0 * r_yy, r_nn)
    assert np.allclose(d2.sigma_y, 5.0 * d1.sigma_y, rtol=1e-10)
    # principal direction invariant up to phase
    c1 = d1.q[:, 0] / np.linalg.norm(d1.q[:, 0])
    c2 = d2.q[:, 0] / np.linalg.norm(d2.q[:, 0])
    assert abs(abs(np.vdot(c1, c2)) - 1.0) <= 1e-10


def test_gevd_determinism(rng):
    r_yy = rand_hermitian(rng, 8)
    r_nn = rand_hermitian(rng, 8, pd_shift=0.5)
    d1 = gevd(r_yy, r_nn)
    d2 = gevd(r_yy.copy(), r_nn.copy())
    assert np.array_equal(d1.q, d2.q)
    assert np.array_equal(d1.sigma_y, d2.sigma_y)


def test_gevd_batched_matches_loop(rng):
    r_yy = np.stack([rand_hermitian(rng, 4) for _ in range(6)])
    r_nn = np.stack([rand_hermitian(rng, 4, pd_shift=0.5) for _ in range(6)])
    batch = gevd(r_yy, r_nn)
    for i in range(6):
        single = gevd(r_yy[i], r_nn[i])
        assert np.allclose(batch.q[i], single.q, atol=1e-12)
        assert np.allclose(batch.sigma_y[i], single.sigma_y, atol=1e-12)


def test_gevd_shape_mismatch():
    with pytest.raises(ValueError):
        gevd(np.eye(3, dtype=complex), np.eye(4, dtype=complex))
    with pytest.raises(ValueError):
        gevd(np.ones((3, 4), dtype=complex), np.ones((3, 4), dtype=complex))


def test_decomposition_type():
    dec = gevd(np.eye(2, dtype=complex), np.eye(2, dtype=complex))
    assert isinstance(dec, PencilDecomposition)
    assert np.allclose(dec.sigma_n, 1.0)
