import numpy as np
import pytest

from conftest import rand_hermitian, rand_speech_pencil
from egomwf.covariance import BinStatistics, regularize
from egomwf.filters import (
    STATUS_CLAMPED,
    STATUS_NO_NOISE,
    STATUS_NO_SPEECH,
    STATUS_OK,
    ChannelPartition,
    FilterError,
    build_filterbank,
    build_selection_blocking,
    compute_gsc,
    compute_mwf,
    compute_pkmwf,
    implied_speech_covariance,
)
from egomwf.gevd import gevd


def _stats(r_yy, r_nn, l_on=10, l_off=10):
    return BinStatistics(r_yy=r_yy, r_nn=r_nn, l_on=l_on, l_off=l_off, bin_index=0)


def _stack(stats):
    """One stacked BinStatistics from single-bin ones."""
    return BinStatistics(
        r_yy=np.stack([st.r_yy for st in stats]),
        r_nn=np.stack([st.r_nn for st in stats]),
        l_on=np.array([st.l_on for st in stats]),
        l_off=np.array([st.l_off for st in stats]),
        bin_index=np.array([st.bin_index for st in stats]),
    )


def _speech_stats(rng, m, power=1.0):
    r_yy, r_nn = rand_speech_pencil(rng, m, power)
    return _stats(r_yy, r_nn)


# ---------------------------------------------------------------- partition


def test_partition_validation():
    with pytest.raises(FilterError):
        ChannelPartition((), (0,))
    with pytest.raises(FilterError):
        ChannelPartition((0, 1), (1, 2))
    with pytest.raises(FilterError):
        ChannelPartition((0, 0), ())
    with pytest.raises(FilterError):
        ChannelPartition((0, 1), (), ref_channel=2)
    part = ChannelPartition((3, 1), (5,), ref_channel=1)
    assert part.ordered_channels == (3, 1, 5)
    assert part.n_total == 3


def test_selection_blocking_small_case():
    part = ChannelPartition((0, 1), (2,))
    h, b = build_selection_blocking(part)
    assert np.array_equal(h, [[1, 0], [0, 1], [0, 0]])
    assert np.array_equal(b, [[0], [0], [1]])


def test_selection_blocking_degenerate():
    h, b = build_selection_blocking(ChannelPartition((0, 1, 2), ()))
    assert np.array_equal(h, np.eye(3))
    assert b.shape == (3, 0)


def test_selection_blocking_exhaustive():
    for m in range(1, 7):
        for k in range(1, m + 1):
            part = ChannelPartition(tuple(range(k)), tuple(range(k, m)))
            h, b = build_selection_blocking(part)
            assert np.array_equal(h.T @ b, np.zeros((k, m - k)))
            stacked = np.hstack([h, b])
            assert np.array_equal(stacked @ stacked.T, np.eye(m))


# ----------------------------------------------------------------- MWF core


def test_mwf_no_speech_gives_zero_gain(rng):
    r_nn = rand_hermitian(rng, 4, pd_shift=0.5)
    w, status = compute_mwf(_stats(r_nn.copy(), r_nn.copy()), ref=0)
    assert np.max(np.abs(w)) <= 1e-10
    assert status == STATUS_OK


def test_mwf_scalar_reduction():
    w, status = compute_mwf(
        _stats(np.array([[4.0 + 0j]]), np.array([[1.0 + 0j]])), ref=0
    )
    assert w[0] == pytest.approx(0.75)
    assert status == STATUS_OK


def test_mwf_matches_direct_solution(rng):
    """Weights from the GEVD form equal R_yy^-1 R_ss e_d."""
    for _ in range(50):
        st = _speech_stats(rng, 4)
        w, status = compute_mwf(st, ref=0)
        assert status == STATUS_OK
        r_ss = implied_speech_covariance(st)
        e_d = np.zeros(4)
        e_d[0] = 1.0
        w_ref = np.linalg.solve(st.r_yy, r_ss @ e_d)
        assert np.linalg.norm(w - w_ref) <= 1e-8 * np.linalg.norm(w_ref)


def test_mwf_fallbacks(rng):
    st = _speech_stats(rng, 3)
    w, status = compute_mwf(
        BinStatistics(st.r_yy, st.r_nn, l_on=0, l_off=9, bin_index=0), ref=1
    )
    assert status == STATUS_NO_SPEECH
    assert np.all(w == 0)
    w, status = compute_mwf(
        BinStatistics(st.r_yy, st.r_nn, l_on=9, l_off=0, bin_index=0), ref=1
    )
    assert status == STATUS_NO_NOISE
    assert np.array_equal(w, [0, 1, 0])


def test_mwf_clamps_negative_speech_power(rng):
    r_nn = rand_hermitian(rng, 3, pd_shift=1.0)
    st = _stats(0.5 * r_nn, r_nn)  # estimated speech power negative
    w, status = compute_mwf(st, ref=0)
    assert status == STATUS_CLAMPED
    assert np.max(np.abs(w)) <= 1e-12


def test_mwf_scale_invariance(rng):
    st = _speech_stats(rng, 5)
    w1, _ = compute_mwf(st, ref=0)
    st2 = _stats(7.0 * st.r_yy, 7.0 * st.r_nn)
    w2, _ = compute_mwf(st2, ref=0)
    assert np.allclose(w1, w2, atol=1e-12 * max(1, np.max(np.abs(w1))))


def test_mwf_phase_convention_invariance(rng):
    """Weights are unchanged under any per-column phase applied to Q."""
    st = _speech_stats(rng, 4)
    dec = gevd(st.r_yy, st.r_nn)
    gain = max(0.0, 1.0 - dec.sigma_n[0] / dec.sigma_y[0])
    e_d = np.zeros(4)
    e_d[0] = 1.0
    w_ref, _ = compute_mwf(st, ref=0)
    phases = np.exp(2j * np.pi * rng.uniform(size=4))
    q2 = dec.q * phases[None, :]
    d = np.zeros((4, 4))
    d[0, 0] = gain
    w2 = np.linalg.solve(q2.conj().T, d @ q2.conj().T @ e_d)
    assert np.linalg.norm(w2 - w_ref) <= 1e-10 * max(1.0, np.linalg.norm(w_ref))


# ----------------------------------------------------------------- GSC/LCMV


def test_gsc_identity_noise():
    part = ChannelPartition((0, 1), (2, 3))
    h, b = build_selection_blocking(part)
    c = compute_gsc(np.eye(4, dtype=complex), h, b)
    assert np.allclose(c, h)


def test_gsc_no_noise_refs():
    part = ChannelPartition((0, 1, 2), ())
    h, b = build_selection_blocking(part)
    c = compute_gsc(rand_hermitian(np.random.default_rng(0), 3, pd_shift=1.0), h, b)
    assert np.allclose(c, np.eye(3))


def test_gsc_constraint_and_optimality(rng):
    part = ChannelPartition(tuple(range(4)), (4, 5))
    h, b = build_selection_blocking(part)
    for _ in range(10):
        r_nn = rand_hermitian(rng, 6, pd_shift=0.2)
        c = compute_gsc(r_nn, h, b)
        assert np.linalg.norm(h.conj().T @ c - np.eye(4)) <= 1e-12
        base = np.trace(c.conj().T @ r_nn @ c).real
        for _ in range(500):
            f = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
            cand = h - b @ f
            assert np.trace(cand.conj().T @ r_nn @ cand).real >= base - 1e-9 * abs(base)


# ------------------------------------------------------------------ PK-MWF


def test_pkmwf_equals_mwf_without_noise_refs(rng):
    for _ in range(20):
        st = _speech_stats(rng, 5)
        part = ChannelPartition(tuple(range(5)), ())
        w_pk, s_pk = compute_pkmwf(st, part)
        w_mwf, s_mwf = compute_mwf(st, ref=0)
        assert s_pk == s_mwf
        assert np.linalg.norm(w_pk - w_mwf) <= 1e-10 * max(1.0, np.linalg.norm(w_mwf))


def test_pkmwf_block_diagonal_reduces_to_padded_mwf(rng):
    for _ in range(20):
        k, mn = 4, 2
        r_yy_a, r_nn_a = rand_speech_pencil(rng, k)
        r_nn_b = rand_hermitian(rng, mn, pd_shift=0.3)
        zeros = np.zeros((k, mn))
        r_yy = np.block([[r_yy_a, zeros], [zeros.T, r_nn_b]])
        r_nn = np.block([[r_nn_a, zeros], [zeros.T, r_nn_b]])
        part = ChannelPartition(tuple(range(k)), tuple(range(k, k + mn)))
        w_pk, _ = compute_pkmwf(_stats(r_yy, r_nn), part)
        w_sub, _ = compute_mwf(_stats(r_yy_a, r_nn_a), ref=0)
        padded = np.concatenate([w_sub, np.zeros(mn)])
        assert np.linalg.norm(w_pk - padded) <= 1e-10 * max(1.0, np.linalg.norm(padded))


def test_pkmwf_implied_covariance_constraints(rng):
    part = ChannelPartition(tuple(range(4)), (4, 5))
    h, b = build_selection_blocking(part)
    for _ in range(20):
        st = _speech_stats(rng, 6)
        r_ss = implied_speech_covariance(st, part)
        norm = np.linalg.norm(r_ss)
        assert np.linalg.norm(b.conj().T @ r_ss @ b) <= 1e-10 * max(norm, 1e-30)
        sv = np.linalg.svd(r_ss, compute_uv=False)
        assert sv[1] <= 1e-8 * max(sv[0], 1e-30)
        eig = np.linalg.eigvalsh(0.5 * (r_ss + r_ss.conj().T))
        assert eig.min() >= -1e-10 * max(np.trace(r_ss).real, 1e-30)


def test_pkmwf_constrained_optimality_sampling(rng):
    """The implied speech covariance attains the whitened-fit cost better
    than random feasible rank-1 PSD candidates."""
    part = ChannelPartition(tuple(range(4)), (4, 5))
    h, _ = build_selection_blocking(part)
    for _ in range(5):
        st = _speech_stats(rng, 6)
        low = np.linalg.cholesky(st.r_nn)
        low_inv = np.linalg.inv(low)

        def cost(r_ss):
            mid = low_inv @ (st.r_yy - st.r_nn - r_ss) @ low_inv.conj().T
            return np.linalg.norm(mid) ** 2

        best = cost(implied_speech_covariance(st, part))
        scale = np.trace(st.r_yy).real / 6
        for _ in range(1000):
            u = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            v = h @ u
            cand = rng.uniform(0, 2) * scale * np.outer(v, v.conj()) / (np.linalg.norm(v) ** 2)
            assert cost(cand) >= best - 1e-9 * abs(best)


def test_filterbank_statuses_and_shape(rng):
    part = ChannelPartition((0, 1, 2), (3,))
    stats = []
    for k in range(6):
        r_yy, r_nn = rand_speech_pencil(rng, 4)
        l_on, l_off = 10, 10
        if k == 2:
            l_on = 0
        if k == 3:
            l_off = 0
        stats.append(BinStatistics(r_yy, r_nn, l_on=l_on, l_off=l_off, bin_index=k))
    fb = build_filterbank(_stack(stats), part, "pk-mwf")
    assert fb.weights.shape == (6, 4)
    assert fb.per_bin_status[2] == STATUS_NO_SPEECH
    assert np.all(fb.weights[2] == 0)
    assert fb.per_bin_status[3] == STATUS_NO_NOISE
    assert np.array_equal(fb.weights[3], [1, 0, 0, 0])
    counts = fb.status_counts()
    assert counts[STATUS_NO_SPEECH] == 1 and counts[STATUS_NO_NOISE] == 1
    assert sum(counts.values()) == 6


def test_filterbank_mwf_drops_noise_channels(rng):
    part = ChannelPartition((0, 1, 2), (3,))
    stats = [
        BinStatistics(*rand_speech_pencil(rng, 3), l_on=5, l_off=5, bin_index=k)
        for k in range(4)
    ]
    fb = build_filterbank(_stack(stats), part, "mwf")
    assert fb.weights.shape == (4, 3)
    assert fb.partition.n_noise_only == 0


def _mixed_stack(rng, m):
    """Bins 0-1 ok, then no-speech, no-noise, all-zero and clamped bins."""
    stats = []
    for k in range(6):
        r_yy, r_nn = rand_speech_pencil(rng, m)
        l_on, l_off = 8, 8
        if k == 2:
            l_on = 0
        if k == 3:
            l_off = 0
        if k == 4:
            r_yy = r_nn = np.zeros((m, m), complex)
        if k == 5:
            r_yy = 0.5 * r_nn
        stats.append(BinStatistics(r_yy, r_nn, l_on=l_on, l_off=l_off, bin_index=k))
    return _stack(stats)


def test_filterbank_matches_per_bin_ops(rng):
    part = ChannelPartition((0, 1, 2, 3), (4, 5))
    stats = [
        BinStatistics(*rand_speech_pencil(rng, 6), l_on=8, l_off=8, bin_index=k)
        for k in range(5)
    ]
    delta = 1e-6
    fb = build_filterbank(_stack(stats), part, "pk-mwf", delta)
    for k, st in enumerate(stats):
        w, status = compute_pkmwf(regularize(st, delta), part)
        assert np.allclose(fb.weights[k], w, atol=1e-12)
        assert fb.per_bin_status[k] == status

    # every method, every status: the bank equals its per-bin views bit for bit
    for method in ("mwf", "mwf-with-noise-mics", "pk-mwf"):
        mixed = _mixed_stack(rng, 4 if method == "mwf" else 6)
        fb = build_filterbank(mixed, part, method, delta)
        assert fb.per_bin_status == (
            STATUS_OK, STATUS_OK, STATUS_NO_SPEECH, STATUS_NO_NOISE, STATUS_CLAMPED, STATUS_CLAMPED
        )
        for k in range(6):
            view = regularize(mixed[k], delta)
            if method == "pk-mwf":
                w, status = compute_pkmwf(view, part)
            else:
                w, status = compute_mwf(view, ref=part.ref_channel)
            assert np.array_equal(fb.weights[k], w)
            assert fb.per_bin_status[k] == status


def test_filterbank_rejects_unknown_method(rng):
    part = ChannelPartition((0,), ())
    with pytest.raises(FilterError):
        build_filterbank([], part, "mvdr")


def test_all_zero_bin_suppressed():
    st = BinStatistics(
        np.zeros((3, 3), complex), np.zeros((3, 3), complex), l_on=4, l_off=4, bin_index=0
    )
    fb = build_filterbank(_stack([st]), ChannelPartition((0, 1, 2), ()), "mwf")
    assert np.all(fb.weights == 0)
    assert fb.per_bin_status[0] == STATUS_CLAMPED
