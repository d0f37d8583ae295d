import numpy as np
import pytest

from conftest import rand_hermitian, rand_speech_pencil
from egomwf.covariance import BinStatistics
from egomwf.filters import (
    STATUS_CLAMPED,
    STATUS_NO_NOISE,
    STATUS_NO_SPEECH,
    STATUS_OK,
    ChannelPartition,
    FilterError,
    build_filterbank,
    compute_gsc,
    filter_partition,
    implied_speech_covariance,
)
from egomwf.gevd import gevd


def _stack(r_yy, r_nn, l_on=10, l_off=10):
    """Stacked statistics from (bins, M, M) or one bin's (M, M) matrices;
    the frame counts broadcast over the bins."""
    r_yy = np.asarray(r_yy, dtype=complex)
    r_nn = np.asarray(r_nn, dtype=complex)
    if r_yy.ndim == 2:
        r_yy, r_nn = r_yy[None], r_nn[None]
    n = len(r_yy)
    counts = [np.broadcast_to(np.asarray(c, dtype=np.int64), (n,)).copy() for c in (l_on, l_off)]
    return BinStatistics(r_yy, r_nn, *counts)


def _bin(stats, k):
    """Bin k of a stack as a one-bin stack."""
    return _stack(stats.r_yy[k], stats.r_nn[k], stats.l_on[k], stats.l_off[k])


def _pencils(rng, n, m, power=1.0):
    """(r_yy, r_nn) stacks of n random rank-1-speech pencils."""
    r_yy, r_nn = zip(*(rand_speech_pencil(rng, m, power) for _ in range(n)))
    return np.stack(r_yy), np.stack(r_nn)


def _all(m, ref=0):
    """Every channel a speech+noise channel."""
    return ChannelPartition(tuple(range(m)), (), ref)


def _weights(stats, partition, method):
    """Unloaded weights (bins, M) and statuses of the filter bank."""
    fb = build_filterbank(stats, partition, method, delta=0.0)
    return fb.weights, fb.per_bin_status


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
    # channel indices are non-negative integers; numpy integers are stored as int
    for bad in ((0.5, 1), (True, 2), "01", (-1, 0)):
        with pytest.raises(FilterError):
            ChannelPartition(bad, ())
    for ref in (0.5, True, -1):
        with pytest.raises(FilterError):
            ChannelPartition((0, 1), (), ref_channel=ref)
    part = ChannelPartition(np.arange(2), (np.int64(4),), ref_channel=np.int32(1))
    assert part.ordered_channels == (0, 1, 4) and part.ref_channel == 1
    assert all(type(c) is int for c in (*part.ordered_channels, part.ref_channel))


def test_filter_partition_per_method():
    part = ChannelPartition((3, 1), (5, 6), ref_channel=1)
    assert filter_partition(part, "mwf") == ChannelPartition((3, 1), (), 1)
    assert filter_partition(part, "mwf-with-noise-mics") == ChannelPartition((3, 1, 5, 6), (), 1)
    assert filter_partition(part, "pk-mwf") is part


# ----------------------------------------------------------------- MWF core


def test_mwf_no_speech_gives_zero_gain(rng):
    r_nn = rand_hermitian(rng, 4, pd_shift=0.5)
    w, status = _weights(_stack(r_nn.copy(), r_nn.copy()), _all(4), "mwf")
    assert np.max(np.abs(w)) <= 1e-10
    assert status == (STATUS_OK,)


def test_mwf_scalar_reduction():
    w, status = _weights(_stack([[4.0]], [[1.0]]), _all(1), "mwf")
    assert w[0, 0] == pytest.approx(0.75)
    assert status == (STATUS_OK,)


def test_mwf_matches_direct_solution(rng):
    """Weights from the GEVD form equal R_yy^-1 R_ss e_d."""
    st = _stack(*_pencils(rng, 50, 4))
    w, status = _weights(st, _all(4), "mwf")
    assert set(status) == {STATUS_OK}
    r_ss = implied_speech_covariance(st, _all(4))
    w_ref = np.linalg.solve(st.r_yy, r_ss[..., :1])[..., 0]
    for k in range(50):
        assert np.linalg.norm(w[k] - w_ref[k]) <= 1e-8 * np.linalg.norm(w_ref[k])


def test_mwf_fallbacks(rng):
    r_yy, r_nn = rand_speech_pencil(rng, 3)
    st = _stack([r_yy, r_yy], [r_nn, r_nn], l_on=[0, 9], l_off=[9, 0])
    w, status = _weights(st, _all(3, ref=1), "mwf")
    assert status == (STATUS_NO_SPEECH, STATUS_NO_NOISE)
    assert np.all(w[0] == 0)
    assert np.array_equal(w[1], [0, 1, 0])


def test_mwf_clamps_negative_speech_power(rng):
    r_nn = rand_hermitian(rng, 3, pd_shift=1.0)
    # estimated speech power negative
    w, status = _weights(_stack(0.5 * r_nn, r_nn), _all(3), "mwf")
    assert status == (STATUS_CLAMPED,)
    assert np.max(np.abs(w)) <= 1e-12


def test_mwf_scale_invariance(rng):
    r_yy, r_nn = rand_speech_pencil(rng, 5)
    w, _ = _weights(_stack([r_yy, 7.0 * r_yy], [r_nn, 7.0 * r_nn]), _all(5), "mwf")
    assert np.allclose(w[0], w[1], atol=1e-12 * max(1, np.max(np.abs(w[0]))))


def test_mwf_phase_convention_invariance(rng):
    """Weights are unchanged under any per-column phase applied to Q."""
    r_yy, r_nn = rand_speech_pencil(rng, 4)
    dec = gevd(r_yy, r_nn)
    gain = max(0.0, 1.0 - dec.sigma_n[0] / dec.sigma_y[0])
    e_d = np.zeros(4)
    e_d[0] = 1.0
    w_ref = _weights(_stack(r_yy, r_nn), _all(4), "mwf")[0][0]
    phases = np.exp(2j * np.pi * rng.uniform(size=4))
    q2 = dec.q * phases[None, :]
    d = np.zeros((4, 4))
    d[0, 0] = gain
    w2 = np.linalg.solve(q2.conj().T, d @ q2.conj().T @ e_d)
    assert np.linalg.norm(w2 - w_ref) <= 1e-10 * max(1.0, np.linalg.norm(w_ref))


# ----------------------------------------------------------------- GSC/LCMV


def test_gsc_identity_noise():
    c = compute_gsc(np.eye(4, dtype=complex), 2)
    assert np.allclose(c, np.eye(4)[:, :2])


def test_gsc_no_noise_refs():
    c = compute_gsc(rand_hermitian(np.random.default_rng(0), 3, pd_shift=1.0), 3)
    assert np.allclose(c, np.eye(3))


def test_gsc_constraint_and_optimality(rng):
    h, b = np.eye(6)[:, :4], np.eye(6)[:, 4:]
    for _ in range(10):
        r_nn = rand_hermitian(rng, 6, pd_shift=0.2)
        c = compute_gsc(r_nn, 4)
        assert np.linalg.norm(h.conj().T @ c - np.eye(4)) <= 1e-12
        base = np.trace(c.conj().T @ r_nn @ c).real
        for _ in range(500):
            f = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
            cand = h - b @ f
            assert np.trace(cand.conj().T @ r_nn @ cand).real >= base - 1e-9 * abs(base)


# ------------------------------------------------------------------ PK-MWF


def test_pkmwf_equals_mwf_without_noise_refs(rng):
    st = _stack(*_pencils(rng, 20, 5))
    w_pk, s_pk = _weights(st, _all(5), "pk-mwf")
    w_mwf, s_mwf = _weights(st, _all(5), "mwf")
    assert s_pk == s_mwf
    for k in range(20):
        assert np.linalg.norm(w_pk[k] - w_mwf[k]) <= 1e-10 * max(1.0, np.linalg.norm(w_mwf[k]))


def test_pkmwf_block_diagonal_reduces_to_padded_mwf(rng):
    for _ in range(20):
        k, mn = 4, 2
        r_yy_a, r_nn_a = rand_speech_pencil(rng, k)
        r_nn_b = rand_hermitian(rng, mn, pd_shift=0.3)
        zeros = np.zeros((k, mn))
        r_yy = np.block([[r_yy_a, zeros], [zeros.T, r_nn_b]])
        r_nn = np.block([[r_nn_a, zeros], [zeros.T, r_nn_b]])
        part = ChannelPartition(tuple(range(k)), tuple(range(k, k + mn)))
        w_pk = _weights(_stack(r_yy, r_nn), part, "pk-mwf")[0][0]
        w_sub = _weights(_stack(r_yy_a, r_nn_a), _all(k), "mwf")[0][0]
        padded = np.concatenate([w_sub, np.zeros(mn)])
        assert np.linalg.norm(w_pk - padded) <= 1e-10 * max(1.0, np.linalg.norm(padded))


def test_pkmwf_implied_covariance_constraints(rng):
    part = ChannelPartition(tuple(range(4)), (4, 5))
    b = np.eye(6)[:, 4:]
    for r_ss in implied_speech_covariance(_stack(*_pencils(rng, 20, 6)), part):
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
    h = np.eye(6)[:, :4]
    for _ in range(5):
        r_yy, r_nn = rand_speech_pencil(rng, 6)
        low = np.linalg.cholesky(r_nn)
        low_inv = np.linalg.inv(low)

        def cost(r_ss):
            mid = low_inv @ (r_yy - r_nn - r_ss) @ low_inv.conj().T
            return np.linalg.norm(mid) ** 2

        best = cost(implied_speech_covariance(_stack(r_yy, r_nn), part)[0])
        scale = np.trace(r_yy).real / 6
        for _ in range(1000):
            u = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            v = h @ u
            cand = rng.uniform(0, 2) * scale * np.outer(v, v.conj()) / (np.linalg.norm(v) ** 2)
            assert cost(cand) >= best - 1e-9 * abs(best)


def test_filterbank_statuses_and_shape(rng):
    part = ChannelPartition((0, 1, 2), (3,))
    l_on, l_off = np.full(6, 10), np.full(6, 10)
    l_on[2] = 0
    l_off[3] = 0
    fb = build_filterbank(_stack(*_pencils(rng, 6, 4), l_on, l_off), part, "pk-mwf")
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
    fb = build_filterbank(_stack(*_pencils(rng, 4, 3), 5, 5), part, "mwf")
    assert fb.weights.shape == (4, 3)
    assert fb.partition.n_noise_only == 0


def _mixed_stack(rng, m):
    """Bins 0-1 ok, then no-speech, no-noise, all-zero and clamped bins."""
    r_yy, r_nn = _pencils(rng, 6, m)
    l_on, l_off = np.full(6, 8), np.full(6, 8)
    l_on[2] = 0
    l_off[3] = 0
    r_yy[4] = r_nn[4] = 0
    r_yy[5] = 0.5 * r_nn[5]
    return _stack(r_yy, r_nn, l_on, l_off)


def test_filterbank_matches_per_bin_ops(rng):
    part = ChannelPartition((0, 1, 2, 3), (4, 5))
    stats = _stack(*_pencils(rng, 5, 6), 8, 8)
    delta = 1e-6
    fb = build_filterbank(stats, part, "pk-mwf", delta)
    for k in range(5):
        one = build_filterbank(_bin(stats, k), part, "pk-mwf", delta)
        assert np.allclose(fb.weights[k], one.weights[0], atol=1e-12)
        assert fb.per_bin_status[k] == one.per_bin_status[0]

    # every method, every status: the bank equals its one-bin banks bit for bit
    for method in ("mwf", "mwf-with-noise-mics", "pk-mwf"):
        mixed = _mixed_stack(rng, 4 if method == "mwf" else 6)
        fb = build_filterbank(mixed, part, method, delta)
        assert fb.per_bin_status == (
            STATUS_OK, STATUS_OK, STATUS_NO_SPEECH, STATUS_NO_NOISE, STATUS_CLAMPED, STATUS_CLAMPED
        )
        for k in range(6):
            one = build_filterbank(_bin(mixed, k), part, method, delta)
            assert np.array_equal(fb.weights[k], one.weights[0])
            assert fb.per_bin_status[k] == one.per_bin_status[0]


def test_filterbank_rejects_unknown_method(rng):
    part = ChannelPartition((0,), ())
    with pytest.raises(FilterError):
        build_filterbank([], part, "mvdr")


def test_all_zero_bin_suppressed():
    st = _stack(np.zeros((3, 3)), np.zeros((3, 3)), 4, 4)
    fb = build_filterbank(st, ChannelPartition((0, 1, 2), ()), "mwf")
    assert np.all(fb.weights == 0)
    assert fb.per_bin_status[0] == STATUS_CLAMPED
