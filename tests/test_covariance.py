import numpy as np
import pytest

from egomwf.covariance import BinStatistics, estimate_correlations, regularize
from egomwf.spp import SppMask
from egomwf.stft import StftGrid, StftParams


def _make_grid(rng, bins=17, frames=30, channels=4):
    params = StftParams(fft_size=(bins - 1) * 2)
    data = rng.standard_normal((bins, frames, channels)) + 1j * rng.standard_normal(
        (bins, frames, channels)
    )
    return StftGrid(data, params)


def _mask_from(beta):
    return SppMask(spp=beta.astype(float), beta=beta.astype(np.uint8))


def _bins(stats):
    """(bin, r_yy, r_nn, l_on, l_off) of each bin of a stack, in bin order."""
    return zip(range(len(stats.r_yy)), stats.r_yy, stats.r_nn, stats.l_on, stats.l_off)


def test_single_active_frame(rng):
    grid = _make_grid(rng, frames=1)
    mask = _mask_from(np.ones((grid.n_bins, 1)))
    stats = estimate_correlations(grid, mask, [0, 1, 2, 3])
    y = grid.data[3, 0, :]
    assert np.allclose(stats.r_yy[3], np.outer(y, y.conj()), atol=1e-14)
    assert stats.l_on[3] == 1
    assert stats.l_off[3] == 0
    assert np.all(stats.r_nn[3] == 0)


def test_all_inactive(rng):
    grid = _make_grid(rng, frames=10)
    mask = _mask_from(np.zeros((grid.n_bins, 10)))
    stats = estimate_correlations(grid, mask, [0, 1, 2, 3])
    for k, _, r_nn, l_on, _ in _bins(stats):
        assert l_on == 0
        y = grid.data[k, :, :]
        naive = (y[:, :, None] * y[:, None, :].conj()).mean(axis=0)
        assert np.allclose(r_nn, naive, atol=1e-13)


def test_matches_naive_double_loop(rng):
    grid = _make_grid(rng, bins=9, frames=25, channels=3)
    beta = (rng.uniform(size=(grid.n_bins, 25)) > 0.4).astype(np.uint8)
    stats = estimate_correlations(grid, _mask_from(beta), [2, 0, 1])
    for k, r_yy, r_nn, l_on, l_off in _bins(stats):
        on = np.zeros((3, 3), complex)
        off = np.zeros((3, 3), complex)
        n_on = n_off = 0
        for l in range(25):
            y = grid.data[k, l, [2, 0, 1]]
            outer = np.outer(y, y.conj())
            if beta[k, l]:
                on += outer
                n_on += 1
            else:
                off += outer
                n_off += 1
        if n_on:
            assert np.allclose(r_yy, on / n_on, rtol=1e-12, atol=1e-13)
        if n_off:
            assert np.allclose(r_nn, off / n_off, rtol=1e-12, atol=1e-13)
        assert (l_on, l_off) == (n_on, n_off)
        assert l_on + l_off == 25


def test_hermitian_and_psd(rng):
    grid = _make_grid(rng, frames=40)
    beta = (rng.uniform(size=(grid.n_bins, 40)) > 0.5).astype(np.uint8)
    for _, r_yy, r_nn, _, _ in _bins(estimate_correlations(grid, _mask_from(beta), [0, 1, 2, 3])):
        for mat in (r_yy, r_nn):
            assert np.allclose(mat, mat.conj().T, atol=1e-12 * max(np.linalg.norm(mat), 1))
            eig = np.linalg.eigvalsh(mat)
            assert eig.min() >= -1e-10 * max(np.trace(mat).real, 1e-30)


def test_channel_permutation(rng):
    grid = _make_grid(rng, frames=20)
    beta = (rng.uniform(size=(grid.n_bins, 20)) > 0.5).astype(np.uint8)
    mask = _mask_from(beta)
    base = estimate_correlations(grid, mask, [0, 1, 2, 3])
    perm = estimate_correlations(grid, mask, [2, 0, 3, 1])
    p = [2, 0, 3, 1]
    for (_, b_yy, b_nn, _, _), (_, p_yy, p_nn, _, _) in zip(_bins(base), _bins(perm)):
        assert np.allclose(p_yy, b_yy[np.ix_(p, p)], atol=1e-13)
        assert np.allclose(p_nn, b_nn[np.ix_(p, p)], atol=1e-13)


def test_all_ones_equals_full_average(rng):
    grid = _make_grid(rng, frames=15)
    mask = _mask_from(np.ones((grid.n_bins, 15)))
    for k, r_yy, _, _, _ in _bins(estimate_correlations(grid, mask, [0, 1, 2, 3])):
        y = grid.data[k]
        naive = (y[:, :, None] * y[:, None, :].conj()).mean(axis=0)
        assert np.allclose(r_yy, naive, rtol=1e-12, atol=1e-13)


def test_input_validation(rng):
    grid = _make_grid(rng)
    mask = _mask_from(np.ones((grid.n_bins, grid.n_frames)))
    with pytest.raises(ValueError):
        estimate_correlations(grid, mask, [])
    with pytest.raises(ValueError):
        estimate_correlations(grid, mask, [0, 0])
    with pytest.raises(ValueError):
        estimate_correlations(grid, mask, [0, 7])
    with pytest.raises(ValueError):
        estimate_correlations(grid, mask, [-1])
    bad = _mask_from(np.ones((grid.n_bins, grid.n_frames + 1)))
    with pytest.raises(ValueError):
        estimate_correlations(grid, bad, [0])


def _stats(r_yy, r_nn, l_on=5, l_off=5):
    """One-bin stack."""
    return BinStatistics(
        r_yy=r_yy[None], r_nn=r_nn[None], l_on=np.array([l_on]), l_off=np.array([l_off])
    )


def test_regularize_zero_delta_is_identity(rng):
    st = _stats(np.eye(3, dtype=complex), np.eye(3, dtype=complex))
    assert regularize(st, 0.0) is st


def test_regularize_formula():
    st = _stats(np.eye(4, dtype=complex), np.zeros((4, 4), complex))
    reg = regularize(st, 1e-6)
    assert np.allclose(reg.r_nn, 1e-6 * np.eye(4), atol=1e-20)
    st2 = _stats(np.eye(4, dtype=complex), 2.0 * np.eye(4, dtype=complex))
    reg2 = regularize(st2, 1e-3)
    assert np.allclose(reg2.r_nn, (2.0 + 2.0 * 1e-3) * np.eye(4), atol=1e-15)


def test_regularize_makes_rank_deficient_factorable(rng):
    for _ in range(20):
        m = 5
        b = rng.standard_normal((m, m - 1)) + 1j * rng.standard_normal((m, m - 1))
        singular = b @ b.conj().T  # rank m-1
        st = _stats(np.eye(m, dtype=complex), singular)
        reg = regularize(st, 1e-6)
        low = np.linalg.cholesky(reg.r_nn)  # raises if not PD
        assert np.isfinite(low).all()
        cond = np.linalg.cond(reg.r_nn)
        assert cond <= 10.0 / 1e-6


def test_regularize_rejects_negative_delta():
    st = _stats(np.eye(2, dtype=complex), np.eye(2, dtype=complex))
    with pytest.raises(ValueError):
        regularize(st, -1.0)


def test_stacked_products_match_per_bin_loop(rng):
    grid = _make_grid(rng, bins=33, frames=70, channels=6)
    beta = (rng.uniform(size=(grid.n_bins, 70)) > 0.3).astype(np.uint8)
    channels = [5, 1, 3, 0]
    stats = estimate_correlations(grid, _mask_from(beta), channels)
    for k, r_yy, r_nn, _, _ in _bins(stats):
        y = grid.data[k][:, channels]  # (frames, M)
        on = beta[k].astype(bool)
        ref_yy = y[on].T @ y[on].conj() / on.sum()
        ref_nn = y[~on].T @ y[~on].conj() / (~on).sum()
        assert np.linalg.norm(r_yy - ref_yy) <= 1e-12 * np.linalg.norm(ref_yy)
        assert np.linalg.norm(r_nn - ref_nn) <= 1e-12 * np.linalg.norm(ref_nn)


def _reference_correlations(grid, beta, channels):
    """Transposed-copy formulation: y (bins, M, frames), its conjugate
    transpose, and one masked temporary per product."""
    y = np.ascontiguousarray(np.moveaxis(grid.data, 2, 1)[:, channels, :])
    yh = np.conj(np.swapaxes(y, 1, 2))
    w_on = beta.astype(np.float64)
    l_on = w_on.sum(axis=1)
    l_off = w_on.shape[1] - l_on

    def average(w, count):
        acc = (y * w[:, None, :]) @ yh
        acc = acc / np.maximum(count, 1.0)[:, None, None]
        return 0.5 * (acc + np.conj(np.swapaxes(acc, -2, -1)))

    return average(w_on, l_on), average(1.0 - w_on, l_off), l_on, l_off


@pytest.mark.parametrize(
    "case", ["full", "permuted", "single", "all_active", "all_inactive", "non_contiguous"]
)
def test_matches_transposed_copy_reference_bit_for_bit(rng, case):
    grid = _make_grid(rng, bins=17, frames=45, channels=6)
    beta = (rng.uniform(size=(grid.n_bins, 45)) > 0.5).astype(np.uint8)
    channels = list(range(6))
    if case == "permuted":
        channels = [4, 1, 5, 2]
    elif case == "single":
        channels = [3]
    elif case == "all_active":
        beta[:] = 1
    elif case == "all_inactive":
        beta[:] = 0
    elif case == "non_contiguous":
        data = np.asfortranarray(grid.data)
        grid = StftGrid(data, grid.params)
        assert not grid.data.flags.c_contiguous
    before = grid.data.copy()
    stats = estimate_correlations(grid, _mask_from(beta), channels)
    r_yy, r_nn, l_on, l_off = _reference_correlations(grid, beta, channels)
    assert np.array_equal(stats.r_yy, r_yy)
    assert np.array_equal(stats.r_nn, r_nn)
    assert np.array_equal(stats.l_on, l_on)
    assert np.array_equal(stats.l_off, l_off)
    assert np.array_equal(grid.data, before)


def test_r_nn_psd_with_one_inactive_frame_beside_loud_speech(rng):
    # r_nn from a single quiet frame must stay an exact rank-1 PSD matrix;
    # a "total minus speech-active" estimate would lose it to cancellation
    grid = _make_grid(rng, frames=50)
    data = grid.data.copy()
    data[:, 1:, :] *= 1e6
    grid = StftGrid(data, grid.params)
    beta = np.ones((grid.n_bins, 50), dtype=np.uint8)
    beta[:, 0] = 0
    for k, _, r_nn, _, l_off in _bins(estimate_correlations(grid, _mask_from(beta), [0, 1, 2, 3])):
        assert l_off == 1
        y = grid.data[k, 0, :]
        ref = np.outer(y, y.conj())
        assert np.linalg.norm(r_nn - ref) <= 1e-12 * np.linalg.norm(ref)
        eig = np.linalg.eigvalsh(r_nn)
        assert eig.min() >= -1e-12 * eig.max()


@pytest.mark.parametrize("m", [4, 8, 12])
def test_principal_block_matches_direct_estimate(rng, m):
    """A sweep cell's statistics are the block of one 16-channel estimate."""
    grid = _make_grid(rng, bins=9, frames=40, channels=17)
    beta = (rng.uniform(size=(grid.n_bins, 40)) > 0.5).astype(np.uint8)
    beta[1] = 1  # bins with every frame active, and with none
    beta[4] = 0
    mask = _mask_from(beta)
    full_channels = list(range(16))
    full = estimate_correlations(grid, mask, full_channels)
    for order in (list(range(m)), list(range(m)) + [12, 13, 14, 15]):
        block = full.block([full_channels.index(c) for c in order])
        direct = estimate_correlations(grid, mask, order)
        for a, b in ((block.r_yy, direct.r_yy), (block.r_nn, direct.r_nn)):
            assert a.shape == b.shape == (grid.n_bins, len(order), len(order))
            assert np.max(np.abs(a - b)) <= 1e-12
        assert np.array_equal(block.l_on, direct.l_on)
        assert np.array_equal(block.l_off, direct.l_off)
    assert np.all(full.r_nn[1] == 0) and np.all(full.r_yy[4] == 0)


def test_block_of_single_bin_statistics(rng):
    stats = estimate_correlations(_make_grid(rng), _mask_from(np.ones((17, 30))), [0, 1, 2, 3])
    block = stats.block([3, 1])
    assert block.r_yy.shape == (17, 2, 2)
    assert np.array_equal(block.r_yy[5], stats.r_yy[5][np.ix_([3, 1], [3, 1])])


def test_statistics_compare_by_identity_and_hash():
    a = BinStatistics(np.eye(2), np.eye(2), 1, 1)
    b = BinStatistics(np.eye(2), np.eye(2), 1, 1)
    assert a != b
    assert a == a
    assert len({a, b}) == 2



@pytest.mark.parametrize("bins", [257, 33, 16, 5])  # 257 and 33 end in a partial block
@pytest.mark.parametrize("mask", ["random", "all_on", "all_off"])
@pytest.mark.parametrize("channels", [[0, 1, 2, 3, 4, 5], [3], [5, 2, 0, 4]])
def test_bin_blocks_match_one_shot_product(rng, bins, mask, channels):
    grid = _make_grid(rng, bins=bins, frames=41, channels=6)
    beta = (rng.uniform(size=(bins, 41)) > 0.5).astype(np.uint8)
    if mask != "random":
        beta[:] = mask == "all_on"
    stats = estimate_correlations(grid, _mask_from(beta), channels)
    r_yy, r_nn, _, _ = _reference_correlations(grid, beta, channels)
    assert np.array_equal(stats.r_yy, r_yy)
    assert np.array_equal(stats.r_nn, r_nn)
