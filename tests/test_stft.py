import numpy as np
import pytest

from egomwf.audio_io import AudioClip
from egomwf.stft import (
    StftError,
    StftGrid,
    StftParams,
    analyze,
    overlap_add,
    sqrt_hann_periodic,
    synthesize,
)


def test_window_cola():
    params = StftParams()
    w2 = params.window_values() ** 2
    total = w2[: params.hop] + w2[params.hop :]
    assert np.max(np.abs(total - 1.0)) < 1e-15


def test_dc_signal_bin_zero_value():
    # any window: the DC bin of a constant-one frame is the window sum
    params = StftParams()
    clip = AudioClip(np.ones((2, 4096)), 16000)
    grid = analyze(clip, params)
    w_sum = np.sum(params.window_values())
    full = grid.data[:, 1:-2, :]
    assert np.allclose(full[0].real, w_sum, rtol=1e-12)
    assert np.max(np.abs(full[0].imag)) <= 1e-10 * w_sum


def test_bin_center_sine_energy_concentration():
    # the sqrt-Hann main lobe spreads a bin-centre sine over bins k-1..k+1
    params = StftParams()
    k = 32
    f = k * 16000 / params.fft_size
    t = np.arange(16000) / 16000
    clip = AudioClip(np.sin(2 * np.pi * f * t)[None, :], 16000)
    grid = analyze(clip, params)
    spec = np.abs(grid.data[:, 5:-5, 0]) ** 2
    frame_energy = spec.sum(axis=0)
    assert np.all(spec[k - 1 : k + 2].sum(axis=0) >= 0.99 * frame_energy)


def test_all_zero_clip():
    grid = analyze(AudioClip(np.zeros((3, 2048)), 16000))
    assert np.all(grid.data == 0)
    back = synthesize(grid)
    assert np.all(back.samples == 0)
    assert back.n_frames == 2048


def test_perfect_reconstruction_interior(rng):
    params = StftParams()
    x = rng.uniform(-1, 1, (2, 48000))
    grid = analyze(AudioClip(x, 16000), params)
    back = synthesize(grid)
    assert back.n_frames == 48000
    edge = params.fft_size
    err = np.max(np.abs(back.samples[:, edge:-edge] - x[:, edge:-edge]))
    assert err <= 1e-6


def test_linearity_of_grid_scaling(rng):
    x = rng.uniform(-0.5, 0.5, (1, 8192))
    grid = analyze(AudioClip(x, 16000))
    doubled = synthesize(StftGrid(2.0 * grid.data, grid.params, grid.n_samples))
    base = synthesize(grid)
    assert np.allclose(doubled.samples, 2.0 * base.samples, atol=1e-12)


def test_parseval_per_frame(rng):
    params = StftParams()
    x = rng.standard_normal((1, 4096))
    grid = analyze(AudioClip(x, 16000), params)
    w = params.window_values()
    nfft, hop = params.fft_size, params.hop
    for f in (2, 5, 9):
        seg = x[0, f * hop : f * hop + nfft] * w
        time_energy = np.sum(seg**2)
        spec = grid.data[:, f, 0]
        weights = np.full(params.n_bins, 2.0)
        weights[0] = weights[-1] = 1.0
        freq_energy = np.sum(weights * np.abs(spec) ** 2) / nfft
        assert freq_energy == pytest.approx(time_energy, rel=1e-9)


def test_frame_count_and_zero_padding():
    params = StftParams()
    n = 1000  # not a multiple of hop
    grid = analyze(AudioClip(np.ones((1, n)), 16000), params)
    assert grid.n_frames == -(-n // params.hop)
    assert grid.n_samples == n
    assert synthesize(grid).n_frames == n


def test_analyze_errors():
    with pytest.raises(StftError):
        analyze(AudioClip(np.zeros((1, 100)), 16000))  # shorter than one frame
    with pytest.raises(StftError):
        analyze(AudioClip(np.zeros((1, 2048)), 44100))  # rate mismatch


def test_grid_validation():
    params = StftParams()
    with pytest.raises(StftError):
        StftGrid(np.zeros((10, 4, 1), dtype=complex), params)
    grid = StftGrid(np.zeros((params.n_bins, 4, 2), dtype=complex), params)
    with pytest.raises(StftError):
        grid.channel_slice(2)


def test_params_validation():
    with pytest.raises(StftError):
        StftParams(fft_size=7)
    with pytest.raises(StftError):
        StftParams(hop=0)


def test_sqrt_hann_is_periodic():
    w = sqrt_hann_periodic(512) ** 2
    # periodic (DFT-even) Hann: w[0] = 0 and w[256] = 1 exactly
    assert w[0] == 0.0
    assert w[256] == pytest.approx(1.0, abs=1e-15)


def test_analyze_matches_per_frame_reference(rng):
    """The blocked, strided framing gives exactly the spectra of explicit frames."""
    params = StftParams()
    nfft, hop = params.fft_size, params.hop
    w = params.window_values()
    for n_hops, n_channels, channels in (
        (5, 3, None),  # fewer frames than one analysis block
        (36, 2, None),  # two full blocks of 16 frames and a partial one
        (20, 6, [5, 0, 3]),  # a listed channel subset
    ):
        n = n_hops * hop + 37  # last frame zero-padded
        x = rng.standard_normal((n_channels, n))
        grid = analyze(AudioClip(x, 16000), params, channels)
        assert grid.n_frames == n_hops + 1
        for col, c in enumerate(range(n_channels) if channels is None else channels):
            for f in range(grid.n_frames):
                frame = np.zeros(nfft)
                seg = x[c, f * hop : f * hop + nfft]
                frame[: seg.size] = seg
                assert np.array_equal(grid.data[:, f, col], np.fft.rfft(frame * w))


@pytest.mark.parametrize("nfft, hop", [(512, 256), (16, 4), (16, 5), (16, 16)])
def test_overlap_add_matches_loop(rng, nfft, hop):
    frames = rng.standard_normal((2, 9, nfft))
    ref = np.zeros((2, 8 * hop + nfft))
    for f in range(9):
        ref[:, f * hop : f * hop + nfft] += frames[:, f, :]
    assert np.array_equal(overlap_add(frames, hop), ref)


def test_synthesize_matches_loop_overlap_add(rng):
    params = StftParams()
    nfft, hop = params.fft_size, params.hop
    grid = analyze(AudioClip(rng.standard_normal((2, 3000)), 16000), params)
    frames = np.fft.irfft(grid.data.transpose(2, 1, 0), n=nfft, axis=2) * params.window_values()
    ref = np.zeros((2, (grid.n_frames - 1) * hop + nfft))
    for f in range(grid.n_frames):
        ref[:, f * hop : f * hop + nfft] += frames[:, f, :]
    assert np.array_equal(synthesize(grid).samples, ref[:, :3000])


def test_analyze_grid_is_c_contiguous(rng):
    grid = analyze(AudioClip(rng.standard_normal((3, 4000)), 16000))
    assert grid.data.flags.c_contiguous
    assert grid.data.shape == (257, 16, 3)


def test_analyze_listed_channels_match_full_analysis(rng):
    clip = AudioClip(rng.standard_normal((17, 4000)), 16000)
    full = analyze(clip)
    for channels in ([5, 0, 16, 3], [16], [2, 2], list(range(17))):
        part = analyze(clip, channels=channels)
        assert part.data.flags.c_contiguous
        assert part.n_samples == full.n_samples
        assert np.array_equal(part.data, full.data[:, :, channels])
    with pytest.raises(StftError):
        analyze(clip, channels=[17])
    with pytest.raises(StftError):
        analyze(clip, channels=[-1])
    with pytest.raises(StftError):
        analyze(clip, channels=[])


def _padded_frame_reference(x, params, channels):
    """np.pad to whole frames, then one rfft per channel and frame."""
    nfft, hop = params.fft_size, params.hop
    n = x.shape[1]
    n_frames = -(-n // hop)
    padded = np.pad(x, ((0, 0), (0, (n_frames - 1) * hop + nfft - n)))
    w = params.window_values()
    ref = np.empty((params.n_bins, n_frames, len(channels)), dtype=np.complex128)
    for col, c in enumerate(channels):
        for f in range(n_frames):
            ref[:, f, col] = np.fft.rfft(padded[c, f * hop : f * hop + nfft] * w)
    return ref


@pytest.mark.parametrize("nfft, hop", [(512, 256), (16, 5), (16, 16)])
@pytest.mark.parametrize(
    "length", ["fft_size", "fft_size+1", "multiple_of_hop", "k_hops+1", "many_blocks"]
)
@pytest.mark.parametrize("channels", [None, [3, 0, 2], [4, 1, 1]])
def test_analyze_frames_from_signal_match_padded_reference(rng, nfft, hop, length, channels):
    """Full frames read from the signal and tail frames from a padded copy
    give exactly the spectra of a padded signal, frame by frame."""
    params = StftParams(fft_size=nfft, hop=hop)
    n = {
        "fft_size": nfft,
        "fft_size+1": nfft + 1,
        "multiple_of_hop": 7 * hop,
        "k_hops+1": 7 * hop + 1,
        "many_blocks": 37 * hop + 3,  # two full 16-frame blocks and a partial one
    }[length]
    x = rng.standard_normal((5, n))
    listed = list(range(5)) if channels is None else channels
    grid = analyze(AudioClip(x, 16000), params, channels)
    assert grid.data.flags.c_contiguous
    assert np.array_equal(grid.data, _padded_frame_reference(x, params, listed))
