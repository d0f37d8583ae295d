import numpy as np
import pytest

from egomwf.scenegen import make_oracle_mask
from egomwf.spp import SppError, SppParams, estimate_spp
from egomwf.stft import analyze


def _noise_spec(rng, bins=64, frames=200, scale=1.0):
    return scale * (
        rng.standard_normal((bins, frames)) + 1j * rng.standard_normal((bins, frames))
    )


def test_zero_input_closed_form(rng):
    params = SppParams()
    spec = _noise_spec(rng, frames=40)
    spec[:, 20] = 0.0
    mask = estimate_spp(spec, params)
    expected = 1.0 / (2.0 + params.xi_h1)
    assert np.allclose(mask.spp[:, 20], expected, atol=1e-12)
    assert np.all(mask.beta[:, 20] == 0)


def test_large_snr_limit(rng):
    spec = _noise_spec(rng, frames=40)
    spec[:, 30] = 1e6
    mask = estimate_spp(spec)
    assert np.all(mask.spp[:, 30] > 0.999999)
    assert np.all(mask.beta[:, 30] == 1)


def test_monotone_in_posterior_snr(rng):
    # same noise history, single test frame swept over amplitudes
    params = SppParams()
    base = _noise_spec(rng, bins=8, frames=30)
    amps = np.linspace(0.0, 20.0, 25)
    last = None
    for a in amps:
        spec = base.copy()
        spec[:, -1] = a
        p = estimate_spp(spec, params).spp[:, -1]
        if last is not None:
            assert np.all(p >= last - 1e-12)
        last = p


def test_stationary_noise_low_activity(rng):
    params = SppParams()
    mask = estimate_spp(_noise_spec(rng, bins=129, frames=400), params)
    after_init = mask.beta[:, params.init_frames :]
    assert after_init.mean() <= 0.2


def test_strong_bursts_detected(rng):
    params = SppParams()
    bins, frames = 64, 300
    spec = _noise_spec(rng, bins, frames)
    burst_frames = np.arange(100, 140)
    burst_bins = np.arange(10, 30)
    snr_amp = 10 ** (20 / 20)
    spec[np.ix_(burst_bins, burst_frames)] += snr_amp * (
        rng.standard_normal((burst_bins.size, burst_frames.size))
        + 1j * rng.standard_normal((burst_bins.size, burst_frames.size))
    )
    mask = estimate_spp(spec, params)
    assert mask.beta[np.ix_(burst_bins, burst_frames)].mean() >= 0.6


def test_scale_invariance(rng):
    spec = _noise_spec(rng, bins=32, frames=120)
    m1 = estimate_spp(spec)
    m2 = estimate_spp(1000.0 * spec)
    assert np.allclose(m1.spp, m2.spp, atol=1e-9)
    assert np.array_equal(m1.beta, m2.beta)


def test_too_few_frames_rejected(rng):
    with pytest.raises(SppError):
        estimate_spp(_noise_spec(rng, frames=3), SppParams(init_frames=5))


def test_param_validation():
    for kwargs in (
        {"alpha_psd": 0.0},
        {"alpha_psd": 1.0},
        {"spp_cap": 1.0},
        {"threshold": 0.0},
        {"xi_h1": -1.0},
        {"xi_h1": True},
        {"xi_h1": "2.0"},
        {"alpha_psd": "0.5"},
        {"spp_cap": "0.5"},
        {"threshold": "0.5"},
        {"init_frames": 0},
    ):
        with pytest.raises(SppError):
            SppParams(**kwargs)


def test_agreement_with_oracle_on_energetic_points(speech_wav):
    """On a stationary-noise scene with strong (20 dB) speech bursts the
    estimated activity matches the oracle on the energetic points: those
    carrying at least 1% of their frame's energy."""
    from egomwf.scenegen import SceneConfig, render_scene

    scene = render_scene(SceneConfig(speech_path=speech_wav, target_snr_db=20.0, seed=0))
    grid = analyze(scene.mixture.channel(0))
    mask = estimate_spp(grid.data[:, :, 0])
    oracle = make_oracle_mask(
        scene.speech_image.channel(0), scene.noise_image.channel(0)
    )
    speech_pow = np.abs(analyze(scene.speech_image.channel(0)).data[:, :, 0]) ** 2
    noise_pow = np.abs(analyze(scene.noise_image.channel(0)).data[:, :, 0]) ** 2
    total = speech_pow + noise_pow
    strong = total >= 0.01 * total.sum(axis=0, keepdims=True)
    assert strong.sum() >= 100
    agree = mask.beta[strong] == oracle.beta[strong]
    assert agree.mean() >= 0.9


def _reference_spp(spec, params):
    """The per-frame recursion written with fresh temporaries each frame."""
    power = np.abs(spec) ** 2
    sigma2 = np.maximum(np.mean(power[:, : params.init_frames], axis=1), np.finfo(float).eps)
    xi = params.xi_h1
    glr_gain = xi / (1.0 + xi)
    spp = np.empty(power.shape)
    for l in range(power.shape[1]):
        gamma = power[:, l] / sigma2
        p = 1.0 / (1.0 + (1.0 + xi) * np.exp(-gamma * glr_gain))
        spp[:, l] = p
        p_capped = np.minimum(p, params.spp_cap)
        periodogram = p_capped * sigma2 + (1.0 - p_capped) * power[:, l]
        sigma2 = params.alpha_psd * sigma2 + (1.0 - params.alpha_psd) * periodogram
        sigma2 = np.maximum(sigma2, np.finfo(float).eps)
    return spp, (spp >= params.threshold).astype(np.uint8)


@pytest.mark.parametrize("params", [SppParams(), SppParams(alpha_psd=0.3, spp_cap=0.6)])
def test_estimate_spp_matches_reference_loop(rng, speech_clip, params):
    speech = analyze(speech_clip).data[:, :, 0]
    noisy = speech + 0.05 * _noise_spec(rng, *speech.shape)
    for spec in (_noise_spec(rng, bins=257, frames=300), noisy):
        spp, beta = _reference_spp(spec, params)
        mask = estimate_spp(spec, params)
        assert np.array_equal(mask.spp, spp)
        assert np.array_equal(mask.beta, beta)
        assert mask.spp.flags.c_contiguous and mask.beta.flags.c_contiguous
