import numpy as np
import pytest

from egomwf import metrics
from egomwf.audio_io import AudioClip, resample
from egomwf.config import EnhanceConfig
from egomwf.metrics import SNR_CAP_DB, MetricsError, evaluate, snr_db, stoi
from egomwf.pipeline import enhance
from egomwf.scenegen import suite_partition


def _clip(x, rate=16000):
    return AudioClip(np.asarray(x, dtype=float)[None, :], rate)


def test_snr_closed_form(rng):
    s = rng.standard_normal(8000)
    s *= 1.0 / np.sqrt(np.mean(s**2))
    n = rng.standard_normal(8000)
    n *= np.sqrt(0.1) / np.sqrt(np.mean(n**2))
    assert snr_db(_clip(s), _clip(n)) == pytest.approx(10.0, abs=1e-12)


def test_snr_equal_components(rng):
    x = rng.standard_normal(1000)
    assert snr_db(_clip(x), _clip(x)) == pytest.approx(0.0, abs=1e-12)


def test_snr_caps(rng):
    x = rng.standard_normal(100)
    assert snr_db(_clip(x), _clip(np.zeros(100))) == SNR_CAP_DB
    assert snr_db(_clip(np.zeros(100)), _clip(x)) == -SNR_CAP_DB


def test_snr_scale_invariance(rng):
    s = rng.standard_normal(500)
    n = rng.standard_normal(500)
    assert snr_db(_clip(3.7 * s), _clip(3.7 * n)) == pytest.approx(
        snr_db(_clip(s), _clip(n)), abs=1e-12
    )


def test_snr_length_mismatch(rng):
    with pytest.raises(MetricsError):
        snr_db(_clip(np.ones(10)), _clip(np.ones(11)))


def test_scene_ground_truth_snr(default_scene):
    got = snr_db(default_scene.speech_image.channel(0), default_scene.noise_image.channel(0))
    assert got == pytest.approx(-10.0, abs=0.1)


def test_stoi_self_identity(speech_clip):
    ref = speech_clip.channel(0)
    assert stoi(ref, ref) == pytest.approx(1.0, abs=1e-10)


def test_stoi_gain_invariance(speech_clip):
    ref = speech_clip.channel(0)
    half = AudioClip(0.5 * ref.samples, 16000)
    assert stoi(ref, half) == pytest.approx(1.0, abs=1e-10)
    double_ref = AudioClip(2.0 * ref.samples, 16000)
    noisy = AudioClip(ref.samples + 0.01 * np.sin(np.arange(ref.n_frames)), 16000)
    scaled_noisy = AudioClip(2.0 * noisy.samples, 16000)
    assert stoi(double_ref, scaled_noisy) == pytest.approx(
        stoi(ref, noisy), abs=1e-10
    )


def test_stoi_noise_monotonicity(speech_clip, rng):
    ref = speech_clip.channel(0)
    p = np.mean(ref.samples**2)
    noise = rng.standard_normal(ref.n_frames)
    noise /= np.sqrt(np.mean(noise**2))
    scores = []
    for snr in (10.0, 0.0, -10.0):
        level = np.sqrt(p / 10 ** (snr / 10))
        noisy = AudioClip(ref.samples + level * noise[None, :], 16000)
        scores.append(stoi(ref, noisy))
    assert scores[0] > scores[1] > scores[2]


def test_stoi_rejects_bad_inputs(rng):
    with pytest.raises(MetricsError):
        stoi(_clip(np.zeros(16000)), _clip(rng.standard_normal(16000)))
    with pytest.raises(MetricsError):
        stoi(_clip(rng.standard_normal(100)), _clip(rng.standard_normal(100)))
    with pytest.raises(MetricsError):
        stoi(_clip(rng.standard_normal(16000)), _clip(rng.standard_normal(15000)))


def test_scoring_rejects_rate_mismatch(speech_clip):
    # the same samples labelled 8 kHz are a different signal, not a 16 kHz one
    clean = speech_clip.channel(0)
    noisy = AudioClip(clean.samples + 0.1 * np.sin(np.arange(clean.n_frames)), 16000)
    noisy_8k = AudioClip(noisy.samples, 8000)
    inputs = metrics.score_input(clean, noisy)
    assert 0.0 < inputs.stoi_in < 1.0
    for call in (
        lambda: stoi(clean, noisy_8k),
        lambda: stoi(AudioClip(clean.samples, 8000), noisy),
        lambda: metrics.score_input(clean, noisy_8k),
        lambda: metrics.score_output(inputs, noisy_8k),
    ):
        with pytest.raises(MetricsError, match="rate mismatch: clean .* Hz vs .* Hz"):
            call()


def test_stoi_too_little_speech(rng):
    # loud click followed by silence: everything but a few frames is removed
    x = np.zeros(16000)
    x[100:200] = 1.0
    with pytest.raises(MetricsError):
        stoi(_clip(x), _clip(x))


def test_evaluate_passthrough_filter(default_scene):
    cfg = EnhanceConfig(
        partition=suite_partition(8), spp_mode="oracle", method="pk-mwf", delta=1e-6
    )
    result = enhance(
        default_scene.mixture, cfg, default_scene.speech_image, default_scene.noise_image
    )
    # overwrite with an identity filter on the reference channel
    w = np.zeros_like(result.filterbank.weights)
    w[:, 0] = 1.0
    from dataclasses import replace

    from egomwf.pipeline import EnhanceResult, apply_filterbank
    from egomwf.stft import StftGrid, analyze, synthesize

    fb = replace(result.filterbank, weights=w)
    order = list(fb.partition.ordered_channels)
    grid = analyze(default_scene.mixture, channels=order)
    columns = range(len(order))

    def synth(g):
        return synthesize(StftGrid(g[:, :, None], grid.params, grid.n_samples))

    passthrough = EnhanceResult(
        enhanced=synth(apply_filterbank(grid, fb, columns)),
        filterbank=fb,
        mask=result.mask,
        shadow_speech=synth(
            apply_filterbank(analyze(default_scene.speech_image, channels=order), fb, columns)
        ),
        shadow_noise=synth(
            apply_filterbank(analyze(default_scene.noise_image, channels=order), fb, columns)
        ),
    )
    report = evaluate(
        passthrough,
        default_scene.speech_image.channel(0),
        default_scene.mixture.channel(0),
    )
    assert report.snr_improvement_db == pytest.approx(0.0, abs=0.01)
    assert report.stoi_improvement == pytest.approx(0.0, abs=0.01)


def test_evaluate_zero_filter_flags(default_scene):
    from dataclasses import replace

    cfg = EnhanceConfig(partition=suite_partition(4), spp_mode="oracle", method="pk-mwf")
    result = enhance(
        default_scene.mixture, cfg, default_scene.speech_image, default_scene.noise_image
    )
    zeroed = replace(
        result,
        enhanced=AudioClip(np.zeros_like(result.enhanced.samples), 16000),
        shadow_speech=AudioClip(np.zeros_like(result.enhanced.samples), 16000),
        shadow_noise=AudioClip(np.zeros_like(result.enhanced.samples), 16000),
    )
    report = evaluate(
        zeroed, default_scene.speech_image.channel(0), default_scene.mixture.channel(0)
    )
    assert "snr_capped" in report.flags
    assert report.stoi_out <= 0.1


def test_evaluate_without_shadows(default_scene):
    cfg = EnhanceConfig(partition=suite_partition(4), spp_mode="internal", method="mwf")
    result = enhance(default_scene.mixture, cfg)
    report = evaluate(
        result, default_scene.speech_image.channel(0), default_scene.mixture.channel(0)
    )
    assert report.snr_in_db is None
    assert report.snr_improvement_db is None
    assert "no_ground_truth" in report.flags
    assert 0.0 <= report.stoi_in <= 1.0


def test_evaluate_end_to_end_improves(default_scene):
    cfg = EnhanceConfig(partition=suite_partition(8), spp_mode="oracle", method="pk-mwf")
    result = enhance(
        default_scene.mixture, cfg, default_scene.speech_image, default_scene.noise_image
    )
    report = evaluate(
        result, default_scene.speech_image.channel(0), default_scene.mixture.channel(0)
    )
    assert report.snr_improvement_db > 0.0
    assert report.stoi_improvement > 0.0
    assert report.snr_improvement_db == pytest.approx(
        report.snr_out_db - report.snr_in_db, abs=1e-12
    )


# ------------------------------------------------- loop references for STOI


def _remove_silent_frames_loop(x, y):
    """Frame-by-frame form of silent-frame removal (the keep mask of
    metrics._stoi_reference applied by metrics._kept)."""
    frame, hop = 256, 128
    window = np.hanning(frame + 2)[1:-1]
    n_frames = (x.size - frame) // hop + 1
    xf = np.array([x[i * hop : i * hop + frame] * window for i in range(n_frames)])
    yf = np.array([y[i * hop : i * hop + frame] * window for i in range(n_frames)])
    energies = 20.0 * np.log10(np.linalg.norm(xf, axis=1) + np.finfo(float).eps)
    keep = energies > np.max(energies) - 40.0
    xf, yf = xf[keep], yf[keep]
    xs = np.zeros((xf.shape[0] - 1) * hop + frame)
    ys = np.zeros_like(xs)
    for i in range(xf.shape[0]):
        xs[i * hop : i * hop + frame] += xf[i]
        ys[i * hop : i * hop + frame] += yf[i]
    return xs, ys


def _stoi_loop(x, y):
    """Segment-by-segment STOI on 10 kHz signals."""
    eps = np.finfo(float).eps
    x, y = _remove_silent_frames_loop(x, y)
    obm = metrics._third_octave_matrix()
    xb = metrics._band_envelopes(x, obm)
    yb = metrics._band_envelopes(y, obm)
    clip_gain = 10.0 ** (15.0 / 20.0)
    scores = []
    for m in range(30, xb.shape[1] + 1):
        for j in range(xb.shape[0]):
            xs = xb[j, m - 30 : m]
            ys = yb[j, m - 30 : m]
            alpha = np.sqrt(np.sum(xs**2) / (np.sum(ys**2) + eps))
            ys_clip = np.minimum(alpha * ys, (1.0 + clip_gain) * xs)
            xc = xs - xs.mean()
            yc = ys_clip - ys_clip.mean()
            scores.append(np.sum(xc * yc) / (np.linalg.norm(xc) * np.linalg.norm(yc) + eps))
    return float(np.mean(scores))


def test_remove_silent_frames_matches_loop(rng):
    x = rng.standard_normal(20000)
    x[5000:9000] *= 1e-4  # frames far below the loudest get dropped
    y = x + 0.3 * rng.standard_normal(20000)
    keep = metrics._stoi_reference(x).keep
    got = metrics._kept(x, keep), metrics._kept(y, keep)
    ref = _remove_silent_frames_loop(x, y)
    assert got[0].size < x.size
    for a, b in zip(got, ref):
        assert a.shape == b.shape
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))


def test_stoi_matches_segment_loop(speech_clip, rng):
    x = speech_clip.samples[0, :40000]
    y = x + 0.5 * np.std(x) * rng.standard_normal(x.size)
    x10 = resample(_clip(x), 10000).samples[0]
    y10 = resample(_clip(y), 10000).samples[0]
    assert abs(stoi(_clip(x), _clip(y)) - _stoi_loop(x10, y10)) <= 1e-12


def test_evaluate_clips_resamples_clean_reference_once(rng, monkeypatch):
    clean = _clip(rng.standard_normal(16000))
    noisy = _clip(clean.samples[0] + rng.standard_normal(16000))
    calls = []
    real = metrics.resample

    def counted(clip, rate):
        calls.append(1)
        return real(clip, rate)

    monkeypatch.setattr(metrics, "resample", counted)
    noise = _clip(noisy.samples[0] - clean.samples[0])
    report = metrics.score_output(metrics.score_input(clean, noisy), noisy, clean, noise)
    assert len(calls) == 3  # clean, noisy, enhanced
    assert report.stoi_in == report.stoi_out == stoi(clean, noisy)


def test_score_output_stoi_equals_stoi_bit_for_bit(speech_clip, rng):
    """score_output scores the processed side against the clean side that
    score_input built once; the result is stoi's, bit for bit."""
    clean = _clip(speech_clip.samples[0, :40000])
    noisy = _clip(clean.samples[0] + 0.5 * np.std(clean.samples) * rng.standard_normal(40000))
    inputs = metrics.score_input(clean, noisy)
    assert inputs.stoi_in == stoi(clean, noisy)
    for gain in (0.3, 0.8):
        processed = _clip(gain * noisy.samples[0] + (1 - gain) * clean.samples[0])
        assert metrics.score_output(inputs, processed).stoi_out == stoi(clean, processed)
