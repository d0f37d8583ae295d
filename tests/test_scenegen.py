import json
import time

import numpy as np
import pytest

from egomwf.audio_io import AudioClip
from egomwf.scenegen import (
    ARRAY_MICS,
    DELAY_BLOCK,
    DELAY_FILTER_TAPS,
    EXTERNAL_MIC,
    N_EMBEDDED,
    PROPELLER_MICS,
    ROTORS,
    SOURCE,
    SceneConfig,
    SceneError,
    _n_partials,
    fractional_delay,
    make_oracle_mask,
    one_blas_thread,
    render_scene,
    spread,
    steering_delay_gain,
    suite_partition,
    synth_ego_noise,
    usable_cores,
    write_scene,
)


def test_steering_gain_normalization():
    delay, gain = steering_delay_gain([0, 0, 0], [2.0, 0, 0], 16000, ref_distance=2.0)
    assert gain == pytest.approx(1.0)
    assert delay == pytest.approx(2.0 / 343.0 * 16000)


def test_steering_one_second_path():
    delay, _ = steering_delay_gain([0, 0, 0], [343.0, 0, 0], 16000)
    assert delay == pytest.approx(16000.0)


def test_steering_rejects_coincident():
    with pytest.raises(SceneError):
        steering_delay_gain([1, 2, 3], [1, 2, 3], 16000)


def test_fractional_delay_integer_case(rng):
    x = rng.standard_normal(500)
    assert np.allclose(fractional_delay(x, 0.0), x, atol=1e-12)
    shifted = fractional_delay(x, 10.0)
    assert np.allclose(shifted[10:400], x[:390], atol=1e-6)
    assert np.allclose(shifted[:10], 0.0, atol=1e-9)


def test_fractional_delay_cross_correlation(rng):
    """Rendered microphone pairs land at the geometric delay difference."""
    fs = 16000
    x = rng.standard_normal(fs)
    src = np.array([2.0, 0.0, 0.1])
    mic_a = np.array([0.25, 0.0, 1.15])
    mic_b = np.array([-0.25, 0.0, 1.15])
    d_a, _ = steering_delay_gain(src, mic_a, fs)
    d_b, _ = steering_delay_gain(src, mic_b, fs)
    base = min(d_a, d_b)
    y_a = fractional_delay(x, d_a - base)
    y_b = fractional_delay(x, d_b - base)
    lags = np.arange(-100, 101)
    corr = [np.dot(y_a[100:-100], y_b[100 + lag : len(y_b) - 100 + lag]) for lag in lags]
    best = lags[int(np.argmax(corr))]
    assert abs(best - (d_b - d_a)) <= 0.5


def _delay_reference(x, delay):
    """One delay as one 32-tap np.convolve call: the per-delay code the
    blocked product replaced, kept as its reference."""
    n0 = int(np.floor(delay))
    mu = delay - n0
    half = DELAY_FILTER_TAPS // 2
    if n0 > x.size + half:  # the lookahead reaches no input sample
        return np.zeros_like(x)
    t = np.arange(DELAY_FILTER_TAPS) - half - mu
    window = 0.5 * (1.0 + np.cos(np.pi * t / (half + 1)))
    kernel = np.sinc(t) * window
    kernel /= kernel.sum()
    full = np.convolve(x, kernel)
    out = np.zeros_like(x)
    start = half - n0
    if start >= 0:
        seg = full[start : start + x.size]
        out[: seg.size] = seg
    else:
        out[-start :] = full[: x.size + start]
    return out


@pytest.mark.parametrize(
    "n", [10, 31, DELAY_BLOCK - 1, 2 * DELAY_BLOCK - 1, 2 * DELAY_BLOCK + 1, 2 * DELAY_BLOCK - 17]
)
def test_batched_delays_match_per_delay_convolution(rng, n):
    """Zero, integer, fractional, beyond-lookahead and >= n delays, on
    signals shorter than the filter and one sample off a block edge."""
    x = rng.standard_normal(n)
    delays = np.array([0.0, 3.0, 2.37, 15.999, 16.5, 40.25, n - 0.3, n + 0.5, n + 16.0, n + 90.7])
    expected = np.array([_delay_reference(x, d) for d in delays])
    rows = fractional_delay(x, delays)
    assert rows.shape == (delays.size, n)
    assert np.max(np.abs(rows - expected)) <= 1e-12
    assert not rows[-2:].any()  # nothing of x reaches these outputs
    on_three = fractional_delay(x, delays, lanes=3)
    assert on_three.tobytes() == rows.tobytes()
    # the gain-and-accumulate path adds gain-weighted rows into out
    gains = rng.uniform(0.1, 2.0, delays.size)
    out = rng.standard_normal((delays.size, n))
    want = out + gains[:, np.newaxis] * expected
    assert fractional_delay(x, delays, gains, out, lanes=2) is out
    assert np.max(np.abs(out - want)) <= 1e-12
    # a scalar delay gives one row
    assert np.max(np.abs(fractional_delay(x, 2.37) - expected[2])) <= 1e-12


def test_fractional_delay_rejects_negative_delay(rng):
    with pytest.raises(SceneError):
        fractional_delay(rng.standard_normal(100), [1.0, -0.5])


def _ego_noise_reference(rpm, duration_s, rate_hz, seed):
    """synth_ego_noise with one np.interp and one np.cumsum per partial:
    the loop the closed-form phases replaced, kept as their reference."""
    rng = np.random.default_rng(seed)
    n = int(round(duration_s * rate_hz))
    f0 = 2.0 * rpm / 60.0
    n_ctrl = max(int(np.ceil(duration_s / 4.0)) + 2, 2)
    ctrl_pos = np.linspace(0.0, n, n_ctrl)
    sample_pos = np.arange(n)
    harm = np.zeros(n)
    for k in range(1, 21):
        if k * f0 * 1.05 >= 0.95 * rate_hz / 2:
            break
        jitter = np.interp(sample_pos, ctrl_pos, rng.uniform(-1.0, 1.0, n_ctrl))
        inst_freq = k * f0 * (1.0 + 0.05 * jitter)
        phase = rng.uniform(0.0, 2.0 * np.pi) + 2.0 * np.pi * np.cumsum(inst_freq) / rate_hz
        harm += np.sin(phase) / k
    harm_power = np.mean(harm**2)
    broad = rng.standard_normal(n)
    spec = np.fft.rfft(broad)
    freqs = np.fft.rfftfreq(n, 1.0 / rate_hz)
    spec *= 1.0 / np.sqrt(1.0 + (freqs / 1000.0) ** 2)
    broad = np.fft.irfft(spec, n)
    broad *= np.sqrt(0.1 * harm_power / np.mean(broad**2))
    x = harm + broad
    return x / np.sqrt(np.mean(x**2))


@pytest.mark.parametrize("duration_s", [1.0, 2.5, 10.0])
@pytest.mark.parametrize("rpm, n_partials", [(4040.0, 20), (80000.0, 2), (130000.0, 1)])
def test_ego_noise_matches_per_partial_loop(duration_s, rpm, n_partials):
    assert _n_partials(rpm, 16000) == n_partials
    got = synth_ego_noise(rpm, duration_s, 16000, (3, 1)).samples[0]
    assert got.size == round(duration_s * 16000)
    assert np.max(np.abs(got - _ego_noise_reference(rpm, duration_s, 16000, (3, 1)))) <= 1e-8


@pytest.mark.parametrize(
    "rpm, duration_s",
    [
        (300000.0, 1.0),  # every partial at or above 0.95 x Nyquist
        (float("nan"), 1.0),
        (float("inf"), 1.0),
        (-4000.0, 1.0),
        (4000.0, 1e-5),  # under one sample
        (4000.0, 0.0),
        (4000.0, float("nan")),
    ],
)
def test_ego_noise_rejects_unrenderable_input(rpm, duration_s):
    with pytest.raises(SceneError):
        synth_ego_noise(rpm, duration_s, 16000, seed=0)


def test_ego_noise_unit_power_and_determinism():
    a = synth_ego_noise(4000.0, 2.0, 16000, seed=11)
    b = synth_ego_noise(4000.0, 2.0, 16000, seed=11)
    assert np.array_equal(a.samples, b.samples)
    assert np.mean(a.samples**2) == pytest.approx(1.0, abs=1e-6)
    c = synth_ego_noise(4000.0, 2.0, 16000, seed=12)
    assert not np.array_equal(a.samples, c.samples)


def test_ego_noise_harmonic_peaks():
    rpm = 3000.0
    clip = synth_ego_noise(rpm, 4.0, 16000, seed=5)
    f0 = 2 * rpm / 60.0
    spec = np.abs(np.fft.rfft(clip.samples[0])) ** 2
    freqs = np.fft.rfftfreq(clip.n_frames, 1 / 16000)
    # top spectral peaks should sit near harmonics of the blade-pass rate
    peak_idx = np.argsort(spec)[::-1]
    found = []
    for idx in peak_idx:
        f = freqs[idx]
        if any(abs(f - g) < 5.0 for g in found):
            continue
        found.append(f)
        if len(found) == 20:
            break
    for f in found:
        k = np.round(f / f0)
        assert k >= 1
        assert abs(f - k * f0) <= 0.06 * k * f0 + 2.0


def test_ego_noise_rejects_bad_rpm():
    with pytest.raises(SceneError):
        synth_ego_noise(0.0, 1.0, 16000, seed=0)


def test_scene_component_exactness(default_scene):
    assert np.array_equal(
        default_scene.mixture.samples,
        default_scene.speech_image.samples + default_scene.noise_image.samples,
    )


def test_scene_snr_calibration(default_scene):
    s = default_scene.speech_image.samples[0]
    n = default_scene.noise_image.samples[0]
    snr = 10 * np.log10(np.sum(s**2) / np.sum(n**2))
    assert snr == pytest.approx(-10.0, abs=0.1)
    assert default_scene.manifest["achieved_snr_db"] == pytest.approx(-10.0, abs=0.1)


def test_scene_external_channel_snr(default_scene):
    ext = default_scene.manifest["channels"]["external"]
    s = default_scene.speech_image.samples[ext]
    n = default_scene.noise_image.samples[ext]
    snr = 10 * np.log10(np.sum(s**2) / np.sum(n**2))
    assert snr == pytest.approx(-10.0 + 15.0, abs=0.1)


def test_speech_negligible_at_propeller_mics(default_scene):
    ref_power = np.mean(default_scene.speech_image.samples[0] ** 2)
    prop = default_scene.manifest["channels"]["propeller"]
    for ch in prop:
        power = np.mean(default_scene.speech_image.samples[ch] ** 2)
        assert 10 * np.log10(power / ref_power) <= -20.0


def test_own_rotor_dominates_propeller_channel(speech_wav):
    """Re-render each rotor's coherent contribution and compare powers."""
    cfg = SceneConfig(speech_path=speech_wav, target_snr_db=-10.0, seed=0)
    fs = cfg.sample_rate_hz
    duration = 2.0
    own = 10.0 ** (cfg.coupling_own_db / 20.0)
    cross = 10.0 ** (cfg.coupling_cross_db / 20.0)
    for k in range(4):
        mic = PROPELLER_MICS[k]
        powers = []
        for r in range(4):
            sig = synth_ego_noise(cfg.rotor_speeds_rpm[r], duration, fs, (cfg.seed, r)).samples[0]
            delay, _ = steering_delay_gain(ROTORS[r], mic, fs)
            gain = own if r == k else cross
            powers.append(np.mean((gain * fractional_delay(sig, delay)) ** 2))
        for r in range(4):
            if r != k:
                assert 10 * np.log10(powers[k] / powers[r]) >= 11.9


def test_oracle_mask_zero_speech_frames(default_scene):
    from egomwf.stft import analyze

    s_pow = np.abs(analyze(default_scene.speech_image.channel(0)).data[:, :, 0]) ** 2
    silent_frames = np.where(s_pow.sum(axis=0) == 0)[0]
    assert silent_frames.size > 0
    mask = make_oracle_mask(
        default_scene.speech_image.channel(0), default_scene.noise_image.channel(0)
    )
    assert np.all(mask.beta[:, silent_frames] == 0)


def test_scene_determinism(speech_wav, monkeypatch):
    """Bit-identical images on repeated renders and on one core or all."""
    import os

    cfg = SceneConfig(speech_path=speech_wav, target_snr_db=0.0, seed=4, duration_s=2.0)
    a = render_scene(cfg)
    b = render_scene(cfg)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    one_core = render_scene(cfg)
    for other in (b, one_core):
        for name in ("mixture", "speech_image", "noise_image"):
            assert getattr(a, name).samples.tobytes() == getattr(other, name).samples.tobytes()


def test_render_holds_blas_at_one_thread_and_restores_it(speech_wav, monkeypatch, blas_threads):
    import egomwf.scenegen

    cfg = SceneConfig(speech_path=speech_wav, seed=1, duration_s=1.0)
    before, seen, real = blas_threads(), [], egomwf.scenegen.spread

    def recorded(*args):
        seen.append(blas_threads())
        return real(*args)

    monkeypatch.setattr(egomwf.scenegen, "spread", recorded)
    render_scene(cfg)
    assert seen and set(seen) == {1}
    assert blas_threads() == before
    with one_blas_thread() as pinned:
        render_scene(cfg)
        assert blas_threads() == (1 if pinned else before)
    assert blas_threads() == before


def test_usable_cores_follows_affinity_mask_or_cpu_count(monkeypatch):
    import os

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2}, raising=False)
    assert usable_cores() == 2
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert usable_cores() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert usable_cores() == 1


def test_spread_keeps_item_order_and_calling_thread():
    import threading

    def square_after_a_pause(k):
        time.sleep(0.001 * (k % 3))
        return k * k

    assert spread(square_after_a_pause, range(20), 3) == [k * k for k in range(20)]
    assert spread(square_after_a_pause, [], 3) == []
    # one thread: everything runs on the caller
    assert spread(lambda k: threading.get_ident(), range(5), 1) == [threading.get_ident()] * 5


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
@pytest.mark.parametrize("on_calling_thread", [True, False])
def test_spread_error_stops_items_not_started(error, on_calling_thread):
    """An error (or Ctrl-C) on either thread leaves the items not yet
    started undone and reaches the caller once the other thread is done."""
    import threading

    caller = threading.get_ident()
    started = []

    def work(k):
        started.append(k)
        if (threading.get_ident() == caller) == on_calling_thread:
            raise error("stop")
        time.sleep(0.05)
        return k

    with pytest.raises(error):
        spread(work, range(27), 2)
    assert 1 <= len(started) <= 3


def test_spread_runs_each_item_once_under_fast_switching():
    """More threads than cores, switching every microsecond: each index is
    handed out once, so every item runs exactly once and lands in place."""
    import sys

    counts = [0] * 3000

    def count(k):
        counts[k] += 1  # one writer per index unless an index is handed out twice
        return k

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        out = spread(count, range(3000), 8)
    finally:
        sys.setswitchinterval(interval)
    assert out == list(range(3000))
    assert counts == [1] * 3000


def test_noise_scaling_between_targets(speech_wav):
    lo = render_scene(SceneConfig(speech_path=speech_wav, target_snr_db=-20.0, seed=4, duration_s=2.0))
    hi = render_scene(SceneConfig(speech_path=speech_wav, target_snr_db=0.0, seed=4, duration_s=2.0))
    assert np.array_equal(lo.speech_image.samples, hi.speech_image.samples)
    n_emb = 16
    ratio = lo.noise_image.samples[:n_emb] / hi.noise_image.samples[:n_emb]
    assert np.allclose(ratio, 10.0, atol=1e-6)


def test_scene_config_validation(speech_wav):
    with pytest.raises(SceneError):
        SceneConfig(speech_path=speech_wav, rotor_speeds_rpm=(4000.0, 4000.0, 4000.0))
    with pytest.raises(SceneError):
        SceneConfig(speech_path=speech_wav, rotor_speeds_rpm=(0.0, 1.0, 1.0, 1.0))
    with pytest.raises(SceneError):
        SceneConfig(speech_path=speech_wav, target_snr_db=float("inf"))


def test_scene_config_rejects_a_rotor_with_no_partial_below_nyquist(speech_wav):
    # the fastest speed that keeps one partial at 16 kHz renders; one faster does not
    fastest = 0.95 * 16000 / 2 / 1.05 * 60.0 / 2.0 * (1 - 1e-9)
    SceneConfig(speech_path=speech_wav, rotor_speeds_rpm=(fastest, 4000.0, 4000.0, 4000.0))
    with pytest.raises(SceneError, match="0.95 x Nyquist"):
        SceneConfig(speech_path=speech_wav, rotor_speeds_rpm=(4000.0, 300000.0, 4000.0, 4000.0))
    # the bound moves with the sample rate
    with pytest.raises(SceneError):
        SceneConfig(speech_path=speech_wav, rotor_speeds_rpm=(fastest,) * 4, sample_rate_hz=8000)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"duration_s": -1.0},
        {"duration_s": 0.0},
        {"duration_s": float("nan")},
        {"duration_s": float("inf")},
        {"sample_rate_hz": 0},
        {"sample_rate_hz": -16000},
    ],
)
def test_scene_config_rejects_bad_duration_and_rate(speech_wav, kwargs):
    # a negative duration used to slice from the end and render a shorter scene
    with pytest.raises(SceneError):
        SceneConfig(speech_path=speech_wav, **kwargs)


def test_zero_speech_rejected(tmp_path):
    from egomwf.audio_io import write_wav

    path = tmp_path / "silence.wav"
    write_wav(AudioClip(np.zeros((1, 32000)), 16000), path, "16")
    with pytest.raises(SceneError):
        render_scene(SceneConfig(speech_path=str(path)))


def test_suite_partition_bounds():
    part = suite_partition(12)
    assert part.speech_noise_channels == tuple(range(12))
    assert part.noise_only_channels == (12, 13, 14, 15)
    with pytest.raises(SceneError):
        suite_partition(13)


def test_write_scene_files(tmp_path, speech_wav):
    scene = render_scene(SceneConfig(speech_path=speech_wav, duration_s=1.5, seed=2))
    manifest = write_scene(scene, tmp_path / "scene")
    for name in ("mixture.wav", "speech.wav", "noise.wav", "external.wav", "manifest.json"):
        assert (tmp_path / "scene" / name).exists()
    on_disk = json.loads((tmp_path / "scene" / "manifest.json").read_text())
    assert on_disk["achieved_snr_db"] == pytest.approx(manifest["achieved_snr_db"])
    assert on_disk["channels"]["external"] == 16


def test_geometry_defaults():
    assert ARRAY_MICS.shape == (12, 3)
    assert PROPELLER_MICS.shape == ROTORS.shape == (4, 3)
    assert N_EMBEDDED == 16
    assert np.allclose(ARRAY_MICS[:, 2], 1.15)
    assert np.linalg.norm(SOURCE - np.array([2.0, 0.0, 0.1])) == 0.0
    assert EXTERNAL_MIC[2] == pytest.approx(SOURCE[2] + 0.2)
    for positions in (SOURCE, ARRAY_MICS, PROPELLER_MICS, ROTORS, EXTERNAL_MIC):
        with pytest.raises(ValueError):
            positions[..., 0] = 1.0
