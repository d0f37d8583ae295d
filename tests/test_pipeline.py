from dataclasses import replace

import numpy as np
import pytest

from egomwf.audio_io import AudioClip
from egomwf.config import EnhanceConfig
from egomwf.filters import STATUS_NO_SPEECH, ChannelPartition, FilterBank
from egomwf.metrics import stoi
from egomwf.pipeline import PipelineError, apply_filterbank, enhance
from egomwf.scenegen import SceneConfig, make_oracle_mask, render_scene, suite_partition
from egomwf.stft import StftGrid, StftParams, analyze


def _grid(rng, bins=9, frames=12, channels=3):
    params = StftParams(fft_size=(bins - 1) * 2)
    data = rng.standard_normal((bins, frames, channels)) + 1j * rng.standard_normal(
        (bins, frames, channels)
    )
    return StftGrid(data, params)


def _bank(weights, partition):
    return FilterBank(
        weights=weights,
        partition=partition,
        per_bin_status=tuple(["ok"] * weights.shape[0]),
    )


def test_apply_passthrough_filter(rng):
    grid = _grid(rng)
    part = ChannelPartition((0, 1, 2), ())
    w = np.zeros((grid.n_bins, 3), complex)
    w[:, 0] = 1.0
    out = apply_filterbank(grid, _bank(w, part), [0, 1, 2])
    assert np.allclose(out, grid.data[:, :, 0], atol=1e-14)


def test_apply_zero_filter(rng):
    grid = _grid(rng)
    part = ChannelPartition((0, 1, 2), ())
    out = apply_filterbank(grid, _bank(np.zeros((grid.n_bins, 3), complex), part), [0, 1, 2])
    assert np.all(out == 0)


def test_apply_matches_naive_loop(rng):
    grid = _grid(rng, bins=5, frames=7, channels=4)
    part = ChannelPartition((0, 1, 2, 3), ())
    w = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
    out = apply_filterbank(grid, _bank(w, part), [0, 1, 2, 3])
    for k in range(5):
        for l in range(7):
            expected = np.vdot(w[k], grid.data[k, l, :])
            assert abs(out[k, l] - expected) <= 1e-12


def test_apply_shape_mismatch(rng):
    grid = _grid(rng, channels=3)
    part = ChannelPartition((0, 1), ())
    with pytest.raises(PipelineError):
        apply_filterbank(grid, _bank(np.zeros((grid.n_bins, 2), complex), part), [0, 1, 2])


def test_enhance_zero_activity_suppresses_everything():
    clip = AudioClip(np.zeros((17, 16000)), 16000)
    cfg = EnhanceConfig(partition=suite_partition(4), spp_mode="internal", method="pk-mwf")
    result = enhance(clip, cfg)
    assert np.max(np.abs(result.enhanced.samples)) <= 1e-12
    assert all(s == STATUS_NO_SPEECH for s in result.filterbank.per_bin_status)


def test_enhance_missing_channels():
    clip = AudioClip(np.zeros((4, 16000)), 16000)
    cfg = EnhanceConfig(partition=suite_partition(8))
    with pytest.raises(PipelineError):
        enhance(clip, cfg)


def test_enhance_output_snr_improves(default_scene):
    cfg = EnhanceConfig(partition=suite_partition(8), spp_mode="oracle", method="pk-mwf")
    result = enhance(
        default_scene.mixture, cfg, default_scene.speech_image, default_scene.noise_image
    )
    s_out = np.sum(result.shadow_speech.samples**2)
    n_out = np.sum(result.shadow_noise.samples**2)
    snr_out = 10 * np.log10(s_out / n_out)
    assert snr_out > -10.0  # input reference SNR


def test_enhance_nearly_clean_scene_keeps_stoi(speech_wav):
    scene = render_scene(
        SceneConfig(speech_path=speech_wav, target_snr_db=20.0, seed=1, duration_s=6.0)
    )
    cfg = EnhanceConfig(partition=suite_partition(8), spp_mode="oracle", method="pk-mwf")
    result = enhance(scene.mixture, cfg, scene.speech_image, scene.noise_image)
    clean = scene.speech_image.channel(0)
    stoi_in = stoi(clean, scene.mixture.channel(0))
    stoi_out = stoi(clean, result.enhanced)
    assert stoi_out >= stoi_in


def test_enhance_linearity_of_shadow_components(default_scene):
    cfg = EnhanceConfig(partition=suite_partition(8), spp_mode="oracle", method="pk-mwf")
    result = enhance(
        default_scene.mixture, cfg, default_scene.speech_image, default_scene.noise_image
    )
    recombined = result.shadow_speech.samples + result.shadow_noise.samples
    assert np.max(np.abs(result.enhanced.samples - recombined)) <= 1e-6
    assert result.enhanced.n_frames == default_scene.mixture.n_frames


def test_enhance_determinism(default_scene):
    cfg = EnhanceConfig(partition=suite_partition(4), spp_mode="internal", method="mwf")
    a = enhance(default_scene.mixture, cfg)
    b = enhance(default_scene.mixture, cfg)
    assert np.array_equal(a.enhanced.samples, b.enhanced.samples)
    assert np.array_equal(a.filterbank.weights, b.filterbank.weights)


def test_enhance_channel_order_canonicalization(default_scene, rng):
    """Permuting the wav channel order while remapping the partition leaves
    the output unchanged."""
    cfg = EnhanceConfig(partition=suite_partition(4), spp_mode="internal", method="pk-mwf")
    base = enhance(default_scene.mixture, cfg)

    perm = rng.permutation(default_scene.mixture.n_channels)
    inverse = np.empty_like(perm)
    inverse[perm] = np.arange(perm.size)
    shuffled = AudioClip(default_scene.mixture.samples[perm], 16000)
    part = cfg.partition
    remapped = ChannelPartition(
        tuple(int(inverse[c]) for c in part.speech_noise_channels),
        tuple(int(inverse[c]) for c in part.noise_only_channels),
        part.ref_channel,
    )
    cfg2 = EnhanceConfig(partition=remapped, spp_mode="internal", method="pk-mwf")
    moved = enhance(shuffled, cfg2)
    assert np.max(np.abs(base.enhanced.samples - moved.enhanced.samples)) <= 1e-10


def test_enhance_auto_resamples(default_scene):
    from egomwf.audio_io import resample

    up = resample(default_scene.mixture, 32000)
    cfg = EnhanceConfig(partition=suite_partition(4), spp_mode="internal", method="mwf")
    result = enhance(up, cfg)
    assert result.enhanced.sample_rate_hz == 16000


def test_oracle_mode_requires_ground_truth(default_scene):
    cfg = EnhanceConfig(partition=suite_partition(4), spp_mode="oracle", method="pk-mwf")
    with pytest.raises(PipelineError):
        enhance(default_scene.mixture, cfg)


def test_external_mode_requires_channel(default_scene):
    cfg = EnhanceConfig(partition=suite_partition(4), spp_mode="external", method="pk-mwf")
    with pytest.raises(PipelineError):
        enhance(default_scene.mixture, cfg)


def test_mask_only_ground_truth_skips_shadows(default_scene):
    cfg = EnhanceConfig(partition=suite_partition(4), spp_mode="oracle", method="pk-mwf")
    ref = cfg.partition.speech_noise_channels[cfg.partition.ref_channel]
    speech, noise = default_scene.speech_image.channel(ref), default_scene.noise_image.channel(ref)
    result = enhance(default_scene.mixture, cfg, speech, noise)
    assert result.shadow_speech is None
    assert result.shadow_noise is None
    assert np.array_equal(result.mask.beta, make_oracle_mask(speech, noise).beta)


def test_external_spp_uses_external_channel(default_scene):
    ext = default_scene.manifest["channels"]["external"]
    cfg = EnhanceConfig(
        partition=suite_partition(8), spp_mode="external", spp_channel=ext, method="pk-mwf"
    )
    result = enhance(default_scene.mixture, cfg)
    grid = analyze(default_scene.mixture)
    from egomwf.spp import estimate_spp

    direct = estimate_spp(grid.data[:, :, ext])
    assert np.array_equal(result.mask.beta, direct.beta)


def test_apply_on_listed_channels_matches_selected_grid(rng):
    grid = _grid(rng, bins=5, frames=7, channels=6)
    part = ChannelPartition((4, 1), (0,))
    w = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    order = list(part.ordered_channels)
    direct = np.einsum("km,klm->kl", np.conj(w), grid.data[:, :, order])
    spread = apply_filterbank(grid, _bank(w, part), order)
    assert np.max(np.abs(spread - direct)) <= 1e-12
    with pytest.raises(PipelineError):
        apply_filterbank(grid, _bank(w, part), [0, 1])
    with pytest.raises(PipelineError):
        apply_filterbank(grid, _bank(w, part), [0, 1, 6])


def test_shared_analysis_rejects_runs_it_cannot_serve(default_scene):
    from egomwf.pipeline import InputAnalysis

    def analysis(*configs):
        return InputAnalysis(default_scene.mixture, StftParams(), None, None, range(8), configs)

    # a config it cannot serve is rejected on construction, before any analysis
    with pytest.raises(PipelineError):
        analysis(EnhanceConfig(partition=suite_partition(4), method="pk-mwf"))
    with pytest.raises(PipelineError):
        analysis(EnhanceConfig(partition=suite_partition(4), method="mwf", stft=StftParams(fft_size=256)))
    cfgs = [EnhanceConfig(partition=suite_partition(m), method="mwf") for m in (4, 8)]
    shared = analysis(*cfgs)
    # nothing is served before prepare, and prepare runs once
    with pytest.raises(PipelineError, match="not prepared for"):
        shared.enhance(cfgs[0])
    shared.prepare(2)
    with pytest.raises(PipelineError, match="already prepared"):
        shared.prepare(2)
    run = shared.enhance(cfgs[0])
    again = shared.enhance(cfgs[1])
    assert run.mask is again.mask
    assert shared.grid.n_channels == 8
    with pytest.raises(PipelineError):
        shared.enhance(EnhanceConfig(partition=suite_partition(12), method="mwf"))
    # a config it was not prepared for, even one its analysis could serve
    for other in (replace(cfgs[0], spp_mode="external", spp_channel=16),
                  replace(cfgs[0], method="pk-mwf")):
        with pytest.raises(PipelineError, match="not prepared for"):
            shared.enhance(other)


def _counting_analyze(monkeypatch):
    """Patch the pipeline's analyze to record the channels of each call."""
    import egomwf.pipeline

    calls = []
    original = egomwf.pipeline.analyze

    def counted(clip, params=None, channels=None):
        grid = original(clip, params, channels)
        calls.append(grid.n_channels)
        return grid

    monkeypatch.setattr(egomwf.pipeline, "analyze", counted)
    return calls


def test_enhance_analyses_only_the_filter_channels(default_scene, monkeypatch):
    calls = _counting_analyze(monkeypatch)
    assert default_scene.mixture.n_channels == 17
    cfg = EnhanceConfig(partition=suite_partition(4), spp_mode="internal", method="pk-mwf")
    result = enhance(default_scene.mixture, cfg)
    assert calls == [8]
    assert result.filterbank.partition.ordered_channels == (0, 1, 2, 3, 12, 13, 14, 15)


def test_external_spp_outside_filter_channels_matches_full_grid(default_scene, monkeypatch):
    from egomwf.covariance import estimate_correlations
    from egomwf.filters import build_filterbank
    from egomwf.pipeline import InputAnalysis
    from egomwf.spp import SppParams, estimate_spp
    from egomwf.stft import synthesize

    ext = default_scene.manifest["channels"]["external"]
    assert ext == 16
    part = ChannelPartition((0, 1, 2, 3), (), 0)
    cfg = EnhanceConfig(partition=part, spp_mode="external", spp_channel=ext, method="mwf")

    grid = analyze(default_scene.mixture, channels=[0, 1, 2, 3])
    ext_grid = analyze(default_scene.mixture, channels=[ext])
    mask = estimate_spp(ext_grid.channel_slice(0), cfg.spp)
    stats = estimate_correlations(grid, mask, range(4))
    fb = build_filterbank(stats, part, "mwf", cfg.delta)
    d = apply_filterbank(grid, fb, range(4))
    expected = synthesize(StftGrid(d[:, :, None], grid.params, grid.n_samples))

    calls = _counting_analyze(monkeypatch)
    # a second mask from channel 16 reuses its single-channel analysis
    other = replace(cfg, spp=SppParams(threshold=0.6))
    analysis = InputAnalysis(default_scene.mixture, StftParams(), None, None, range(4), [cfg, other])
    analysis.prepare(1)
    result = analysis.enhance(cfg)
    assert np.array_equal(result.mask.spp, mask.spp)
    assert np.array_equal(result.mask.beta, mask.beta)
    assert np.array_equal(result.filterbank.weights, fb.weights)
    assert np.array_equal(result.enhanced.samples, expected.samples)
    assert sorted(calls) == [1, 4]
    analysis.enhance(other)
    assert sorted(calls) == [1, 4]


def _inline_shadow(ref, fb, params):
    """synthesize(apply_filterbank(analyze(ref))) on the 16 embedded channels."""
    from egomwf.stft import synthesize

    grid = analyze(ref, params, range(16))
    d = apply_filterbank(grid, fb, fb.partition.ordered_channels)
    return synthesize(StftGrid(d[:, :, None], params, grid.n_samples)).samples


def test_prepared_shadows_match_single_runs(default_scene):
    """prepare filters the speech image once for both configs: each run's
    output equals a single run's bit for bit, its speech shadow the single
    run's within 1e-12 relative (one stacked product instead of one per
    bank), and its noise shadow is the output less it."""
    from egomwf.pipeline import InputAnalysis

    part = ChannelPartition(tuple(range(12)), (12, 13, 14, 15), 0)
    configs = [EnhanceConfig(partition=part, spp_mode="oracle", method=m)
               for m in ("pk-mwf", "mwf-with-noise-mics")]
    scene = default_scene
    analysis = InputAnalysis(
        scene.mixture, StftParams(), scene.speech_image, scene.noise_image, range(16), configs
    )
    assert len(analysis.shadow_sources) == 1 and analysis.shadow_sources[0] is scene.speech_image
    analysis.prepare(2)
    assert analysis.shadow_sources == ()
    for cfg in configs:
        prepared = analysis.enhance(cfg)
        alone = enhance(scene.mixture, cfg, scene.speech_image, scene.noise_image)
        assert np.array_equal(prepared.filterbank.weights, alone.filterbank.weights)
        assert np.array_equal(prepared.enhanced.samples, alone.enhanced.samples)
        expected = _inline_shadow(scene.speech_image, alone.filterbank, cfg.stft)
        assert np.array_equal(alone.shadow_speech.samples, expected)
        gap = np.linalg.norm(prepared.shadow_speech.samples - expected)
        assert gap <= 1e-12 * np.linalg.norm(expected)
        for run in (prepared, alone):
            rest = run.enhanced.samples - run.shadow_speech.samples
            assert np.array_equal(run.shadow_noise.samples, rest)
    # a run gives the same output and shadows on every call
    first, again = analysis.enhance(configs[0]), analysis.enhance(configs[0])
    for name in ("enhanced", "shadow_speech", "shadow_noise"):
        assert np.array_equal(getattr(again, name).samples, getattr(first, name).samples)


def test_noise_shadow_by_linearity_only_when_the_sum_is_exact(default_scene):
    """References one ulp off the input in one sample get three filtered
    outputs, each the whole-grid filtering of its own component bit for bit."""
    from egomwf.pipeline import InputAnalysis

    scene = default_scene
    cfg = EnhanceConfig(partition=suite_partition(8), spp_mode="oracle", method="pk-mwf")
    noise = scene.noise_image.samples.copy()
    noise[13, 4321] = np.nextafter(noise[13, 4321], np.inf)
    bent = AudioClip(noise, scene.noise_image.sample_rate_hz)
    summed = InputAnalysis(scene.mixture, cfg.stft, scene.speech_image, scene.noise_image,
                           range(16), [cfg])
    assert summed.shadow_sources == (scene.speech_image,)
    apart = InputAnalysis(scene.mixture, cfg.stft, scene.speech_image, bent, range(16), [cfg])
    assert apart.shadow_sources == (scene.speech_image, bent)
    for analysis in (summed, apart):
        analysis.prepare(2)
    result = apart.enhance(cfg)
    assert np.array_equal(result.enhanced.samples, summed.enhance(cfg).enhanced.samples)
    for ref, shadow in ((scene.speech_image, result.shadow_speech), (bent, result.shadow_noise)):
        assert np.array_equal(shadow.samples, _inline_shadow(ref, result.filterbank, cfg.stft))


def test_input_analysis_holds_no_component_grid(default_scene):
    """Several configs: before and after the shadow pass, the only grids an
    InputAnalysis holds are the mixture grid (no component grid beside it)."""
    from egomwf.pipeline import InputAnalysis

    def grids(obj, seen):
        if id(obj) in seen:
            return []
        seen.add(id(obj))
        if isinstance(obj, StftGrid):
            return [obj]
        if isinstance(obj, dict):
            obj = [*obj.keys(), *obj.values()]
        elif hasattr(obj, "__dict__") and not isinstance(obj, type):
            obj = list(vars(obj).values())
        if isinstance(obj, (list, tuple)):
            return [g for item in obj for g in grids(item, seen)]
        return []

    scene = default_scene
    ext = scene.manifest["channels"]["external"]
    configs = [EnhanceConfig(partition=suite_partition(m), spp_mode=mode, method="pk-mwf",
                             spp_channel=ext if mode == "external" else None)
               for m in (4, 12) for mode in ("oracle", "external")]
    analysis = InputAnalysis(
        scene.mixture, StftParams(), scene.speech_image, scene.noise_image, range(16), configs
    )
    assert [g is analysis.grid for g in grids(analysis, set())] == [True]
    analysis.prepare(1)
    assert [g is analysis.grid for g in grids(analysis, set())] == [True]


@pytest.mark.parametrize("channels", [(5,), (9, 2, 14, 0), tuple(range(16))])
def test_blocked_filter_matches_whole_grid_synthesis(rng, channels):
    """A clip filtered _BLOCK frames at a time equals a whole-grid
    synthesis bit for bit, at lengths around one frame and around whole
    blocks: one bank gives synthesize(apply_filterbank(...)), and three
    banks in one call give the whole grid's stacked product, within
    rounding of each bank's own apply_filterbank."""
    from egomwf.pipeline import _BLOCK, InputAnalysis, _conj_weights
    from egomwf.stft import synthesize

    params = StftParams()
    nfft, hop = params.fft_size, params.hop
    part = ChannelPartition(channels[:1], channels[1:], 0)
    shape = (params.n_bins, len(channels))
    banks = [_bank(rng.standard_normal(shape) + 1j * rng.standard_normal(shape), part)
             for _ in range(3)]
    stacked = np.stack([_conj_weights(fb, channels, 16) for fb in banks], axis=-1)
    for n in (nfft, nfft + 1, _BLOCK * hop, 2 * _BLOCK * hop, _BLOCK * hop + 1, 37 * hop + 3):
        clip = AudioClip(rng.standard_normal((16, n)), params.sample_rate_hz)
        analysis = InputAnalysis(clip, params, None, None, range(16), [])
        grid = analyze(clip, params)
        own = [synthesize(StftGrid(apply_filterbank(grid, fb, channels)[:, :, None], params, n))
               for fb in banks]
        whole = synthesize(StftGrid(grid.data @ stacked, params, n)).samples
        assert np.array_equal(analysis._synthesized(clip, banks[:1])[0].samples,
                              own[0].samples), n
        filtered = analysis._synthesized(clip, banks)
        assert len(filtered) == len(banks)
        for j, (got, want) in enumerate(zip(filtered, own)):
            assert np.array_equal(got.samples[0], whole[j]), (n, j)
            assert np.max(np.abs(got.samples - want.samples)) <= 1e-12 * np.max(
                np.abs(want.samples)), (n, j)


@pytest.mark.parametrize("oracle", [False, True], ids=["deploy_pk8", "eval_oracle_m16"])
def test_enhance_equals_the_streamed_pass_of_the_mixture_clip(default_scene, oracle):
    """enhance filters the mixture grid whole; the blocked pass that
    prepare runs on the reference clips, given the mixture clip and the
    run's bank, gives the same output bit for bit."""
    from egomwf.filters import filter_partition
    from egomwf.pipeline import InputAnalysis

    scene = default_scene
    speech_noise = tuple(range(12)) if oracle else (0, 1, 2, 3)
    cfg = EnhanceConfig(partition=ChannelPartition(speech_noise, (12, 13, 14, 15), 0),
                        spp_mode="oracle" if oracle else "internal", method="pk-mwf")
    refs = (scene.speech_image, scene.noise_image) if oracle else (None, None)
    result = enhance(scene.mixture, cfg, *refs)
    channels = filter_partition(cfg.partition, cfg.method).ordered_channels
    analysis = InputAnalysis(scene.mixture, cfg.stft, None, None, channels, [])
    streamed = analysis._synthesized(scene.mixture, [result.filterbank])[0]
    assert np.array_equal(result.enhanced.samples, streamed.samples)


def test_single_run_shadow_enhance_holds_no_component_grid(default_scene):
    """A single M = 16 shadow run peaks below two grids: the mixture grid
    and no 16-channel grid of either component beside it."""
    import tracemalloc

    scene = default_scene
    part = ChannelPartition(tuple(range(12)), (12, 13, 14, 15), 0)
    cfg = EnhanceConfig(partition=part, spp_mode="oracle", method="pk-mwf")
    n_frames = -(-scene.mixture.n_frames // cfg.stft.hop)
    grid_bytes = cfg.stft.n_bins * n_frames * 16 * 16  # complex128, 16 channels
    tracemalloc.start()
    try:
        result = enhance(scene.mixture, cfg, scene.speech_image, scene.noise_image)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.shadow_speech is not None
    assert peak < 2 * grid_bytes


def test_worker_error_surfaces_from_enhance_with_its_type(default_scene, monkeypatch):
    import egomwf.pipeline
    from egomwf.stft import StftError

    real = egomwf.pipeline._frame_spectra
    components = (default_scene.speech_image, default_scene.noise_image)

    def failing(clip, *args, **kwargs):
        if any(clip is c for c in components):
            raise StftError("component analysis failed")
        return real(clip, *args, **kwargs)

    monkeypatch.setattr(egomwf.pipeline, "_frame_spectra", failing)
    cfg = EnhanceConfig(partition=suite_partition(4), spp_mode="internal", method="pk-mwf")
    with pytest.raises(StftError, match="component analysis failed"):
        enhance(default_scene.mixture, cfg, default_scene.speech_image, default_scene.noise_image)


def test_shadow_enhance_leaves_no_thread_running(default_scene):
    import threading

    scene = default_scene
    cfg = EnhanceConfig(partition=suite_partition(4), spp_mode="oracle", method="pk-mwf")
    before = threading.enumerate()
    result = enhance(scene.mixture, cfg, scene.speech_image, scene.noise_image)
    assert result.shadow_speech is not None and result.shadow_noise is not None
    assert threading.enumerate() == before


@pytest.mark.parametrize("which", ["speech", "noise", "both_mask_only"])
def test_reference_length_must_match_the_input(which):
    from egomwf.pipeline import InputAnalysis

    rng = np.random.default_rng(3)
    mixture = AudioClip(rng.standard_normal((8, 32000)), 16000)
    refs = {"speech": mixture, "noise": mixture}
    short = AudioClip(rng.standard_normal((8, 20000)), 16000)
    if which == "both_mask_only":
        refs = {"speech": short.channel(0), "noise": short.channel(0)}
    else:
        refs[which] = short
    cfg = EnhanceConfig(partition=suite_partition(4), spp_mode="internal", method="pk-mwf")
    with pytest.raises(PipelineError, match="20000 samples"):
        enhance(mixture, cfg, refs["speech"], refs["noise"])
    # rejected on construction, before any analysis or worker starts
    with pytest.raises(PipelineError):
        InputAnalysis(mixture, cfg.stft, refs["speech"], refs["noise"], range(8), [cfg])


def test_reference_length_is_checked_after_resampling(default_scene):
    from egomwf.audio_io import resample

    up = resample(default_scene.mixture, 32000)
    cfg = EnhanceConfig(partition=suite_partition(4), spp_mode="internal", method="mwf")
    result = enhance(up, cfg, default_scene.speech_image, default_scene.noise_image)
    assert result.shadow_speech.n_frames == result.enhanced.n_frames

