from dataclasses import replace

import numpy as np
import pytest

from egomwf.audio_io import AudioClip
from egomwf.config import EnhanceConfig
from egomwf.filters import STATUS_NO_SPEECH, ChannelPartition, FilterBank
from egomwf.metrics import stoi
from egomwf.pipeline import PipelineError, apply_filterbank, enhance
from egomwf.scenegen import SceneConfig, render_scene, suite_partition
from egomwf.stft import StftGrid, StftParams, analyze


def _grid(rng, bins=9, frames=12, channels=3):
    params = StftParams(fft_size=(bins - 1) * 2, hop=bins - 1)
    data = rng.standard_normal((bins, frames, channels)) + 1j * rng.standard_normal(
        (bins, frames, channels)
    )
    return StftGrid(data, params)


def _bank(weights, partition):
    return FilterBank(
        weights=weights,
        method="mwf",
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
    stoi_in = stoi(clean, scene.mixture.channel(0), 16000)
    stoi_out = stoi(clean, result.enhanced, 16000)
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
    result = enhance(
        default_scene.mixture,
        cfg,
        default_scene.speech_image.channel(0),
        default_scene.noise_image.channel(0),
    )
    assert result.shadow_speech is None
    assert result.shadow_noise is None
    assert result.mask.source_channel[0] == "oracle"


def test_external_spp_uses_external_channel(default_scene):
    ext = default_scene.manifest["channels"]["external"]
    cfg = EnhanceConfig(
        partition=suite_partition(8), spp_mode="external", spp_channel=ext, method="pk-mwf"
    )
    result = enhance(default_scene.mixture, cfg)
    assert result.mask.source_channel == ("external", ext)
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

    analysis = InputAnalysis(default_scene.mixture, StftParams(), None, None, range(8))
    with pytest.raises(PipelineError):
        analysis.enhance(EnhanceConfig(partition=suite_partition(4), method="pk-mwf"))
    with pytest.raises(PipelineError):
        analysis.enhance(
            EnhanceConfig(partition=suite_partition(4), method="mwf", stft=StftParams(hop=128))
        )
    run = analysis.enhance(EnhanceConfig(partition=suite_partition(4), method="mwf"))
    again = analysis.enhance(EnhanceConfig(partition=suite_partition(8), method="mwf"))
    assert run.mask is again.mask
    assert analysis.grid.n_channels == 8
    with pytest.raises(PipelineError):
        analysis.enhance(EnhanceConfig(partition=suite_partition(12), method="mwf"))


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
    mask = estimate_spp(ext_grid.channel_slice(0), cfg.spp, ("external", ext))
    stats = estimate_correlations(grid, mask, range(4))
    fb = build_filterbank(stats, part, "mwf", cfg.delta)
    d = apply_filterbank(grid, fb, range(4))
    expected = synthesize(StftGrid(d[:, :, None], grid.params, grid.n_samples))

    calls = _counting_analyze(monkeypatch)
    analysis = InputAnalysis(default_scene.mixture, StftParams(), None, None, range(4))
    result = analysis.enhance(cfg)
    assert np.array_equal(result.mask.spp, mask.spp)
    assert np.array_equal(result.mask.beta, mask.beta)
    assert np.array_equal(result.filterbank.weights, fb.weights)
    assert np.array_equal(result.enhanced.samples, expected.samples)
    assert sorted(calls) == [1, 4]
    # a second mask from channel 16 reuses its single-channel analysis
    analysis.enhance(replace(cfg, spp=SppParams(threshold=0.6)))
    assert sorted(calls) == [1, 4]


def test_component_grids_from_worker_match_inline_analysis(default_scene):
    from egomwf.pipeline import InputAnalysis
    from egomwf.stft import synthesize

    part = ChannelPartition(tuple(range(12)), (12, 13, 14, 15), 0)
    cfg = EnhanceConfig(partition=part, spp_mode="oracle", method="pk-mwf")
    scene = default_scene
    analysis = InputAnalysis(scene.mixture, cfg.stft, scene.speech_image, scene.noise_image, range(16))
    result = analysis.enhance(cfg)
    order = list(part.ordered_channels)
    for worker_grid, ref, shadow in (
        (analysis.component_grids[0], scene.speech_image, result.shadow_speech),
        (analysis.component_grids[1], scene.noise_image, result.shadow_noise),
    ):
        inline = analyze(ref, cfg.stft, range(16))
        assert np.array_equal(worker_grid.data, inline.data)
        d = apply_filterbank(inline, result.filterbank, order)
        expected = synthesize(StftGrid(d[:, :, None], inline.params, inline.n_samples))
        assert np.array_equal(shadow.samples, expected.samples)


def test_worker_error_surfaces_from_enhance_with_its_type(default_scene, monkeypatch):
    import egomwf.stft
    from egomwf.stft import StftError

    def failing(*args, **kwargs):
        raise StftError("component analysis failed")

    # the worker calls stft.analyze; the mixture goes through pipeline.analyze
    monkeypatch.setattr(egomwf.stft, "analyze", failing)
    cfg = EnhanceConfig(partition=suite_partition(4), spp_mode="internal", method="pk-mwf")
    with pytest.raises(StftError, match="component analysis failed"):
        enhance(default_scene.mixture, cfg, default_scene.speech_image, default_scene.noise_image)


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
        InputAnalysis(mixture, cfg.stft, refs["speech"], refs["noise"], range(8))


def test_reference_length_is_checked_after_resampling(default_scene):
    from egomwf.audio_io import resample

    up = resample(default_scene.mixture, 32000)
    cfg = EnhanceConfig(partition=suite_partition(4), spp_mode="internal", method="mwf")
    result = enhance(up, cfg, default_scene.speech_image, default_scene.noise_image)
    assert result.shadow_speech.n_frames == result.enhanced.n_frames


_FORK_AFTER_ENHANCE = """
import sys
from egomwf import speechgen
from egomwf.audio_io import write_wav
from egomwf.cli import run_sweep
from egomwf.config import EnhanceConfig
from egomwf.pipeline import enhance
from egomwf.scenegen import SceneConfig, render_scene, suite_partition

speech = sys.argv[1]
write_wav(speechgen.speech_like(2.0, 16000, 4), speech, "32f")
scene = render_scene(SceneConfig(speech_path=speech, seed=4, duration_s=2.0))
cfg = EnhanceConfig(partition=suite_partition(4), spp_mode="oracle", method="pk-mwf")
result = enhance(scene.mixture, cfg, scene.speech_image, scene.noise_image)
assert result.shadow_speech is not None
rows = run_sweep(speech, [4], duration_s=2.0, snrs=(-10.0, 0.0), workers=2)
assert len(rows) == 54 and all(r["status"] == "ok" for r in rows)
print("done")
"""


def test_sweep_pool_forked_after_shadow_enhance_finishes(tmp_path):
    """The component worker leaves nothing behind that a forked sweep
    worker could wait on."""
    import os
    import signal
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    path = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    # its own session, so a hang can be ended with the pool workers it forked
    proc = subprocess.Popen(
        [sys.executable, "-c", _FORK_AFTER_ENHANCE, str(tmp_path / "speech.wav")],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=300)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("enhance followed by a forked sweep did not finish in 300 s")
    assert proc.returncode == 0, err
    assert out.strip() == "done"
