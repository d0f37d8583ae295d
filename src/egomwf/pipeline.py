"""End-to-end enhancement: STFT, activity mask, covariance, per-bin
filtering, inverse STFT, plus shadow filtering of known components.

The whole file yields one FilterBank which is applied to every frame
(batch processing, no per-frame adaptation). Applying the same fixed
bank separately to ground-truth speech and noise components gives exact
output-SNR bookkeeping by linearity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audio_io import AudioClip, resample
from .config import EnhanceConfig
from .covariance import estimate_correlations
from .errors import EgomwfError
from .filters import METHOD_MWF, FilterBank, build_filterbank
from .scenegen import make_oracle_mask
from .spp import SppMask, estimate_spp, select_spp_channel
from .stft import StftGrid, analyze, synthesize


class PipelineError(EgomwfError):
    pass


@dataclass(frozen=True)
class EnhanceResult:
    enhanced: AudioClip
    filterbank: FilterBank
    mask: SppMask
    shadow_speech: AudioClip | None = None
    shadow_noise: AudioClip | None = None

    def status_counts(self) -> dict[str, int]:
        return self.filterbank.status_counts()


def apply_filterbank(grid: StftGrid, fb: FilterBank) -> np.ndarray:
    """d(k, l) = w(k)^H y(k, l); grid channels must already be in
    partition order and match the weight length."""
    m = fb.weights.shape[1]
    if grid.n_channels != m:
        raise PipelineError(
            f"grid has {grid.n_channels} channels but filterbank expects {m}"
        )
    if grid.n_bins != fb.weights.shape[0]:
        raise PipelineError(
            f"grid has {grid.n_bins} bins but filterbank has {fb.weights.shape[0]}"
        )
    return (grid.data @ np.conj(fb.weights)[:, :, None])[:, :, 0]


def _single_channel_grid(data: np.ndarray, like: StftGrid) -> StftGrid:
    return StftGrid(data[:, :, np.newaxis], like.params, like.n_samples)


def _prepare_clip(clip: AudioClip, cfg: EnhanceConfig) -> AudioClip:
    if clip.sample_rate_hz != cfg.stft.sample_rate_hz:
        clip = resample(clip, cfg.stft.sample_rate_hz)
    return clip


def _build_mask(
    grid: StftGrid,
    cfg: EnhanceConfig,
    speech_ref: AudioClip | None,
    noise_ref: AudioClip | None,
) -> SppMask:
    if cfg.spp_mode == "oracle":
        if speech_ref is None or noise_ref is None:
            raise PipelineError("oracle SPP mode needs ground-truth speech and noise clips")
        ref_phys = cfg.partition.speech_noise_channels[cfg.partition.ref_channel]
        mask = make_oracle_mask(
            speech_ref.channel(ref_phys) if speech_ref.n_channels > 1 else speech_ref,
            noise_ref.channel(ref_phys) if noise_ref.n_channels > 1 else noise_ref,
            grid.params,
        )
        if mask.beta.shape != grid.data.shape[:2]:
            raise PipelineError(
                f"oracle mask shape {mask.beta.shape} does not match grid {grid.data.shape[:2]}"
            )
        return mask
    if cfg.spp_mode == "internal":
        channel = (
            cfg.spp_channel
            if cfg.spp_channel is not None
            else cfg.partition.speech_noise_channels[cfg.partition.ref_channel]
        )
    else:  # external
        if cfg.spp_channel is None:
            raise PipelineError("external SPP mode needs the external channel index")
        channel = cfg.spp_channel
    spec = select_spp_channel(grid, "internal" if cfg.spp_mode == "internal" else "external", channel)
    return estimate_spp(spec, cfg.spp, source_channel=(cfg.spp_mode, channel))


def enhance(
    clip: AudioClip,
    cfg: EnhanceConfig,
    speech_ref: AudioClip | None = None,
    noise_ref: AudioClip | None = None,
) -> EnhanceResult:
    """Run the full pipeline on a multichannel clip.

    speech_ref/noise_ref are optional ground-truth component clips (same
    channel layout); they drive oracle masking and shadow filtering.
    """
    clip = _prepare_clip(clip, cfg)
    partition = cfg.partition
    eff = partition.without_noise_mics() if cfg.method == METHOD_MWF else partition
    needed = max(eff.ordered_channels)
    if needed >= clip.n_channels:
        raise PipelineError(
            f"partition references channel {needed} but input has {clip.n_channels}"
        )
    if cfg.spp_channel is not None and cfg.spp_channel >= clip.n_channels:
        raise PipelineError(
            f"SPP channel {cfg.spp_channel} out of range for {clip.n_channels}-channel input"
        )

    grid = analyze(clip, cfg.stft)
    if speech_ref is not None:
        speech_ref = _prepare_clip(speech_ref, cfg)
    if noise_ref is not None:
        noise_ref = _prepare_clip(noise_ref, cfg)
    mask = _build_mask(grid, cfg, speech_ref, noise_ref)

    stats = estimate_correlations(grid, mask, eff.ordered_channels)
    fb = build_filterbank(stats, partition, cfg.method, cfg.delta)

    sub = grid.select_channels(list(eff.ordered_channels))
    enhanced = synthesize(_single_channel_grid(apply_filterbank(sub, fb), grid))

    # shadow filtering needs the components at every partition channel;
    # reference clips carrying fewer (e.g. mask-only single-channel
    # ground truth) simply skip it
    shadow_speech = shadow_noise = None
    if (
        speech_ref is not None
        and noise_ref is not None
        and speech_ref.n_channels > needed
        and noise_ref.n_channels > needed
    ):
        order = list(eff.ordered_channels)
        s_grid = analyze(AudioClip(speech_ref.samples[order], speech_ref.sample_rate_hz), cfg.stft)
        n_grid = analyze(AudioClip(noise_ref.samples[order], noise_ref.sample_rate_hz), cfg.stft)
        shadow_speech = synthesize(_single_channel_grid(apply_filterbank(s_grid, fb), grid))
        shadow_noise = synthesize(_single_channel_grid(apply_filterbank(n_grid, fb), grid))

    return EnhanceResult(
        enhanced=enhanced,
        filterbank=fb,
        mask=mask,
        shadow_speech=shadow_speech,
        shadow_noise=shadow_noise,
    )
