"""End-to-end enhancement: STFT, activity mask, covariance, per-bin
filtering, inverse STFT, plus shadow filtering of known components.

The whole file yields one FilterBank which is applied to every frame
(batch processing, no per-frame adaptation). Applying the same fixed
bank separately to ground-truth speech and noise components gives exact
output-SNR bookkeeping by linearity.

Everything before the filter depends on the input and the mask source,
not on method or array size, so an InputAnalysis serves many runs on one
input: enhance() is one used once, the sweep keeps one per scene. The
STFT covers only the channels the covariance is estimated over (for
enhance(), the filter channels); a mask channel outside them is analysed
on its own.

When shadow filtering will run, the speech and noise images are analysed
on a worker thread of the InputAnalysis itself, started as soon as the
mixture grid is built: mask, covariance, filter and the output synthesis
read only the mixture grid, so the two component analyses overlap them
and are joined just before the shadow apply. The worker calls
stft.analyze through the stft module rather than this module's analyze
binding, which the benchmark's single-threaded tracer wraps.
"""

from __future__ import annotations

from concurrent.futures import Future, ThreadPoolExecutor, wait
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from . import stft
from .audio_io import AudioClip, resample
from .config import EnhanceConfig
from .covariance import BinStatistics, estimate_correlations
from .errors import EgomwfError
from .filters import FilterBank, build_filterbank, filter_partition
from .scenegen import make_oracle_mask
from .spp import SppMask, SppParams, estimate_spp
from .stft import StftGrid, StftParams, analyze, synthesize


class PipelineError(EgomwfError):
    pass


@dataclass(frozen=True, eq=False)
class EnhanceResult:
    enhanced: AudioClip
    filterbank: FilterBank
    mask: SppMask
    shadow_speech: AudioClip | None = None
    shadow_noise: AudioClip | None = None

    def status_counts(self) -> dict[str, int]:
        return self.filterbank.status_counts()


def apply_filterbank(grid: StftGrid, fb: FilterBank, channels: Sequence[int]) -> np.ndarray:
    """d(k, l) = w(k)^H y(k, l).

    channels lists the grid channels the weights act on, in weight
    order. They are served by spreading the weights to the full grid
    width (zero elsewhere), so the product runs on the grid as it is,
    without a channel copy.
    """
    n_bins, m = fb.weights.shape
    if grid.n_bins != n_bins:
        raise PipelineError(f"grid has {grid.n_bins} bins but filterbank has {n_bins}")
    if len(channels) != m or any(not 0 <= c < grid.n_channels for c in channels):
        raise PipelineError(
            f"channels {list(channels)} do not fit {m} weights on a "
            f"{grid.n_channels}-channel grid"
        )
    weights = np.zeros((n_bins, grid.n_channels), dtype=np.complex128)
    weights[:, list(channels)] = fb.weights
    return (grid.data @ np.conj(weights)[:, :, None])[:, :, 0]


def _prepare_clip(clip: AudioClip, params: StftParams) -> AudioClip:
    if clip.sample_rate_hz != params.sample_rate_hz:
        clip = resample(clip, params.sample_rate_hz)
    return clip


def _mask_source(cfg: EnhanceConfig) -> tuple[str, int]:
    """(SPP mode, physical channel) the configured mask is computed from."""
    ref_phys = cfg.partition.speech_noise_channels[cfg.partition.ref_channel]
    if cfg.spp_mode == "external":
        if cfg.spp_channel is None:
            raise PipelineError("external SPP mode needs the external channel index")
        return "external", cfg.spp_channel
    if cfg.spp_mode == "internal" and cfg.spp_channel is not None:
        return "internal", cfg.spp_channel
    return cfg.spp_mode, ref_phys


def _channel_of(clip: AudioClip, channel: int) -> AudioClip:
    """The clip's `channel`, or the clip itself when it has only one."""
    return clip.channel(channel) if clip.n_channels > 1 else clip


class InputAnalysis:
    """One multichannel input (plus optional ground-truth components, as
    for enhance) analysed once for any number of enhance runs.

    Only `channels` are analysed: column j of the mixture grid and of
    both component grids holds physical channel channels[j]. Correlations
    are estimated over those columns; each run takes the principal
    sub-block on its own filter channels, which must lie there. A mask
    channel outside `channels` (an external microphone, say) gets a
    single-channel analysis of its own. The grids, the mask of each mask
    source and the correlations under each mask are computed on first
    use and kept while the object lives.

    Reference clips must have the mixture's sample count. When both
    carry every analysed channel, runs also shadow-filter them, and the
    two component grids are analysed on a one-thread executor owned by
    this object, submitted when the mixture grid is built and joined by
    component_grids, which re-raises a worker error as it was raised.
    """

    def __init__(
        self,
        clip: AudioClip,
        params: StftParams,
        speech_ref: AudioClip | None,
        noise_ref: AudioClip | None,
        channels: Sequence[int],
    ):
        self.params = params
        self.clip = _prepare_clip(clip, params)
        self.speech_ref = None if speech_ref is None else _prepare_clip(speech_ref, params)
        self.noise_ref = None if noise_ref is None else _prepare_clip(noise_ref, params)
        self.channels = tuple(channels)
        refs = (self.speech_ref, self.noise_ref)
        for name, ref in zip(("speech", "noise"), refs):
            if ref is not None and ref.n_frames != self.clip.n_frames:
                raise PipelineError(
                    f"{name} reference has {ref.n_frames} samples but the input has "
                    f"{self.clip.n_frames}"
                )
        # shadow filtering needs the components at every analysed channel;
        # reference clips carrying fewer (e.g. mask-only single-channel
        # ground truth) simply skip it
        self._shadows = all(ref is not None and ref.n_channels > max(self.channels) for ref in refs)
        self._components: Future | None = None
        self._column = {c: j for j, c in enumerate(self.channels)}
        self._single: dict[int, StftGrid] = {}
        self._estimates: dict = {}

    @cached_property
    def grid(self) -> StftGrid:
        grid = analyze(self.clip, self.params, self.channels)
        if self._shadows:
            # one executor per object, none at module level: a forked child
            # inherits a module-level executor's bookkeeping but not its
            # thread, and work submitted there would never run
            pool = ThreadPoolExecutor(max_workers=1)
            self._components = pool.submit(self._analyze_components)
            pool.shutdown(wait=False)
        return grid

    def _analyze_components(self) -> tuple[StftGrid, StftGrid]:
        return (
            stft.analyze(self.speech_ref, self.params, self.channels),
            stft.analyze(self.noise_ref, self.params, self.channels),
        )

    @cached_property
    def component_grids(self) -> tuple[StftGrid, StftGrid]:
        """(speech, noise) grids; only when shadow filtering runs."""
        if not self._shadows:
            raise PipelineError("shadow filtering needs both references at every analysed channel")
        self.grid  # starts the worker
        return self._components.result()

    def _spectrogram_grid(self, channel: int) -> tuple[StftGrid, int]:
        """(grid, column) holding physical `channel` of the input."""
        if channel in self._column:
            return self.grid, self._column[channel]
        if channel not in self._single:
            self._single[channel] = analyze(self.clip, self.params, [channel])
        return self._single[channel], 0

    def _build_mask(self, source: tuple[str, int], spp: SppParams) -> SppMask:
        mode, channel = source
        if mode != "oracle":
            grid, column = self._spectrogram_grid(channel)
            return estimate_spp(grid.channel_slice(column), spp, source)
        if self.speech_ref is None or self.noise_ref is None:
            raise PipelineError("oracle SPP mode needs ground-truth speech and noise clips")
        mask = make_oracle_mask(
            _channel_of(self.speech_ref, channel), _channel_of(self.noise_ref, channel), self.params
        )
        shape = self.grid.data.shape[:2]
        if mask.beta.shape != shape:
            raise PipelineError(f"oracle mask shape {mask.beta.shape} does not match grid {shape}")
        return mask

    def _mask_and_statistics(self, cfg: EnhanceConfig) -> tuple[SppMask, BinStatistics]:
        source = _mask_source(cfg)
        key = (source, cfg.spp)
        if key not in self._estimates:
            mask = self._build_mask(source, cfg.spp)
            columns = range(len(self.channels))
            self._estimates[key] = mask, estimate_correlations(self.grid, mask, columns)
        return self._estimates[key]

    def _filtered(self, grid: StftGrid, fb: FilterBank) -> AudioClip:
        d = apply_filterbank(grid, fb, [self._column[c] for c in fb.partition.ordered_channels])
        return synthesize(StftGrid(d[:, :, np.newaxis], self.params, self.grid.n_samples))

    def enhance(self, cfg: EnhanceConfig) -> EnhanceResult:
        """The enhance() result for this input under cfg.

        A run that fails waits for the component analyses before it
        raises, so none of its work is still running afterwards.
        """
        try:
            return self._enhance(cfg)
        except BaseException:
            if self._components is not None:
                wait([self._components])
            raise

    def _enhance(self, cfg: EnhanceConfig) -> EnhanceResult:
        if cfg.stft != self.params:
            raise PipelineError(f"config STFT {cfg.stft} differs from the analysed {self.params}")
        order = filter_partition(cfg.partition, cfg.method).ordered_channels
        n_channels = self.clip.n_channels
        needed = max(order)
        if needed >= n_channels:
            raise PipelineError(
                f"partition references channel {needed} but input has {n_channels}"
            )
        if cfg.spp_channel is not None and cfg.spp_channel >= n_channels:
            raise PipelineError(
                f"SPP channel {cfg.spp_channel} out of range for {n_channels}-channel input"
            )
        outside = sorted(set(order) - set(self.channels))
        if outside:
            raise PipelineError(f"channels {outside} are outside the analysed set {self.channels}")

        mask, stats = self._mask_and_statistics(cfg)
        if order != self.channels:
            stats = stats.block([self._column[c] for c in order])
        fb = build_filterbank(stats, cfg.partition, cfg.method, cfg.delta)
        enhanced = self._filtered(self.grid, fb)

        shadow_speech = shadow_noise = None
        if self._shadows:
            s_grid, n_grid = self.component_grids
            shadow_speech = self._filtered(s_grid, fb)
            shadow_noise = self._filtered(n_grid, fb)

        return EnhanceResult(
            enhanced=enhanced,
            filterbank=fb,
            mask=mask,
            shadow_speech=shadow_speech,
            shadow_noise=shadow_noise,
        )


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
    channels = filter_partition(cfg.partition, cfg.method).ordered_channels
    return InputAnalysis(clip, cfg.stft, speech_ref, noise_ref, channels).enhance(cfg)
