"""End-to-end enhancement: STFT, activity mask, covariance, per-bin
filtering, inverse STFT, plus shadow filtering of known components.

The whole file yields one FilterBank which is applied to every frame
(batch processing, no per-frame adaptation). Applying the same fixed
bank separately to ground-truth speech and noise components gives exact
output-SNR bookkeeping by linearity.

Everything before the filter depends on the input and the mask source,
not on method or array size, so an InputAnalysis serves many runs on one
input, built up front for the configs it will serve: enhance() is one
built for a single config, the sweep keeps one per scene for its cells.
The STFT covers only the channels the covariance is estimated over (for
enhance(), the filter channels); a mask channel outside them is analysed
on its own. Outputs are filtered _BLOCK frames at a time; a single run
analyses each block of the speech and noise images on the spot instead
of holding their grids, which only an input serving several runs builds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .audio_io import AudioClip, resample
from .config import EnhanceConfig
from .covariance import BinStatistics, estimate_correlations
from .errors import EgomwfError
from .filters import FilterBank, build_filterbank, filter_partition
from .scenegen import make_oracle_mask, spread, usable_cores
from .spp import SppMask, SppParams, estimate_spp
from .stft import StftGrid, StftParams, _frame_spectra, analyze, synthesize

# frames filtered per block; a block of 16-channel spectra is 2 MB
_BLOCK = 32


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
    for enhance) analysed once for the enhance runs of `configs`.

    Only `channels` are analysed: column j of the mixture grid and of
    both component grids holds physical channel channels[j]. Correlations
    are estimated over those columns; each run takes the principal
    sub-block on its own filter channels, which must lie there. A mask
    channel outside `channels` (an external microphone, say) gets one
    single-channel analysis of its own.

    The constructor checks every config, then builds everything before it
    returns: the mixture grid, the single-channel grids and the mask and
    correlations of each distinct (mask source, SPP parameters) key. A
    key whose build raises keeps the error, and each run that needs the
    key raises it again. enhance only reads what was built, so it may run
    on several threads at once.

    Reference clips must have the mixture's sample count. When both carry
    every analysed channel, runs also shadow-filter them. With more than
    one config their grids are built beside the mixture work (scenegen.
    spread) and each run filters from them in turn; a single run builds
    none, and enhance filters the two clips and the mixture side by side.
    """

    def __init__(
        self,
        clip: AudioClip,
        params: StftParams,
        speech_ref: AudioClip | None,
        noise_ref: AudioClip | None,
        channels: Sequence[int],
        configs: Sequence[EnhanceConfig],
    ):
        self.params = params
        rate = params.sample_rate_hz
        self.clip = resample(clip, rate)
        self.speech_ref = None if speech_ref is None else resample(speech_ref, rate)
        self.noise_ref = None if noise_ref is None else resample(noise_ref, rate)
        self.channels = tuple(channels)
        refs = (self.speech_ref, self.noise_ref)
        for name, ref in zip(("speech", "noise"), refs):
            if ref is not None and ref.n_frames != self.clip.n_frames:
                raise PipelineError(
                    f"{name} reference has {ref.n_frames} samples but the input has "
                    f"{self.clip.n_frames}"
                )
        self._column = {c: j for j, c in enumerate(self.channels)}
        keys = dict.fromkeys(self._check(cfg)[1] for cfg in configs)
        singles = sorted({c for (mode, c), _ in keys if mode != "oracle" and c not in self._column})
        self._estimates: dict[tuple, tuple[SppMask, BinStatistics] | Exception] = {}
        # shadow filtering needs the components at every analysed channel;
        # reference clips carrying fewer (e.g. mask-only single-channel
        # ground truth) simply skip it
        shadows = all(ref is not None and ref.n_channels > max(self.channels) for ref in refs)
        self.shadow_sources: tuple[AudioClip | StftGrid, ...] = refs if shadows else ()

        def mixture() -> None:
            self.grid = analyze(self.clip, params, self.channels)
            single = {c: analyze(self.clip, params, [c]) for c in singles}
            columns = range(len(self.channels))
            for key in keys:
                try:
                    mask = self._build_mask(key, single)
                    self._estimates[key] = mask, estimate_correlations(self.grid, mask, columns)
                except Exception as exc:  # raised again by every run that needs the key
                    self._estimates[key] = exc

        def components() -> None:
            self.shadow_sources = tuple(analyze(ref, params, self.channels) for ref in refs)

        jobs = [mixture, components] if shadows and len(configs) > 1 else [mixture]
        spread(lambda job: job(), jobs, len(jobs))

    def _check(self, cfg: EnhanceConfig) -> tuple[tuple[int, ...], tuple[tuple, SppParams]]:
        """cfg's filter channels and mask key; raises for a run this input cannot serve."""
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
        return order, (_mask_source(cfg), cfg.spp)

    def _build_mask(self, key: tuple[tuple, SppParams], single: dict[int, StftGrid]) -> SppMask:
        source, spp = key
        mode, channel = source
        if mode != "oracle":
            if channel in self._column:
                spectrogram = self.grid.channel_slice(self._column[channel])
            else:
                spectrogram = single[channel].channel_slice(0)
            return estimate_spp(spectrogram, spp, source)
        if self.speech_ref is None or self.noise_ref is None:
            raise PipelineError("oracle SPP mode needs ground-truth speech and noise clips")
        mask = make_oracle_mask(
            _channel_of(self.speech_ref, channel), _channel_of(self.noise_ref, channel), self.params
        )
        shape = self.grid.data.shape[:2]
        if mask.beta.shape != shape:
            raise PipelineError(f"oracle mask shape {mask.beta.shape} does not match grid {shape}")
        return mask

    def _blocks(self, source: AudioClip | StftGrid):
        """(f0, (bins, b, channels) spectra of frames f0 .. f0 + b - 1): grid
        slices, or a clip's frames analysed on the spot into a reused buffer."""
        if isinstance(source, StftGrid):
            for f0 in range(0, source.n_frames, _BLOCK):
                yield f0, source.data[:, f0 : f0 + _BLOCK]
            return
        buf = np.empty((self.params.n_bins, _BLOCK, len(self.channels)), dtype=np.complex128)
        for f0, spectra in _frame_spectra(source, self.params, self.channels, _BLOCK):
            b = spectra.shape[1]
            buf[:, :b] = spectra.transpose(2, 1, 0)
            yield f0, buf[:, :b]

    def _filtered(self, source: AudioClip | StftGrid, fb: FilterBank) -> AudioClip:
        """synthesize(apply_filterbank(grid)) of source, block by block.

        Each block's output goes transposed into one (frames, bins) buffer,
        so synthesis reads contiguous spectra. A bin's product is the same
        stacked BLAS call on fewer rows, so the output is bit for bit the
        whole grid's.
        """
        columns = [self._column[c] for c in fb.partition.ordered_channels]
        out = np.empty((self.grid.n_frames, self.params.n_bins), dtype=np.complex128)
        for f0, block in self._blocks(source):
            d = apply_filterbank(StftGrid(block, self.params), fb, columns)
            out[f0 : f0 + d.shape[1]] = d.T
        return synthesize(StftGrid(out.T[:, :, np.newaxis], self.params, self.grid.n_samples))

    def enhance(self, cfg: EnhanceConfig) -> EnhanceResult:
        """The enhance() result for this input under cfg, one of the
        constructor's configs or one with the same mask key."""
        order, key = self._check(cfg)
        if key not in self._estimates:
            raise PipelineError(f"no mask was built for SPP source {key[0]} and {key[1]}")
        estimate = self._estimates[key]
        if isinstance(estimate, Exception):
            raise estimate
        mask, stats = estimate
        if order != self.channels:
            stats = stats.block([self._column[c] for c in order])
        fb = build_filterbank(stats, cfg.partition, cfg.method, cfg.delta)
        # built grids leave a sweep cell on its own lane
        grids = all(isinstance(source, StftGrid) for source in self.shadow_sources)
        *shadows, enhanced = spread(
            lambda source: self._filtered(source, fb),
            [*self.shadow_sources, self.grid],
            1 if grids else usable_cores(),
        )
        shadow_speech, shadow_noise = shadows or (None, None)

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
    return InputAnalysis(clip, cfg.stft, speech_ref, noise_ref, channels, [cfg]).enhance(cfg)
