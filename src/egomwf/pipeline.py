"""End-to-end enhancement: STFT, activity mask, covariance, per-bin
filtering, inverse STFT, plus shadow filtering of known components.

The whole file yields one FilterBank which is applied to every frame
(batch processing, no per-frame adaptation). Applying the same fixed
bank separately to ground-truth speech and noise components gives exact
output-SNR bookkeeping by linearity; when the input is exactly speech
plus noise (as a rendered scene is), the noise shadow is the output
less the speech shadow.

Everything before the filter depends on the input and the mask source,
not on method or array size, so an InputAnalysis serves many runs on one
input, and every run comes from one: enhance() prepares it for a single
config, the sweep for all the cells of a scene. A run filters the whole
mixture grid with apply_filterbank. The reference clips are never held
as grids: prepare analyses, filters and synthesizes them _BLOCK frames
at a time, once for all the banks.
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


def _conj_weights(fb: FilterBank, channels: Sequence[int], width: int) -> np.ndarray:
    """conj(w(k)) spread to a width-channel grid, zero off `channels`: (bins, width)."""
    weights = np.zeros((fb.weights.shape[0], width), dtype=np.complex128)
    weights[:, list(channels)] = fb.weights
    return np.conj(weights)


def apply_filterbank(grid: StftGrid, fb: FilterBank, channels: Sequence[int]) -> np.ndarray:
    """d(k, l) = w(k)^H y(k, l) on every frame of the grid: (bins, frames),
    the mixture filter of InputAnalysis.enhance.

    channels lists the grid channels the weights act on, in weight
    order. They are served by spreading the weights to the full grid
    width (zero elsewhere), so the product runs on the grid as it is,
    without a channel copy.
    """
    n_bins, m = fb.weights.shape
    if grid.n_bins != n_bins:
        raise PipelineError(f"grid has {grid.n_bins} bins but filterbank has {n_bins}")
    if len(channels) != m or any(not 0 <= c < grid.n_channels for c in channels):
        raise PipelineError(f"channels {list(channels)} do not fit {m} weights on a "
                            f"{grid.n_channels}-channel grid")
    return (grid.data @ _conj_weights(fb, channels, grid.n_channels)[:, :, None])[:, :, 0]


def _mask_source(cfg: EnhanceConfig) -> tuple[str, int]:
    """(SPP mode, physical channel) the configured mask is computed from."""
    if cfg.spp_mode == "external" and cfg.spp_channel is None:
        raise PipelineError("external SPP mode needs the external channel index")
    if cfg.spp_mode != "oracle" and cfg.spp_channel is not None:
        return cfg.spp_mode, cfg.spp_channel
    return cfg.spp_mode, cfg.partition.speech_noise_channels[cfg.partition.ref_channel]


class InputAnalysis:
    """One multichannel input (plus optional ground-truth components, as
    for enhance) analysed once for the enhance runs of `configs`.

    Only `channels` are analysed: column j of the mixture grid holds
    physical channel channels[j]. Correlations are estimated over those
    columns; each run takes the principal sub-block on its own filter
    channels, which must lie there. A mask channel outside `channels` (an
    external microphone, say) gets one single-channel analysis of its own.

    The constructor checks every config, then builds the mixture grid and
    the mask and correlations of each distinct (mask source, SPP
    parameters) key. prepare, called once, builds each config's bank and
    filters the shadow sources for all the banks; a mask or bank whose
    build raises keeps the error for every run that needs it. enhance then
    only filters the whole mixture grid with a prepared bank, so it may run on
    several threads at once and gives the same result on every call.

    Reference clips must have the mixture's sample count. When both carry
    every analysed channel, prepare shadow-filters them too. Where the
    input equals their sum on the analysed channels sample for sample,
    only the speech is kept and filtered: the noise shadow is the rest.
    """

    def __init__(self, clip: AudioClip, params: StftParams, speech_ref: AudioClip | None,
                 noise_ref: AudioClip | None, channels: Sequence[int],
                 configs: Sequence[EnhanceConfig]):
        self.params = params
        rate = params.sample_rate_hz
        clip = resample(clip, rate)
        refs = tuple(None if ref is None else resample(ref, rate) for ref in (speech_ref, noise_ref))
        self.channels = tuple(channels)
        self.n_channels = clip.n_channels
        for name, ref in zip(("speech", "noise"), refs):
            if ref is not None and ref.n_frames != clip.n_frames:
                raise PipelineError(f"{name} reference has {ref.n_frames} samples "
                                    f"but the input has {clip.n_frames}")
        self._column = {c: j for j, c in enumerate(self.channels)}
        self._plans = {cfg: self._check(cfg) for cfg in configs}
        keys = dict.fromkeys(key for _, key in self._plans.values())
        singles = sorted({c for (mode, c), _ in keys if mode != "oracle" and c not in self._column})
        self._estimates: dict[tuple, tuple[SppMask, BinStatistics] | Exception] | None = {}
        self._runs: dict[EnhanceConfig, tuple | Exception] = {}
        # shadow filtering needs the components at every analysed channel;
        # reference clips carrying fewer (e.g. mask-only single-channel
        # ground truth) simply skip it
        shadows = all(ref is not None and ref.n_channels > max(self.channels) for ref in refs)
        speech, noise = refs
        summed = shadows and all(
            np.array_equal(clip.samples[c], speech.samples[c] + noise.samples[c])
            for c in self.channels
        )
        self.shadow_sources: tuple[AudioClip, ...] = (speech,) if summed else refs if shadows else ()
        self.grid = analyze(clip, params, self.channels)
        single = {c: analyze(clip, params, [c]) for c in singles}
        columns = range(len(self.channels))
        for key in keys:
            try:
                mask = self._build_mask(key, single, refs)
                self._estimates[key] = mask, estimate_correlations(self.grid, mask, columns)
            except Exception as exc:  # raised again by every run that needs the key
                self._estimates[key] = exc

    def _check(self, cfg: EnhanceConfig) -> tuple[tuple[int, ...], tuple[tuple, SppParams]]:
        """cfg's filter channels and mask key; raises for a run this input cannot serve."""
        if cfg.stft != self.params:
            raise PipelineError(f"config STFT {cfg.stft} differs from the analysed {self.params}")
        order = filter_partition(cfg.partition, cfg.method).ordered_channels
        needed = max(order)
        if needed >= self.n_channels:
            raise PipelineError(f"partition references channel {needed} "
                                f"but input has {self.n_channels}")
        if cfg.spp_channel is not None and cfg.spp_channel >= self.n_channels:
            raise PipelineError(f"SPP channel {cfg.spp_channel} out of range for "
                                f"{self.n_channels}-channel input")
        outside = sorted(set(order) - set(self.channels))
        if outside:
            raise PipelineError(f"channels {outside} are outside the analysed set {self.channels}")
        return order, (_mask_source(cfg), cfg.spp)

    def _build_mask(self, key: tuple[tuple, SppParams], single: dict, refs: tuple) -> SppMask:
        (mode, channel), spp = key
        if mode != "oracle":
            if channel in self._column:
                spectrogram = self.grid.channel_slice(self._column[channel])
            else:
                spectrogram = single[channel].channel_slice(0)
            return estimate_spp(spectrogram, spp)
        if None in refs:
            raise PipelineError("oracle SPP mode needs ground-truth speech and noise clips")
        at_channel = [ref.channel(channel) if ref.n_channels > 1 else ref for ref in refs]
        return make_oracle_mask(*at_channel, self.params)

    def _synthesized(self, source: AudioClip, banks: list[FilterBank]) -> list:
        """[synthesize(apply_filterbank(analyze(source))) under each bank],
        _BLOCK frames at a time: each block's spectra, transposed into one
        reused (bins, b, channels) buffer, take one stacked product with
        (bins, channels, banks) and one synthesis of it, the banks as
        channels, into one output row per bank (a 10 s sweep scene's 27
        rows in one 35 MB buffer pass glibc's mmap ceiling and cannot reuse
        freed heap). With one bank each output is the whole grid's bit for
        bit: the product is apply_filterbank's BLAS call on fewer rows."""
        params, width = self.params, len(self.channels)
        columns = [[self._column[c] for c in fb.partition.ordered_channels] for fb in banks]
        weights = np.stack([_conj_weights(*bank, width) for bank in zip(banks, columns)], axis=-1)
        outs = [np.zeros((self.grid.n_frames + 1) * params.hop) for _ in banks]
        buf = np.empty((params.n_bins, _BLOCK, width), dtype=np.complex128)
        for f0, spectra in _frame_spectra(source, params, self.channels, _BLOCK):
            b = spectra.shape[1]
            buf[:, :b] = spectra.transpose(2, 1, 0)
            synthesize(StftGrid(buf[:, :b] @ weights, params), outs, f0)
        return [AudioClip(out[None, : self.grid.n_samples], params.sample_rate_hz) for out in outs]

    def prepare(self, lanes: int) -> None:
        """Build each constructor config's bank, on `lanes` threads, then
        filter each shadow source for all the banks in one pass, the
        sources spread over the lanes. The sources and the correlations go
        afterwards; a second call raises."""
        if self._estimates is None:
            raise PipelineError("the analysis is already prepared")

        def bank(cfg: EnhanceConfig) -> tuple | Exception:
            order, key = self._plans[cfg]
            estimate = self._estimates[key]
            if isinstance(estimate, Exception):
                return estimate
            mask, stats = estimate
            try:
                if order != self.channels:
                    stats = stats.block([self._column[c] for c in order])
                return mask, build_filterbank(stats, cfg.partition, cfg.method, cfg.delta)
            except Exception as exc:  # raised again by every run of cfg
                return exc

        runs = dict(zip(self._plans, spread(bank, list(self._plans), lanes)))
        self._estimates = None
        built = [cfg for cfg, run in runs.items() if not isinstance(run, Exception)]
        banks = [runs[cfg][1] for cfg in built]
        sources = self.shadow_sources if banks else ()
        shadows = spread(lambda source: self._synthesized(source, banks), sources, lanes)
        for j, cfg in enumerate(built):
            runs[cfg] += (tuple(clips[j] for clips in shadows),)
        self._runs, self.shadow_sources = runs, ()

    def enhance(self, cfg: EnhanceConfig) -> EnhanceResult:
        """The enhance() result for this input under cfg, one of the configs
        prepare built a run for."""
        run = self._runs.get(cfg) or PipelineError(f"the analysis was not prepared for {cfg}")
        if isinstance(run, Exception):
            raise run
        mask, fb, shadows = run
        columns = [self._column[c] for c in fb.partition.ordered_channels]
        filtered = apply_filterbank(self.grid, fb, columns)[:, :, None]
        enhanced = synthesize(StftGrid(filtered, self.params, self.grid.n_samples))
        if len(shadows) == 1:  # the input is speech plus noise
            shadows += (AudioClip(enhanced.samples - shadows[0].samples, enhanced.sample_rate_hz),)
        shadow_speech, shadow_noise = shadows or (None, None)
        return EnhanceResult(enhanced, fb, mask, shadow_speech, shadow_noise)


def enhance(clip: AudioClip, cfg: EnhanceConfig, speech_ref: AudioClip | None = None,
            noise_ref: AudioClip | None = None) -> EnhanceResult:
    """Run the full pipeline on a multichannel clip.

    speech_ref/noise_ref are optional ground-truth component clips (same
    channel layout); they drive oracle masking and shadow filtering.
    """
    channels = filter_partition(cfg.partition, cfg.method).ordered_channels
    analysis = InputAnalysis(clip, cfg.stft, speech_ref, noise_ref, channels, [cfg])
    analysis.prepare(usable_cores())
    return analysis.enhance(cfg)
