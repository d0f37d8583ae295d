"""Spans around the public functions of each egomwf module, from outside.

A probe replaces a function at the name its caller binds (for example
``egomwf.pipeline.analyze``, the name ``enhance`` calls) and records a
span per call: name, start, end, parent span and request id, all kept in
memory until the run ends. Probes are installed only around traced
request cycles and the original functions are put back afterwards, so
untraced cycles run the program unchanged.

Probes that count distinct inputs hash their array arguments before the
call. The hash is recorded as a ``trace.hash`` child span, so it is left
out of the parent's self time and shows up as tracing overhead instead.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

import numpy as np

HASH_SPAN = "trace.hash"


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    request: str | None = None
    key: str | None = None
    attrs: dict = field(default_factory=dict)


def digest(*parts) -> str:
    """Content hash of arrays (dtype, shape, memory order, bytes) and reprs."""
    h = hashlib.sha256()
    for p in parts:
        if isinstance(p, np.ndarray):
            if p.flags.c_contiguous:
                order, flat = "C", p
            elif p.flags.f_contiguous:
                order, flat = "F", p.T
            else:
                order, flat = "C", np.ascontiguousarray(p)
            h.update(f"{p.dtype.str}{p.shape}{order}".encode())
            h.update(flat.data)
        else:
            h.update(repr(p).encode())
    return h.hexdigest()


@dataclass(frozen=True)
class Probe:
    """One traced function: the bindings to replace and what to record.

    key(*args, **kwargs) gives the input digest behind ``.distinct``;
    attrs(result, *args, **kwargs) gives the values of the metrics named
    in ``counts``.
    """

    name: str
    bindings: tuple[str, ...]
    key: Callable | None = None
    attrs: Callable | None = None
    counts: tuple[str, ...] = ()


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _analyze_key(*args, **kwargs):
    clip = _arg(args, kwargs, 0, "clip")
    return digest(clip.samples, clip.sample_rate_hz, _arg(args, kwargs, 1, "params"))


def _correlations_key(*args, **kwargs):
    grid = _arg(args, kwargs, 0, "grid")
    mask = _arg(args, kwargs, 1, "mask")
    return digest(grid.data, mask.beta, tuple(_arg(args, kwargs, 2, "channels")))


def _stoi_key(*args, **kwargs):
    clean = _arg(args, kwargs, 0, "clean")
    processed = _arg(args, kwargs, 1, "processed")
    return digest(clean.samples, processed.samples, _arg(args, kwargs, 2, "rate_hz"))


def _gevd_attrs(result, *args, **kwargs):
    shape = np.shape(_arg(args, kwargs, 0, "r_yy"))
    return {"gevd.gevd.pencils": int(np.prod(shape[:-2], dtype=int)), "gevd.gevd.m": shape[-1]}


def _filterbank_attrs(result, *args, **kwargs):
    return {
        "filters.bins_total": len(result.per_bin_status),
        "filters.bins_solved": sum(s == "ok" for s in result.per_bin_status),
    }


def _read_bytes(result, *args, **kwargs):
    return {"audio_io.bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _write_bytes(result, *args, **kwargs):
    return {"audio_io.bytes": os.path.getsize(_arg(args, kwargs, 1, "path"))}


PROBES = (
    Probe("gevd.gevd", ("egomwf.filters.gevd",),
          attrs=_gevd_attrs, counts=("gevd.gevd.pencils", "gevd.gevd.m")),
    Probe("filters.build_filterbank", ("egomwf.pipeline.build_filterbank",),
          attrs=_filterbank_attrs, counts=("filters.bins_total", "filters.bins_solved")),
    Probe("filters.compute_gsc", ("egomwf.filters.compute_gsc",)),
    Probe("covariance.estimate_correlations", ("egomwf.pipeline.estimate_correlations",),
          key=_correlations_key),
    Probe("stft.analyze", ("egomwf.pipeline.analyze", "egomwf.scenegen.analyze"),
          key=_analyze_key,
          attrs=lambda grid, *a, **k: {"stft.analyze.channel_frames": grid.n_channels * grid.n_frames},
          counts=("stft.analyze.channel_frames",)),
    Probe("stft.synthesize", ("egomwf.pipeline.synthesize",)),
    Probe("spp.estimate_spp", ("egomwf.pipeline.estimate_spp",),
          attrs=lambda mask, *a, **k: {"spp.estimate_spp.frames": mask.n_frames},
          counts=("spp.estimate_spp.frames",)),
    Probe("scenegen.render_scene", ("egomwf.cli.render_scene",)),
    Probe("scenegen.make_oracle_mask",
          ("egomwf.pipeline.make_oracle_mask", "egomwf.scenegen.make_oracle_mask")),
    Probe("metrics.stoi", ("egomwf.metrics.stoi",), key=_stoi_key),
    Probe("metrics.resample", ("egomwf.metrics.resample",)),
    Probe("pipeline.enhance", ("egomwf.pipeline.enhance", "egomwf.cli.enhance")),
    Probe("pipeline.apply_filterbank", ("egomwf.pipeline.apply_filterbank",)),
    Probe("audio_io.read_wav", ("egomwf.cli.read_wav", "egomwf.scenegen.read_wav"),
          attrs=_read_bytes, counts=("audio_io.bytes",)),
    Probe("audio_io.write_wav", ("egomwf.cli.write_wav",),
          attrs=_write_bytes, counts=("audio_io.bytes",)),
    Probe("config.load_config", ("egomwf.cli.load_config",)),
    Probe("cli.run_cell", ("egomwf.cli.run_cell",)),
    Probe("cli.run_sweep", ("egomwf.cli.run_sweep",)),
)

# counts summed per cycle, except these, which are means weighted by pencils
_PENCIL_WEIGHTED = {"gevd.gevd.m"}


def layer_names(probes=PROBES) -> set[str]:
    """Every per-layer metric the probes can produce."""
    names = set()
    for p in probes:
        names.update((f"{p.name}.s", f"{p.name}.calls"))
        if p.key is not None:
            names.add(f"{p.name}.distinct")
        names.update(p.counts)
    return names | {f"{HASH_SPAN}.s"}


class Tracer:
    """In-memory span recorder for one benchmark process (one thread)."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str, request: str | None = None, **attrs):
        parent = self._stack[-1] if self._stack else None
        if request is None and parent is not None:
            request = parent.request
        sp = Span(len(self.spans), name, perf_counter(),
                  parent=parent.id if parent else None, request=request, attrs=attrs)
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = perf_counter()
            self._stack.pop()

    def _wrap(self, fn: Callable, probe: Probe) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            key = None
            if probe.key is not None:
                with self.span(HASH_SPAN):
                    key = probe.key(*args, **kwargs)
            with self.span(probe.name) as sp:
                result = fn(*args, **kwargs)
            sp.key = key
            if probe.attrs is not None:
                sp.attrs.update(probe.attrs(result, *args, **kwargs))
            return result

        return traced

    @contextmanager
    def installed(self, probes=PROBES):
        """Replace every probed binding; restore the originals on exit."""
        saved = []
        try:
            for probe in probes:
                for binding in probe.bindings:
                    module_name, attr = binding.rsplit(".", 1)
                    module = importlib.import_module(module_name)
                    original = getattr(module, attr)
                    saved.append((module, attr, original))
                    setattr(module, attr, self._wrap(original, probe))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of its interval covered by its children."""
    children: dict[int, list[Span]] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append(sp)
    out = {}
    for sp in spans:
        covered = 0.0
        cursor = sp.start
        for child in sorted(children.get(sp.id, ()), key=lambda c: c.start):
            lo = max(child.start, cursor)
            hi = min(child.end, sp.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[sp.id] = (sp.end - sp.start) - covered
    return out


def layer_metrics(spans: list[Span], probes=PROBES) -> dict[str, float]:
    """Per-layer totals per request cycle, averaged over the traced cycles.

    Request ids have the form ``<cycle>.<index>``. ``.s`` is self time,
    ``.distinct`` counts distinct input digests within a cycle, and
    ``trace.hash.s`` is the time spent computing those digests.
    """
    by_name = {p.name: p for p in probes}
    cycles = {sp.request.split(".")[0] for sp in spans if sp.request is not None}
    if not cycles:
        raise ValueError("no traced request spans")
    out = dict.fromkeys(layer_names(probes), 0.0)
    weights: dict[str, float] = {}
    keys: dict[str, set] = {}
    selfs = self_times(spans)
    for sp in spans:
        if sp.name == HASH_SPAN:
            out[f"{HASH_SPAN}.s"] += sp.end - sp.start
        probe = by_name.get(sp.name)
        if probe is None:
            continue
        out[f"{sp.name}.s"] += selfs[sp.id]
        out[f"{sp.name}.calls"] += 1
        if probe.key is not None:
            keys.setdefault(sp.name, set()).add((sp.request.split(".")[0], sp.key))
        # a call that raised has no counts
        pencils = sp.attrs.get("gevd.gevd.pencils", 0)
        for name in probe.counts:
            if name in _PENCIL_WEIGHTED:
                out[name] += sp.attrs.get(name, 0) * pencils
                weights[name] = weights.get(name, 0) + pencils
            else:
                out[name] += sp.attrs.get(name, 0)
    for name, total in weights.items():
        out[name] /= total if total else 1
    for name, pairs in keys.items():
        out[f"{name}.distinct"] = len(pairs)
    n = len(cycles)
    return {k: (v if k in _PENCIL_WEIGHTED else v / n) for k, v in out.items()}
