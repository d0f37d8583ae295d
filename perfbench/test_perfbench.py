"""Unit tests of the benchmark's own helpers: python3 -m pytest perfbench -q"""

from __future__ import annotations

import statistics
import sys
import types

import numpy as np
import pytest

from spans import Probe, Span, Tracer, digest, layer_metrics, self_times
from stats import quartile_spread, tail


def test_tail_keeps_ten_samples_beyond():
    values = list(range(1, 101))  # 1..100
    value, pct, beyond = tail(values)
    assert (value, pct, beyond) == (90, 90.0, 10)
    assert sum(v > value for v in values) == 10


def test_tail_ignores_input_order():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 8.0, 7.0, 6.0, 10.0, 11.0, 12.0]
    assert tail(values) == (2.0, 100.0 * 2 / 12, 10)


def test_tail_with_too_few_samples_is_the_maximum():
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    assert tail([float(v) for v in range(10)]) == (9.0, 100.0, 0)
    with pytest.raises(ValueError):
        tail([])


def test_quartile_spread_matches_statistics_quantiles():
    values = [10.0, 11.0, 9.5, 10.2, 10.4, 9.9, 10.1, 10.0, 12.0, 9.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    s = quartile_spread(values)
    assert s["q1"] == q1 and s["q3"] == q3
    assert s["median"] == statistics.median(values)
    assert s["spread"] == pytest.approx((q3 - q1) / statistics.median(values))


def test_quartile_spread_of_constant_values_is_zero():
    assert quartile_spread([0.0, 0.0, 0.0])["spread"] == 0.0
    assert quartile_spread([2.0, 2.0])["spread"] == 0.0


def _tree() -> list[Span]:
    # request [0, 10] -> enhance [1, 9] -> analyze [2, 4], gevd [5, 6];
    # a hash span [6.5, 7] also sits under enhance
    return [
        Span(0, "request", 0.0, 10.0, None, "0.0"),
        Span(1, "pipeline.enhance", 1.0, 9.0, 0, "0.0"),
        Span(2, "stft.analyze", 2.0, 4.0, 1, "0.0", key="a"),
        Span(3, "gevd.gevd", 5.0, 6.0, 1, "0.0",
             attrs={"gevd.gevd.pencils": 10, "gevd.gevd.m": 4}),
        Span(4, "trace.hash", 6.5, 7.0, 1, "0.0"),
    ]


def test_self_time_subtracts_children_only():
    selfs = self_times(_tree())
    assert selfs[0] == pytest.approx(10.0 - 8.0)
    assert selfs[1] == pytest.approx(8.0 - 2.0 - 1.0 - 0.5)
    assert selfs[2] == pytest.approx(2.0)
    assert selfs[3] == pytest.approx(1.0)


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span(0, "outer", 0.0, 10.0),
        Span(1, "a", 1.0, 5.0, 0),
        Span(2, "b", 3.0, 7.0, 0),  # overlaps a on [3, 5]
        Span(3, "c", 9.0, 12.0, 0),  # runs past the parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_layer_metrics_average_over_cycles():
    spans = _tree()
    # a second cycle with the same analyze input and a bigger pencil batch
    spans += [
        Span(5, "request", 20.0, 30.0, None, "1.0"),
        Span(6, "stft.analyze", 21.0, 22.0, 5, "1.0", key="a"),
        Span(7, "stft.analyze", 22.0, 23.0, 5, "1.0", key="b"),
        Span(8, "gevd.gevd", 23.0, 25.0, 5, "1.0",
             attrs={"gevd.gevd.pencils": 30, "gevd.gevd.m": 8}),
    ]
    m = layer_metrics(spans)
    assert m["stft.analyze.calls"] == pytest.approx(1.5)
    assert m["stft.analyze.s"] == pytest.approx((2.0 + 1.0 + 1.0) / 2)
    assert m["stft.analyze.distinct"] == pytest.approx(1.5)  # {a} then {a, b}
    assert m["gevd.gevd.pencils"] == pytest.approx(20.0)
    assert m["gevd.gevd.m"] == pytest.approx((10 * 4 + 30 * 8) / 40)
    assert m["pipeline.enhance.s"] == pytest.approx(4.5 / 2)
    assert m["metrics.stoi.calls"] == 0.0
    assert m["trace.hash.s"] == pytest.approx(0.5 / 2)


def test_digest_depends_on_content_and_layout():
    a = np.arange(12.0).reshape(3, 4)
    assert digest(a) == digest(a.copy())
    assert digest(a) != digest(a.reshape(4, 3))
    assert digest(a) != digest(a + 1e-12)
    assert digest(a[:, ::2]) == digest(np.ascontiguousarray(a[:, ::2]))


def test_installed_probes_record_spans_and_restore_bindings(monkeypatch):
    mod = types.ModuleType("fake_layer")
    mod.work = lambda x: x * 2
    original = mod.work
    monkeypatch.setitem(sys.modules, "fake_layer", mod)
    tracer = Tracer()
    probe = Probe("fake.work", ("fake_layer.work",), key=lambda x: digest(x),
                  attrs=lambda result, x: {"fake.out": result}, counts=("fake.out",))
    with tracer.installed([probe]):
        with tracer.span("request", request="0.0"):
            assert mod.work(3) == 6
    assert mod.work is original
    names = [s.name for s in tracer.spans]
    assert names == ["request", "trace.hash", "fake.work"]
    work = tracer.spans[2]
    assert work.parent == 0 and work.request == "0.0" and work.attrs == {"fake.out": 6}
    assert work.key == digest(3)


def test_installed_restores_bindings_after_an_error(monkeypatch):
    mod = types.ModuleType("fake_layer")
    mod.work = lambda: None
    original = mod.work
    monkeypatch.setitem(sys.modules, "fake_layer", mod)
    with pytest.raises(RuntimeError):
        with Tracer().installed([Probe("fake.work", ("fake_layer.work",))]):
            raise RuntimeError("boom")
    assert mod.work is original
