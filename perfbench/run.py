"""egomwf benchmark: one seeded workload per run, closed loop, one client.

    python3 perfbench/run.py --workload deploy_pk8 --seed 1 --seconds 20 --trace 0

Sets the workload up at least SETUP_REPEATS times and for at least
SETUP_MIN_S (``setup_s`` is the median), then replays its request cycle
in one process, one request at a time, for whole cycles while they fit
in ``--seconds`` and at least the workload's ``min_cycles``. Every output is
checked outside the timed region. The last line of stdout is the result:
``{"correct", "attempted", "failed", "metrics"}``, carrying the
``end_to_end`` metrics of BENCHMARK.json with ``--trace 0`` and its
``per_layer`` metrics with ``--trace 1``.

The traced run alternates untraced and traced cycles. Per-layer numbers
come from the traced cycles, per cycle; ``trace.overhead.*`` is each
end-to-end metric of the traced cycles minus that of the untraced ones.
A run record, and in traced runs every span, is written under
perfbench/out/.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from stats import tail

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0
OVERHEAD_METRICS = ("latency_p50_s", "latency_tail_s", "realtime_x", "sweep_s", "cells_per_s")
E2E_METRICS = OVERHEAD_METRICS + ("dsnr_db", "dstoi", "peak_rss_mb", "ok_ratio", "setup_s")


@dataclass
class Done:
    label: str
    cells: int
    latency: float
    ok: bool


@dataclass
class Cycle:
    traced: bool
    requests: list[Done] = field(default_factory=list)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_commit() -> str | None:
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def blas_threads() -> int | None:
    """OpenBLAS's thread count, asked of the library this process loaded."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def run_record(args) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sources = sorted((SRC / "egomwf").glob("*.py"))
    h = hashlib.sha256()
    lines = 0
    for p in sources:
        data = p.read_bytes()
        h.update(p.name.encode() + data)
        lines += data.count(b"\n")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "git_commit": git_commit(),
        "src_sha256": h.hexdigest(),
        "src_lines": lines,
    }


def load_loop(workload, seconds: float, tracer):
    """Closed loop over whole request cycles; returns (cycles, outcomes, rss after cycle 0)."""
    cycles: list[Cycle] = []
    outcomes = {}
    rss_first = None
    start = perf_counter()
    while True:
        cycle_start = perf_counter()
        traced = tracer is not None and len(cycles) % 2 == 1
        cycle = Cycle(traced)
        with tracer.installed() if traced else nullcontext():
            for i, req in enumerate(workload.cycle()):
                span = tracer.span("request", request=f"{len(cycles)}.{i}", label=req.label) \
                    if traced else nullcontext()
                ok, out = True, None
                with span:
                    t0 = perf_counter()
                    try:
                        out = req.run()
                    except Exception:
                        ok = False
                        print(f"request {req.label} raised:", file=sys.stderr)
                        traceback.print_exc(file=sys.stderr)
                    latency = perf_counter() - t0
                if ok:
                    try:
                        outcome = req.check(out)
                    except Exception as exc:
                        ok = False
                        print(f"request {req.label} failed its check: {exc!r}", file=sys.stderr)
                    else:
                        first = outcomes.setdefault(req.label, outcome)
                        if outcome.fingerprint != first.fingerprint:
                            ok = False
                            print(f"request {req.label}: output differs from its first run",
                                  file=sys.stderr)
                cycle.requests.append(Done(req.label, req.cells, latency, ok))
        cycles.append(cycle)
        if rss_first is None:
            rss_first = peak_rss_mb()
        now = perf_counter()
        if len(cycles) < max(workload.min_cycles, 2 if tracer is not None else 1):
            continue
        # start another cycle only if one as long as the last still fits
        if (now - start) + (now - cycle_start) > seconds:
            return cycles, outcomes, rss_first


def timing_metrics(cycles: list[Cycle], duration_s: float) -> tuple[dict, dict]:
    """Latency order statistics, and the time of one pass over the cycle.

    The pass time sums, over the cycle's requests, each request's median
    latency across the cycles run, so a burst of load from outside the
    process that slows one cycle does not decide the pass time.
    """
    lat = [r.latency for c in cycles for r in c.requests]
    by_label: dict[str, list[float]] = {}
    cells = {}
    for r in (r for c in cycles for r in c.requests):
        by_label.setdefault(r.label, []).append(r.latency)
        cells[r.label] = r.cells
    pass_s = sum(statistics.median(v) for v in by_label.values())
    tail_value, tail_pct, beyond = tail(lat)
    metrics = {
        "latency_p50_s": statistics.median(lat),
        "latency_tail_s": tail_value,
        "realtime_x": sum(cells.values()) * duration_s / pass_s,
        "sweep_s": pass_s,
        "cells_per_s": sum(cells.values()) / pass_s,
    }
    return metrics, {"tail_percentile": tail_pct, "samples": len(lat), "beyond": beyond}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "egomwf" / "__init__.py").is_file():
        print(f"error: no egomwf sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import egomwf

    if Path(egomwf.__file__).resolve().parent != SRC / "egomwf":
        print(f"error: imported egomwf from {egomwf.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import spans
    from workloads import DURATION_S, WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    known = set(E2E_METRICS) | spans.layer_names() | {
        f"trace.overhead.{m}" for m in OVERHEAD_METRICS + ("peak_rss_mb",)}
    unknown = [m["name"] for m in spec["end_to_end"] + spec["per_layer"] if m["name"] not in known]
    if unknown:
        print(f"error: BENCHMARK.json names metrics the benchmark lacks: {unknown}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    record = run_record(args)
    OUT.mkdir(exist_ok=True)
    work_dir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work_dir.mkdir(exist_ok=True)
    try:
        workload = WORKLOADS[args.workload]()
        setup_times = []
        while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_MIN_S:
            t0 = perf_counter()
            workload.setup(args.seed, work_dir)
            setup_times.append(perf_counter() - t0)
        tracer = spans.Tracer() if args.trace else None
        cycles, outcomes, rss_first = load_loop(workload, args.seconds, tracer)
        # the peak of set-up and requests, before scoring adds its own
        rss_peak = peak_rss_mb()
        done = [r for c in cycles for r in c.requests]
        for label in list(outcomes):
            try:
                outcomes[label] = workload.score(label, outcomes[label])
            except Exception as exc:
                print(f"request {label} failed scoring: {exc!r}", file=sys.stderr)
                del outcomes[label]
                for r in done:
                    r.ok = r.ok and r.label != label
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = len(done)
    failed = sum(not r.ok for r in done)
    dsnr = [v for o in outcomes.values() for v in o.dsnr_db]
    dstoi = [v for o in outcomes.values() for v in o.dstoi]
    untraced = [c for c in cycles if not c.traced]
    e2e, tail_info = timing_metrics(untraced, DURATION_S)
    # with no checked output at all the run is incorrect and the means read 0
    e2e.update({
        "setup_s": statistics.median(setup_times),
        "dsnr_db": statistics.fmean(dsnr) if dsnr else 0.0,
        "dstoi": statistics.fmean(dstoi) if dstoi else 0.0,
        "peak_rss_mb": rss_peak,
        "ok_ratio": (attempted - failed) / attempted,
    })
    values = e2e
    details = {"tail": tail_info, "setup_times_s": setup_times,
               "cycles": [[r.__dict__ for r in c.requests] for c in cycles],
               "traced": [c.traced for c in cycles]}
    if args.trace:
        traced = [c for c in cycles if c.traced]
        traced_e2e, _ = timing_metrics(traced, DURATION_S)
        layer = spans.layer_metrics(tracer.spans)
        for m in OVERHEAD_METRICS:
            layer[f"trace.overhead.{m}"] = traced_e2e[m] - e2e[m]
        layer["trace.overhead.peak_rss_mb"] = e2e["peak_rss_mb"] - rss_first
        values = layer
        selfs = spans.self_times(tracer.spans)
        t_origin = tracer.spans[0].start if tracer.spans else 0.0
        span_file = OUT / f"{args.workload}-seed{args.seed}-spans.json"
        span_file.write_text(json.dumps({
            "record": record,
            "layer_metrics": layer,
            "spans": [{**s.__dict__, "start": s.start - t_origin, "end": s.end - t_origin,
                       "self": selfs[s.id]} for s in tracer.spans],
        }))
        details["spans_file"] = str(span_file.relative_to(ROOT))

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    correct = failed == 0 and len(dsnr) > 0
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(
        {"record": record, "correct": correct, "attempted": attempted, "failed": failed,
         "metrics": metrics, "details": details}, indent=1))

    print("run: " + " ".join(f"{k}={v}" for k, v in record.items()))
    print(f"latency_tail_s is p{tail_info['tail_percentile']:.1f} of {tail_info['samples']} "
          f"untraced requests ({tail_info['beyond']} beyond)")
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
