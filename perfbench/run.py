#!/usr/bin/env python3
"""Verdict benchmark for loccon: a closed loop, one verdict at a time.

Run one workload (from the root of a checkout):

    python3 perfbench/run.py --workload carayol --seed 1 --seconds 15 --trace 0

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; ``--trace 1``
reports the per-layer metrics from traced runs of the workload's first pass
pair.  Every run prints a ``perfbench-record {...}`` line with the full
record (metadata, verdict quality, all metrics) and, last, the one-line
result ``{"correct", "attempted", "failed", "metrics"}``.  Timings are
scaled to a reference host speed by probes between verdicts (hostclock.py);
the record keeps the unscaled ones as ``raw_metrics``.

Compare two result sets (files or directories holding the output of runs):

    python3 perfbench/run.py --compare base.log head.log

See perfbench/README.md for the workloads, metrics and predictions.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

from hostclock import HostClock
from tracer import LAYERS, NESTED, Tracer
from workloads import WORKLOADS, Book

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BENCHMARK = ROOT / "BENCHMARK.json"
RECORD_TAG = "perfbench-record "

SETUP_REPEATS = 5   # setup_s is the median of this many fresh set-ups
TAIL_BEYOND = 10    # the tail percentile leaves this many verdicts above it
TRACE_REPEATS = 3   # traced passes; per-layer times are their median


class Usage(Exception):
    """The benchmark cannot run here (missing sources or declaration)."""


# -- set-up -----------------------------------------------------------------


def fresh_import():
    """Import loccon and every layer module from scratch."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules
                 if m == "loccon" or m.startswith("loccon.")]:
        del sys.modules[name]
    ns = SimpleNamespace(loccon=importlib.import_module("loccon"))
    for layer in LAYERS:
        setattr(ns, layer, importlib.import_module(f"loccon.{layer}"))
    return ns


def set_up(workload, seed, clock):
    """SETUP_REPEATS fresh imports, each between probe bursts; returns
    their (start, end) times and the state of the last one."""
    spans = []
    state = None
    for _ in range(SETUP_REPEATS):
        state = None
        gc.collect()
        clock.burst()
        t0 = time.perf_counter()
        lc = fresh_import()
        state = workload.build(lc, seed)
        spans.append((t0, time.perf_counter()))
    clock.burst()
    return spans, state


# -- runs -------------------------------------------------------------------


def run_timed(workload, state, seconds, clock):
    """Closed loop over whole passes until `seconds` have passed, probing
    the host between verdicts; returns the book, the (start, end) time of
    every verdict and the wall time.  The pass running at the deadline is
    finished, so every verdict kind is measured as often as every other."""
    book = Book(workload.undecided)
    spans = []
    perf = time.perf_counter
    start = perf()
    deadline = start + seconds
    pair = 0
    while perf() < deadline:
        items = workload.items(state, pair)
        for _ in range(2):  # a pass pair: the second pass repeats the first
            for item in items:
                clock.tick()
                t0 = perf()
                book.run(pair, item)
                spans.append((t0, perf()))
            if perf() >= deadline:
                break
        pair += 1
    wall = perf() - start
    clock.burst()
    return book, spans, wall


def first_pair(workload, state):
    items = workload.items(state, 0)
    return [(0, item) for item in items + items]


def run_prefix(book, prefix, clock):
    """One run of the prefix between probe bursts; its scaled wall time."""
    perf = time.perf_counter
    clock.burst()
    t0 = perf()
    for pair, item in prefix:
        book.run(pair, item)
    t1 = perf()
    clock.burst()
    return clock.scaled(t0, t1)


def run_traced(workload, state, seconds, clock):
    """The first pass pair untraced (repeated for seconds/2, at least once)
    and then TRACE_REPEATS times traced, each under a fresh tracer; returns
    the book, the tracers and the median untraced and traced walls, scaled
    to reference host speed.  Leaving a tracer raises if any wrapper is
    still bound."""
    book = Book(workload.undecided)
    prefix = first_pair(workload, state)
    plain = []
    start = time.perf_counter()
    while not plain or time.perf_counter() - start < seconds / 2:
        plain.append(run_prefix(book, prefix, clock))
    tracers, traced = [], []
    for _ in range(TRACE_REPEATS):
        tracer = Tracer()
        with tracer:
            traced.append(run_prefix(book, prefix, clock))
        tracers.append(tracer)
    return (book, tracers, statistics.median(plain),
            statistics.median(traced))


# -- metrics ----------------------------------------------------------------


def _tail(sorted_values):
    """The highest order statistic with TAIL_BEYOND values above it, its
    percentile, and the count above it; the maximum for tiny runs."""
    n = len(sorted_values)
    idx = n - 1 - TAIL_BEYOND if n > 2 * TAIL_BEYOND else n - 1
    return sorted_values[idx], 100.0 * (idx + 1) / n, n - 1 - idx


def end_to_end(setups, samples):
    """Timing metrics over every verdict of the run: the median set-up,
    verdicts per second of verdict time, the median and the tail."""
    lat = sorted(samples)
    tail, pct, beyond = _tail(lat)
    metrics = {
        "setup_s": statistics.median(setups),
        "verdicts_per_s": len(lat) / sum(lat),
        "verdict_p50_ms": statistics.median(lat) * 1e3,
        "verdict_tail_ms": tail * 1e3,
        "peak_rss_mb": peak_rss_mb(),
    }
    detail = {"verdicts": len(lat), "tail_percentile": pct,
              "verdicts_beyond_tail": beyond}
    return metrics, detail


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# per-layer metric -> tracer keys whose calls / self time it sums
LAYER_KEYS = {
    "padic.mul": ["padic.PadicElement.__mul__"],
    "padic.add": ["padic.PadicElement.__add__", "padic.PadicElement.__sub__",
                  "padic.PadicElement.__neg__", "padic.PadicElement.__rsub__"],
    "padic.pi_valuation": ["padic.PadicElement.pi_valuation"],
    "padic.inverse": ["padic.PadicElement.inverse"],
    "padic.reduce_mod": ["padic.PadicElement.reduce_mod"],
    "padic.embed": ["padic.embed"],
    "padic.context_eq": ["padic.PadicContext.__eq__"],
    "chainring.mat_mul": ["chainring.mat_mul"],
    "chainring.determinant": ["chainring.determinant"],
    "chainring.mat_inverse": ["chainring.mat_inverse"],
    "chainring.nullspace_mod": ["chainring.nullspace_mod"],
    "chainring.span_add": ["chainring.ChainSpan.add"],
    "series.mul": ["series.AdicSeries.__mul__"],
    "series.evaluate": ["series.AdicSeries.evaluate"],
    "series.recenter_rescale": ["series.AdicSeries.recenter_rescale"],
    "domains.sample": ["domains.ResidueDomain.sample"],
    "domains.member": ["domains.ResidueDomain.member"],
    "families.pointwise_constancy_audit":
        ["families.RepFamily.pointwise_constancy_audit"],
    "families.trace_algebra_full": ["families.RepFamily.trace_algebra_full"],
    "lattice.carayol_audit": ["lattice.carayol_audit"],
    "lattice.semisimplify_mod_p": ["lattice.semisimplify_mod_p"],
    "lattice.iso_mod": ["lattice.iso_mod"],
    "lattice.intertwiner_space": ["lattice.intertwiner_space"],
    "lattice.word_products": [
        f"lattice.{cls}.{fn}" for cls in ("IntegralRep", "ResidueRep")
        for fn in ("matrix_of_word", "trace_of_word")],
    "pseudo.residually_multiplicity_free":
        ["pseudo.PseudoRep2.residually_multiplicity_free"],
    "pseudo.axiom_check": ["pseudo.PseudoRep2.axiom_check"],
    "pseudo.constancy_audit": ["pseudo.PseudoRep2.constancy_audit"],
    "specfile.load_spec": ["specfile.load_spec"],
    "cli.main": ["cli.main"],
}


def per_layer(tracer):
    """The per-layer metrics of one traced pass, except trace.overhead_frac."""
    out = {}
    for name, keys in LAYER_KEYS.items():
        out[f"{name}.calls"] = sum(tracer.calls(k) for k in keys)
        out[f"{name}.self_s"] = sum(tracer.self_s(k) for k in keys)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = tracer.layer_self_s(layer)
    out["galois.calls"] = tracer.layer_calls("galois")
    out["groups.calls"] = tracer.layer_calls("groups")
    for shape, (calls, own) in tracer.mul_by_shape.items():
        out[f"padic.mul_us.{shape}"] = own / calls * 1e6 if calls else 0.0
    sample_member, ss_mat_mul, iso_det = (tracer.nested[p] for p in NESTED)
    out["domains.sample.accept_ratio"] = (
        tracer.sample_points / sample_member if sample_member else 0.0)
    ss_calls = out["lattice.semisimplify_mod_p.calls"]
    out["lattice.semisimplify_mod_p.mat_mul_per_call"] = (
        ss_mat_mul / ss_calls if ss_calls else 0.0)
    iso_calls = out["lattice.iso_mod.calls"]
    out["lattice.iso_mod.det_per_call"] = (
        iso_det / iso_calls if iso_calls else 0.0)
    return out


def traced_metrics(tracers, plain_wall, traced_wall, decls):
    """Counts from the first traced pass (they repeat exactly), every other
    metric as the median over the traced passes."""
    runs = [per_layer(t) for t in tracers]
    units = {d["name"]: d["unit"] for d in decls}
    out = {name: first if units.get(name) == "count"
           else statistics.median(r[name] for r in runs)
           for name, first in runs[0].items()}
    out["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
    return out


# -- metadata ---------------------------------------------------------------


def git_revision(root):
    """HEAD commit read from .git without running git; None outside a repo."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(src):
    h = hashlib.sha256()
    for path in sorted((src / "loccon").rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def run_metadata():
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(), "nproc": nproc,
            "git_revision": git_revision(ROOT),
            "source_sha256": source_digest(SRC)}


# -- declaration ------------------------------------------------------------


def declared():
    """BENCHMARK.json: the metric names, units, directions and bounds."""
    try:
        spec = json.loads(BENCHMARK.read_text())
    except (OSError, ValueError) as exc:
        raise Usage(f"cannot read {BENCHMARK.name}: {exc}") from exc
    return spec


def shaped(values, decls):
    missing = [d["name"] for d in decls if d["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics not produced: {missing}")
    return {d["name"]: {"value": values[d["name"]], "unit": d["unit"]}
            for d in decls}


# -- main -------------------------------------------------------------------


def run(args):
    if not (SRC / "loccon" / "__init__.py").is_file():
        raise Usage(f"loccon sources not found under {SRC}")
    spec = declared()
    if args.workload not in WORKLOADS:
        raise Usage(f"unknown workload {args.workload!r}; "
                    f"choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    clock = HostClock()
    setup_spans, state = set_up(workload, args.seed, clock)
    setups = [clock.scaled(t0, t1) for t0, t1 in setup_spans]
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "loop": "closed, 1 client, sequential",
              "meta": run_metadata(), "setup_samples_s": setups,
              "raw_setup_samples_s": [t1 - t0 for t0, t1 in setup_spans]}
    if args.trace:
        book, tracers, plain, traced = run_traced(workload, state,
                                                  args.seconds, clock)
        values = traced_metrics(tracers, plain, traced, spec["per_layer"])
        metrics = shaped(values, spec["per_layer"])
        record["traced_wall_s"] = traced
        record["untraced_wall_s"] = plain
        record["functions"] = tracers[0].table()
    else:
        book, spans, wall = run_timed(workload, state, args.seconds, clock)
        values, detail = end_to_end(
            setups, [clock.scaled(t0, t1) for t0, t1 in spans])
        metrics = shaped(values, spec["end_to_end"])
        raw, _ = end_to_end(record["raw_setup_samples_s"],
                            [t1 - t0 for t0, t1 in spans])
        record["timing"] = detail
        record["raw_metrics"] = raw
        record["wall_s"] = wall
    record["host"] = clock.summary()
    quality = book.summary()
    record["quality"] = quality
    record["metrics"] = metrics
    failed = quality["wrong"] + quality["undecided"]
    print(RECORD_TAG + json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": failed == 0,
                      "attempted": quality["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0


# -- compare ----------------------------------------------------------------


def load_records(path):
    path = Path(path)
    files = sorted(p for p in path.rglob("*") if p.is_file()) \
        if path.is_dir() else [path]
    out = []
    for f in files:
        for line in f.read_text().splitlines():
            if line.startswith(RECORD_TAG):
                out.append(json.loads(line[len(RECORD_TAG):]))
    if not out:
        raise Usage(f"no {RECORD_TAG.strip()} lines in {path}")
    return out


def _spread(values):
    if len(values) < 2:
        return None
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / abs(med) if med else None


def compare(base_path, new_path, out=sys.stdout):
    """Median of each metric on each side, the ratio with its base, and
    whether the change is worse than the benchmark's bound."""
    spec = declared()
    sides = [load_records(base_path), load_records(new_path)]
    decls = [(d, 0) for d in spec["end_to_end"]] + \
        [(d, 1) for d in spec["per_layer"]]
    workloads = sorted({r["workload"] for rs in sides for r in rs})
    revs = [sorted({str(r["meta"].get("git_revision"))[:12] for r in rs})
            for rs in sides]
    print(f"base: {base_path} rev {','.join(revs[0])}", file=out)
    print(f"new:  {new_path} rev {','.join(revs[1])}", file=out)
    header = (f"{'workload':<13} {'metric':<46} {'unit':<6} "
              f"{'base median':>14} {'new median':>14} {'new/base':>9} "
              f"{'base iqr':>8} {'bound':>6}  verdict")
    print(header, file=out)
    exceeded = 0
    for wl in workloads:
        for d, trace in decls:
            vals = [[r["metrics"][d["name"]]["value"] for r in rs
                     if r["workload"] == wl and r["trace"] == trace
                     and d["name"] in r["metrics"]] for rs in sides]
            if not vals[0] or not vals[1]:
                continue
            b, n = statistics.median(vals[0]), statistics.median(vals[1])
            ratio = n / b if b else float("nan")
            bound = d.get("bound")
            spread = _spread(vals[0])
            worse = (n - b) if d["better"] == "lower" else (b - n)
            worse = worse / abs(b) if b else 0.0
            if bound is None:
                verdict = "-"
            elif spread is not None and spread > bound:
                verdict = "unresolved (spread > bound)"
            elif worse > bound:
                verdict = "EXCEEDS bound"
                exceeded += 1
            else:
                verdict = "within bound"
            print(f"{wl:<13} {d['name']:<46} {d['unit']:<6} "
                  f"{b:>14.6g} {n:>14.6g} {ratio:>9.4f} "
                  f"{'' if spread is None else f'{spread:.3f}':>8} "
                  f"{'' if bound is None else bound:>6}  {verdict}"
                  f"  (n={len(vals[0])}/{len(vals[1])})", file=out)
    print(f"{exceeded} metric(s) worse than their bound", file=out)
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                    help="compare two result sets instead of running")
    args = ap.parse_args(argv)
    try:
        if args.compare:
            return compare(*args.compare)
        if not args.workload:
            raise Usage("--workload is required")
        return run(args)
    except Usage as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
