#!/usr/bin/env python3
"""Record perfbench runs as a BENCH_<label>.json file.

Run the benchmark (``perfbench/run.py``, one subprocess per workload and
seed, untraced) and write the summary:

    python3 scripts/bench.py --label baseline --seeds 1 2 3 4 5 --seconds 30

Summarise runs made earlier instead, from files or directories holding the
stdout of ``perfbench/run.py``:

    python3 scripts/bench.py --label baseline --from-logs logs/base

Print the ratio new/base of every median of two files:

    python3 scripts/bench.py --compare BENCH_baseline.json BENCH_new.json

It warns when both files name one git revision but different digests of
src/loccon: at least one of them records a working tree with edits.

The file holds the runs' metadata (git revision, digest of src/loccon,
Python, nproc, machine), the seeds and run length, and per workload the
verdict counts and the median, quartiles and IQR of each end-to-end metric
over the seeds.  The exit code is 1 when a run reports a wrong or undecided
verdict, 2 when a run fails or its output cannot be read.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RECORD_TAG = "perfbench-record "
META_KEYS = ("git_revision", "source_sha256", "python", "implementation",
             "nproc", "machine")


class BenchError(Exception):
    """A run failed, or its output is not what perfbench prints."""


def parse_runs(text):
    """The (record, result) pair of each run in the stdout of perfbench runs:
    a ``perfbench-record {...}`` line, then the run's one-line result."""
    runs, record = [], None
    for line in text.splitlines():
        if line.startswith(RECORD_TAG):
            if record is not None:
                raise BenchError("a perfbench-record line has no result line")
            record = json.loads(line[len(RECORD_TAG):])
        elif record is not None and line.startswith("{"):
            result = json.loads(line)
            if result.get("metrics") != record.get("metrics"):
                raise BenchError("a result line does not match its record")
            runs.append((record, result))
            record = None
    if record is not None:
        raise BenchError("a perfbench-record line has no result line")
    return runs


def _quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _agreed(key, values):
    """The one value all runs share for ``key``."""
    if any(v != values[0] for v in values):
        raise BenchError(f"runs disagree on {key}: {sorted(set(map(str, values)))}")
    return values[0]


def summarise(runs, label):
    """The BENCH file contents for the untraced runs among ``runs``."""
    runs = [(rec, res) for rec, res in runs if rec["trace"] == 0]
    if not runs:
        raise BenchError("no untraced runs to summarise")
    meta = {key: _agreed(key, [rec["meta"].get(key) for rec, _ in runs])
            for key in META_KEYS}
    seconds = _agreed("seconds", [rec["seconds"] for rec, _ in runs])
    workloads = {}
    for name in sorted({rec["workload"] for rec, _ in runs}):
        mine = sorted(((rec, res) for rec, res in runs
                       if rec["workload"] == name), key=lambda r: r[0]["seed"])
        metrics = {}
        for metric in mine[0][0]["metrics"]:
            values = [rec["metrics"][metric]["value"] for rec, _ in mine]
            q1, q3 = _quartiles(values)
            metrics[metric] = {"unit": mine[0][0]["metrics"][metric]["unit"],
                               "median": statistics.median(values),
                               "q1": q1, "q3": q3, "iqr": q3 - q1,
                               "values": values}
        workloads[name] = {
            "seeds": [rec["seed"] for rec, _ in mine],
            "attempted": sum(res["attempted"] for _, res in mine),
            "failed": sum(res["failed"] for _, res in mine),
            "metrics": metrics}
    return {"label": label, "meta": meta, "seconds": seconds, "trace": 0,
            "workloads": workloads}


def run_benchmark(root, workloads, seeds, seconds):
    """Run perfbench once per workload and seed; the stdout of all runs."""
    out = []
    for workload in workloads:
        for seed in seeds:
            cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", "0"]
            proc = subprocess.run(cmd, cwd=root, capture_output=True,
                                  text=True, check=False)
            if proc.returncode != 0:
                raise BenchError(f"{' '.join(cmd[1:])} exited "
                                 f"{proc.returncode}: {proc.stderr.strip()}")
            out.append(proc.stdout)
    return "\n".join(out)


def read_logs(path):
    path = Path(path)
    files = sorted(p for p in path.rglob("*") if p.is_file()) \
        if path.is_dir() else [path]
    return "\n".join(f.read_text() for f in files)


def compare(base_path, new_path):
    base, new = (json.loads(Path(p).read_text()) for p in (base_path, new_path))
    for side, doc in (("base", base), ("new", new)):
        meta = doc["meta"]
        print(f"{side}: {doc['label']} rev {meta['git_revision']} "
              f"src {meta['source_sha256']}")
    if (base["meta"]["git_revision"] == new["meta"]["git_revision"]
            and base["meta"]["source_sha256"] != new["meta"]["source_sha256"]):
        # perfbench records HEAD, so a run of a working tree with edits to
        # src/loccon names the revision it was edited from
        print(f"warning: both files name rev {new['meta']['git_revision']} "
              "but their src digests differ: at least one records a working "
              "tree, not that revision")
    print(f"{'workload':<13} {'metric':<16} {'unit':<5} {'base median':>12} "
          f"{'base iqr':>10} {'new median':>12} {'new iqr':>10} "
          f"{'new/base':>9}")
    for wl in sorted(set(base["workloads"]) & set(new["workloads"])):
        bm, nm = base["workloads"][wl]["metrics"], new["workloads"][wl]["metrics"]
        for metric in [m for m in bm if m in nm]:
            b, n = bm[metric], nm[metric]
            ratio = n["median"] / b["median"] if b["median"] else float("nan")
            print(f"{wl:<13} {metric:<16} {b['unit']:<5} {b['median']:>12.6g} "
                  f"{b['iqr']:>10.4g} {n['median']:>12.6g} {n['iqr']:>10.4g} "
                  f"{ratio:>9.4f}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", help="the file is BENCH_<label>.json")
    ap.add_argument("--workloads", nargs="+",
                    help="default: every workload in BENCHMARK.json")
    ap.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3, 4, 5])
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--root", type=Path, default=ROOT,
                    help="the checkout to benchmark (default: this one)")
    ap.add_argument("--from-logs", metavar="PATH",
                    help="summarise these saved runs instead of running")
    ap.add_argument("--out", type=Path, default=ROOT,
                    help="directory for the BENCH file (default: repo root)")
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                    help="print new/base ratios of two BENCH files")
    args = ap.parse_args(argv)
    if args.compare:
        compare(*args.compare)
        return 0
    if not args.label or not re.fullmatch(r"[A-Za-z0-9_.-]+", args.label):
        ap.error("--label NAME (letters, digits, '_', '.', '-') is required")
    try:
        if args.from_logs:
            text = read_logs(args.from_logs)
        else:
            workloads = args.workloads or [
                w["name"] for w in
                json.loads((args.root / "BENCHMARK.json").read_text())["workloads"]]
            text = run_benchmark(args.root, workloads, args.seeds, args.seconds)
        bench = summarise(parse_runs(text), args.label)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    path = args.out / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n")
    print(path)
    return 0 if all(w["failed"] == 0 for w in bench["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
