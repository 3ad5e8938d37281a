"""scripts/bench.py: it summarises and compares perfbench runs.  The script
is loaded as a module from the checkout and fed canned perfbench output."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _bench_module():
    spec = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


META = {"git_revision": "abc123", "source_sha256": "0123456789abcdef",
        "python": "3.11.7", "implementation": "CPython", "nproc": 2,
        "machine": "x86_64"}


def _canned_run(workload, seed, rate, tail, trace=0, meta=META):
    """The two lines perfbench/run.py prints for one run."""
    metrics = {"verdicts_per_s": {"value": rate, "unit": "1/s"},
               "verdict_tail_ms": {"value": tail, "unit": "ms"}}
    record = {"workload": workload, "seed": seed, "seconds": 30.0,
              "trace": trace, "meta": meta, "metrics": metrics,
              "quality": {"attempted": 12, "wrong": 0, "undecided": 0}}
    result = {"correct": True, "attempted": 12, "failed": 0, "metrics": metrics}
    return f"perfbench-record {json.dumps(record, sort_keys=True)}\n{json.dumps(result)}\n"


def test_bench_summarises_canned_perfbench_output():
    bench = _bench_module()
    rates = [130.0, 100.0, 200.0, 120.0, 110.0]
    text = "".join(_canned_run("gamma_towers", 1 + i, r, 10.0 * (i + 1))
                   for i, r in enumerate(rates))
    text += _canned_run("carayol", 7, 99.0, 20.0)
    text += _canned_run("gamma_towers", 1, 1.0, 1.0, trace=1)  # ignored
    doc = bench.summarise(bench.parse_runs(text), "canned")
    assert doc["meta"] == META and doc["seconds"] == 30.0
    gamma = doc["workloads"]["gamma_towers"]
    assert gamma["seeds"] == [1, 2, 3, 4, 5]
    assert (gamma["attempted"], gamma["failed"]) == (60, 0)
    rate = gamma["metrics"]["verdicts_per_s"]
    # quartiles of 100, 110, 120, 130, 200 by the exclusive method
    assert (rate["median"], rate["q1"], rate["q3"], rate["iqr"]) == (120.0, 105.0, 165.0, 60.0)
    tail = gamma["metrics"]["verdict_tail_ms"]
    assert (tail["median"], tail["iqr"], tail["unit"]) == (30.0, 30.0, "ms")
    one = doc["workloads"]["carayol"]["metrics"]["verdicts_per_s"]
    assert (one["median"], one["iqr"]) == (99.0, 0.0)


def test_bench_compare_prints_new_over_base(tmp_path, capsys):
    bench = _bench_module()
    paths = []
    for label, rate in (("base", 100.0), ("new", 150.0)):
        doc = bench.summarise(bench.parse_runs(_canned_run("carayol", 1, rate, 20.0)), label)
        paths.append(tmp_path / f"BENCH_{label}.json")
        paths[-1].write_text(json.dumps(doc))
    assert bench.main(["--compare", *map(str, paths)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert ["carayol", "verdicts_per_s", "1/s", "100", "0", "150", "0", "1.5000"] in rows


@pytest.mark.parametrize("record", sorted(p.name for p in ROOT.glob("BENCH_*.json")))
def test_bench_records_compare_against_the_baseline(record, capsys):
    """Every BENCH record at the repo root stays readable by --compare: it
    gives a ratio row for each metric it shares with the baseline."""
    bench = _bench_module()
    base = json.loads((ROOT / "BENCH_baseline.json").read_text())
    new = json.loads((ROOT / record).read_text())
    bench.compare(ROOT / "BENCH_baseline.json", ROOT / record)
    rows = {tuple(line.split()[:2]) for line in capsys.readouterr().out.splitlines()}
    shared = [(wl, metric) for wl in set(base["workloads"]) & set(new["workloads"])
              for metric in base["workloads"][wl]["metrics"]
              if metric in new["workloads"][wl]["metrics"]]
    assert shared and all(key in rows for key in shared)


def _bench_doc(label, revision, digest):
    return {"label": label, "seconds": 30.0, "trace": 0,
            "meta": dict(META, git_revision=revision, source_sha256=digest),
            "workloads": {"carayol": {"seeds": [1], "attempted": 12, "failed": 0,
                                      "metrics": {"verdicts_per_s": {
                                          "unit": "1/s", "median": 100.0,
                                          "q1": 100.0, "q3": 100.0, "iqr": 0.0,
                                          "values": [100.0]}}}}}


@pytest.mark.parametrize("new_meta,warned", [
    (("abc123", "0123456789abcdef"), False),  # the same source twice
    (("def456", "fedcba9876543210"), False),  # another revision
    (("abc123", "fedcba9876543210"), True),   # a working tree of abc123
])
def test_bench_compare_flags_one_revision_with_two_sources(tmp_path, capsys,
                                                           new_meta, warned):
    bench = _bench_module()
    paths = [tmp_path / "BENCH_base.json", tmp_path / "BENCH_new.json"]
    paths[0].write_text(json.dumps(_bench_doc("base", "abc123", "0123456789abcdef")))
    paths[1].write_text(json.dumps(_bench_doc("new", *new_meta)))
    assert bench.main(["--compare", *map(str, paths)]) == 0
    warnings = [line for line in capsys.readouterr().out.splitlines()
                if line.startswith("warning:")]
    assert len(warnings) == warned
    if warned:
        assert "abc123" in warnings[0]


def test_bench_refuses_cut_or_mixed_runs():
    bench = _bench_module()
    run = _canned_run("carayol", 1, 99.0, 20.0)
    with pytest.raises(bench.BenchError, match="no result line"):
        bench.parse_runs(run.splitlines()[0])
    other = dict(META, source_sha256="fedcba9876543210")
    runs = bench.parse_runs(run + _canned_run("carayol", 2, 98.0, 21.0, meta=other))
    with pytest.raises(bench.BenchError, match="disagree on source_sha256"):
        bench.summarise(runs, "mixed")
