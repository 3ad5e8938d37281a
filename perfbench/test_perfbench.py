"""Tests of the benchmark itself: oracle, seeded inputs, tracer, compare.

Run with ``python3 -m pytest perfbench``.  loccon is reached only through
``run.fresh_import()``, because the benchmark re-imports it from scratch.
"""

import cProfile
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from hostclock import REFERENCE_PROBE_S, HostClock  # noqa: E402
import tracer as tr  # noqa: E402
from workloads import WORKLOADS, Book, Carayol, Item  # noqa: E402

FAMILY_SPEC = HERE.parent / "specs" / "unramified_family.spec"
FAMILY_AUDIT = ["--spec", str(FAMILY_SPEC), "family", "audit"]


def first_pass(name, seed):
    lc = run.fresh_import()
    workload = WORKLOADS[name]
    state = workload.build(lc, seed)
    return lc, workload, state, run.first_pair(workload, state)


# -- oracle -----------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_second_seed_gives_no_wrong_or_undecided_verdicts(name):
    _, workload, _, prefix = first_pass(name, seed=2)
    book = Book(workload.undecided)
    for pair, item in prefix:
        book.run(pair, item)
    summary = book.summary()
    assert summary["attempted"] == len(prefix)
    assert summary["wrong_frac"] == 0, summary["examples"]
    assert summary["undecided_frac"] == 0, summary["examples"]
    assert summary["byte_checks"] == len(prefix) // 2


def test_non_congruent_pair_is_counted_wrong():
    """Negative control: a pair whose traces differ mod p must not pass."""
    lc = run.fresh_import()
    state = Carayol().build(lc, seed=3)
    key, ctx, n, a, _ = state["audits"][0][0]
    b = None
    for c in range(1, ctx.p):  # shift trace(g1) by a unit, keeping det a unit
        M = [row[:] for row in a["g1"]]
        M[0][0] = M[0][0] + ctx.from_int(c)
        if (M[0][0] * M[1][1] - M[0][1] * M[1][0]).pi_valuation() == 0:
            b = dict(a, g1=M)
            break
    assert b is not None
    book = Book(Carayol.undecided)
    book.run(0, Carayol.audit_item(state, "negative", ctx, n, a, b, 0))
    summary = book.summary()
    assert summary["wrong"] == 1 and summary["wrong_frac"] == 1.0
    assert summary["examples"][0]["detail"] == "precondition_failed"


def test_changed_output_bytes_are_counted_wrong():
    book = Book(())
    outputs = iter(["a", "b"])
    item = Item("k", 0, lambda: (0, next(outputs)))
    book.run(0, item)
    book.run(0, item)
    assert book.wrong == 1 and book.byte_checks == 1


def test_raising_verdict_is_counted_wrong():
    book = Book(())
    book.run(0, Item("k", 0, lambda: 1 // 0))
    assert book.wrong == 1 and book.examples[0]["kind"] == "raised"


def test_same_seed_gives_same_inputs():
    _, _, s1, _ = first_pass("gamma_towers", seed=5)
    _, _, s2, _ = first_pass("gamma_towers", seed=5)
    _, _, s3, _ = first_pass("gamma_towers", seed=6)
    polys = [[E.eis_poly for _, _, E, _ in s["tuples"]] for s in (s1, s2, s3)]
    assert polys[0] == polys[1] != polys[2]


# -- tracer self-check ------------------------------------------------------


def jobs(lc, seed=1):
    """One Carayol audit, one CLI command, and user-level arithmetic that
    goes through the reflected operators (0 + x, 3 * x)."""
    state = Carayol().build(lc, seed)
    key, ctx, n, a, b = state["audits"][0][-1]
    audit = Carayol.audit_item(state, key, ctx, n, a, b, 0).call

    def cli():
        import contextlib
        import io
        with contextlib.redirect_stdout(io.StringIO()):
            assert lc.cli.main(FAMILY_AUDIT) == 0

    def arithmetic():
        xs = [ctx.from_int(k) for k in range(1, 6)]
        return sum(xs), sum(3 * x for x in xs)
    return {"audit": audit, "cli": cli, "arithmetic": arithmetic}


def mismatches(job, miss=None):
    """Run job under cProfile, then traced (with an optional simulated
    miss); return the functions whose counts disagree."""
    profiler = cProfile.Profile()
    profiler.enable()
    job()
    profiler.disable()
    t = tr.Tracer()
    t.install()
    try:
        if miss:
            miss()
        job()
    finally:
        t.uninstall()
    return t, {keys[0] for keys, _, _ in tr.profile_mismatches(t, profiler)}


@pytest.mark.parametrize("name", ["audit", "cli", "arithmetic"])
def test_traced_counts_equal_cprofile_primitive_calls(name):
    lc = run.fresh_import()
    t, bad = mismatches(jobs(lc)[name])
    assert bad == set()
    assert sum(rec[1] for rec in t.stats.values()) > 0
    assert tr.leftover_wrappers() == []


def _original(obj):
    return getattr(obj, tr._MARK)


def test_self_check_catches_from_import_binding_miss():
    lc = run.fresh_import()

    def miss():  # lattice's own `from loccon.chainring import mat_mul`
        lc.lattice.mat_mul = _original(lc.lattice.mat_mul)
    _, bad = mismatches(jobs(lc)["audit"], miss)
    assert "chainring.mat_mul" in bad


def test_self_check_catches_reflected_alias_miss():
    lc = run.fresh_import()
    P = lc.padic.PadicElement

    def miss():  # __radd__ = __add__ and __rmul__ = __mul__ on the class
        P.__radd__ = _original(P.__radd__)
        P.__rmul__ = _original(P.__rmul__)
    _, bad = mismatches(jobs(lc)["arithmetic"], miss)
    assert {"padic.PadicElement.__add__", "padic.PadicElement.__mul__"} <= bad


def test_self_check_catches_runtime_import_miss():
    lc = run.fresh_import()

    def miss():  # families imports iso_mod from lattice inside a method
        vars(lc.lattice)["iso_mod"] = _original(lc.lattice.iso_mod)
    _, bad = mismatches(jobs(lc)["cli"], miss)
    assert "lattice.iso_mod" in bad


def test_uninstall_restores_every_binding():
    lc = run.fresh_import()
    before = {name: getattr(lc.lattice, name)
              for name in ("mat_mul", "iso_mod", "carayol_audit")}
    add = vars(lc.padic.PadicElement)["__radd__"]
    t = tr.Tracer()
    with t:
        assert hasattr(lc.lattice.mat_mul, tr._MARK)
        assert tr.leftover_wrappers()
    assert tr.leftover_wrappers() == []
    assert all(getattr(lc.lattice, n) is f for n, f in before.items())
    assert vars(lc.padic.PadicElement)["__radd__"] is add


def test_traced_run_reports_every_per_layer_metric(capsys):
    assert run.main(["--workload", "gamma_towers", "--seed", "1",
                     "--seconds", "0.2", "--trace", "1"]) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    declared = json.loads(run.BENCHMARK.read_text())["per_layer"]
    assert set(last["metrics"]) == {d["name"] for d in declared}
    m = last["metrics"]
    assert m["padic.embed.calls"]["value"] > 0
    assert m["padic.mul.calls"]["value"] == 0
    assert m["chainring.mat_mul.calls"]["value"] == 0
    assert m["trace.overhead_frac"]["value"] > 0
    assert last["correct"] is True


def test_traced_passes_repeat_their_call_counts():
    """Counts are taken from the first traced pass; the others must agree."""
    _, workload, state, _ = first_pass("gamma_towers", seed=1)
    _, tracers, _, _ = run.run_traced(workload, state, seconds=0,
                                      clock=HostClock())
    counts = [{k: rec[:2] for k, rec in t.stats.items()} for t in tracers]
    assert len(counts) == run.TRACE_REPEATS
    assert all(c == counts[0] for c in counts)


# -- contract and compare ---------------------------------------------------


def test_untraced_run_prints_the_result_line_last(capsys):
    assert run.main(["--workload", "cli_specs", "--seed", "4",
                     "--seconds", "0.3", "--trace", "0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    declared = json.loads(run.BENCHMARK.read_text())["end_to_end"]
    assert list(last["metrics"]) == [d["name"] for d in declared]
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    record = json.loads(lines[-2][len(run.RECORD_TAG):])
    assert {"python", "nproc", "git_revision"} <= set(record["meta"])


def test_end_to_end_times_are_the_measured_latencies():
    """A few slow verdicts reach the tail: no latency is replaced."""
    samples = [0.01] * 100 + [1.0] * 11
    metrics, detail = run.end_to_end([0.5, 0.4, 0.6], samples)
    assert metrics["verdict_tail_ms"] == pytest.approx(1000.0)
    assert metrics["verdict_p50_ms"] == pytest.approx(10.0)
    assert metrics["verdicts_per_s"] == pytest.approx(111 / sum(samples))
    assert metrics["setup_s"] == 0.5
    assert detail["verdicts_beyond_tail"] == 10


def test_host_scaling_cancels_the_host_and_keeps_the_program():
    clock = HostClock()
    # probes at twice the reference time: the host ran at half speed
    clock.starts = [0.0, 1.0, 2.0, 3.0, 10.0, 11.0, 12.0, 13.0]
    clock.times = [2 * REFERENCE_PROBE_S] * 8
    assert clock.scaled(4.0, 5.0) == pytest.approx(0.5)
    assert clock.scaled(4.0, 9.0) == pytest.approx(2.5)  # slow on its own
    # only the probes nearest an interval count
    clock.starts += [20.0, 21.0, 22.0, 23.0]
    clock.times += [REFERENCE_PROBE_S] * 4
    assert clock.scaled(4.0, 5.0) == pytest.approx(0.5)


def test_fails_without_the_sources(tmp_path):
    shutil.copy(run.BENCHMARK, tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "carayol",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def _record(workload, trace, **values):
    metrics = {k: {"value": v, "unit": "x"} for k, v in values.items()}
    return run.RECORD_TAG + json.dumps(
        {"workload": workload, "trace": trace, "meta": {"git_revision": "r"},
         "metrics": metrics})


def test_compare_prints_medians_ratio_and_bound(tmp_path):
    rng = random.Random(0)
    base = [_record("carayol", 0, verdicts_per_s=10 + rng.random() * 0.1,
                    setup_s=1.0) for _ in range(5)]
    new = [_record("carayol", 0, verdicts_per_s=5 + rng.random() * 0.1,
                   setup_s=1.0) for _ in range(5)]
    (tmp_path / "base.log").write_text("\n".join(base) + "\n")
    (tmp_path / "new.log").write_text("noise\n" + "\n".join(new) + "\n")
    import io
    out = io.StringIO()
    run.compare(tmp_path / "base.log", tmp_path / "new.log", out=out)
    text = out.getvalue()
    rows = {line.split()[1]: line for line in text.splitlines()
            if line.startswith("carayol")}
    assert "EXCEEDS bound" in rows["verdicts_per_s"]
    assert "within bound" in rows["setup_s"]
    assert "0.50" in rows["verdicts_per_s"]  # ratio new/base with its base
    assert "1 metric(s) worse than their bound" in text
