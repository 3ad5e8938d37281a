"""Command-line front end: dispatch, exit codes, determinism of reports."""

import json
import pathlib

import pytest

from loccon.cli import main

SPECS = pathlib.Path(__file__).resolve().parent.parent / "specs"
FAMILY_SPEC = str(SPECS / "unramified_family.spec")
COVER_SPEC = str(SPECS / "cover.spec")
ISO_SPEC = str(SPECS / "iso_pair.spec")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_bounds_gamma(capsys):
    code, rep = run(capsys, "bounds", "gamma", "--e", "2", "--n", "3")
    assert code == 0 and rep == {"gamma": 5}


def test_bounds_alpha(capsys):
    code, rep = run(capsys, "bounds", "alpha", "--p", "3", "--km1", "9")
    assert code == 0 and rep == {"alpha": 5}


def test_bounds_crys_disc(capsys):
    code, rep = run(capsys, "bounds", "crys-disc", "--k", "2", "--p", "5",
                    "--v", "1", "--n", "1")
    assert code == 0
    assert rep["pointwise_bound"] == {"num": 2, "den": 1}
    assert rep["constancy_radius"] == {"num": 3, "den": 1}


def test_bounds_sst_bound(capsys):
    code, rep = run(capsys, "bounds", "sst-bound", "--k", "6", "--p", "5",
                    "--n", "2")
    assert code == 0 and rep["bound"] == {"num": -2, "den": 1}


def test_bounds_sst_bound_bad_weight_is_usage_error(capsys):
    code = main(["bounds", "sst-bound", "--k", "3", "--p", "5", "--n", "1"])
    capsys.readouterr()
    assert code == 3


def test_domain_describe(capsys):
    code, rep = run(capsys, "--spec", FAMILY_SPEC, "domain", "describe")
    assert code == 0
    assert rep["kind"] == "U" and rep["generators"] == ["1*T"]


def test_domain_member_verdicts(capsys):
    code, rep = run(capsys, "--spec", FAMILY_SPEC, "domain", "member",
                    "--point", "T : 25")
    assert code == 0 and rep["member"] is True
    code, rep = run(capsys, "--spec", FAMILY_SPEC, "domain", "member",
                    "--point", "T : pi^1*3", "--ext", "ram2")
    assert code == 0 and rep["member"] is False


def test_domain_sample_deterministic(capsys):
    code1, rep1 = run(capsys, "--spec", FAMILY_SPEC, "--seed", "4",
                      "domain", "sample", "--samples", "4", "--ext", "ram2")
    code2, rep2 = run(capsys, "--spec", FAMILY_SPEC, "--seed", "4",
                      "domain", "sample", "--samples", "4", "--ext", "ram2")
    assert code1 == code2 == 0
    assert rep1 == rep2
    assert rep1["count"] == 4


def test_family_audit_passes(capsys):
    code, rep = run(capsys, "--spec", FAMILY_SPEC, "family", "audit")
    assert code == 0 and rep["verdict"] == "pass"


def test_family_check_strict_fails_on_wide_open_coordinates(capsys):
    code, rep = run(capsys, "--spec", FAMILY_SPEC, "family", "check-strict",
                    "--n", "2")
    assert code == 1 and rep["verdict"] == "fail"
    assert "T" in rep["witness"]


def test_family_trace_algebra(capsys):
    code, rep = run(capsys, "--spec", FAMILY_SPEC, "family", "trace-algebra",
                    "--n", "2")
    assert code == 0 and rep["verdict"] == "full"


def test_lattice_iso_exit_codes(capsys):
    code, rep = run(capsys, "--spec", ISO_SPEC, "lattice", "iso", "--m", "2")
    assert code == 1 and rep["status"] == "not_isomorphic"
    code, rep = run(capsys, "--spec", ISO_SPEC, "lattice", "iso", "--m", "1")
    assert code == 0 and rep["status"] == "isomorphic"


def test_lattice_carayol_precondition(capsys):
    code, rep = run(capsys, "--spec", ISO_SPEC, "lattice", "carayol",
                    "--n", "2")
    assert code == 2 and rep["verdict"] == "precondition_failed"


def test_pseudorep_check(capsys):
    code, rep = run(capsys, "--spec", FAMILY_SPEC, "pseudorep", "check")
    assert code == 0 and rep["verdict"] == "pass"


def test_cover_compare(capsys):
    code, rep = run(capsys, "--spec", COVER_SPEC, "domain", "cover-compare",
                    "--samples", "30")
    assert code == 0
    assert rep["preimage_equality"]["n0"] == 1


COVER_TEMPLATE = """
[context base]
p = {p}
precision = 16

[model cover]
context = base
open = Y T
relation = cover 2 Y : {rhs}

[domain D]
model = cover
kind = wideopen
n = 2
center = Y : 0 , T : 0
"""


@pytest.mark.parametrize("p,rhs,error", [
    (3, "1*T + 1*T^2", "need y^d = c*t"),
    (3, "1*T^2", "need y^d = c*t"),
    (5, "5*T", "must be a unit"),
])
@pytest.mark.parametrize("op", ["sample", "cover-compare"])
def test_cover_closed_forms_refuse_other_shapes(capsys, tmp_path, p, rhs,
                                                error, op):
    """The cover closed forms hold for y^d = c*t with c a unit only; any
    other relation is a usage error, not a verdict over zero points."""
    spec = tmp_path / "cover.spec"
    spec.write_text(COVER_TEMPLATE.format(p=p, rhs=rhs))
    code = main(["--spec", str(spec), "domain", op, "--samples", "5"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert error in json.loads(captured.err)["error"]


def test_phimod_wadm(capsys):
    code, rep = run(capsys, "phimod", "wadm", "--k", "2", "--p", "5",
                    "--ap", "5")
    assert code == 0 and rep["weakly_admissible"] is True
    code, rep = run(capsys, "phimod", "wadm", "--type", "sst", "--k", "4",
                    "--p", "3", "--L", "2")
    assert code == 0 and rep["verdict"] == "pass"


def test_phimod_params(capsys):
    code, rep = run(capsys, "phimod", "params", "--k", "2", "--p", "5",
                    "--ap", "5")
    assert code == 0
    assert rep["slopes"] == ["1/2", "1/2"]
    assert rep["delta1"]["weight"] == 0 and rep["delta2"]["weight"] == -1


def test_json_output_file(capsys, tmp_path):
    out = tmp_path / "report.json"
    code = main(["--json", str(out), "bounds", "gamma", "--e", "3", "--n", "2"])
    capsys.readouterr()
    assert code == 0
    assert json.loads(out.read_text()) == {"gamma": 4}


def test_precision_error_is_an_inconclusive_report(capsys, tmp_path):
    out = tmp_path / "report.json"
    code = main(["--spec", FAMILY_SPEC, "--precision", "2", "--json", str(out),
                 "domain", "sample"])
    printed = json.loads(capsys.readouterr().out)
    assert code == 2
    assert printed["verdict"] == "inconclusive" and printed["reason"]
    assert json.loads(out.read_text()) == printed


ORDER_25_SPEC = """
[context base]
p = 5
precision = 8

[rep R]
context = base
group = cyclic 25
dim = 2
matrix g = 1 , 0 ; 0 , 1

[pseudorep T]
rep = R
"""


def _unstable_orbit(**budget):
    """stable_lattice on diag(1/pi, 1), whose orbit lattice grows each round.

    Spec reps are integral, so their orbit is stable at once; the budget rows
    swap in this generator to reach the limits through the CLI."""
    from loccon import lattice
    from loccon.padic import PadicNumber

    def run(group, dim, ctx, images):
        zero, one = PadicNumber(ctx.zero()), PadicNumber(ctx.one())
        M = [[PadicNumber(ctx.one(), denom_pow=1), zero], [zero, one]]
        return lattice.stable_lattice(group, dim, ctx,
                                      {name: M for name in images}, **budget)
    return run


@pytest.mark.parametrize("limit,argv,patch", [
    ("|G| <= 24", ["pseudorep", "mf"], None),
    ("orbit lattice keeps growing", ["lattice", "stabilize"],
     _unstable_orbit(denom_budget=1)),
    ("did not stabilize within budget", ["lattice", "stabilize"],
     _unstable_orbit(rounds_budget=1)),
])
def test_budget_and_precondition_limits_exit_2(capsys, tmp_path, monkeypatch,
                                               limit, argv, patch):
    """The README contract: a budget or precondition limit is inconclusive."""
    spec = tmp_path / "order25.spec"
    spec.write_text(ORDER_25_SPEC)
    if patch is not None:
        monkeypatch.setattr("loccon.cli.stable_lattice", patch)
    code, rep = run(capsys, "--spec", str(spec), *argv)
    assert code == 2
    assert rep["verdict"] == "inconclusive" and limit in rep["reason"]


def test_missing_spec_is_usage_error(capsys):
    code = main(["domain", "describe"])
    capsys.readouterr()
    assert code == 3
    code = main(["--spec", "/nonexistent.spec", "domain", "describe"])
    capsys.readouterr()
    assert code == 3


def test_bad_subcommand_is_usage_error(capsys):
    code = main(["bounds", "frobnicate"])
    capsys.readouterr()
    assert code == 3


def test_report_bytes_are_stable(capsys):
    a = main(["--spec", FAMILY_SPEC, "--seed", "9", "family", "audit"])
    out1 = capsys.readouterr().out
    b = main(["--spec", FAMILY_SPEC, "--seed", "9", "--single-thread",
              "family", "audit"])
    out2 = capsys.readouterr().out
    assert a == b == 0
    assert out1 == out2
