"""Command-line front end: dispatch, exit codes, determinism of reports."""

import contextlib
import hashlib
import io
import json
import pathlib

import pytest

from loccon.cli import main
from loccon.specfile import load_spec, print_spec

SPECS = pathlib.Path(__file__).resolve().parent.parent / "specs"
FAMILY_SPEC = str(SPECS / "unramified_family.spec")
COVER_SPEC = str(SPECS / "cover.spec")
ISO_SPEC = str(SPECS / "iso_pair.spec")
ANNULUS_SPEC = str(SPECS / "annulus.spec")
S3_SPEC = str(SPECS / "s3_standard.spec")
# its [params] extensions names one context
UNRAM_POINTS_SPEC = str(SPECS.parent / "perfbench" / "specs"
                        / "unramified_points.spec")


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
    # a coords(...) token's comma does not split the point: 5 pi, v = 3
    code, rep = run(capsys, "--spec", FAMILY_SPEC, "domain", "member",
                    "--point", "T:coords(0,5)", "--ext", "ram2")
    assert code == 0 and rep["member"] is True


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
    assert len(rep["extensions"]) == 3


def test_family_audit_passes_on_one_context_extensions(capsys):
    code, rep = run(capsys, "--spec", UNRAM_POINTS_SPEC, "family", "audit")
    assert code == 0 and rep["verdict"] == "pass"
    assert len(rep["extensions"]) == 1


def test_family_check_strict_fails_on_wide_open_coordinates(capsys):
    code, rep = run(capsys, "--spec", FAMILY_SPEC, "family", "check-strict",
                    "--n", "2")
    assert code == 1 and rep["verdict"] == "fail"
    assert "T" in rep["witness"]


@pytest.mark.parametrize("argv,code,verdict", [
    (["--n", "1"], 0, "pass"),
    (["--n", "2", "--scale", "0"], 1, "fail"),
    (["--n", "1", "--scale", "1"], 0, "pass"),
])
def test_family_check_strict_is_trivial_only_on_the_residue_domain(
        capsys, argv, code, verdict):
    """Only depth 1 at scale 0 on a wide open domain passes trivially; at
    depth 2, scale 0 keeps T, which is not constant mod pi^2."""
    got, rep = run(capsys, "--spec", FAMILY_SPEC, "family", "check-strict",
                   *argv)
    assert got == code and rep["verdict"] == verdict
    trivial = argv == ["--n", "1"]
    assert ("note" in rep) == trivial
    if code == 1:
        assert "'T'" in rep["witness"]


@pytest.mark.parametrize("argv,error", [
    (["bounds", "sst-bound", "--k", "4", "--p", "1"], "p=1 is not prime"),
    (["bounds", "sst-bound", "--k", "4", "--p", "0"], "p=0 is not prime"),
    (["bounds", "sst-bound", "--k", "4", "--p", "4"], "p=4 is not prime"),
    (["bounds", "alpha", "--p", "-1", "--km1", "3"], "p=-1 is not prime"),
    (["bounds", "alpha", "--p", "0", "--km1", "3"], "p=0 is not prime"),
    (["bounds", "alpha", "--p", "4", "--km1", "3"], "p=4 is not prime"),
    (["bounds", "crys-disc", "--p", "-3"], "p=-3 is not prime"),
    (["bounds", "crys-disc", "--p", "0"], "p=0 is not prime"),
    (["bounds", "crys-disc", "--p", "5", "--v", "abc"],
     "--v must be a rational, got 'abc'"),
    (["bounds", "crys-disc", "--p", "5", "--v", "1/0"],
     "--v must be a rational, got '1/0'"),
    (["--spec", FAMILY_SPEC, "family", "check-strict", "--n", "3",
      "--scale", "-1"], "scale exponents must be >= 0"),
])
def test_bad_bounds_or_scale_is_usage_error(capsys, argv, error):
    """A p that is not prime, a --v that is not a rational or a negative
    check-strict scale exits 3 with a one-line JSON error: no loop,
    traceback, number or trivial pass."""
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert json.loads(captured.err)["error"] == error


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


DEFECT_PAIR_SPEC = """
[context base]
p = 5
f = 1
e = 1
precision = 12

[rep A]
context = base
group = free 2
dim = 2
matrix g1 = 1 , 1 ; 0 , 2
matrix g2 = 1 , 0 ; 1 , 3

[rep B]
context = base
group = free 2
dim = 2
matrix g1 = 1 , 1 ; 0 , 2
matrix g2 = 1 , 0 ; 2 , 3

[params]
n = 1
word_cap = {cap}
"""


def test_lattice_carayol_witness_ignores_word_cap(tmp_path, capsys):
    """Two residually absolutely irreducible reps whose traces agree on the
    letters but not on g1 g2: a failed precondition with that witness word
    (exit 2), whatever word_cap the spec sets."""
    reports = []
    for cap in (1, 4):
        path = tmp_path / f"defect{cap}.spec"
        path.write_text(DEFECT_PAIR_SPEC.format(cap=cap), encoding="utf-8")
        code, rep = run(capsys, "--spec", str(path), "lattice", "carayol")
        assert code == 2 and rep["verdict"] == "precondition_failed"
        assert rep["witness"] == "g1 g2"
        reports.append(rep)
    assert reports[0] == reports[1]


def test_pseudorep_check(capsys):
    """Every pair is checked: 15 of the 25 pairs of words of length <= 2
    have all the words the identity needs within the values, and the
    other 10 are reported as skipped."""
    code, rep = run(capsys, "--spec", FAMILY_SPEC, "pseudorep", "check")
    assert code == 0 and rep["verdict"] == "pass"
    assert rep["pairs_checked"] == 15 and rep["pairs_skipped"] == 10
    assert rep["word_length"] == 2


def test_pseudorep_audit_draws_no_point(capsys, monkeypatch):
    """pseudorep audit is a closed-form certificate: it never samples the
    domain, takes no --samples, and an audit deeper than the domain U^(2)
    is inconclusive (exit 2)."""
    from loccon.domains import ResidueDomain
    calls = []
    monkeypatch.setattr(ResidueDomain, "sample",
                        lambda self, *args, **kwargs: calls.append(args))
    code, rep = run(capsys, "--spec", FAMILY_SPEC, "pseudorep", "audit")
    assert code == 0 and rep["verdict"] == "pass"
    code, rep = run(capsys, "--spec", FAMILY_SPEC, "pseudorep", "audit",
                    "--n", "4")
    assert code == 2 and rep["verdict"] == "inconclusive"
    assert "deeper than its domain" in rep["reason"]
    assert calls == []
    assert main(["--spec", FAMILY_SPEC, "pseudorep", "audit",
                 "--samples", "5"]) == 3
    assert capsys.readouterr().out == ""


_REP_BLOCKS = "[rep R]\ncontext = {ctx}\ngroup = free 1\ndim = {dim}\n" \
              "matrix g1 = {matrix}\n\n[pseudorep P]\nrep = R"


@pytest.mark.parametrize("old,new,bad,message", [
    ("word_cap = 3", "word_cap = 0", "[pseudorep P]",
     "invalid [pseudorep] block: word_cap must be at least 1, got 0"),
    ("[pseudorep P]\nfamily = F",
     _REP_BLOCKS.format(ctx="base", dim=3,
                        matrix="1 , 0 , 0 ; 0 , 1 , 0 ; 0 , 0 , 1"),
     "[pseudorep P]", "implemented for d = 2"),
    ("[pseudorep P]\nfamily = F",
     "[context two]\np = 2\n\n" + _REP_BLOCKS.format(
         ctx="two", dim=2, matrix="1 , 0 ; 0 , 1"),
     "[pseudorep P]", "needs p != 2"),
    ("family = F", "family = nosuch", "family = nosuch",
     "unresolved reference to family 'nosuch'"),
], ids=["word_cap", "rep-dim-3", "p-2", "undeclared-family"])
def test_pseudorep_block_errors_stop_every_command_at_load(
        capsys, tmp_path, old, new, bad, message):
    """A malformed [pseudorep] block exits 3 at load with its line, the same
    on a command that never reads it as on pseudorep check: its trace table
    is built on first read, its checks are not."""
    text = pathlib.Path(FAMILY_SPEC).read_text()
    assert old in text
    text = text.replace(old, new, 1)
    path = tmp_path / "malformed.spec"
    path.write_text(text)
    line = text.split("\n").index(bad) + 1
    errors = []
    for argv in (["domain", "describe"], ["pseudorep", "check"]):
        code = main(["--spec", str(path)] + argv)
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        errors.append(json.loads(captured.err)["error"])
    assert errors[0] == errors[1]
    assert errors[0].startswith(f"line {line}: ") and message in errors[0]


def test_only_commands_that_read_a_pseudorep_take_traces(capsys, monkeypatch):
    """Loading a spec builds no trace table: no command but pseudorep check
    takes the trace of a word of the family."""
    from loccon.lattice import IntegralRep
    calls = []
    trace = IntegralRep.trace_of_word
    monkeypatch.setattr(IntegralRep, "trace_of_word",
                        lambda self, word: calls.append(word)
                        or trace(self, word))
    for argv, want in ((["domain", "describe"], 0),
                       (["domain", "member", "--point", "T : 25"], 0),
                       (["family", "check-strict", "--n", "2"], 1),
                       (["family", "audit"], 0),
                       (["pseudorep", "check"], 0)):
        calls.clear()
        assert main(["--spec", FAMILY_SPEC] + argv) == want
        capsys.readouterr()
        assert bool(calls) == (argv[0] == "pseudorep"), argv


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


MALFORMED_REP = """
[context base]
p = 5
precision = 12

[rep R]
context = base
group = free {rank}
dim = 2
{matrices}
"""


@pytest.mark.parametrize("rank,matrices,error", [
    (2, "matrix g1 = 1 , 1 ; 0 , 1", "missing matrix for generator 'g2'"),
    (1, "matrix g1 = 1 , 0 , 0 ; 0 , 1 , 0 ; 0 , 0 , 1", "is not 2 x 2"),
    (1, "matrix g1 = 1 , 1 ; 0 , 1\nmatrix h = 2 , 0 ; 0 , 1",
     "'h', which is not a generator"),
])
@pytest.mark.parametrize("argv", [["semisimplify"], ["reduce", "--m", "2"],
                                  ["stabilize"]])
def test_malformed_rep_is_usage_error(capsys, tmp_path, rank, matrices,
                                      error, argv):
    """A rep block needs exactly one d x d matrix per generator; anything
    else is a usage error, never a crash or a verdict."""
    spec = tmp_path / "rep.spec"
    spec.write_text(MALFORMED_REP.format(rank=rank, matrices=matrices))
    code = main(["--spec", str(spec), "lattice", *argv])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert error in json.loads(captured.err)["error"]


ONE_REP = """
[context base]
p = 5
precision = 8

[rep R]
context = base
group = {group}
dim = 1
matrix g = 1
"""


@pytest.mark.parametrize("group,error", [
    ("symmetric 0", "symmetric groups supported for 2 <= n <= 4, not n = 0"),
    ("symmetric 1", "symmetric groups supported for 2 <= n <= 4, not n = 1"),
    ("symmetric 5", "symmetric groups supported for 2 <= n <= 4, not n = 5"),
    ("cyclic 0", "cyclic groups need n >= 1, not n = 0"),
    ("cyclic -2", "cyclic groups need n >= 1, not n = -2"),
    ("dihedral 0", "dihedral groups need n >= 1, not n = 0"),
    ("free 0", "free groups need rank r >= 1, not r = 0"),
    ("cyclic x", "group kind 'cyclic' needs one integer argument"),
])
def test_builtin_group_out_of_range_is_usage_error(capsys, tmp_path, group,
                                                   error):
    """A built-in group whose argument names no group is a usage error: exit
    3 with a one-line JSON error naming the argument, never a traceback
    (with no generator, ``free 0`` crashed ``lattice reduce``)."""
    spec = tmp_path / "group.spec"
    spec.write_text(ONE_REP.format(group=group))
    code = main(["--spec", str(spec), "lattice", "reduce", "--m", "1"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert "Traceback" not in captured.err
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


def _stdout(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_spec_seed_is_read_and_the_flag_overrides_it(capsys, tmp_path):
    text = pathlib.Path(FAMILY_SPEC).read_text()
    assert "\nseed = 0\n" in text
    spec = tmp_path / "seed5.spec"
    spec.write_text(text.replace("\nseed = 0\n", "\nseed = 5\n"))
    sample = ["domain", "sample", "--samples", "4", "--ext", "ram2"]
    from_spec = _stdout(capsys, "--spec", str(spec), *sample)
    assert from_spec == _stdout(capsys, "--spec", str(spec), "--seed", "5", *sample)
    assert from_spec != _stdout(capsys, "--spec", FAMILY_SPEC, *sample)
    flag = _stdout(capsys, "--spec", str(spec), "--seed", "7", *sample)
    assert flag == _stdout(capsys, "--spec", FAMILY_SPEC, "--seed", "7", *sample)
    assert flag != from_spec
    assert from_spec[0] == flag[0] == 0


def test_non_integer_spec_seed_is_usage_error(capsys, tmp_path):
    """seed, n and samples are integer [params] keys: another value is a
    load error, whichever command reads the spec."""
    for key, path, old, new, argv in [
            ("seed", FAMILY_SPEC, "seed = 0", "seed = five",
             ["domain", "describe"]),
            ("n", ISO_SPEC, "[params]\nn = 2", "[params]\nn = two",
             ["lattice", "carayol"]),
            ("samples", FAMILY_SPEC, "samples = 20", "samples = many",
             ["family", "audit"])]:
        text = pathlib.Path(path).read_text()
        assert old in text
        spec = tmp_path / "bad_param.spec"
        spec.write_text(text.replace(old, new))
        code = main(["--spec", str(spec)] + argv)
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert f"{key} must be an integer" in json.loads(captured.err)["error"]


_GROUP_BLOCK = ("[group G]\nkind = finite\ntable = {}\ngenerators = g\n"
                "gen_elements = {}\n\n")


@pytest.mark.parametrize("spec,old,new,bad", [
    (ISO_SPEC, "f = 1", "f = 1\nunram_poly = x", "unram_poly = x"),
    (ISO_SPEC, "e = 1", "e = 1\neis_poly = x", "eis_poly = x"),
    (COVER_SPEC, "relation = cover 2 Y : -1*T", "relation =", "relation ="),
    (ANNULUS_SPEC, "relation = annulus 2", "relation = annulus x",
     "relation = annulus x"),
    (COVER_SPEC, "relation = cover 2 Y : -1*T", "relation = cover x Y : 1*T",
     "relation = cover x Y : 1*T"),
    (S3_SPEC, "[pseudorep P]", "[group G]\nkind =\n\n[pseudorep P]", "kind ="),
    (S3_SPEC, "[pseudorep P]", _GROUP_BLOCK.format("x", "0") + "[pseudorep P]",
     "table = x"),
    (S3_SPEC, "[pseudorep P]", _GROUP_BLOCK.format("0", "x") + "[pseudorep P]",
     "gen_elements = x"),
    (ISO_SPEC, "group = free 1", "group =", "group ="),
    (ISO_SPEC, "matrix g1 = 6 , 0 ; 0 , -4", "matrix g1 = 6 , pi^1*x ; 0 , -4",
     "matrix g1 = 6 , pi^1*x ; 0 , -4"),
    (None, "phimod wadm --k 2 --p 5 --ap pi^1*x", None, None),
    (None, "phimod build --type sst --k 4 --p 3 --L pi^1*x", None, None),
    (FAMILY_SPEC, "domain member --point T:pi^1*x", None, None),
    (FAMILY_SPEC, "center = T : 0", "center = T : 0 , T : 5",
     "center = T : 0 , T : 5"),
    (FAMILY_SPEC, "center = T : 0", "center = T : 0 , X : 3",
     "center = T : 0 , X : 3"),
    (FAMILY_SPEC, "word_cap = 3", "word_cap = 0", "[pseudorep P]"),
    (FAMILY_SPEC, "open = T", "open = pi", "[model disc]"),
    (FAMILY_SPEC, "open = T", "bounded = T pi", "[model disc]"),
], ids=["unram_poly", "eis_poly", "empty-relation", "annulus-m", "cover-d",
        "empty-group-kind", "table", "gen_elements", "empty-rep-group",
        "spec-token", "ap-token", "L-token", "point-token",
        "center-repeated-var", "center-undeclared-var", "word_cap",
        "open-var-pi", "bounded-var-pi"])
def test_malformed_value_is_usage_error(capsys, tmp_path, spec, old, new, bad):
    """A value that is not an integer where one is read, an empty value, a
    pi^k*u token whose u is not an integer, a center that names a variable
    twice or one its model lacks, a word_cap below 1 and a model variable
    named pi each exit 3 with a one-line JSON error, not a traceback; a spec
    error names its line."""
    if new is None:
        argv = old.split()
        if spec is not None:
            argv = ["--spec", spec] + argv
    else:
        text = pathlib.Path(spec).read_text()
        assert old in text
        text = text.replace(old, new, 1)
        path = tmp_path / "malformed.spec"
        path.write_text(text)
        argv = ["--spec", str(path), "domain", "describe"]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    error = json.loads(captured.err)["error"]
    if new is None:
        assert "pi^1*x" in error
    else:
        line = text.split("\n").index(bad) + 1
        assert error.startswith(f"line {line}: ")


def test_params_read_only_seed_n_and_samples_as_integers(capsys, tmp_path):
    """[params] extensions = 2 names the declared [context 2]."""
    text = pathlib.Path(FAMILY_SPEC).read_text()
    for old, new in [("[context ram2]", "[context 2]\np = 5\ne = 2\n"
                      "precision = 16\n\n[context ram2]"),
                     ("extensions = base ram2 ram3", "extensions = 2")]:
        assert old in text
        text = text.replace(old, new)
    path = tmp_path / "numbered.spec"
    path.write_text(text)
    spec = load_spec(str(path))
    assert spec.extensions() == [spec.contexts["2"]]
    code, rep = run(capsys, "--spec", str(path), "family", "audit",
                    "--samples", "2")
    assert code == 0 and rep["verdict"] == "pass"


@pytest.mark.parametrize("spec,argv,depth", [
    (FAMILY_SPEC, ["family", "check-strict", "--n", "0"], "n = 0"),
    (FAMILY_SPEC, ["family", "audit", "--n", "0"], "n = 0"),
    (FAMILY_SPEC, ["family", "trace-algebra", "--n", "-1"], "n = -1"),
    (FAMILY_SPEC, ["pseudorep", "audit", "--n", "0"], "n = 0"),
    (FAMILY_SPEC, ["pseudorep", "kernel", "--m", "0"], "m = 0"),
    (ISO_SPEC, ["lattice", "carayol", "--n", "0"], "n = 0"),
    (ISO_SPEC, ["lattice", "iso", "--m", "0"], "m = 0"),
    (ISO_SPEC, ["lattice", "reduce", "--m", "0"], "m = 0"),
    (None, ["bounds", "crys-disc", "--n", "0"], "n = 0"),
    ("[params] n = 0", ["lattice", "carayol"], "n = 0"),
    ("[params] n = 0", ["family", "trace-algebra"], "n = 0"),
])
def test_depth_below_one_is_usage_error(capsys, tmp_path, spec, argv, depth):
    """--n, [params] n and --m are exponents of pi: below 1 each exits 3
    with a one-line JSON error, on every command that takes one."""
    if spec is None:
        prefix = []
    elif spec.startswith("[params]"):
        path = tmp_path / "depth.spec"
        source = ISO_SPEC if argv[0] == "lattice" else FAMILY_SPEC
        path.write_text(pathlib.Path(source).read_text()
                        .replace("[params]\nn = 2", "[params]\nn = 0"))
        prefix = ["--spec", str(path)]
    else:
        prefix = ["--spec", spec]
    code = main(prefix + argv)
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    key, val = depth.split(" = ")
    assert json.loads(captured.err)["error"] == \
        f"depth {key} must be at least 1, got {val}"


@pytest.mark.parametrize("spec,argv,count", [
    (FAMILY_SPEC, ["family", "audit", "--samples", "0"], "0"),
    (FAMILY_SPEC, ["family", "audit", "--samples", "-3"], "-3"),
    (FAMILY_SPEC, ["domain", "sample", "--samples", "0"], "0"),
    (FAMILY_SPEC, ["domain", "sample", "--samples", "-2"], "-2"),
    ("[params] samples = 0", ["family", "audit"], "0"),
])
def test_sample_count_below_one_is_usage_error(capsys, tmp_path, spec, argv,
                                               count):
    """--samples and [params] samples count the points drawn per extension:
    below 1 each exits 3 with a one-line JSON error, on every command that
    samples."""
    if spec.startswith("[params]"):
        path = tmp_path / "samples.spec"
        path.write_text(pathlib.Path(FAMILY_SPEC).read_text()
                        .replace("samples = 20", spec[len("[params] "):]))
        spec = str(path)
    code = main(["--spec", spec] + argv)
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert json.loads(captured.err)["error"] == \
        f"samples must be at least 1, got {count}"


def test_sample_count_is_read_only_by_the_commands_that_sample(capsys,
                                                              tmp_path):
    """A [params] samples below 1 leaves the commands that draw no points
    alone (family trace-algebra, pseudorep audit, domain cover-compare);
    domain sample reads the key like family audit."""
    path = tmp_path / "samples.spec"
    path.write_text(pathlib.Path(FAMILY_SPEC).read_text()
                    .replace("samples = 20", "samples = 0"))
    assert run(capsys, "--spec", str(path), "family", "trace-algebra")[0] == 0
    assert run(capsys, "--spec", str(path), "pseudorep", "audit")[0] == 0
    code = main(["--spec", str(path), "domain", "sample"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert json.loads(captured.err)["error"] == \
        "samples must be at least 1, got 0"
    cover = tmp_path / "cover.spec"
    cover.write_text(pathlib.Path(COVER_SPEC).read_text()
                     .replace("samples = 100", "samples = 0"))
    code, out = run(capsys, "--spec", str(cover), "domain", "cover-compare")
    assert code == 0 and out["preimage_equality"]["n0"] == 1


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


def _unstable_orbit(free):
    """stable_lattice on diag(1/pi, 1), whose orbit lattice keeps growing.

    Spec reps are integral, so their orbit is stable at once; the growth rows
    swap in this generator to reach the limit through the CLI, on the free
    group on the spec group's generators ("unbounded") or on the spec's
    finite group itself, whose orbit lattice would exist (a precision
    limit)."""
    from loccon import lattice
    from loccon.groups import FreeGroup
    from loccon.padic import PadicNumber

    def run(group, dim, ctx, images):
        zero, one = PadicNumber(ctx.zero()), PadicNumber(ctx.one())
        M = [[PadicNumber(ctx.one(), denom_pow=1), zero], [zero, one]]
        if free:
            group = FreeGroup(group.generators)
        return lattice.stable_lattice(group, dim, ctx,
                                      {name: M for name in images})
    return run


@pytest.mark.parametrize("limit,argv,patch", [
    ("orbit lattice keeps growing", ["lattice", "stabilize"],
     _unstable_orbit(free=True)),
    ("orbit denominator pi^-", ["lattice", "stabilize"],
     _unstable_orbit(free=False)),
], ids=["orbit lattice keeps growing-argv1-run",
        "orbit denominator pi^--argv2-run"])
def test_budget_and_precondition_limits_exit_2(capsys, tmp_path, monkeypatch,
                                               limit, argv, patch):
    """The README contract: a budget or precondition limit is inconclusive."""
    spec = tmp_path / "order25.spec"
    spec.write_text(ORDER_25_SPEC)
    monkeypatch.setattr("loccon.cli.stable_lattice", patch)
    code, rep = run(capsys, "--spec", str(spec), *argv)
    assert code == 2
    assert rep["verdict"] == "inconclusive" and limit in rep["reason"]


@pytest.mark.parametrize("order", [19, 23, 25])
def test_doubled_trivial_cyclic_mf_is_decided(capsys, tmp_path, order):
    """The doubled trivial T of C_19, C_23 and C_25 over Z_5 is twice the
    trivial character mod 5, whatever the size of the group: exit 0."""
    spec = tmp_path / "cyclic.spec"
    spec.write_text(ORDER_25_SPEC.replace("cyclic 25", f"cyclic {order}"))
    code, rep = run(capsys, "--spec", str(spec), "pseudorep", "mf")
    assert code == 0
    assert rep["verdict"] == "not_multiplicity_free"
    assert rep["character"] == {"g": [1]}


def test_pseudorep_mf_on_a_free_group_is_usage_error(capsys):
    """The multiplicity-free check needs the group's order."""
    assert main(["--spec", FAMILY_SPEC, "pseudorep", "mf"]) == 3
    assert "no order" in capsys.readouterr().err


@pytest.mark.parametrize("argv,inverts", [
    (["domain", "describe"], False),
    (["pseudorep", "check"], True),
])
def test_only_the_axiom_check_inverts_two(monkeypatch, capsys, argv, inverts):
    """1/2 is built the first time ``determinant`` reads it, so a command
    that reads no determinant takes no inverse in O_E."""
    from loccon.padic import PadicElement
    calls = []
    inverse = PadicElement.inverse

    def counted(self):
        calls.append(self)
        return inverse(self)

    monkeypatch.setattr(PadicElement, "inverse", counted)
    assert main(["--spec", FAMILY_SPEC, *argv]) == 0
    capsys.readouterr()
    assert bool(calls) == inverts


@pytest.mark.parametrize("spec,argv,needle", [
    ("unramified_family", ["domain", "describe", "--name", "x"], "'x'"),
    ("unramified_family", ["domain", "member", "--point", "T : 25",
                           "--ext", "x"], "'x'"),
    ("unramified_family", ["domain", "sample", "--ext", "x"], "'x'"),
    ("cover", ["domain", "cover-compare", "--ext", "x"], "'x'"),
    ("unramified_family", ["domain", "member", "--point", "garbage"],
     "--point"),
    ("unramified_family", ["domain", "member"], "--point"),
    ("unramified_family", ["family", "audit", "--name", "x"], "'x'"),
    ("unramified_family", ["pseudorep", "check", "--name", "x"], "'x'"),
    ("iso_pair", ["lattice", "iso", "--left", "x"], "'x'"),
    ("iso_pair", ["lattice", "iso", "--left", "A", "--right", "x"], "'x'"),
    ("iso_pair", ["lattice", "carayol", "--right", "x"], "'x'"),
    ("iso_pair", ["lattice", "reduce", "--left", "x"], "'x'"),
    ("iso_pair", ["lattice", "stabilize", "--left", "x"], "'x'"),
    ("s3_standard", ["lattice", "semisimplify", "--left", "x"], "'x'"),
    ("s3_standard", ["lattice", "iso", "--left", "S"], "exactly two rep"),
    ("s3_standard", ["lattice", "carayol", "--right", "S"], "exactly two rep"),
    ("unramified_family", ["family", "audit", "--name", "x"],
     "no family block named 'x'"),
    ("iso_pair", ["family", "audit"], "exactly one family block"),
    ("unramified_family", ["domain", "member", "--point", "T:0,T:5"],
     "--point names variable 'T' twice"),
    ("unramified_family", ["domain", "member", "--point", "T : 25, X : 3"],
     "--point: point names 'X', which is not a variable of the model"),
])
def test_unknown_block_name_or_bad_point_is_usage_error(capsys, spec, argv,
                                                        needle):
    """A name that no block of the spec declares, or a --point part without
    ':', or a --point that names a variable twice or one its model lacks,
    exits 3 with a one-line JSON error naming it, not a traceback."""
    code = main(["--spec", str(SPECS / f"{spec}.spec")] + argv)
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert needle in json.loads(lines[0])["error"]


# B is A conjugated by [[1, 1], [0, 1]]: residually absolutely irreducible
# and isomorphic, so both reports carry an intertwiner, which depends on the
# order of the pair
CONJUGATE_PAIR_SPEC = """
[context base]
p = 5
precision = 8

[rep A]
context = base
group = free 2
dim = 2
matrix g1 = 1 , 1 ; 0 , 1
matrix g2 = 1 , 0 ; 1 , 1

[rep B]
context = base
group = free 2
dim = 2
matrix g1 = 1 , 1 ; 0 , 1
matrix g2 = 2 , -1 ; 1 , 0
"""


@pytest.mark.parametrize("argv", [["lattice", "iso", "--m", "2"],
                                  ["lattice", "carayol", "--n", "2"]])
@pytest.mark.parametrize("lone,order", [
    (["--left", "A"], "AB"),
    (["--left", "B"], "BA"),
    (["--right", "A"], "BA"),
    (["--right", "B"], "AB"),
])
def test_a_lone_name_pairs_with_the_other_rep_block(capsys, tmp_path, argv,
                                                    lone, order):
    """A lone --left or --right keeps its side; the other side is the
    spec's other rep block."""
    spec = tmp_path / "pair.spec"
    spec.write_text(CONJUGATE_PAIR_SPEC)
    out = {}
    for key, names in (("lone", lone), ("AB", ["--left", "A", "--right", "B"]),
                       ("BA", ["--left", "B", "--right", "A"])):
        code = main(["--spec", str(spec)] + argv + names)
        out[key] = code, capsys.readouterr().out
    assert out["AB"][0] == out["BA"][0] == 0
    assert out["AB"] != out["BA"]
    assert out["lone"] == out[order]


def test_unknown_name_error_lists_the_declared_blocks(capsys):
    code = main(["--spec", ISO_SPEC, "lattice", "reduce", "--left", "C"])
    err = json.loads(capsys.readouterr().err)["error"]
    assert code == 3
    assert err == "no rep block named 'C' (declared: A, B)"


def test_missing_spec_is_usage_error(capsys):
    code = main(["domain", "describe"])
    capsys.readouterr()
    assert code == 3
    code = main(["--spec", "/nonexistent.spec", "domain", "describe"])
    capsys.readouterr()
    assert code == 3


@pytest.mark.parametrize("argv", [
    ["--spec", "{dir}", "domain", "describe"],
    ["--spec", "{latin1}", "domain", "describe"],
    ["--json", "{dir}", "bounds", "gamma"],
    ["--spec", FAMILY_SPEC, "--precision", "2", "--json", "{dir}",
     "domain", "sample"],
], ids=["spec-is-a-directory", "spec-not-utf8", "json-is-a-directory",
        "json-is-a-directory-inconclusive"])
def test_unreadable_input_is_usage_error(capsys, tmp_path, argv):
    """A spec that cannot be read as UTF-8 text, or a --json file that cannot
    be written (also after an inconclusive verdict), exits 3 with one JSON
    error line, not 1 (a falsification) with a traceback."""
    latin1 = tmp_path / "latin1.spec"
    latin1.write_bytes(pathlib.Path(FAMILY_SPEC).read_bytes()
                       + "# résumé\n".encode("latin-1"))
    code = main([a.format(dir=tmp_path, latin1=latin1) for a in argv])
    err = capsys.readouterr().err.splitlines()
    assert code == 3 and len(err) == 1
    message = json.loads(err[0])["error"]
    assert ("not UTF-8" if "latin1" in argv[1] else "Is a directory") in message


def test_bad_subcommand_is_usage_error(capsys):
    code = main(["bounds", "frobnicate"])
    capsys.readouterr()
    assert code == 3


def test_report_bytes_are_stable(capsys):
    a = main(["--spec", FAMILY_SPEC, "--seed", "9", "family", "audit"])
    out1 = capsys.readouterr().out
    b = main(["--spec", FAMILY_SPEC, "--seed", "9", "family", "audit"])
    out2 = capsys.readouterr().out
    assert a == b == 0
    assert out1 == out2


def test_single_thread_flag_is_gone(capsys):
    """loccon runs in one thread with no option to say so."""
    assert main(["--single-thread", "bounds", "gamma"]) == 3
    assert capsys.readouterr().out == ""


# The README examples, the annulus spec and cover sampling, each run with
# its exit code and the sha256 of stdout + stderr at two seeds.  A change
# to any report byte fails here; mend the digest only for a change meant
# to alter that report.
GOLDEN_COMMANDS = (
    ["bounds", "gamma", "--e", "2", "--n", "3"],
    ["bounds", "alpha", "--p", "3", "--km1", "9"],
    ["--spec", FAMILY_SPEC, "domain", "describe"],
    ["--spec", FAMILY_SPEC, "domain", "member", "--point", "T : 25"],
    ["--spec", FAMILY_SPEC, "family", "audit"],
    ["--spec", FAMILY_SPEC, "family", "check-strict", "--n", "2"],
    ["--spec", ISO_SPEC, "lattice", "iso", "--m", "2"],
    ["--spec", COVER_SPEC, "domain", "cover-compare", "--samples", "100"],
    ["phimod", "wadm", "--k", "2", "--p", "5", "--ap", "5"],
    ["phimod", "params", "--type", "sst", "--k", "4", "--p", "3"],
    ["--spec", ANNULUS_SPEC, "domain", "describe"],
    ["--spec", ANNULUS_SPEC, "domain", "member",
     "--point", "zeta1 : 26 , zeta2 : 5868765025"],
    ["--spec", ANNULUS_SPEC, "domain", "sample", "--samples", "8"],
    ["--spec", ANNULUS_SPEC, "domain", "sample", "--samples", "8",
     "--ext", "ram2"],
    ["--spec", ANNULUS_SPEC, "family", "audit"],
    ["--spec", ANNULUS_SPEC, "family", "check-strict"],
    ["--spec", COVER_SPEC, "domain", "describe"],
    ["--spec", COVER_SPEC, "domain", "sample", "--samples", "8"],
    ["--spec", S3_SPEC, "pseudorep", "mf"],
    ["--spec", S3_SPEC, "lattice", "semisimplify"],
    ["--spec", FAMILY_SPEC, "pseudorep", "audit"],
    ["--spec", FAMILY_SPEC, "family", "trace-algebra", "--n", "2"],
    ["--spec", ANNULUS_SPEC, "family", "check-strict", "--n", "3"],
)

GOLDEN = {
    ("1", 0): (0, "b487ae5455b48d867efc748c331ff3c695b705f25c909dd5e08931db1456243d"),
    ("1", 1): (0, "b8b430162440e4de9ebcd0edc639e52674bfd64b6bfae944982c106869d6b075"),
    ("1", 2): (0, "e4a976f00bdf0b7df4a7b082dc951390b89f08aabddcedafc3de8f66bd3676b3"),
    ("1", 3): (0, "ebf6743c49f8de0b79d1e262be51faf171a12f9b32930caf63cb095aede8b72f"),
    ("1", 4): (0, "79ee36a222919f5509e4dd17b0fe7b3d7bcd4b6a099c58a39db61c9bddeabbdb"),
    ("1", 5): (1, "518dc1d0409339d4a9718bd484663b194e0284cff6fcf61a26a226524ec5d607"),
    ("1", 6): (1, "711a06a85237ff1b687c2d2e03d59842022d2be5e7afdbc5a56434ecf7f06a75"),
    ("1", 7): (0, "10dfade578d8db250f80db952931ec11cf9ea583a60d5d1d3bc62ab1993f4a9a"),
    ("1", 8): (0, "c6ac5f6b5d6f1a2ccdb013b49fbc8d7ccf3a965bf52418e80de0b637b7decdcd"),
    ("1", 9): (0, "34adb49030fea8a020cfa20c510a7e611eb5cff9681f9b53f8748450fcfa32a1"),
    ("1", 10): (0, "491e71fd0b4a3aea3b9d431376bfcf4cdbcf4ba200b3c8dcaae433b84b632f36"),
    ("1", 11): (0, "ebf6743c49f8de0b79d1e262be51faf171a12f9b32930caf63cb095aede8b72f"),
    ("1", 12): (0, "1c9505498f0d5ceb38d9c31c282ecfe7835a5ed65e9bbdb697b5c64f422bf7fa"),
    ("1", 13): (0, "8406428953404cb4a2c0aee59cd1679e84f7f5c40c7c2f5adb3808bd1714ed2b"),
    ("1", 14): (0, "85727b7858cde22196b6603c7637a2036edb0bd730dc2d9c79b78271b70d1615"),
    ("1", 15): (0, "80ec9da0304bf6adae6d0ff216e573d6d2dccdb141f33602744f9fff2924ce7d"),
    ("1", 16): (0, "7d4b873053b9379c4a5c6a83530cab41adaac3ea04668a809911cee926b5fb8e"),
    ("1", 17): (0, "bd718f2097e40ddcbdeeec0af54f3d257d6209fa988b6b91c8533be438290c69"),
    ("1", 18): (0, "1d5f5974e36a7a9fdecef589e1c5c087dda2b4c3fe33c4752dd4d24a8fe7a7f6"),
    ("1", 19): (0, "6d2a26764f959c10f62f4e79fb9d7fa50b68c77ef16712cb3c3bddd213658594"),
    ("1", 20): (0, "2a81e39b64a454243542cb37896f9b5d696bc2f83624289a7397b97dc2c618b5"),
    ("1", 21): (0, "7d82864bad53dc1560c78c1bf84dfd527527737394c9b08682e996a97d3152d1"),
    ("1", 22): (0, "5a215c8a3fa25539592459dff9f171cfbde89df90b7019d8231907935904b73f"),
    ("1001", 0): (0, "b487ae5455b48d867efc748c331ff3c695b705f25c909dd5e08931db1456243d"),
    ("1001", 1): (0, "b8b430162440e4de9ebcd0edc639e52674bfd64b6bfae944982c106869d6b075"),
    ("1001", 2): (0, "e4a976f00bdf0b7df4a7b082dc951390b89f08aabddcedafc3de8f66bd3676b3"),
    ("1001", 3): (0, "ebf6743c49f8de0b79d1e262be51faf171a12f9b32930caf63cb095aede8b72f"),
    ("1001", 4): (0, "79ee36a222919f5509e4dd17b0fe7b3d7bcd4b6a099c58a39db61c9bddeabbdb"),
    ("1001", 5): (1, "518dc1d0409339d4a9718bd484663b194e0284cff6fcf61a26a226524ec5d607"),
    ("1001", 6): (1, "711a06a85237ff1b687c2d2e03d59842022d2be5e7afdbc5a56434ecf7f06a75"),
    ("1001", 7): (0, "10dfade578d8db250f80db952931ec11cf9ea583a60d5d1d3bc62ab1993f4a9a"),
    ("1001", 8): (0, "c6ac5f6b5d6f1a2ccdb013b49fbc8d7ccf3a965bf52418e80de0b637b7decdcd"),
    ("1001", 9): (0, "34adb49030fea8a020cfa20c510a7e611eb5cff9681f9b53f8748450fcfa32a1"),
    ("1001", 10): (0, "491e71fd0b4a3aea3b9d431376bfcf4cdbcf4ba200b3c8dcaae433b84b632f36"),
    ("1001", 11): (0, "ebf6743c49f8de0b79d1e262be51faf171a12f9b32930caf63cb095aede8b72f"),
    ("1001", 12): (0, "99f45aeb4dea82928134bc48f6eaf3b01c35ca4ff73686ddb912019664ca2f2a"),
    ("1001", 13): (0, "0acf184a1aeaa7a74cf79588a83b047784d5ee5aef0fea2e981903787c5224ab"),
    ("1001", 14): (0, "85727b7858cde22196b6603c7637a2036edb0bd730dc2d9c79b78271b70d1615"),
    ("1001", 15): (0, "80ec9da0304bf6adae6d0ff216e573d6d2dccdb141f33602744f9fff2924ce7d"),
    ("1001", 16): (0, "7d4b873053b9379c4a5c6a83530cab41adaac3ea04668a809911cee926b5fb8e"),
    ("1001", 17): (0, "25faacb0e4205eeceb0f9b2d3263c23bc898f6aa6ee476268c763b385a29e5fe"),
    ("1001", 18): (0, "1d5f5974e36a7a9fdecef589e1c5c087dda2b4c3fe33c4752dd4d24a8fe7a7f6"),
    ("1001", 19): (0, "6d2a26764f959c10f62f4e79fb9d7fa50b68c77ef16712cb3c3bddd213658594"),
    ("1001", 20): (0, "2a81e39b64a454243542cb37896f9b5d696bc2f83624289a7397b97dc2c618b5"),
    ("1001", 21): (0, "7d82864bad53dc1560c78c1bf84dfd527527737394c9b08682e996a97d3152d1"),
    ("1001", 22): (0, "5a215c8a3fa25539592459dff9f171cfbde89df90b7019d8231907935904b73f"),
}


def _golden_run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    digest = hashlib.sha256(
        (out.getvalue() + err.getvalue()).encode("utf-8")).hexdigest()
    return code, digest


@pytest.mark.parametrize("seed", ["1", "1001"])
@pytest.mark.parametrize("index", range(len(GOLDEN_COMMANDS)))
def test_report_bytes_match_golden(seed, index):
    argv = ["--seed", seed] + GOLDEN_COMMANDS[index]
    assert _golden_run(argv) == GOLDEN[seed, index]


@pytest.mark.parametrize("seed", ["1", "1001"])
@pytest.mark.parametrize("index", [i for i, argv in enumerate(GOLDEN_COMMANDS)
                                   if "--spec" in argv])
def test_printed_spec_gives_the_golden_report(tmp_path, seed, index):
    """Each golden command run on the printed form of its spec gives the
    golden exit code and report bytes."""
    argv = list(GOLDEN_COMMANDS[index])
    at = argv.index("--spec") + 1
    printed = tmp_path / "printed.spec"
    printed.write_text(print_spec(load_spec(argv[at])), encoding="utf-8")
    argv[at] = str(printed)
    assert _golden_run(["--seed", seed] + argv) == GOLDEN[seed, index]


# sha256 of stdout + stderr of the phimod module builds, taken from the
# separate build-crys and build-sst ops that "build --type" replaces
PHIMOD_BUILDS = [
    (["--k", "2", "--p", "5", "--ap", "5"],
     "72561a0a3b8f70a4cf3c979eda718fa5fdaa1963b94aa3ec193ccc6e45cde38f"),
    (["--type", "crys", "--k", "4", "--p", "3", "--ap", "3"],
     "c9aa71389bd8a297b78e60d5b2c1e8f507c63c7d9b85f8b616329feae98c58e3"),
    (["--type", "crys", "--k", "3", "--p", "5", "--ap", "0"],
     "58310b7a74c1695da2dd11bf40c806626ac8bcb45e0e849b4acdf46c25bb7a80"),
    (["--type", "sst", "--k", "4", "--p", "3"],
     "3ae49dfecd670ddb0e445e42585d9f1f2c7116517b4aa6ac2ee7beee885a1dc7"),
    (["--type", "sst", "--k", "4", "--p", "5", "--L", "inf"],
     "457928a481c5792511309c6addb52b787f747963d8a2f90d4376e3b3f31a76c7"),
    (["--type", "sst", "--k", "6", "--p", "5", "--L", "7"],
     "5ea804c05c26596a3e55c5b609852715ad177895b42e52c475e30c46e25b7ae2"),
]


@pytest.mark.parametrize("argv,digest", PHIMOD_BUILDS)
def test_phimod_build_reads_the_type(argv, digest):
    assert _golden_run(["phimod", "build"] + argv) == (0, digest)


@pytest.mark.parametrize("op,argv", [
    ("build-crys", ["--k", "2", "--p", "5", "--ap", "5"]),
    ("build-sst", ["--k", "4", "--p", "3"]),
])
def test_phimod_build_ops_by_type_name_are_gone(capsys, op, argv):
    assert main(["phimod", op] + argv) == 3
    assert capsys.readouterr().out == ""


def test_cover_compare_report_does_not_depend_on_the_seed():
    argv = ["--spec", COVER_SPEC, "domain", "cover-compare"]
    assert _golden_run(["--seed", "1"] + argv) == \
        _golden_run(["--seed", "1001"] + argv)


def test_cover_compare_off_center_on_bounded_variables(capsys, tmp_path):
    """Y^2 = T over Z_3 with Y and T bounded, centered at (1, 1): a point
    off the ramification center, where nothing is certified."""
    spec = tmp_path / "bounded.spec"
    spec.write_text(COVER_TEMPLATE.format(p=3, rhs="1*T")
                    .replace("open = Y T", "bounded = Y T")
                    .replace("Y : 0 , T : 0", "Y : 1 , T : 1"))
    code, rep = run(capsys, "--spec", str(spec), "domain", "cover-compare")
    assert code == 0 and rep["verdict"] == "pass"
    assert rep["preimage_equality"]["n0"] is None
    assert rep["preimage_equality"]["certificate"] is None
