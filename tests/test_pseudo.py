"""Dimension-2 pseudorepresentations: axioms, kernels, multiplicity-freeness."""

import functools

import pytest

from loccon.groups import cyclic_group, dihedral_group, free_group, symmetric_group
from loccon.padic import DomainError, PadicContext
from loccon.pseudo import PseudoRep2, _decompose_trace, from_rep_trace
from loccon.specfile import _parse_word
from tests.test_lattice import s3_standard_rep

Z5 = PadicContext(5, precision=12)
Z3 = PadicContext(3, precision=12)
W25 = PadicContext(5, f=2, precision=6)
RAM7 = PadicContext(7, e=2, precision=8)


def doubled_trivial(group, ctx):
    """T(g) = 2 for all g: the sum of two trivial characters."""
    return PseudoRep2(group, {el: ctx.from_int(2) for el in group.elements()},
                      ctx)


def character_sum(group, ctx, chars):
    vals = {}
    for el, w in group.element_words().items():
        acc = ctx.zero()
        for chi in chars:
            term = ctx.one()
            for gi, sign in w:
                c = chi[gi] if sign > 0 else chi[gi].inverse()
                term = term * c
            acc = acc + term
        vals[el] = acc
    return PseudoRep2(group, vals, ctx)


def test_p2_refused():
    z2 = PadicContext(2, precision=8)
    with pytest.raises(DomainError):
        doubled_trivial(cyclic_group(2), z2)


def test_axioms_on_trace_of_a_representation():
    ps = from_rep_trace(s3_standard_rep(Z5))
    rep = ps.axiom_check()
    assert rep["verdict"] == "pass"
    assert rep["violations"] == []


def test_axioms_on_free_group_trace():
    from loccon.lattice import IntegralRep
    rep = IntegralRep(free_group(1), 2, Z5,
                      {"g1": [[Z5.from_int(2), Z5.one()],
                              [Z5.one(), Z5.one()]]})
    ps = from_rep_trace(rep, word_cap=4)
    assert ps.axiom_check()["verdict"] == "pass"


def s4_through_s3_rep(ctx):
    """The 2-dimensional irreducible of S_4, through its action on the
    three ways to split {0, 1, 2, 3} into two pairs."""
    from loccon.lattice import IntegralRep
    group = symmetric_group(4)
    splits = [((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))]
    key = [frozenset(map(frozenset, s)) for s in splits]
    images = {}
    for name, perm in zip(group.generators, ((1, 0, 2, 3), (1, 2, 3, 0))):
        sigma = [key.index(frozenset(frozenset(perm[i] for i in pair)
                                     for pair in s)) for s in splits]
        # sigma on the sum-zero plane, basis v_i = e_i - e_2 (v_2 = 0):
        # column i is v_sigma(i) - v_sigma(2)
        M = [[0, 0], [0, 0]]
        for i in range(2):
            for j, sign in ((sigma[i], 1), (sigma[2], -1)):
                if j < 2:
                    M[j][i] += sign
        images[name] = [[ctx.from_int(x) for x in row] for row in M]
    return IntegralRep(group, 2, ctx, images)


def test_axiom_check_covers_every_pair_of_a_finite_group():
    """On S_4 every one of the 24^2 pairs is checked and none skipped."""
    rep = from_rep_trace(s4_through_s3_rep(Z5)).axiom_check()
    assert rep["verdict"] == "pass"
    assert rep["pairs_checked"] == 24 ** 2 and rep["pairs_skipped"] == 0
    assert "word_length" not in rep


def test_axiom_violation_detected():
    g = cyclic_group(3)
    vals = {el: Z5.from_int(2) for el in g.elements()}
    vals[1] = Z5.from_int(3)  # breaks the d = 2 identity
    ps = PseudoRep2(g, vals, Z5)
    assert ps.axiom_check()["verdict"] == "fail"
    vals[0] = Z5.from_int(1)  # T(1) = 1
    rep = PseudoRep2(g, vals, Z5).axiom_check()
    assert rep["violations"] == [{"axiom": "T(1)=2"}]


def test_determinant_of_doubled_trivial_is_one():
    ps = doubled_trivial(symmetric_group(3), Z5)
    for el in ps.group.elements():
        d = ps.determinant(el)
        assert (d - Z5.one()).pi_valuation() is None


@pytest.mark.parametrize("group", [cyclic_group(4), symmetric_group(3),
                                   dihedral_group(6), cyclic_group(12)])
def test_doubled_trivial_kernel_is_augmentation(group):
    """Null space of B(x,y) = T(xy) for T = 2*triv: sum-zero vectors."""
    ps = doubled_trivial(group, Z5)
    gens = ps.kernel(2)
    assert len(gens) == group.order - 1
    for vec, s in gens:
        assert s == 0
        total = Z5.zero()
        for x in vec:
            total = total + x
        v = total.pi_valuation()
        assert v is None or v >= 2


def test_irreducible_trace_kernel_corank():
    # for the 2-dim irreducible of S_3 the trace form has corank 4
    ps = from_rep_trace(s3_standard_rep(Z5))
    gens = ps.kernel(2)
    assert len(gens) == ps.group.order - 4


# -- multiplicity-freeness ---------------------------------------------------


def test_s3_trivial_plus_sign_is_multiplicity_free():
    s3 = symmetric_group(3)
    triv = (Z5.one(), Z5.one())
    sign = (Z5.from_int(-1), Z5.one())  # -1 on the transposition
    ps = character_sum(s3, Z5, [triv, sign])
    out = ps.residually_multiplicity_free()
    assert out["verdict"] == "multiplicity_free"
    assert out["complete"]


def test_c4_distinct_characters_multiplicity_free():
    c4 = cyclic_group(4)
    i1 = Z5.teichmuller(2)  # a primitive 4th root of unity in Z_5
    i2 = Z5.teichmuller(3)
    ps = character_sum(c4, Z5, [(i1,), (i2,)])
    assert ps.residually_multiplicity_free()["verdict"] == "multiplicity_free"


def test_c4_repeated_character_not_multiplicity_free():
    c4 = cyclic_group(4)
    i1 = Z5.teichmuller(2)
    ps = character_sum(c4, Z5, [(i1,), (i1,)])
    out = ps.residually_multiplicity_free()
    assert out["verdict"] == "not_multiplicity_free"


def test_doubled_trivial_not_multiplicity_free():
    ps = doubled_trivial(cyclic_group(3), Z5)
    assert ps.residually_multiplicity_free()["verdict"] == "not_multiplicity_free"


def d6_standard_trace():
    """The trace of the faithful 2-dimensional irreducible of D_6 over Z_5,
    which stays irreducible mod 5."""
    from loccon.lattice import IntegralRep
    rep = IntegralRep(dihedral_group(6), 2, Z5, {
        "r": [[Z5.zero(), Z5.from_int(-1)], [Z5.one(), Z5.one()]],
        "f": [[Z5.zero(), Z5.one()], [Z5.one(), Z5.zero()]],
    })
    return from_rep_trace(rep)


def test_dihedral_order_12_regular_representation():
    """The check decomposes the 12-dimensional regular representation of
    D_6 over F_5, and finds T = the D_6 standard trace once in it."""
    out = d6_standard_trace().residually_multiplicity_free()
    assert out["complete"]
    assert sorted(f["dim"] for f in out["factors"]) == [1, 1, 1, 1, 2, 2]
    assert out["verdict"] == "multiplicity_free"
    assert sorted(out["multiplicities"]) == [0, 0, 0, 0, 0, 1]


def _word_element(group, word):
    """The element of a finite group that a word of positive letters names."""
    return functools.reduce(group.multiply,
                            [group.gen_elements[gi] for gi, _ in word],
                            group.identity)


def reference_multiplicity_free(ps, seed=0):
    """The O_E route that the F_q route replaced: the regular representation
    as permutation matrices over O_E in an IntegralRep, reduced mod pi, with
    factor traces read back through ``from_coords``.  Its factors are
    labeled on the report's words, and T is read on the elements they name,
    returned as "elements"."""
    from loccon.lattice import IntegralRep, reduce_rep_mod, semisimplify_mod_p
    ctx, group = ps.base, ps.group
    n = group.order
    imgs = {}
    for gi, gel in enumerate(group.gen_elements):
        M = [[ctx.zero()] * n for _ in range(n)]
        for x in group.elements():
            M[group.multiply(gel, x)][x] = ctx.one()
        imgs[group.generators[gi]] = M
    reg = IntegralRep(group, n, ctx, imgs)
    ss = semisimplify_mod_p(reduce_rep_mod(reg, 1), seed=seed)
    elements = [_word_element(group, _parse_word(text.split(), group, None))
                for text in ss["words"]]
    uniq = []
    for f in ss["factors"]:
        if f not in uniq:
            uniq.append(f)
    F = ctx.residue_field
    tbar = [F.of(ps.value(el)) for el in elements]
    traces = [[F.of(ctx.from_coords(list(t), precision=1)) for t in f["traces"]]
              for f in uniq]
    verdict = _decompose_trace(tbar, [f["dim"] for f in uniq], traces, F)
    out = {"complete": ss["complete"], "factors": uniq, "elements": elements}
    if verdict is None:
        out["verdict"] = "no_decomposition"
    else:
        out["multiplicities"] = verdict
        if all(c <= 1 for c in verdict):
            out["verdict"] = "multiplicity_free"
        else:
            out["verdict"] = "not_multiplicity_free"
            out["repeated_factor"] = verdict.index(max(verdict))
    return out


def _by_factor(report, keep):
    """A multiplicity-free report keyed by its factors, each as (dim,
    traces at the positions ``keep``), so that two reports whose factors
    are labeled on different words compare."""
    factors = [(f["dim"], tuple(f["traces"][i] for i in keep))
               for f in report["factors"]]
    mult = report.get("multiplicities")
    repeated = report.get("repeated_factor")
    return (report["complete"], report["verdict"], sorted(factors),
            None if mult is None else dict(zip(factors, mult)),
            None if repeated is None else factors[repeated])


@pytest.mark.parametrize("ps", [
    *(doubled_trivial(group, ctx)
      for group in (cyclic_group(3), symmetric_group(3), dihedral_group(6))
      for ctx in (Z5, Z3, W25, RAM7)),
    d6_standard_trace(),
], ids=[f"{g}-{c}" for g in ("C3", "S3", "D6")
        for c in ("Z5", "Z3", "W25", "ram7")] + ["D6-standard"])
def test_multiplicity_free_matches_regular_representation_over_O_E(ps):
    """The check labels factors on every element, the reference on the
    spin words of the regular representation: restricted to the elements
    those words name, the factors, multiplicities and verdict agree."""
    out = ps.residually_multiplicity_free(seed=1)
    assert out["complete"]
    ref = reference_multiplicity_free(ps, seed=1)
    elements = list(ps.group.element_words())
    keep = [elements.index(el) for el in ref["elements"]]
    assert _by_factor(out, keep) == _by_factor(ref, range(len(keep)))


def test_s4_regular_representation_over_F5():
    out = doubled_trivial(symmetric_group(4), Z5).residually_multiplicity_free()
    assert out["complete"]
    assert [f["dim"] for f in out["factors"]] == [1, 1, 2, 3, 3]
    assert out["verdict"] == "not_multiplicity_free"


def test_unproven_factor_is_inconclusive():
    """Over F_25 every simple F_25[S_4]-module has dimension <= 3, so a
    larger factor is one the random submodule search failed to split: the
    verdict is inconclusive and names it, with no decomposition."""
    out = doubled_trivial(symmetric_group(4), W25).residually_multiplicity_free()
    assert not out["complete"] and out["verdict"] == "inconclusive"
    assert out["unproven"] and all(d > 3 for d in out["unproven"])
    assert all(str(d) in out["reason"] for d in out["unproven"])
    assert "multiplicities" not in out


# -- constancy over algebras -------------------------------------------------


def test_family_trace_constancy_audit():
    from loccon.domains import describe
    from tests.test_families import DISC, ORIGIN, unramified_family
    ps = from_rep_trace(unramified_family(), word_cap=2)
    dom = describe(DISC, ORIGIN, 2, "U")
    base = DISC.base
    rep = ps.constancy_audit(dom, 2, [base], 6, seed=0)
    assert rep["verdict"] == "pass"


def _per_value_audits(ps, domain, n, extensions, samples_per_ext, seed):
    """Reference: each value audited on its own, drawing its own points and
    evaluating each as a dict of coordinates, as {str(key): report}."""
    from loccon.padic import embed, gamma_exponent, relative_ramification
    reports = {}
    for key, val in ps.values.items():
        report = {"n": n, "verdict": "pass", "witnesses": [], "extensions": []}
        for idx, ext in enumerate(extensions):
            e_rel = relative_ramification(val.model.base, ext)
            g = gamma_exponent(e_rel, n)
            center = {v: embed(c, ext) for v, c in domain.center.coords.items()}
            ref = val.evaluate(center).reduce_mod(g)
            entry = {"e_rel": e_rel, "gamma": g, "samples": 0, "failures": 0}
            for pt in domain.sample(ext, samples_per_ext, seed=seed + idx):
                got = val.evaluate(dict(pt.coords)).reduce_mod(g)
                entry["samples"] += 1
                if got.coords != ref.coords:
                    entry["failures"] += 1
                    report["verdict"] = "fail"
                    report["witnesses"].append({
                        "extension_index": idx,
                        "point": {v: list(c.coords) for v, c in pt.coords.items()},
                        "value": list(got.coords),
                        "center_value": list(ref.coords),
                    })
            report["extensions"].append(entry)
        reports[str(key)] = report
    return reports


@pytest.mark.parametrize("name", ["unramified_family", "annulus"])
@pytest.mark.parametrize("seed,deeper", [(0, 0), (1001, 0), (0, 2)])
def test_constancy_audit_matches_the_per_value_audits(name, seed, deeper,
                                                      monkeypatch):
    """One draw of points per extension gives each value the report it gets
    when audited on its own, on the spec's pseudorep (the unramified family)
    and on the traces of the annulus spec's family; audited two depths
    deeper than the domain, the values fail with the same witnesses."""
    import pathlib
    from loccon.domains import ResidueDomain
    from loccon.specfile import load_spec
    path = pathlib.Path(__file__).resolve().parent.parent / "specs" / f"{name}.spec"
    spec = load_spec(str(path))
    ps = (spec.sole("pseudoreps") if spec.pseudoreps
          else from_rep_trace(spec.sole("families"), word_cap=2))
    dom, exts = spec.sole("domains"), spec.extensions()
    n, samples = spec.params["n"] + deeper, spec.params["samples"]
    draws = []
    sample = ResidueDomain.sample

    def counted(self, *args, **kwargs):
        draws.append(args[0])
        return sample(self, *args, **kwargs)
    monkeypatch.setattr(ResidueDomain, "sample", counted)
    rep = ps.constancy_audit(dom, n, exts, samples, seed=seed)
    assert draws == exts
    monkeypatch.undo()
    want = _per_value_audits(ps, dom, n, exts, samples, seed)
    assert len(want) > 1 and rep["per_value"] == want
    assert rep["verdict"] == ("fail" if deeper else "pass")
