"""Dimension-2 pseudorepresentations: axioms, kernels, multiplicity-freeness."""

import functools
import itertools
import time

import pytest

from loccon.groups import cyclic_group, dihedral_group, free_group, symmetric_group
from loccon.padic import DomainError, PadicContext
from loccon.pseudo import PseudoRep2, from_rep_trace
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


def _pair(ps, witness):
    """The elements that a report's witness pair of words names."""
    return [_word_element(ps.group, _parse_word(text.split(), ps.group, None))
            for text in witness]


def _chi(ps):
    """chi = T/2 mod pi, as a function of group elements."""
    F = ps.base.residue_field
    half = F.inv(F.add(F.one, F.one))
    return lambda x: F.mul(half, F.of(ps.value(x)))


def _chi_splits_at(ps, out):
    """Whether chi = T/2 mod pi is not multiplicative at the witness pair."""
    g, h = _pair(ps, out["witness"])
    chi, mul = _chi(ps), ps.base.residue_field.mul
    return chi(ps.group.multiply(g, h)) != mul(chi(g), chi(h))


def _character_matches(ps, out):
    """The report's character is T/2 mod pi on every generator."""
    chi, F = _chi(ps), ps.base.residue_field
    return out["character"] == {
        name: F.lift(chi(x)).coords
        for name, x in zip(ps.group.generators, ps.group.gen_elements)}


def test_s3_trivial_plus_sign_is_multiplicity_free():
    s3 = symmetric_group(3)
    triv = (Z5.one(), Z5.one())
    sign = (Z5.from_int(-1), Z5.one())  # -1 on the transposition
    ps = character_sum(s3, Z5, [triv, sign])
    out = ps.residually_multiplicity_free()
    assert out["verdict"] == "multiplicity_free"
    assert _chi_splits_at(ps, out)


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
    assert out["character"] == {"g": (2,)}


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
    """The D_6 standard trace is irreducible mod 5, so T/2 mod 5 is no
    character: the witness pair shows it, and the reference finds T once
    among the factors of the regular representation over F_5."""
    ps = d6_standard_trace()
    out = ps.residually_multiplicity_free()
    assert out["verdict"] == "multiplicity_free"
    assert _chi_splits_at(ps, out)
    ref = reference_multiplicity_free(ps)
    assert sorted(f["dim"] for f in ref["factors"]) == [1, 1, 1, 1, 2, 2]
    assert sorted(ref["multiplicities"]) == [0, 0, 0, 0, 0, 1]


def _word_element(group, word):
    """The element of a finite group that a word names."""
    return functools.reduce(group.multiply, [
        group.gen_elements[gi] if sign > 0
        else group.inverse_element(group.gen_elements[gi])
        for gi, sign in word], group.identity)


@functools.lru_cache(maxsize=None)
def _regular_factors(group, ctx, seed):
    """The composition factors mod pi of the regular representation as
    permutation matrices over O_E in an IntegralRep: the elements its spin
    words name, and each distinct factor as (dim, F_q traces on those
    elements).  The regular representation is faithful on F_q[G], so the
    spin names every element."""
    from loccon.lattice import IntegralRep, reduce_rep_mod, semisimplify_mod_p
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
    F = ctx.residue_field
    uniq = []
    for f in ss["factors"]:
        factor = (f["dim"], [F.of(ctx.from_coords(list(t), precision=1))
                             for t in f["traces"]])
        if factor not in uniq:
            uniq.append(factor)
    return elements, uniq, ss["complete"]


def reference_multiplicity_free(ps, seed=0):
    """The decomposition route that the decision replaced: T mod pi as a
    non-negative combination of the traces of the composition factors of
    the regular representation over O_E, reduced mod pi."""
    elements, factors, complete = _regular_factors(ps.group, ps.base, seed)
    F = ps.base.residue_field
    tbar = [F.of(ps.value(el)) for el in elements]
    mult = _decompose_trace(tbar, [d for d, _ in factors],
                            [tr for _, tr in factors], F)
    out = {"complete": complete, "factors": [{"dim": d} for d, _ in factors]}
    if mult is None:
        out["verdict"] = "no_decomposition"
    else:
        out["multiplicities"] = mult
        out["verdict"] = ("multiplicity_free" if max(mult) <= 1
                          else "not_multiplicity_free")
    return out


def _decompose_trace(tbar, dims, traces, F):
    """Non-negative integer combination of the factor traces (over the
    residue field F) equal to tbar with total dimension 2, by exhaustive
    search (d = 2 only)."""
    for combo in itertools.product(range(3), repeat=len(dims)):
        if sum(c * d for c, d in zip(dims, combo)) != 2:
            continue
        ok = True
        for pos, want in enumerate(tbar):
            acc = 0
            for c, tr in zip(combo, traces):
                for _ in range(c):
                    acc = F.add(acc, tr[pos])
            if acc != want:
                ok = False
                break
        if ok:
            return list(combo)
    return None


def _agrees_with_reference(ps):
    ref = reference_multiplicity_free(ps, seed=1)
    assert ref["complete"]
    return ps.residually_multiplicity_free()["verdict"] == ref["verdict"]


@pytest.mark.parametrize("ps", [
    *(doubled_trivial(group, ctx)
      for group in (cyclic_group(3), symmetric_group(3), dihedral_group(6))
      for ctx in (Z5, Z3, W25, RAM7)),
    d6_standard_trace(),
], ids=[f"{g}-{c}" for g in ("C3", "S3", "D6")
        for c in ("Z5", "Z3", "W25", "ram7")] + ["D6-standard"])
def test_multiplicity_free_matches_regular_representation_over_O_E(ps):
    """The decision gives the verdict of the decomposition of the regular
    representation."""
    assert _agrees_with_reference(ps)


SMALL = (PadicContext(3, precision=2), PadicContext(5, precision=2),
         PadicContext(3, f=2, precision=2))


def _table(group, ctx, values):
    """The pseudorepresentation with the lifts of the residues ``values``,
    one per element in ``elements`` order."""
    F = ctx.residue_field
    return PseudoRep2(group, {x: F.lift(v) for x, v
                              in zip(group.elements(), values)}, ctx)


@pytest.mark.parametrize("ctx", SMALL, ids=["F3", "F5", "F9"])
@pytest.mark.parametrize("group", [
    *(cyclic_group(n) for n in range(2, 9)),
    dihedral_group(3), dihedral_group(4), symmetric_group(3),
], ids=[f"C{n}" for n in range(2, 9)] + ["D3", "D4", "S3"])
def test_every_rational_2_dimensional_trace_matches_the_reference(group, ctx):
    """Each F_q-rational 2-dimensional trace, that is each 2-dimensional
    factor of the regular representation and each sum of two linear ones,
    gets the reference's verdict, and none is refused."""
    elements, factors, _ = _regular_factors(group, ctx, 1)
    F = ctx.residue_field
    at = [elements.index(x) for x in group.elements()]
    linear = [tr for d, tr in factors if d == 1]
    traces = [tr for d, tr in factors if d == 2] + [
        list(map(F.add, a, b))
        for a, b in itertools.combinations_with_replacement(linear, 2)]
    verdicts = set()
    for tr in traces:
        ps = _table(group, ctx, [tr[i] for i in at])
        assert _agrees_with_reference(ps)
        verdicts.add(ps.residually_multiplicity_free()["verdict"])
    assert "no_decomposition" not in verdicts


def _classes(group):
    """The conjugacy classes, the identity's first."""
    out = []
    for x in group.elements():
        if not any(x in c for c in out):
            out.append({group.multiply(group.multiply(g, x),
                                       group.inverse_element(g))
                        for g in group.elements()})
    return out


@pytest.mark.parametrize("ctx", SMALL[:2], ids=["F3", "F5"])
@pytest.mark.parametrize("group", [cyclic_group(4), symmetric_group(3),
                                   dihedral_group(4)], ids=["C4", "S3", "D4"])
def test_every_class_function_matches_the_reference(group, ctx):
    """Every class function with T(1) = 2 gets the reference's verdict."""
    F = ctx.residue_field
    classes = _classes(group)
    where = {x: i for i, c in enumerate(classes) for x in c}
    for rest in itertools.product(range(F.q), repeat=len(classes) - 1):
        value = (F.add(F.one, F.one), *rest)
        ps = _table(group, ctx, [value[where[x]] for x in group.elements()])
        assert _agrees_with_reference(ps)


def d4_half_linear_sum():
    """T = 2 on {1, r^2} and 0 elsewhere on D_4: half the sum of the four
    linear characters, which meets the d = 2 identity at every pair but is
    no trace."""
    group = dihedral_group(4)
    r = group.gen_elements[0]
    return group, (group.identity, group.multiply(r, r))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_a_determinant_that_is_not_multiplicative_is_no_decomposition(p):
    """The D_4 table passes the d = 2 identity, yet D(r) D(s) = 1 and
    D(rs) = -1: the decision refuses it at a pair where D is not
    multiplicative, as the reference does."""
    ctx = PadicContext(p, precision=4)
    group, centre = d4_half_linear_sum()
    ps = PseudoRep2(group, {x: ctx.from_int(2 if x in centre else 0)
                            for x in group.elements()}, ctx)
    assert ps.axiom_check()["verdict"] == "pass"
    out = ps.residually_multiplicity_free()
    assert out["verdict"] == "no_decomposition"
    assert out["certificate"] == "D(gh) = D(g) D(h) fails mod pi"
    g, h = _pair(ps, out["witness"])
    lhs = ps.determinant(group.multiply(g, h))
    assert (lhs - ps.determinant(g) * ps.determinant(h)).pi_valuation() == 0
    assert reference_multiplicity_free(ps)["verdict"] == "no_decomposition"


@pytest.mark.parametrize("group,ctx", [
    (cyclic_group(19), Z5), (cyclic_group(23), Z5), (cyclic_group(25), Z5),
    (symmetric_group(4), W25),
], ids=["C19-Z5", "C23-Z5", "C25-Z5", "S4-W25"])
def test_doubled_trivial_of_large_groups_is_decided(group, ctx):
    """The doubled trivial T of groups whose regular representation the
    random submodule search could not split, or that were past its size
    limit, is twice the trivial character."""
    ps = doubled_trivial(group, ctx)
    out = ps.residually_multiplicity_free()
    assert out["verdict"] == "not_multiplicity_free"
    assert _character_matches(ps, out)
    assert set(out["character"].values()) == {ctx.one().coords}


def test_order_120_decides_in_under_a_second():
    ps = doubled_trivial(dihedral_group(60), Z5)
    start = time.perf_counter()
    out = ps.residually_multiplicity_free()
    assert time.perf_counter() - start < 1
    assert out["verdict"] == "not_multiplicity_free"


def test_a_condition_broken_on_the_identity_or_a_pair_is_named():
    """T(1) = 1 is refused at (e, e), and a T that is not central at the
    first pair where T(gh) != T(hg)."""
    s3 = symmetric_group(3)
    vals = {x: Z5.from_int(2) for x in s3.elements()}
    ps = PseudoRep2(s3, {**vals, s3.identity: Z5.one()}, Z5)
    assert ps.residually_multiplicity_free() == {
        "verdict": "no_decomposition", "certificate": "T(1) = 2 fails mod pi",
        "witness": ["e", "e"]}
    s, c = s3.gen_elements
    ps = PseudoRep2(s3, {**vals, s3.multiply(s, c): Z5.zero()}, Z5)
    out = ps.residually_multiplicity_free()
    assert out["certificate"] == "T(gh) = T(hg) fails mod pi"
    g, h = _pair(ps, out["witness"])
    assert ps.value(s3.multiply(g, h)) != ps.value(s3.multiply(h, g))


def test_s4_regular_representation_over_F5():
    ps = doubled_trivial(symmetric_group(4), Z5)
    out = ps.residually_multiplicity_free()
    assert out["verdict"] == "not_multiplicity_free"
    assert _character_matches(ps, out)


# -- constancy over algebras -------------------------------------------------


def test_family_trace_constancy_audit():
    from loccon.domains import describe
    from tests.test_families import DISC, ORIGIN, unramified_family
    ps = from_rep_trace(unramified_family(), word_cap=2)
    dom = describe(DISC, ORIGIN, 2, "U")
    base = DISC.base
    rep = ps.constancy_audit(dom, 2, [base])
    assert rep["verdict"] == "pass"


@pytest.mark.parametrize("name", ["unramified_family", "annulus"])
@pytest.mark.parametrize("seed,deeper", [(0, 0), (1001, 0), (0, 2)])
def test_constancy_audit_matches_the_per_value_audits(name, seed, deeper):
    """The certificate agrees with a sampled audit of each value at seeded
    points over the spec's extensions and W(F_25), on the spec's pseudorep
    (the unramified family) and on the traces of the annulus spec's
    family: at the domain's depth it passes and no point differs from the
    center; two depths deeper the values do move, and it is inconclusive."""
    import pathlib
    from loccon.specfile import load_spec
    from tests.test_series import sampled_constancy
    path = pathlib.Path(__file__).resolve().parent.parent / "specs" / f"{name}.spec"
    spec = load_spec(str(path))
    ps = (spec.sole("pseudoreps") if spec.pseudoreps
          else from_rep_trace(spec.sole("families"), word_cap=2))
    dom = spec.sole("domains")
    exts = spec.extensions() + [PadicContext(5, f=2, precision=16)]
    n = spec.params["n"] + deeper
    rep = ps.constancy_audit(dom, n, exts)
    assert [x["e_rel"] for x in rep["extensions"]] == \
        [ext.e for ext in spec.extensions()] + [1]
    witnesses = sampled_constancy({str(k): v for k, v in ps.values.items()},
                                  dom, n, exts, spec.params["samples"], seed)
    assert len(witnesses) > 1
    if deeper:
        assert rep["verdict"] == "inconclusive"
        assert "deeper than its domain" in rep["reason"]
        assert any(witnesses.values())
    else:
        assert rep["verdict"] == "pass"
        assert not any(witnesses.values())
