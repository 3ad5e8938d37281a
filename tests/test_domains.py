"""Residue domains around base points: membership, closed forms, sampling."""

import pathlib
import random
from fractions import Fraction

import pytest

from loccon.domains import (
    ModelPoint,
    cover_compare,
    describe,
    ideal_generators,
)
from loccon.galois import sqrt_in_context
from loccon.padic import (
    DomainError,
    PadicContext,
    PrecisionError,
    embed,
    relative_ramification,
)
from loccon.series import AlgebraModel, Annulus, Cover
from loccon.specfile import load_spec

SPECS = pathlib.Path(__file__).resolve().parent.parent / "specs"

Z5 = PadicContext(5, precision=14)
Z3 = PadicContext(3, precision=14)
RAM2 = PadicContext(5, e=2, precision=14)

DISC = AlgebraModel(Z5, open_vars=("T",), degree_cap=6)
ANN = AlgebraModel(Z5, bounded_vars=("zeta1", "zeta2"),
                   relation=Annulus(2), degree_cap=6)
COVER = AlgebraModel(Z3, open_vars=("Y", "T"),
                     relation=Cover(2, "Y", {(0, 1): -1}), degree_cap=6)

ORIGIN = ModelPoint(DISC, {"T": Z5.zero()})


def test_model_point_validation():
    with pytest.raises(DomainError):
        ModelPoint(DISC, {"T": Z5.one()})  # open var needs positive valuation
    with pytest.raises(DomainError):
        ModelPoint(DISC, {})


def test_ideal_generators_are_differences():
    gens = ideal_generators(DISC, ORIGIN)
    assert len(gens) == 1
    assert gens[0] == DISC.var("T")


def test_disc_closed_form_thresholds():
    u = describe(DISC, ORIGIN, 3, "U")
    v = describe(DISC, ORIGIN, 3, "V")
    assert u.closed_form.threshold == Fraction(2) and u.closed_form.strict
    assert v.closed_form.threshold == Fraction(3) and not v.closed_form.strict


def test_disc_membership_oracle():
    dom = describe(DISC, ORIGIN, 2, "U")
    inside = ModelPoint(DISC, {"T": Z5.from_int(25)})
    boundary = ModelPoint(DISC, {"T": Z5.from_int(5)})
    assert dom.member(inside)
    assert not dom.member(boundary)  # v = n-1 sits outside the wide open
    vdom = describe(DISC, ORIGIN, 2, "V")
    assert vdom.member(inside)
    assert not vdom.member(boundary)


def test_membership_over_ramified_extension_uses_gamma():
    dom = describe(DISC, ORIGIN, 2, "U")
    # gamma = (n-1)e + 1 = 3 over e_rel = 2
    rng = random.Random(0)
    y3 = ModelPoint(DISC, {"T": RAM2.random_with_pi_valuation(3, rng)})
    y2 = ModelPoint(DISC, {"T": RAM2.random_with_pi_valuation(2, rng)})
    assert dom.member(y3)
    assert not dom.member(y2)


def test_membership_undecidable_raises():
    dom = describe(DISC, ORIGIN, 6, "V")
    fuzzy = Z5.from_int(0).reduce_mod(3)  # only 3 digits known
    with pytest.raises(PrecisionError):
        dom.member(ModelPoint(DISC, {"T": fuzzy}))


def test_closed_form_agrees_with_generic_membership():
    rng = random.Random(1)
    for n in (1, 2, 3):
        for kind in ("U", "V"):
            dom = describe(DISC, ORIGIN, n, kind)
            for _ in range(20):
                pt = ModelPoint(DISC, {
                    "T": RAM2.random_with_pi_valuation(rng.randrange(1, 9), rng)})
                assert dom.member(pt) == dom.closed_form_member(pt)


def _member_by_generators(dom, y):
    """Membership by evaluating each vanishing-ideal generator var - x_var
    as a series at y: the reference for the direct test on coordinates."""
    thr = dom.pi_threshold(relative_ramification(dom.model.base, y.context))
    for g in ideal_generators(dom.model, dom.center):
        val = g.evaluate(dict(y.coords))
        v = val.pi_valuation()
        if v is None:
            if val.known_precision >= thr:
                continue
            raise PrecisionError("generator value indistinguishable from 0")
        if v < thr:
            return False
    return True


@pytest.mark.parametrize("name", ["unramified_family", "annulus", "cover"])
def test_membership_agrees_with_the_generator_series(name):
    """On the domain model of each spec, at depths 1-4, for U and V and over
    every context of the spec, the direct test gives the verdict of the
    generator series at the exact center and at seeded points drawn at
    valuations below and above the threshold; neither is undecidable."""
    spec = load_spec(str(SPECS / f"{name}.spec"))
    center = spec.sole("domains").center
    model = center.model
    rng = random.Random(name)
    verdicts = []
    for n in (1, 2, 3, 4):
        for kind in ("U", "V"):
            dom = describe(model, center, n, kind)
            for ext in spec.contexts.values():
                thr = dom.pi_threshold(relative_ramification(model.base, ext))
                points = [ModelPoint(model, {v: embed(c, ext)
                                             for v, c in center.coords.items()})]
                for _ in range(8):
                    pt = dom._sample_one(ext, rng.randrange(1, thr + 2), rng)
                    if pt is not None:
                        points.append(pt)
                for pt in points:
                    want = _member_by_generators(dom, pt)
                    assert dom.member(pt) == want
                    verdicts.append(want)
    assert verdicts[0] and True in verdicts and False in verdicts


def test_center_is_a_member_beyond_the_series_precision_cap():
    """At T = 5 a series value on DISC is guaranteed to (6 + 1) * 1 = 7
    digits, so at threshold 8 the generator series cannot decide the
    center itself; the coordinate difference is exactly 0 and can."""
    center = ModelPoint(DISC, {"T": Z5.from_int(5)})
    dom = describe(DISC, center, 8, "V")
    assert dom.pi_threshold(1) == 8
    with pytest.raises(PrecisionError):
        _member_by_generators(dom, center)
    assert dom.member(center)


def test_annulus_closed_form_radius():
    # center zeta1 = pi (v=1), m = 2: threshold max(thr, thr - m + 2 v(x1)) = thr
    center = ModelPoint(ANN, {"zeta1": Z5.from_int(5), "zeta2": Z5.from_int(5)})
    dom = describe(ANN, center, 4, "U")
    assert dom.closed_form.variable == "zeta1"
    assert dom.closed_form.threshold == Fraction(3)
    # center with v(x1) = 2 pushes the second branch above the first:
    # thr = 3, alt = 3 - 2 + 4 = 5
    c2 = ModelPoint(ANN, {"zeta1": Z5.from_int(25), "zeta2": Z5.one()})
    dom2 = describe(ANN, c2, 4, "U")
    assert dom2.closed_form.threshold == Fraction(5)


def test_annulus_membership_matches_closed_form():
    center = ModelPoint(ANN, {"zeta1": Z5.from_int(5), "zeta2": Z5.from_int(5)})
    rng = random.Random(2)
    for n in (1, 2, 3):
        dom = describe(ANN, center, n, "U")
        for pt in dom.sample(Z5, 10, seed=n):
            assert dom.member(pt)
            assert dom.closed_form_member(pt)


def test_cover_closed_form_at_ramification_point():
    center = ModelPoint(COVER, {"Y": Z3.zero(), "T": Z3.zero()})
    dom = describe(COVER, center, 3, "U")
    assert dom.closed_form.variable == "Y"
    assert dom.closed_form.threshold == Fraction(2)


def test_sample_produces_members():
    rng_exts = [Z5, RAM2, PadicContext(5, e=3, precision=14)]
    for kind in ("U", "V"):
        for n in (1, 2):
            dom = describe(DISC, ORIGIN, n, kind)
            for ext in rng_exts:
                pts = dom.sample(ext, 10, seed=7)
                assert len(pts) == 10
                for pt in pts:
                    assert dom.member(pt)


def test_sample_is_deterministic():
    dom = describe(DISC, ORIGIN, 2, "U")
    a = dom.sample(Z5, 5, seed=3)
    b = dom.sample(Z5, 5, seed=3)
    assert [p.coords["T"].coords for p in a] == [p.coords["T"].coords for p in b]


def test_sample_hits_the_boundary_valuation():
    dom = describe(DISC, ORIGIN, 3, "U")
    vals = {p.coords["T"].pi_valuation() for p in dom.sample(Z5, 40, seed=0)}
    assert dom.pi_threshold(1) in vals  # v = gamma itself occurs


def test_to_json_shape():
    dom = describe(DISC, ORIGIN, 2, "U")
    js = dom.to_json()
    assert js["kind"] == "U" and js["n"] == 2
    assert js["generators"] == ["1*T"]
    assert js["closed_form"]["threshold"] == {"num": 1, "den": 1}


# -- square roots and covers -------------------------------------------------


def test_sqrt_in_context_oracles():
    assert sqrt_in_context(Z5.from_int(4), Z5) is not None
    s = sqrt_in_context(Z5.from_int(4), Z5)
    assert (s * s - Z5.from_int(4)).pi_valuation() is None
    assert sqrt_in_context(Z5.from_int(2), Z5) is None  # 2 is not a QR mod 5
    assert sqrt_in_context(Z5.from_int(5), Z5) is None  # odd valuation
    s25 = sqrt_in_context(Z5.from_int(25), Z5)
    assert s25.pi_valuation() == 1


def test_sqrt_in_unramified_extension():
    un = PadicContext(5, f=2, precision=14)
    s = sqrt_in_context(un.from_int(2), un)
    assert s is not None
    assert (s * s - un.from_int(2)).pi_valuation() is None


def test_sqrt_in_context_picks_the_first_root_in_little_endian_digit_order():
    """Over W(F_25) the root returned is the first residue c_0 + c_1 omega
    with c_0 varying fastest, the reverse of enumerate_residues(1); for 4
    of the 12 nonzero squares that is not the first root in that order."""
    un = PadicContext(5, f=2, precision=10)
    little_endian = [un.from_coords([c0, c1]) for c1 in range(5) for c0 in range(5)]
    squares = differ = 0
    for u in un.enumerate_residues(1):
        if not u.is_unit():
            continue
        u = un.from_coords(list(u.coords))
        roots = [y for y in little_endian if (y * y - u).pi_valuation() != 0]
        s = sqrt_in_context(u, un)
        if not roots:
            assert s is None
            continue
        squares += 1
        assert (s * s - u).pi_valuation() is None
        assert (s - roots[0]).pi_valuation() != 0
        first_in_order = next(y for y in un.enumerate_residues(1)
                              if (y * y - u).pi_valuation() != 0)
        differ += (first_in_order - roots[0]).pi_valuation() == 0
    assert (squares, differ) == (12, 4)


def test_cover_compare_certificate():
    center = ModelPoint(COVER, {"Y": Z3.zero(), "T": Z3.zero()})
    rep = cover_compare(COVER, center, 2, Z3)
    assert rep["verdict"] == "pass"
    assert rep["preimage_equality"]["n0"] == 1
    assert rep["preimage_equality"]["per_n"]["1"] == {"U": True, "V": True}
    assert rep["preimage_equality"]["per_n"]["2"]["U"] is False
    assert "v(T - t0) = 2 * v(Y - y0)" in rep["preimage_equality"]["certificate"]


def _preimage_reference(d, e_rel, at_center):
    """(per_n, n0) written from v(t - t0) = d v(y - y0).  At depth m the
    upstairs domain is v(y - y0) >= thr, with thr = (m - 1) e_rel + 1 for U
    and m e_rel for V in pi_E-units, and the preimage of the downstairs one
    is d v(y - y0) >= thr.  The preimage holds the upstairs domain, and
    equals it when no valuation v < thr has d v >= thr.  Away from the
    center nothing is certified."""
    per_n, n0 = {}, None
    for m in range(1, 5):
        thresholds = {"U": (m - 1) * e_rel + 1, "V": m * e_rel}
        entry = {kind: not any(d * v >= thr for v in range(thr))
                 if at_center else None
                 for kind, thr in thresholds.items()}
        per_n[str(m)] = entry
        if n0 is None and entry["U"] and entry["V"]:
            n0 = m
    return per_n, n0


# (p, e of the model's base, c in Y^2 = c*T, e of the comparison context):
# over Z_p the comparison context is Z_p or an e = 2 or e = 3 extension, and
# a ramified base is compared over itself
PREIMAGE_CASES = [(3, 1, -1, 1), (3, 1, -1, 2), (3, 1, -1, 3),
                  (5, 1, 2, 1), (5, 1, 2, 2), (5, 1, 2, 3),
                  (5, 2, 1, 2), (3, 3, -1, 3)]


@pytest.mark.parametrize("at_center", [True, False])
@pytest.mark.parametrize("p,base_e,c,ext_e", PREIMAGE_CASES)
def test_cover_compare_matches_the_preimage_reference(p, base_e, c, ext_e,
                                                      at_center):
    base = PadicContext(p, e=base_e, precision=14)
    ext = base if ext_e == base_e else PadicContext(p, e=ext_e, precision=14)
    model = AlgebraModel(base, open_vars=("Y", "T"),
                         relation=Cover(2, "Y", {(0, 1): c}), degree_cap=6)
    y0 = base.zero() if at_center else base.pi_power(1)
    center = ModelPoint(model, {"Y": y0,
                                "T": y0 * y0 * base.from_int(c).inverse()})
    per_n, n0 = _preimage_reference(2, ext_e // base_e, at_center)
    # the certificate settles depth 1 only where the extension is unramified
    assert n0 == (1 if at_center and ext_e == base_e else None)
    for n in (1, 2):
        rep = cover_compare(model, center, n, ext)
        assert rep == {
            "n": n, "verdict": "pass",
            "preimage_equality": {
                "per_n": per_n, "n0": n0, "budget": 4,
                "certificate": "v(T - t0) = 2 * v(Y - y0) at the "
                               "ramification center" if at_center else None}}


def test_cover_compare_draws_no_random_number(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("cover_compare drew a random number")

    monkeypatch.setattr(random, "Random", refuse)
    center = ModelPoint(COVER, {"Y": Z3.zero(), "T": Z3.zero()})
    assert cover_compare(COVER, center, 2, Z3)["preimage_equality"]["n0"] == 1
