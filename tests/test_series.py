"""Mixed-algebra series: normal forms, inversion, evaluation, recentering."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loccon import series as series_module
from loccon.domains import describe, ModelPoint
from loccon.padic import (DomainError, PadicContext, PadicNumber, PrecisionError,
                          embed, gamma_exponent, power, relative_ramification)
from loccon.series import (AdicSeries, AlgebraModel, Annulus, Cover, Disc,
                           constancy_certificate)

Z5 = PadicContext(5, precision=12)
Z3 = PadicContext(3, precision=12)

DISC = AlgebraModel(Z5, open_vars=("T",), degree_cap=8)
POLYDISC = AlgebraModel(Z5, bounded_vars=("z",), open_vars=("T",), degree_cap=6)
ANN = AlgebraModel(Z5, bounded_vars=("zeta1", "zeta2"),
                   relation=Annulus(2), degree_cap=8)
COVER = AlgebraModel(Z3, open_vars=("Y", "T"),
                     relation=Cover(2, "Y", {(0, 1): -1}), degree_cap=8)


def same(a, b):
    return (a - b).pi_valuation() is None


# -- model validation --------------------------------------------------------


def test_variable_kinds_disjoint():
    with pytest.raises(DomainError):
        AlgebraModel(Z5, bounded_vars=("T",), open_vars=("T",))


def test_annulus_needs_two_bounded_vars():
    with pytest.raises(DomainError):
        AlgebraModel(Z5, bounded_vars=("z",), relation=Annulus(1))


def test_cover_relation_must_avoid_cover_variable():
    with pytest.raises(DomainError):
        AlgebraModel(Z3, open_vars=("Y", "T"),
                     relation=Cover(2, "Y", {(1, 0): 1}))


def test_cover_refuses_a_relation_that_lowers_the_open_degree_by_two():
    """Y^3 = T with Y and T open: at degree_cap 4, (Y^2*T * T^2) * Y is 0
    but Y^2*T * (T^2 * Y) is T^4, so the model is refused."""
    with pytest.raises(DomainError, match="not associative"):
        AlgebraModel(Z5, open_vars=("Y", "T"),
                     relation=Cover(3, "Y", {(0, 1): 1}), degree_cap=4)
    # several terms: the lowest open degree decides
    with pytest.raises(DomainError, match="not associative"):
        AlgebraModel(Z5, open_vars=("Y", "T"),
                     relation=Cover(3, "Y", {(0, 1): 1, (0, 2): 1}),
                     degree_cap=4)
    AlgebraModel(Z5, open_vars=("Y", "T"),
                 relation=Cover(3, "Y", {(0, 2): 1, (0, 3): 1}), degree_cap=4)


def _reference_monomial_product(d, k, open_y, open_t, cap):
    """Y^a T^b times Y^c T^e on Y^d = T^k, truncated at open degree cap:
    the exponent pair, or None for a dropped product (and None times
    anything is None)."""
    def mul(m1, m2):
        if m1 is None or m2 is None:
            return None
        y, t = m1[0] + m2[0], m1[1] + m2[1]
        while y >= d:
            y, t = y - d, t + k
        return (y, t) if open_y * y + open_t * t <= cap else None
    return mul


def _model_monomial_product(model):
    """The model's own product on monomials (exponent pairs for Y, T)."""
    yi, ti = model.vars.index("Y"), model.vars.index("T")
    memo = {}

    def series(m):
        mono = [0, 0]
        mono[yi], mono[ti] = m
        return model.series({tuple(mono): 1})

    def mul(m1, m2):
        if m1 is None or m2 is None:
            return None
        if (m1, m2) not in memo:
            terms = (series(m1) * series(m2)).terms
            assert len(terms) <= 1 and all(c == 1 for c in terms.values())
            memo[m1, m2] = next(((m[yi], m[ti]) for m in terms), None)
        return memo[m1, m2]
    return mul


def _associative(mul, basis):
    return all(mul(mul(a, b), c) == mul(a, mul(b, c))
               for a in basis for b in basis for c in basis)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_cover_accepts_exactly_the_associative_monomial_shapes(d):
    """Over Y^d = T^k, k <= d, with Y and T each bounded or open and
    degree_cap 2..6, every monomial triple: a shape that Cover.rule accepts
    has an associative product (the model's own, checked triple by
    triple), and a shape it refuses has a non-associative one."""
    for k in range(d + 1):
        for open_y in (False, True):
            for open_t in (False, True):
                for cap in range(2, 7):
                    basis = [(y, t) for y in range(d)
                             for t in range(cap + 1 if open_t else 3)
                             if open_y * y + open_t * t <= cap]
                    names = {"Y": open_y, "T": open_t}
                    bounded = tuple(v for v in names if not names[v])
                    open_vars = tuple(v for v in names if names[v])
                    t_mono = tuple(k * (v == "T") for v in bounded + open_vars)
                    try:
                        model = AlgebraModel(
                            Z5, bounded_vars=bounded, open_vars=open_vars,
                            relation=Cover(d, "Y", {t_mono: 1}),
                            degree_cap=cap)
                    except DomainError:
                        ref = _reference_monomial_product(d, k, open_y,
                                                          open_t, cap)
                        assert not _associative(ref, basis), (k, names, cap)
                        continue
                    assert _associative(_model_monomial_product(model),
                                        basis), (k, names, cap)


# -- normal forms ------------------------------------------------------------


def test_annulus_normal_form_eliminates_mixed_monomials():
    z1, z2 = ANN.var("zeta1"), ANN.var("zeta2")
    prod = z1 * z2
    assert prod == ANN.constant(Z5.from_int(25))
    sq = (z1 * z2) * z1
    assert sq == z1.scale(25)


def test_cover_normal_form_reduces_high_powers():
    y, t = COVER.var("Y"), COVER.var("T")
    assert y * y == -t
    assert y ** 3 == -(t * y)


def test_degree_cap_truncates_open_monomials():
    t = DISC.var("T")
    assert t ** (DISC.degree_cap + 1) == DISC.zero()


# -- arithmetic --------------------------------------------------------------


def test_series_ring_axioms_sampled():
    rng = random.Random(0)

    def rand_series(model):
        terms = {}
        for _ in range(4):
            mono = tuple(rng.randrange(0, 3) for _ in model.vars)
            terms[mono] = Z5.random_element(rng)
        return model.series(terms)

    for model in (DISC, POLYDISC):
        for _ in range(10):
            a, b, c = (rand_series(model) for _ in range(3))
            assert a * (b + c) == a * b + a * c
            assert a * b == b * a


def test_inverse_of_one_minus_open_var():
    t = DISC.var("T")
    inv = (DISC.constant(1) - t).inverse()
    expect = DISC.series({(i,): 1 for i in range(DISC.degree_cap + 1)})
    assert inv == expect


def test_inverse_requires_topological_nilpotence():
    z = POLYDISC.var("z")
    with pytest.raises(DomainError):
        (POLYDISC.constant(1) - z).inverse()
    # with a pi factor on the bounded variable the inverse exists
    inv = (POLYDISC.constant(1) - z.scale(5)).inverse()
    assert (POLYDISC.constant(1) - z.scale(5)) * inv == POLYDISC.constant(1)


def test_inverse_round_trip_random():
    rng = random.Random(1)
    for _ in range(5):
        s = DISC.constant(Z5.random_unit(rng)) \
            + DISC.var("T").scale(Z5.random_element(rng))
        assert s * s.inverse() == DISC.constant(1)


# -- evaluation --------------------------------------------------------------


def test_evaluate_polynomial_oracle():
    s = DISC.series({(0,): 2, (1,): 3, (2,): 1})  # 2 + 3T + T^2
    val = s.evaluate({"T": Z5.from_int(5)})
    assert same(val, Z5.from_int(2 + 15 + 25))


def test_evaluate_rejects_points_outside_the_domain():
    s = DISC.var("T")
    with pytest.raises(DomainError):
        s.evaluate({"T": Z5.one()})  # open variable needs v >= 1


def test_evaluate_enforces_cover_relation():
    s = COVER.var("Y")
    with pytest.raises(DomainError):
        s.evaluate({"Y": Z3.from_int(3), "T": Z3.from_int(9)})
    ok = s.evaluate({"Y": Z3.from_int(3), "T": Z3.from_int(-9)})
    assert same(ok, Z3.from_int(3))


def test_evaluate_of_a_dict_checks_the_point():
    """A dict is checked as a ModelPoint: a missing coordinate or a violated
    relation is a DomainError."""
    with pytest.raises(DomainError, match="missing coordinate 'z'"):
        POLYDISC.var("T").evaluate({"T": Z5.from_int(5)})
    with pytest.raises(DomainError, match="violates the annulus relation"):
        ANN.var("zeta1").evaluate({"zeta1": Z5.from_int(5),
                                   "zeta2": Z5.from_int(25)})
    with pytest.raises(DomainError, match="violates the cover relation"):
        COVER.var("T").evaluate({"Y": Z3.from_int(3), "T": Z3.from_int(9)})


def test_model_point_keeps_the_context_it_was_built_with(monkeypatch):
    """The context is found and the point checked when it is built; reading
    the point, or evaluating a series of an equal model at it, does neither
    again."""
    ram = PadicContext(5, e=2, precision=12)
    pt = ModelPoint(DISC, {"T": ram.pi() * ram.from_int(3)})
    assert pt.context is ram and not pt.is_base_point()

    def again(*args):
        raise AssertionError("a built point was checked again")
    monkeypatch.setattr(series_module, "_point_context", again)
    monkeypatch.setattr(series_module, "_check_point", again)
    assert pt.context is ram
    twin = AlgebraModel(Z5, open_vars=("T",), degree_cap=8)
    assert twin == DISC and twin is not DISC
    assert twin.var("T").evaluate(pt).pi_valuation() == 1
    with pytest.raises(AssertionError):
        DISC.var("T").evaluate(dict(pt.coords))


def test_evaluate_checks_a_point_of_another_model():
    """A ModelPoint of a model that is not equal to the series' model is
    checked against the series' model."""
    pt = ModelPoint(DISC, {"T": Z5.from_int(5)})
    with pytest.raises(DomainError, match="missing coordinate 'z'"):
        POLYDISC.var("T").evaluate(pt)
    wider = AlgebraModel(Z5, open_vars=("T",), degree_cap=4)
    assert same(wider.var("T").evaluate(pt), Z5.from_int(5))


def test_evaluate_precision_guarantee():
    s = DISC.series({(i,): 1 for i in range(DISC.degree_cap + 1)})
    val = s.evaluate({"T": Z5.from_int(5)})
    # truncation error is O(T^(D+1)), v(T) = 1
    assert val.known_precision == DISC.degree_cap + 1


def test_evaluate_over_extension():
    ram = PadicContext(5, e=2, precision=12)
    s = DISC.series({(1,): 1})
    val = s.evaluate({"T": ram.pi()})
    assert val.pi_valuation() == 1


# -- constancy ---------------------------------------------------------------


def test_is_constant_mod_oracles():
    s = DISC.constant(7) + DISC.var("T").scale(25)
    assert s.is_constant_mod(2)
    res = s.is_constant_mod(3)
    assert not res
    assert res.witness == "T"
    assert same(s.is_constant_mod(2).constant_value, Z5.from_int(7))


def test_is_constant_mod_needs_precision():
    s = DISC.series({(1,): Z5.from_int(5).reduce_mod(2)})
    with pytest.raises(PrecisionError):
        s.is_constant_mod(10)


def sampled_constancy(values, domain, n, extensions, samples_per_ext, seed=0):
    """Reference for ``constancy_certificate``: per key of ``values``, the
    witnesses among one draw of domain points per extension E (seed + its
    index), points whose value differs from the center's mod pi_E^{gamma(n)}.
    Raises PrecisionError where a value is known to fewer digits."""
    model = domain.center.model
    witnesses = {key: [] for key in values}
    for idx, ext in enumerate(extensions):
        g = gamma_exponent(relative_ramification(model.base, ext), n)
        center = ModelPoint(model, {v: embed(c, ext)
                                    for v, c in domain.center.coords.items()})
        pts = domain.sample(ext, samples_per_ext, seed=seed + idx)
        assert pts
        for key, s in values.items():
            ref = s.evaluate(center).reduce_mod(g)
            witnesses[key] += [(idx, pt.to_json()) for pt in pts
                               if s.evaluate(pt).reduce_mod(g).coords != ref.coords]
    return witnesses


RAM3 = PadicContext(5, e=3, precision=12)


def test_pointwise_audit_identity_function_passes():
    """T is constant mod pi_E^gamma(2) on U^(2) around 0: the certificate
    passes with the threshold equal to gamma, and no sampled point of the
    domain differs from the center there."""
    dom = describe(DISC, ModelPoint(DISC, {"T": Z5.zero()}), 2, "U")
    values = {"T": DISC.var("T")}
    rep = constancy_certificate(values, dom, 2, [Z5, RAM3])
    assert rep["verdict"] == "pass" and "reason" not in rep
    assert [(x["gamma"], x["threshold"]) for x in rep["extensions"]] == \
        [(2, 2), (4, 4)]
    assert sampled_constancy(values, dom, 2, [Z5, RAM3], 15) == {"T": []}


def test_certificate_deeper_than_its_domain_is_inconclusive():
    """At depth 3 on U^(2) the threshold is below gamma: T does move mod
    pi^gamma(3) on the domain (the sampler finds points), and the
    certificate says inconclusive, naming the extension and the digits."""
    dom = describe(DISC, ModelPoint(DISC, {"T": Z5.zero()}), 2, "U")
    values = {"T": DISC.var("T")}
    rep = constancy_certificate(values, dom, 3, [Z5, RAM3])
    assert rep["verdict"] == "inconclusive"
    assert rep["reason"] == ("over extension 0 the domain's threshold pi^2 is "
                             "1 digits short of gamma = 3: the audit is "
                             "deeper than its domain")
    assert sampled_constancy(values, dom, 3, [Z5, RAM3], 15)["T"]


def test_certificate_refuses_a_series_of_another_model():
    """The digits bound reads the domain model's degree cap: a series over
    another model, even one with the same variable, is refused."""
    dom = describe(DISC, ModelPoint(DISC, {"T": Z5.zero()}), 2, "U")
    other = AlgebraModel(Z5, open_vars=("T",), degree_cap=2)
    with pytest.raises(DomainError, match="domain's model"):
        constancy_certificate({"T": other.var("T")}, dom, 2, [Z5])


@pytest.mark.parametrize("series,center,cap,digits", [
    # a coefficient known to one digit
    (lambda m: m.series({(1,): Z5.one().reduce_mod(1)}), 0, 8, 1),
    # (D+1) * v(y) = 2 * 1 at the points T = 5 + O(pi^3) of U^(3)
    (lambda m: m.var("T"), 5, 1, 2),
])
def test_certificate_reads_the_known_digits(series, center, cap, digits):
    """A value known to fewer than gamma digits on the domain is
    inconclusive, naming the value and the digits it lacks; the sampler
    cannot read those values mod pi^gamma either."""
    model = AlgebraModel(Z5, open_vars=("T",), degree_cap=cap)
    dom = describe(model, ModelPoint(model, {"T": Z5.from_int(center)}), 3, "U")
    values = {"f": series(model)}
    rep = constancy_certificate(values, dom, 3, [Z5])
    assert rep["verdict"] == "inconclusive"
    assert rep["extensions"][0]["digits"] == digits
    assert rep["reason"] == (f"over extension 0 value f is known to {digits} "
                             f"digits, {3 - digits} short of gamma = 3")
    with pytest.raises(PrecisionError):
        sampled_constancy(values, dom, 3, [Z5], 4)


# -- recentering -------------------------------------------------------------


def test_recenter_free_matches_substitution():
    rng = random.Random(2)
    s = DISC.series({(0,): 3, (1,): 7, (2,): 2})
    rc = s.recenter_rescale({"T": Z5.from_int(5)}, {"T": 2})
    for _ in range(5):
        u = Z5.random_with_pi_valuation(1, rng)
        lhs = rc.evaluate({"T": u})
        rhs = s.evaluate({"T": Z5.from_int(5) + Z5.from_int(25) * u})
        assert lhs.reduce_mod(8).coords == rhs.reduce_mod(8).coords


def test_recenter_free_makes_scaled_vars_open():
    s = POLYDISC.var("z")
    rc = s.recenter_rescale({"z": Z5.one()}, {"z": 1})
    assert "z" in rc.model.open_vars


def test_recenter_annulus_matches_exact_substitution():
    rng = random.Random(3)
    s = ANN.var("zeta1").scale(3) + ANN.var("zeta2")
    x1 = Z5.from_int(5)
    x2 = Z5.from_int(5)  # x1 * x2 = pi^2
    rc = s.recenter_rescale({"zeta1": x1, "zeta2": x2}, {"zeta1": 2})
    for _ in range(5):
        u = Z5.random_with_pi_valuation(1, rng)
        z1 = x1 + Z5.from_int(25) * u
        z2 = (PadicNumber(Z5.from_int(25)) * PadicNumber(z1).inverse()).to_integral()
        lhs = rc.evaluate({"zeta1": u})
        rhs = s.evaluate({"zeta1": z1, "zeta2": z2})
        assert lhs.reduce_mod(7).coords == rhs.reduce_mod(7).coords


def test_recenter_annulus_requires_compatible_center():
    s = ANN.var("zeta1")
    with pytest.raises(DomainError):
        s.recenter_rescale({"zeta1": Z5.one(), "zeta2": Z5.one()}, {"zeta1": 1})


def test_recenter_cover_matches_exact_substitution():
    rng = random.Random(4)
    s = COVER.var("T") + COVER.var("Y").scale(2)
    y0, t0 = Z3.from_int(3), Z3.from_int(-9)
    rc = s.recenter_rescale({"Y": y0, "T": t0}, {"Y": 2})
    for _ in range(5):
        w = Z3.random_with_pi_valuation(1, rng)
        y = y0 + Z3.from_int(9) * w
        t = -(y * y)
        lhs = rc.evaluate({"Y": w})
        rhs = s.evaluate({"Y": y, "T": t})
        assert lhs.reduce_mod(7).coords == rhs.reduce_mod(7).coords


# -- normal form against a reference with one rewrite loop per preset --------


def _reference_normal_form(model, terms, annulus_m=None, cover=None):
    """Reference normal form with one rewrite loop per preset: zeta1*zeta2
    -> pi^m on all common powers at once, and y^d -> g one power per pass."""
    work = dict(terms)
    if annulus_m is not None:
        i1 = model.vars.index(model.bounded_vars[0])
        i2 = model.vars.index(model.bounded_vars[1])
        changed = True
        while changed:
            changed = False
            for mono in list(work):
                a, b = mono[i1], mono[i2]
                if a and b:
                    k = min(a, b)
                    new = list(mono)
                    new[i1] -= k
                    new[i2] -= k
                    new = tuple(new)
                    c = work.pop(mono) * model.base.pi_power(annulus_m * k)
                    work[new] = work[new] + c if new in work else c
                    changed = True
    elif cover is not None:
        d, yvar, g = cover
        yi = model.vars.index(yvar)
        changed = True
        while changed:
            changed = False
            for mono in list(work):
                if mono[yi] >= d:
                    c = work.pop(mono)
                    rest = list(mono)
                    rest[yi] -= d
                    for gm, gc in g.items():
                        new = tuple(r + q for r, q in zip(rest, gm))
                        add = c * model._coerce(gc)
                        work[new] = work[new] + add if new in work else add
                    changed = True
    open_idx = [model.vars.index(v) for v in model.open_vars]
    out = {}
    for mono, c in work.items():
        if sum(mono[i] for i in open_idx) > model.degree_cap:
            continue
        if all(x == 0 for x in c.coords):
            continue
        out[mono] = c
    return out


NF_BASES = (PadicContext(5, precision=12), PadicContext(5, e=2, precision=10),
            PadicContext(3, f=2, precision=10))
# (bounded vars, open vars, preset, reference arguments)
NF_RELATIONS = (
    (("zeta1", "zeta2"), (), Annulus(1), {"annulus_m": 1}),
    (("zeta1", "zeta2"), (), Annulus(2), {"annulus_m": 2}),
    (("zeta1", "zeta2"), ("T",), Annulus(3), {"annulus_m": 3}),
    ((), ("Y", "T"), Cover(2, "Y", {(0, 1): -1}),
     {"cover": (2, "Y", {(0, 1): -1})}),
    ((), ("Y", "T"), Cover(3, "Y", {(0, 2): 1, (0, 3): 5}),
     {"cover": (3, "Y", {(0, 2): 1, (0, 3): 5})}),
    (("Y", "T"), (), Cover(2, "Y", {(0, 0): 3, (0, 1): 1}),
     {"cover": (2, "Y", {(0, 0): 3, (0, 1): 1})}),
)


@pytest.mark.parametrize("base", NF_BASES, ids=["Z5", "e2", "f2"])
@pytest.mark.parametrize("bounded,open_vars,preset,ref", NF_RELATIONS,
                         ids=["ann1", "ann2", "ann3_T", "Y2=-T", "Y3=T2+5T3",
                              "Y2=3+T"])
def test_normal_form_matches_reference_loops(base, bounded, open_vars,
                                             preset, ref):
    """Products reduce by the model's one rewrite rule to the same terms,
    coordinates and known precision as the preset-specific loops."""
    model = AlgebraModel(base, bounded_vars=bounded, open_vars=open_vars,
                         relation=preset, degree_cap=4)
    rng = random.Random(f"{base.p}{base.e}{base.f}{preset}")

    def coeff():
        x = base.random_element(rng)
        return x.reduce_mod(rng.randrange(2, base.precision)) \
            if rng.random() < 0.3 else x

    def rand_series():
        return model.series({tuple(rng.randrange(0, 4) for _ in model.vars):
                             coeff() for _ in range(4)})

    for _ in range(15):
        a, b = rand_series(), rand_series()
        raw = {}
        for m1, c1 in a.terms.items():
            for m2, c2 in b.terms.items():
                m = tuple(x + y for x, y in zip(m1, m2))
                raw[m] = raw[m] + c1 * c2 if m in raw else c1 * c2
        expect = _reference_normal_form(model, raw, **ref)
        got = (a * b).terms
        assert sorted(got) == sorted(expect)
        for mono, c in got.items():
            assert c.coords == expect[mono].coords
            assert c.known_precision == expect[mono].known_precision


# -- the one evaluator and the one power routine against the earlier loops ---


def _naive_pow(x, n, one):
    """x ** n as n products from ``one`` (of the inverse when n < 0)."""
    if n < 0:
        x, n = x.inverse(), -n
    out = one
    for _ in range(n):
        out = out * x
    return out


def _reference_substitute(series, out_model, subs):
    """Substitution with one series product per unit of each exponent."""
    acc = out_model.zero()
    for mono, c in series.terms.items():
        term = out_model.constant(c)
        for name, a in zip(series.model.vars, mono):
            for _ in range(a):
                term = term * subs[name]
        acc = acc + term
    return acc


def _reference_recenter(series, center, scales):
    """recenter_rescale on a valid center, with every power as naive
    products and the annulus geometric series built from each U ** i."""
    model, base = series.model, series.model.base
    for v in model.vars:
        center.setdefault(v, base.zero())
        scales.setdefault(v, 0)
    rel = model.relation
    if isinstance(rel, Disc):
        opens = tuple(v for v in model.vars if scales[v] >= 1 or model.is_open(v))
        out = AlgebraModel(base, tuple(v for v in model.vars if v not in opens),
                           opens, None, model.degree_cap)
        subs = {v: out.var(v).scale(base.pi_power(scales[v])) + out.constant(center[v])
                for v in model.vars}
    elif isinstance(rel, Annulus):
        z1, z2 = model.bounded_vars
        x1, x2, k = center[z1], center[z2], scales[z1]
        v1 = x1.pi_valuation()
        out = AlgebraModel(base, (), (z1,), None, model.degree_cap)
        U = out.var(z1)
        t = base.pi_power(k - v1) * x1.shift_down(v1).inverse()
        sub2, pw = out.zero(), base.one()
        for i in range(model.degree_cap + 1):
            sub2 = sub2 + _naive_pow(U, i, out.constant(1)).scale(x2 * pw)
            pw = pw * (-t)
        subs = {z1: out.constant(x1) + U.scale(base.pi_power(k)), z2: sub2}
    else:
        d, yvar, tvar, c = model.linear_cover()
        out = AlgebraModel(base, (), (yvar,), None, model.degree_cap)
        suby = out.constant(center[yvar]) + out.var(yvar).scale(base.pi_power(scales[yvar]))
        subs = {yvar: suby,
                tvar: _naive_pow(suby, d, out.constant(1)).scale(c.inverse())}
    return _reference_substitute(series, out, subs)


def _reference_eval_terms(model, terms, point, ext):
    """Point evaluation with every power as naive products."""
    acc = ext.zero()
    for mono, c in terms.items():
        term = embed(c, ext)
        for name, a in zip(model.vars, mono):
            if a:
                term = term * _naive_pow(point[name], a, ext.one())
        acc = acc + term
    return acc


def _assert_same_terms(got, expect, digits):
    """Same terms and coordinates.  With every input digit known
    (``digits == "full"``), the same known precision too.  With fewer known
    digits a grouping of the products may keep more of them: c * (3 x) knows
    one digit more than c * x + c * x + c * x over Z_3 when c knows fewer
    digits than x, so there the bound may only grow."""
    assert sorted(got) == sorted(expect)
    for mono, c in got.items():
        assert c.coords == expect[mono].coords
        if digits == "full":
            assert c.known_precision == expect[mono].known_precision
        else:
            assert c.known_precision >= expect[mono].known_precision


def _assert_sound(got, other):
    """The terms of two computations from different lifts of the same inputs
    agree to the known precision of ``got``."""
    for mono in set(got.terms) | set(other.terms):
        x = got.coefficient(mono)
        assert (x - other.coefficient(mono)).reduce_mod(x.known_precision).coords \
            == (0,) * len(x.coords)


def _assert_same_element(got, expect):
    assert got.coords == expect.coords
    assert got.known_precision == expect.known_precision


EVAL_BASES = (PadicContext(5, precision=12), PadicContext(5, e=2, precision=10),
              PadicContext(3, f=2, precision=10))
# (bounded vars, open vars, preset); the cover has d = 2, because Y^d = T
# with Y and T open and d >= 3 is refused (its truncated product is not
# associative)
EVAL_MODELS = (
    ((), ("T",), None),
    (("z",), ("T",), None),
    (("zeta1", "zeta2"), (), Annulus(1)),
    (("zeta1", "zeta2"), (), Annulus(2)),
    ((), ("Y", "T"), Cover(2, "Y", {(0, 1): -1})),
)
EVAL_IDS = ["disc", "polydisc", "ann1", "ann2", "cover"]


def _eval_case(base, bounded, open_vars, preset, label, digits="reduced"):
    """The model and seeded draws of series and of centers on it.  With
    ``digits == "reduced"`` about a third of the coefficients know fewer
    digits than the context."""
    model = AlgebraModel(base, bounded_vars=bounded, open_vars=open_vars,
                         relation=preset, degree_cap=5)
    rng = random.Random(f"{label}{digits}{base.p}{base.e}{base.f}{preset}")

    def coeff():
        x = base.random_element(rng)
        return x.reduce_mod(rng.randrange(2, base.precision)) \
            if digits == "reduced" and rng.random() < 0.3 else x

    def rand_series(size=5):
        return model.series({tuple(rng.randrange(0, 4) for _ in model.vars):
                             coeff() for _ in range(size)})

    def center():
        """A point of the model, as recenter_rescale's closed forms need."""
        if isinstance(preset, Annulus):
            x1 = base.random_unit(rng) * base.pi_power(rng.randrange(0, preset.m + 1))
            x2 = (x1.shift_down(x1.pi_valuation()).inverse()
                  * base.pi_power(preset.m - x1.pi_valuation()))
            return {"zeta1": x1, "zeta2": x2}
        if isinstance(preset, Cover):
            y0 = base.random_with_pi_valuation(rng.randrange(1, 3), rng)
            return {"Y": y0, "T": -(y0 * y0)}
        return {v: base.random_with_pi_valuation(int(model.is_open(v)), rng)
                if rng.random() < 0.8 else base.zero() for v in model.vars}

    def other_lift(s):
        """s with each coefficient replaced by another lift of its digits."""
        return model.series({mono: c + base.random_element(rng) * base.pi_power(
            c.known_precision) if c.known_precision < base.precision else c
            for mono, c in s.terms.items()})

    return model, rng, rand_series, center, other_lift


@pytest.mark.parametrize("digits", ["full", "reduced"])
@pytest.mark.parametrize("base", EVAL_BASES, ids=["Z5", "e2", "W9"])
@pytest.mark.parametrize("bounded,open_vars,preset", EVAL_MODELS, ids=EVAL_IDS)
def test_recenter_matches_naive_substitution(base, bounded, open_vars, preset,
                                             digits):
    """Recentering through the one evaluator gives the same terms and
    coordinates as one product per unit exponent, and a sound known
    precision (see _assert_same_terms)."""
    model, rng, rand_series, center, other_lift = _eval_case(
        base, bounded, open_vars, preset, "recenter", digits)
    for _ in range(6):
        s, x = rand_series(), center()
        scales = {v: rng.randrange(1, 3) for v in model.vars}
        if isinstance(preset, Annulus):
            scales = {"zeta1": x["zeta1"].pi_valuation() + rng.randrange(1, 3)}
        elif isinstance(preset, Cover):
            scales = {"Y": rng.randrange(1, 3)}
        got = s.recenter_rescale(dict(x), dict(scales))
        expect = _reference_recenter(s, dict(x), dict(scales))
        assert got.model == expect.model
        _assert_same_terms(got.terms, expect.terms, digits)
        _assert_sound(got, other_lift(s).recenter_rescale(dict(x), dict(scales)))


@pytest.mark.parametrize("base", EVAL_BASES, ids=["Z5", "e2", "W9"])
@pytest.mark.parametrize("bounded,open_vars,preset", EVAL_MODELS, ids=EVAL_IDS)
def test_point_evaluation_matches_naive_powers(base, bounded, open_vars, preset):
    """Values at points, over the base and over a ramified extension, match
    the evaluation that takes each power by naive products, known precision
    included."""
    model, rng, rand_series, center, _ = _eval_case(base, bounded, open_vars,
                                                    preset, "evaluate")
    ctxs = [base]
    if base.e == 1:  # the ramified extensions embed only from e = 1
        ctxs.append(PadicContext(base.p, f=base.f, e=2, unram_poly=base.unram_poly,
                                 precision=2 * base.precision))
    for _ in range(6):
        s = rand_series()
        for ctx in ctxs:
            pt = {v: embed(c, ctx) for v, c in center().items()}
            got = series_module._eval_terms(model, s.terms, pt, ctx)
            _assert_same_element(got, _reference_eval_terms(model, s.terms, pt, ctx))
            if isinstance(model.relation, Disc) or model.open_vars:
                continue
            # an annulus point is a point of the domain: evaluate accepts it
            assert s.evaluate(pt).coords == got.coords


@pytest.mark.parametrize("digits", ["full", "reduced"])
@pytest.mark.parametrize("base", EVAL_BASES, ids=["Z5", "e2", "W9"])
@pytest.mark.parametrize("bounded,open_vars,preset", EVAL_MODELS, ids=EVAL_IDS)
def test_series_power_matches_naive_products(base, bounded, open_vars, preset,
                                             digits):
    model, rng, rand_series, _, other_lift = _eval_case(
        base, bounded, open_vars, preset, "pow", digits)
    for _ in range(3):
        s = rand_series(3)
        if rng.random() < 0.5:  # a unit constant term, so that s ** -n exists
            s = s + model.constant(base.random_unit(rng) - s.constant_term())
        s2 = other_lift(s)
        try:
            inv = s.inverse()
        except DomainError:
            inv = None
        for n in range(-5, 10):
            if n < 0 and inv is None:
                with pytest.raises(DomainError):
                    s ** n
                continue
            expect = _naive_pow(inv, -n, model.constant(1)) if n < 0 \
                else _naive_pow(s, n, model.constant(1))
            got = s ** n
            _assert_same_terms(got.terms, expect.terms, digits)
            _assert_sound(got, s2 ** n)


# -- the coordinate-tuple arithmetic against the element path ----------------


def _ref_normalize(model, terms):
    """The normal form, one PadicElement operation per rewrite, as every
    series operation ran it before the coordinate-tuple kernel."""
    work = {}
    for mono, c in terms.items():
        work[tuple(mono)] = work[tuple(mono)] + c if tuple(mono) in work else c
    if model.rule is not None:
        lhs, rhs = model.rule
        changed = True
        while changed:
            changed = False
            for mono in list(work):
                if all(a >= b for a, b in zip(mono, lhs)):
                    c = work.pop(mono)
                    for gm, gc in rhs.items():
                        new = tuple(a - b + q for a, b, q in zip(mono, lhs, gm))
                        add = c * gc
                        work[new] = work[new] + add if new in work else add
                    changed = True
    open_idx = [model.vars.index(v) for v in model.open_vars]
    out = {}
    for mono, c in work.items():
        if sum(mono[i] for i in open_idx) > model.degree_cap:
            continue
        if all(x == 0 for x in c.coords):
            continue
        out[mono] = c
    return out


class RefSeries:
    """Series arithmetic on PadicElement coefficients: each coefficient
    product and sum is an element operation, and every result goes through
    the normal form.  The reference for the coordinate-tuple arithmetic."""

    def __init__(self, model, terms):
        self.model = model
        self.terms = _ref_normalize(model, terms)

    def _coerce(self, other):
        if isinstance(other, RefSeries):
            return other
        return RefSeries(self.model, {(0,) * len(self.model.vars):
                                      self.model._coerce(other)})

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for mono, c in other.terms.items():
            out[mono] = out[mono] + c if mono in out else c
        return RefSeries(self.model, out)

    def __neg__(self):
        return RefSeries(self.model, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        other = self._coerce(other)
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                prod = c1 * c2
                out[m] = out[m] + prod if m in out else prod
        return RefSeries(self.model, out)

    def __pow__(self, n):
        return power(self, n, self._coerce(1))

    def scale(self, c):
        c = self.model._coerce(c)
        return RefSeries(self.model, {m: x * c for m, x in self.terms.items()})

    def inverse(self):
        model = self.model
        const_mono = (0,) * len(model.vars)
        c = self.terms.get(const_mono, model.base.zero())
        if not c.is_unit():
            raise DomainError("series with non-unit constant term is not invertible")
        cinv = c.inverse()
        h = self._coerce(1) - self.scale(cinv)
        open_idx = [model.vars.index(v) for v in model.open_vars]
        for mono, coeff in h.terms.items():
            if mono != const_mono and not sum(mono[i] for i in open_idx):
                v = coeff.pi_valuation()
                if v is not None and v < 1:
                    raise DomainError("bounded monomial has unit coefficient")
        acc, pw = self._coerce(1), h
        for _ in range((model.degree_cap + 1) * model.base.precision + 1):
            if not pw.terms:
                break
            acc = acc + pw
            pw = pw * h
        return acc.scale(cinv)


def _assert_same_series(got, ref):
    """The same monomials in the same order, and for each coefficient the
    same coordinates, known precision and valuation."""
    assert isinstance(got, AdicSeries) and got.model is ref.model
    assert list(got.terms) == list(ref.terms)
    for mono, c in got.terms.items():
        r = ref.terms[mono]
        assert (c.coords, c.known_precision, c.pi_valuation()) \
            == (r.coords, r.known_precision, r.pi_valuation()), mono


ARITH_BASES = (PadicContext(5, precision=8), PadicContext(5, e=2, precision=8),
               PadicContext(3, f=2, precision=6))
ARITH_MODELS = {(base, ident): AlgebraModel(base, bounded_vars=bounded,
                                            open_vars=open_vars,
                                            relation=preset, degree_cap=3)
                for base in ARITH_BASES
                for (bounded, open_vars, preset), ident
                in zip(EVAL_MODELS, EVAL_IDS)}


def _drawn_coefficient(data, base):
    """A coefficient: a random element or a small integer (so that sums and
    products cancel), times pi^v, at full or reduced known precision."""
    if data.draw(st.booleans()):
        c = base.from_coords(data.draw(st.lists(
            st.integers(0, base.coeff_modulus - 1),
            min_size=base.degree, max_size=base.degree)))
    else:
        c = base.from_int(data.draw(st.sampled_from([1, -1, 2, -2, base.p])))
    c = c * base.pi_power(data.draw(st.sampled_from([0, 0, 1, 2])))
    k = data.draw(st.integers(1, base.precision))
    return c.reduce_mod(k) if k < c.known_precision else c


def _drawn_series(data, model):
    """A series and its element-path twin; the exponents reach past the
    relation and the degree cap."""
    mono = st.tuples(*[st.integers(0, 3)] * len(model.vars))
    terms = data.draw(st.dictionaries(mono, st.just(None), max_size=4))
    s = model.series({m: _drawn_coefficient(data, model.base) for m in terms})
    return s, RefSeries(model, dict(s.terms))


def _mirror(s, model):
    """s with the terms of odd degree in the first variable negated, so that
    s * mirror(s) cancels its cross terms and s + mirror(s) its odd ones."""
    t = model.series({m: -c if m[0] % 2 else c for m, c in s.terms.items()})
    return t, RefSeries(model, dict(t.terms))


@pytest.mark.parametrize("base", ARITH_BASES, ids=["Z5", "e2", "W9"])
@pytest.mark.parametrize("ident", EVAL_IDS)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_ring_operations_match_the_element_path(base, ident, data):
    """+, -, negation, scale and * on coordinate tuples give the terms, in
    the same order, with the coordinates, known precision and valuation of
    the element-path arithmetic, also where terms cancel to 0 mod M."""
    model = ARITH_MODELS[base, ident]
    a, ra = _drawn_series(data, model)
    b, rb = _mirror(a, model) if data.draw(st.booleans()) \
        else _drawn_series(data, model)
    c = _drawn_coefficient(data, base)
    _assert_same_series(a + b, ra + rb)
    _assert_same_series(a - b, ra - rb)
    _assert_same_series(a - a, ra - ra)
    _assert_same_series(-a, -ra)
    _assert_same_series(a.scale(c), ra.scale(c))
    _assert_same_series(a * b, ra * rb)
    _assert_same_series(b * a, rb * ra)
    _assert_same_series(a * 3 + 2, ra * 3 + 2)


@pytest.mark.parametrize("base", ARITH_BASES, ids=["Z5", "e2", "W9"])
@pytest.mark.parametrize("ident", EVAL_IDS)
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_inverse_and_powers_match_the_element_path(base, ident, data):
    """inverse() and a ** n for -3 <= n < 6 (n >= 0 without a unit constant
    term) agree with the element path, refusals included."""
    model = ARITH_MODELS[base, ident]
    a, ra = _drawn_series(data, model)
    if data.draw(st.booleans()):  # a unit constant term, so that a ** -n exists
        unit = base.from_int(data.draw(st.sampled_from([1, -1, 2])))
        a = a + model.constant(unit - a.constant_term())
        ra = RefSeries(model, dict(a.terms))
    try:
        want = ra.inverse()
    except DomainError:
        with pytest.raises(DomainError):
            a.inverse()
        want = None
    else:
        _assert_same_series(a.inverse(), want)
    for n in range(-3 if want is not None else 0, 6):
        _assert_same_series(a ** n, ra ** n)


def test_a_coefficient_of_another_context_is_refused_where_the_series_is_built():
    """The product reads the base context's kernel and modulus, so a
    coefficient of an unequal context is refused when the series is built,
    before any product; an equal context is accepted."""
    foreign = Z3.one()
    t = DISC.var("T")
    for build in (lambda: DISC.series({(1,): foreign}) * t,
                  lambda: t * DISC.constant(foreign),
                  lambda: t + foreign,
                  lambda: t.scale(foreign)):
        with pytest.raises(DomainError, match="mixed contexts"):
            build()
    equal = PadicContext(5, precision=12)
    assert equal is not Z5 and equal == Z5
    assert DISC.series({(1,): equal.from_int(2)}) * t == (t * t).scale(2)


def test_a_cancelled_coefficient_bounds_the_precision_its_rewrite_reaches():
    """On the annulus zeta1*zeta2 = pi^2 the cross terms of
    (1 + zeta1 + zeta2)(1 - zeta1 + zeta2) cancel to 0 known to 2 digits
    only, and the rewrite carries that zero to the constant term, which then
    knows 2 + 2 digits, as on the element path."""
    low_one = Z5.from_int(1).reduce_mod(2)
    a = ANN.series({(0, 0): 1, (1, 0): low_one, (0, 1): 1})
    b = ANN.series({(0, 0): 1, (1, 0): -1, (0, 1): 1})
    got = a * b
    assert got.coefficient((0, 0)).known_precision == 4
    _assert_same_series(got, RefSeries(ANN, dict(a.terms))
                        * RefSeries(ANN, dict(b.terms)))


def _drawn_unit_candidate(data, model):
    """A series whose unit test is in doubt: a drawn series whose constant
    term is made a unit (possibly known to few digits) or a non-unit, plus,
    where the model has bounded variables, a term on a monomial in one of
    them with a unit or a non-unit coefficient."""
    base = model.base
    a, _ = _drawn_series(data, model)
    const = data.draw(st.sampled_from(["unit", "non-unit", "as drawn"]))
    if const != "as drawn":
        c = base.from_int(data.draw(st.sampled_from([1, -1, 2])))
        if const == "non-unit":
            c = c * base.pi_power(data.draw(st.integers(1, 2)))
        k = data.draw(st.integers(1, base.precision))
        c = c.reduce_mod(k) if k < c.known_precision else c
        a = a + model.constant(c - a.constant_term())
    if model.bounded_vars and data.draw(st.booleans()):
        mono = [0] * len(model.vars)
        mono[model.var_index(data.draw(st.sampled_from(model.bounded_vars)))] \
            = data.draw(st.integers(1, 2))
        a = a + model.series({tuple(mono): _drawn_coefficient(data, base)})
    return a


@pytest.mark.parametrize("base", ARITH_BASES, ids=["Z5", "e2", "W9"])
@pytest.mark.parametrize("ident", EVAL_IDS)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_unit_obstruction_is_none_exactly_when_inverse_returns(base, ident,
                                                              data):
    """unit_obstruction() is None exactly when inverse() returns, and is
    otherwise the message inverse() raises; the element-path inverse (the
    old test on h = 1 - a/c) refuses the same series."""
    model = ARITH_MODELS[base, ident]
    a = _drawn_unit_candidate(data, model)
    reason = a.unit_obstruction()
    try:
        a.inverse()
    except DomainError as exc:
        assert reason == str(exc)
    else:
        assert reason is None
    try:
        RefSeries(model, dict(a.terms)).inverse()
    except DomainError:
        assert reason is not None
    else:
        assert reason is None


@pytest.mark.parametrize("base", ARITH_BASES, ids=["Z5", "e2", "W9"])
@pytest.mark.parametrize("ident", EVAL_IDS)
def test_unit_obstruction_reads_the_constant_term_and_bounded_monomials(
        base, ident):
    """A non-unit constant term (pi, pi known to two digits, 0) is refused,
    and so is 1 + 2x for a bounded variable x; 1 known to one digit passes
    alone, plus pi times a bounded variable and plus an open one."""
    model = ARITH_MODELS[base, ident]
    pi, low_one = base.pi_power(1), base.from_int(1).reduce_mod(1)
    for const in (pi, pi.reduce_mod(2), base.zero()):
        reason = model.constant(const).unit_obstruction()
        assert "non-unit constant term" in reason
    assert model.constant(low_one).unit_obstruction() is None
    for v in model.vars:
        x = model.var(v)
        if model.is_open(v):
            assert (x + low_one).unit_obstruction() is None
            continue
        assert (x.scale(pi) + low_one).unit_obstruction() is None
        reason = (x.scale(base.from_int(2)) + low_one).unit_obstruction()
        assert f"bounded monomial {v} has unit coefficient" in reason
