"""Core valuation-ring arithmetic: exactness, canonical reduction, and the
gamma-exponent calculus for marked extensions."""

import gc
import itertools
import random
import re
import weakref
from fractions import Fraction
from math import ceil

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from loccon import padic
from loccon.padic import (
    DomainError,
    InconclusiveError,
    PadicContext,
    PadicElement,
    PadicNumber,
    PrecisionError,
    congruence_equiv_audit,
    congruence_transfer_holds,
    embed,
    gamma_exponent,
    gamma_injectivity_exhaustive,
    is_extension,
    relative_ramification,
)
from loccon.specfile import parse_spec

Z5 = PadicContext(5, precision=12)
RAM2 = PadicContext(5, e=2, precision=12)
UNRAM2 = PadicContext(5, f=2, precision=12)
MIXED = PadicContext(3, f=2, e=2, precision=12)

CONTEXTS = [Z5, RAM2, UNRAM2, MIXED, PadicContext(2, e=3, precision=12)]


def rand_elem(ctx, rng):
    return ctx.random_element(rng)


def same(a, b):
    return (a - b).pi_valuation() is None


# -- construction ------------------------------------------------------------


def test_rejects_composite_p():
    with pytest.raises(DomainError):
        PadicContext(6)


def test_rejects_reducible_unram_poly():
    # x^2 - 1 = (x-1)(x+1) mod 5
    with pytest.raises(DomainError):
        PadicContext(5, f=2, unram_poly=[-1, 0, 1])


def test_an_f1_context_ignores_its_unram_poly():
    """W = Z_p reads no unramified polynomial, so every degree-1 choice
    names the same ring: equal, hashed alike and mixed in arithmetic.  A
    polynomial that is not monic of degree 1 is still refused."""
    plain, other = PadicContext(5), PadicContext(5, unram_poly=[3, 1])
    assert plain == other and hash(plain) == hash(other)
    assert (plain.one() + other.one()).coords == (2,)
    spec = parse_spec("[context base]\np = 5\nunram_poly = 3 1\n")
    assert spec.sole("contexts") == plain
    with pytest.raises(DomainError):
        PadicContext(5, unram_poly=[3, 2])


def _trial_division_irreducible(poly, p):
    """No monic factor of degree 1..d/2, by dividing by each one mod p."""
    d = len(poly) - 1
    for k in range(1, d // 2 + 1):
        for tail in itertools.product(range(p), repeat=k):
            r = [c % p for c in poly]
            den = list(tail) + [1]
            for top in range(d, k - 1, -1):
                lead = r[top]
                for i in range(k + 1):
                    r[top - k + i] = (r[top - k + i] - lead * den[i]) % p
            if not any(r[:k]):
                return False
    return True


@pytest.mark.parametrize("p,max_degree", [(2, 8), (3, 6)])
def test_irreducibility_matches_trial_division(p, max_degree):
    for d in range(1, max_degree + 1):
        for tail in itertools.product(range(p), repeat=d):
            poly = list(tail) + [1]
            assert padic._is_irreducible_mod_p(poly, p) \
                == _trial_division_irreducible(poly, p), poly


def test_rejects_product_of_two_cubics():
    # x^6+x^5+...+1 = (x^3+x+1)(x^3+x^2+1) mod 2: no roots, no quadratic factor
    with pytest.raises(DomainError):
        PadicContext(2, f=6, unram_poly=[1] * 7)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_default_unram_polys_are_irreducible(p):
    for f in range(2, 7):
        ctx = PadicContext(p, f=f, precision=2)
        assert _trial_division_irreducible(list(ctx.unram_poly), p)


def test_rejects_non_eisenstein():
    with pytest.raises(DomainError):
        PadicContext(5, e=2, eis_poly=[[-25], [0], [1]])
    with pytest.raises(DomainError):
        PadicContext(5, e=2, eis_poly=[[-5], [1], [1]])


def test_degree_and_residue_field():
    assert MIXED.degree == 4
    assert MIXED.residue_field_size == 9
    assert UNRAM2.residue_field_size == 25


# -- arithmetic --------------------------------------------------------------


@pytest.mark.parametrize("ctx", CONTEXTS)
def test_ring_axioms_sampled(ctx):
    rng = random.Random(7)
    for _ in range(25):
        a, b, c = (rand_elem(ctx, rng) for _ in range(3))
        assert same((a + b) + c, a + (b + c))
        assert same(a * b, b * a)
        assert same(a * (b + c), a * b + a * c)
        assert (a - a).pi_valuation() is None


def test_integer_embedding_is_a_ring_map():
    for ctx in CONTEXTS:
        for m in (-7, 0, 3, ctx.p, ctx.p ** 2 + 1):
            for n in (-2, 5, ctx.p):
                lhs = ctx.from_int(m) * ctx.from_int(n)
                assert same(lhs, ctx.from_int(m * n))


def test_valuation_oracles():
    assert Z5.from_int(5).pi_valuation() == 1
    assert Z5.from_int(7).pi_valuation() == 0
    assert RAM2.pi().pi_valuation() == 1
    assert RAM2.from_int(5).pi_valuation() == 2
    assert (RAM2.pi() ** 3 * RAM2.from_int(2)).pi_valuation() == 3


def test_valuation_of_zero_is_flagged_not_infinite():
    z = Z5.zero()
    assert z.pi_valuation() is None
    assert z.pi_valuation_lower() == z.known_precision


def test_pi_power_valuations():
    for ctx in CONTEXTS:
        for k in range(0, 2 * ctx.e):
            assert ctx.pi_power(k).pi_valuation() == k


def test_eisenstein_relation():
    # pi^e + sum b_i pi^i = 0 by construction
    for ctx in CONTEXTS:
        acc = ctx.pi_power(ctx.e)
        for i in range(ctx.e):
            bi = ctx.element_from_poly([list(ctx.eis_poly[i])] + [[0] * ctx.f] * (ctx.e - 1))
            acc = acc + bi * ctx.pi_power(i)
        assert acc.pi_valuation() is None


def test_reduce_mod_is_canonical():
    x = RAM2.pi() + RAM2.pi() ** 3
    r = x.reduce_mod(2)
    assert same(r, RAM2.pi())
    assert Z5.from_int(7).reduce_mod(1).coords[0] == 2


def test_reduce_mod_idempotent():
    rng = random.Random(3)
    for ctx in CONTEXTS:
        for _ in range(10):
            x = rand_elem(ctx, rng)
            m = rng.randrange(1, ctx.precision)
            assert x.reduce_mod(m).reduce_mod(m).coords == x.reduce_mod(m).coords


def test_reduce_mod_beyond_precision_raises():
    x = Z5.from_int(1)
    with pytest.raises(PrecisionError):
        x.reduce_mod(Z5.precision + 1)


@pytest.mark.parametrize("ctx", CONTEXTS)
def test_unit_inverse_round_trip(ctx):
    rng = random.Random(11)
    for _ in range(15):
        u = ctx.random_unit(rng)
        prod = u * u.inverse()
        assert (prod - ctx.one()).pi_valuation() is None


def test_non_unit_inverse_rejected():
    with pytest.raises(DomainError):
        Z5.from_int(5).inverse()


@pytest.mark.parametrize("ctx", CONTEXTS)
def test_shift_down_round_trip(ctx):
    rng = random.Random(5)
    for _ in range(15):
        u = ctx.random_unit(rng)
        k = rng.randrange(0, 4)
        x = u * ctx.pi_power(k)
        assert same(x.shift_down(k), u)


def test_shift_down_past_the_known_digits_is_a_precision_error():
    # indistinguishable from 0 with 3 known digits: pi^4 | x cannot be decided
    x = Z5.from_int(5 ** 3).reduce_mod(3)
    with pytest.raises(PrecisionError):
        x.shift_down(4)
    assert x.shift_down(3).known_precision == 0


def test_shift_down_below_an_exact_valuation_is_a_domain_error():
    for ctx in CONTEXTS:
        x = ctx.pi_power(2).reduce_mod(3)
        with pytest.raises(DomainError):
            x.shift_down(3)


def test_division_by_p_in_ramified_context():
    # 35 = 7 * 5 = 7 * pi^2 in the pi^2 = 5 tower
    x = RAM2.from_int(35)
    assert same(x.shift_down(1), RAM2.from_int(7) * RAM2.pi())


def test_teichmuller_lifts():
    for ctx in (Z5, UNRAM2, MIXED):
        q = ctx.residue_field_size
        for a in range(1, ctx.p):
            t = ctx.teichmuller(a)
            assert (t ** q - t).pi_valuation() is None


def test_enumerate_residues_counts():
    assert len(list(Z5.enumerate_residues(2))) == 25
    assert len(list(RAM2.enumerate_residues(2))) == 25
    assert len(list(UNRAM2.enumerate_residues(1))) == 25


@given(st.integers(min_value=-10 ** 6, max_value=10 ** 6),
       st.integers(min_value=-10 ** 6, max_value=10 ** 6))
@settings(max_examples=60)
def test_from_int_addition_commutes(m, n):
    assert same(Z5.from_int(m) + Z5.from_int(n), Z5.from_int(m + n))


# -- precision tracking ------------------------------------------------------


def test_multiplication_gains_precision_from_valuation():
    x = RAM2.pi() ** 3
    y = RAM2.random_element(random.Random(1))
    prod = x * y
    assert prod.known_precision >= min(RAM2.precision, y.known_precision + 3)


def test_agrees_with_respects_known_precision():
    a = Z5.from_int(1)
    b = Z5.from_int(1 + 5 ** 11)
    assert same(a.reduce_mod(5), b.reduce_mod(5))


# -- extensions and the gamma calculus ---------------------------------------


def test_gamma_exponent_values():
    assert gamma_exponent(1, 3) == 3
    assert gamma_exponent(2, 3) == 5
    assert gamma_exponent(3, 2) == 4
    with pytest.raises(DomainError):
        gamma_exponent(0, 1)


def test_extension_support_matrix():
    assert is_extension(Z5, RAM2)
    assert is_extension(Z5, MIXED) is False  # different p
    assert is_extension(UNRAM2, UNRAM2)
    assert not is_extension(RAM2, Z5)
    assert relative_ramification(Z5, RAM2) == 2


def test_embed_is_additive_and_multiplicative():
    rng = random.Random(2)
    for _ in range(10):
        a, b = Z5.random_element(rng), Z5.random_element(rng)
        ea, eb = embed(a, RAM2), embed(b, RAM2)
        assert same(ea + eb, embed(a + b, RAM2))
        assert same(ea * eb, embed(a * b, RAM2))


def test_embed_scales_valuation():
    assert embed(Z5.from_int(5), RAM2).pi_valuation() == 2


def test_embed_rejects_an_unsupported_pair():
    for x, target in ((RAM2.one(), Z5), (Z5.one(), MIXED), (MIXED.one(), UNRAM2)):
        with pytest.raises(DomainError, match="unsupported extension pair"):
            embed(x, target)
    same_as_z5 = PadicContext(5, precision=12)
    assert embed(Z5.from_int(7), same_as_z5) == Z5.from_int(7)


def test_gamma_injectivity_small():
    ok, witness = gamma_injectivity_exhaustive(Z5, RAM2, 2)
    assert ok and witness is None


def test_gamma_exponent_is_sharp():
    # at exponent gamma + 1 the reduction map is no longer injective
    e_rel = 2
    n = 2
    g = gamma_exponent(e_rel, n)
    x = Z5.from_int(5 ** (n - 1))  # v_piE = 2(n-1) = gamma - 1... distinct mod pi_L^n
    img = embed(x, RAM2)
    assert img.pi_valuation() == 2 * (n - 1)
    assert img.pi_valuation() >= g - 1
    # so x == 0 in O_E / pi^(gamma-1) yet x != 0 in O_L / pi_L^n
    assert img.reduce_mod(g - 1).pi_valuation() is None
    assert x.reduce_mod(n).pi_valuation() is not None


def test_congruence_transfer_two_way():
    rng = random.Random(9)
    beta = RAM2.random_element(rng)
    alpha = beta + embed(Z5.from_int(25), RAM2)
    ok, lhs, rhs = congruence_transfer_holds(alpha, beta, Z5, 2)
    assert ok and lhs and rhs


def test_congruence_equiv_audit_clean():
    rep = congruence_equiv_audit(Z5, RAM2, 2, samples=100, seed=0)
    assert rep["verdict"] == "pass"
    assert rep["gamma"] == 3


# -- field elements ----------------------------------------------------------


def test_padic_number_inverse():
    x = PadicNumber(RAM2.from_int(35))  # v_pi = 2
    inv = x.inverse()
    prod = x * inv
    assert (prod - PadicNumber(RAM2.one())).num.pi_valuation() is None


def test_padic_number_zero_to_its_digits_is_a_precision_error():
    """0 to K digits may be a unit of valuation K: inverting it is
    inconclusive, not a usage error."""
    with pytest.raises(PrecisionError, match="indistinguishable from 0"):
        PadicNumber(RAM2.zero()).inverse()
    with pytest.raises(PrecisionError):
        PadicNumber(RAM2.from_int(5).reduce_mod(2), denom_pow=1).inverse()


def test_padic_number_vp():
    x = PadicNumber(RAM2.pi(), denom_pow=3)
    assert Fraction(x.pi_valuation(), RAM2.e) == Fraction(-1)
    assert not x.is_integral()
    assert PadicNumber(RAM2.from_int(5), denom_pow=2).is_integral()


def test_padic_number_to_integral():
    x = PadicNumber(RAM2.from_int(5), denom_pow=1)
    assert same(x.to_integral(), RAM2.pi())


def _naive_pow(x, n, one):
    """x ** n as n products from ``one`` (of the inverse when n < 0)."""
    if n < 0:
        x, n = x.inverse(), -n
    out = one
    for _ in range(n):
        out = out * x
    return out


def _power_cases(ctx, rng):
    """Units, non-units, zero and elements with fewer known digits."""
    xs = [ctx.zero(), ctx.one(), ctx.pi(), -ctx.pi_power(2)]
    for _ in range(6):
        x = ctx.random_element(rng)
        xs.append(x.reduce_mod(rng.randrange(1, ctx.precision))
                  if rng.random() < 0.5 else x)
    return xs


def _raises_like(exc, call):
    """``call()`` raises exactly the class of the reference's ``exc``."""
    with pytest.raises(type(exc)) as info:
        call()
    assert type(info.value) is type(exc)


@pytest.mark.parametrize("ctx", CONTEXTS, ids=["Z5", "ram2", "unram2", "mixed", "Z2e3"])
def test_power_matches_naive_products(ctx):
    """PadicElement and PadicNumber powers by the one square-and-multiply
    routine against n products, n from -5 to 9 where defined: the same
    coordinates, known precision and denominator."""
    rng = random.Random(f"pow{ctx!r}")
    for x in _power_cases(ctx, rng):
        num = PadicNumber(x, rng.randrange(0, 3))
        for n in range(-5, 10):
            try:
                expect = _naive_pow(x, n, ctx.one())
            except (DomainError, InconclusiveError) as exc:
                _raises_like(exc, lambda: x ** n)
            else:
                got = x ** n
                assert (got.coords, got.known_precision) \
                    == (expect.coords, expect.known_precision)
            try:
                expect = _naive_pow(num, n, PadicNumber(ctx.one()))
            except (DomainError, InconclusiveError) as exc:
                _raises_like(exc, lambda: num ** n)
            else:
                got = num ** n
                assert (got.num.coords, got.num.known_precision, got.denom_pow) \
                    == (expect.num.coords, expect.num.known_precision,
                        expect.denom_pow)


def test_transfer_check_refuses_a_congruence_it_cannot_see():
    """With 2 known digits, a - b = 5 (v_E = 2) looks like 0; claiming
    a = b mod pi_E^3 from it would be unsound."""
    L = PadicContext(5, precision=12)
    E = PadicContext(5, e=2, precision=2)
    b = E.from_int(3)
    a = b + embed(L.from_int(5), E)
    with pytest.raises(PrecisionError):
        congruence_transfer_holds(a, b, L, 2)
    # gamma = 1 needs one digit: v_E(5) >= 1 and v_L(5) >= 1 both hold
    assert congruence_transfer_holds(a, b, L, 1) == (True, True, True)


# -- the validated-pair cache -------------------------------------------------


def test_an_unsupported_pair_is_rejected_before_and_after_a_cached_one():
    target = PadicContext(5, e=2, precision=8)
    bad = [PadicContext(3, precision=8), PadicContext(5, e=2, eis_poly=[[10], [5], [1]])]
    for _ in range(2):
        for ctx in bad:
            with pytest.raises(DomainError, match="unsupported extension pair"):
                embed(ctx.one(), target)
    base = PadicContext(5, precision=8)
    assert embed(base.from_int(5), target).pi_valuation() == 2
    for _ in range(2):
        for ctx in bad:
            with pytest.raises(DomainError, match="unsupported extension pair"):
                embed(ctx.one(), target)
            with pytest.raises(DomainError, match="unsupported extension pair"):
                relative_ramification(ctx, target)


def test_a_source_that_reuses_a_dead_sources_id_is_validated_afresh():
    """The cache is keyed by id(ctx_L); a new object at a dead context's
    address is checked, not taken for the dead one."""
    target = PadicContext(5, e=2, precision=8)
    base = PadicContext(5, precision=8)
    assert relative_ramification(base, target) == 2
    dead_id = id(base)
    del base
    made = []  # kept alive, so each try takes a fresh address
    while len(made) < 100 and (not made or id(made[-1]) != dead_id):
        made.append(PadicContext(3, precision=8))
    if id(made[-1]) != dead_id:
        pytest.skip("the allocator reused no address")
    with pytest.raises(DomainError, match="unsupported extension pair"):
        relative_ramification(made[-1], target)


def test_an_equal_source_context_gets_the_same_relative_ramification():
    target = PadicContext(5, e=3, precision=9)
    base, twin = PadicContext(5, precision=8), PadicContext(5, precision=8)
    assert base == twin and base is not twin
    for _ in range(2):
        assert relative_ramification(base, target) == relative_ramification(twin, target) == 3
        a, b = embed(base.from_int(7), target), embed(twin.from_int(7), target)
        assert (a.coords, a.known_precision) == (b.coords, b.known_precision)


def test_embedding_into_an_equal_context_returns_the_element():
    ctx = PadicContext(5, e=2, precision=8)
    twin = PadicContext(5, e=2, precision=6)
    assert ctx == twin and ctx is not twin
    x = ctx.from_int(7)
    for _ in range(2):
        assert embed(x, twin) is x
        assert embed(x, ctx) is x


# -- the product and the shift against the pi-power-table reference ----------

# Z_p at p = 2, 3, 5; f = 2, 3; e = 2, 3 with non-default Eisenstein
# polynomials; the default e = 2; f = 2 and f = 3 under e = 2 with omega in
# the Eisenstein coefficients
SHAPES = [
    dict(p=2),
    dict(p=3),
    dict(p=5),
    dict(p=5, f=2),
    dict(p=3, f=3),
    dict(p=5, e=2, eis_poly=[[10], [5], [1]]),
    dict(p=3, e=3, eis_poly=[[6], [3], [9], [1]]),
    dict(p=5, e=2),
    dict(p=3, f=2, e=2, eis_poly=[[3, 6], [0, 3], [1, 0]]),
    dict(p=2, f=3, e=2, eis_poly=[[2, 4, 2], [2, 0, 6], [1, 0, 0]]),
]


def _ref_poly_mul_mod(a, b, modulus):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % modulus
    return out


def _ref_poly_reduce(poly, monic, modulus):
    poly = [c % modulus for c in poly]
    d = len(monic) - 1
    while len(poly) > d:
        lead = poly.pop()
        if lead:
            for k in range(d):
                poly[len(poly) - d + k] = (poly[len(poly) - d + k] - lead * monic[k]) % modulus
    poly += [0] * (d - len(poly))
    return poly


def _ref_w_mul(ctx, a, b):
    M = ctx.coeff_modulus
    return _ref_poly_reduce(_ref_poly_mul_mod(a, b, M), list(ctx.unram_poly), M)


def _ref_pi_powers(ctx):
    """Coordinates of pi^k for k = 0 .. 2e-2, as e x f tables."""
    e, f, M = ctx.e, ctx.f, ctx.coeff_modulus
    table = []
    for k in range(e):
        rows = [[0] * f for _ in range(e)]
        rows[k][0] = 1
        table.append(rows)
    for k in range(e, 2 * e - 1):
        prev = table[k - 1]
        rows = [[0] * f for _ in range(e)]
        for i in range(e - 1):
            rows[i + 1] = list(prev[i])
        for i in range(e):
            prod = _ref_w_mul(ctx, prev[e - 1], list(ctx.eis_poly[i]))
            for j in range(f):
                rows[i][j] = (rows[i][j] - prod[j]) % M
        table.append(rows)
    return table


def ref_mul(x, y):
    """(coords, known_precision) of x * y: every pair of pi-rows through the
    pi-power table, reducing after each term."""
    ctx = x.context
    e, f, M = ctx.e, ctx.f, ctx.coeff_modulus
    table = _ref_pi_powers(ctx)
    a = [list(x.coords[i * f:(i + 1) * f]) for i in range(e)]
    b = [list(y.coords[i * f:(i + 1) * f]) for i in range(e)]
    acc = [[0] * f for _ in range(e)]
    for i in range(e):
        for k in range(e):
            prod = _ref_w_mul(ctx, a[i], b[k])
            for r, row in enumerate(table[i + k]):
                term = _ref_w_mul(ctx, prod, row)
                for j in range(f):
                    acc[r][j] = (acc[r][j] + term[j]) % M
    va = min(x.pi_valuation_lower(), x.known_precision)
    vb = min(y.pi_valuation_lower(), y.known_precision)
    prec = min(ctx.precision, x.known_precision + vb, y.known_precision + va)
    return tuple(c for row in acc for c in row), prec


def _ref_eis_unit_inverse(ctx):
    """u^-1 mod M in W, where the Eisenstein constant term is -p u."""
    p, M = ctx.p, ctx.coeff_modulus
    u = [((-c) % (M * p) // p) % M for c in ctx.eis_poly[0]]
    one = [1] + [0] * (ctx.f - 1)
    y = next(list(y) for y in itertools.product(range(p), repeat=ctx.f)
             if [c % p for c in _ref_w_mul(ctx, u, list(y))] == one)
    acc = 1
    while acc < ctx.coeff_digits:
        two_minus = [(-c) % M for c in _ref_w_mul(ctx, u, y)]
        two_minus[0] = (two_minus[0] + 2) % M
        y = _ref_w_mul(ctx, y, two_minus)
        acc *= 2
    return y


def ref_shift_down_once(x):
    """(coords, known_precision) of x / pi by shifting pi-rows and adding
    (a_0 / p) u^-1 (pi^(e-1) + sum_{i>=1} b_i pi^(i-1)) row by row."""
    ctx = x.context
    e, f, M, p = ctx.e, ctx.f, ctx.coeff_modulus, ctx.p
    rows = [list(x.coords[i * f:(i + 1) * f]) for i in range(e)]
    assert not any(c % p for c in rows[0])
    out = rows[1:] + [[0] * f]
    coef = _ref_w_mul(ctx, [c // p for c in rows[0]], _ref_eis_unit_inverse(ctx))
    for j in range(f):
        out[e - 1][j] = (out[e - 1][j] + coef[j]) % M
    for i in range(1, e):
        term = _ref_w_mul(ctx, coef, list(ctx.eis_poly[i]))
        for j in range(f):
            out[i - 1][j] = (out[i - 1][j] + term[j]) % M
    return tuple(c for row in out for c in row), x.known_precision - 1


def _drawn_element(data, ctx):
    coords = data.draw(st.lists(st.integers(0, ctx.coeff_modulus - 1),
                                min_size=ctx.degree, max_size=ctx.degree))
    if data.draw(st.booleans()):  # sparse rows exercise the zero skips
        coords = [c if i % 2 else 0 for i, c in enumerate(coords)]
    return PadicElement(ctx, tuple(coords),
                        data.draw(st.integers(0, ctx.precision)))


@given(shape=st.sampled_from(SHAPES), precision=st.integers(1, 14), data=st.data())
@settings(max_examples=300, deadline=None)
def test_product_matches_the_pi_power_table_reference(shape, precision, data):
    ctx = PadicContext(precision=precision, **shape)
    x, y = _drawn_element(data, ctx), _drawn_element(data, ctx)
    prod = x * y
    assert (prod.coords, prod.known_precision) == ref_mul(x, y)


@given(shape=st.sampled_from(SHAPES), precision=st.integers(1, 14),
       k=st.integers(0, 8))
@settings(max_examples=60, deadline=None)
def test_pi_power_matches_sequential_reference_products(shape, precision, k):
    ctx = PadicContext(precision=precision, **shape)
    want = ctx.one()
    for _ in range(k):
        coords, prec = ref_mul(want, ctx.pi())
        want = PadicElement(ctx, coords, prec)
    got = ctx.pi_power(k)
    assert (got.coords, got.known_precision) == (want.coords, want.known_precision)


@given(shape=st.sampled_from(SHAPES), precision=st.integers(1, 14), data=st.data())
@settings(max_examples=300, deadline=None)
def test_shift_down_matches_the_row_shift_reference(shape, precision, data):
    ctx = PadicContext(precision=precision, **shape)
    k = data.draw(st.integers(1, precision))
    x = _drawn_element(data, ctx) * ctx.pi_power(k)
    want = x
    for _ in range(k):
        coords, prec = ref_shift_down_once(want)
        want = PadicElement(ctx, coords, prec)
    got = x.shift_down(k)
    assert (got.coords, got.known_precision) == (want.coords, want.known_precision)


def _full_precision_element(data, ctx):
    return ctx.from_coords(data.draw(st.lists(
        st.integers(0, ctx.coeff_modulus - 1),
        min_size=ctx.degree, max_size=ctx.degree)))


FIELD_SHAPES = SHAPES + [dict(p=11, f=2)]  # q = 121: no addition/product tables


@given(shape=st.sampled_from(FIELD_SHAPES), precision=st.integers(1, 8), data=st.data())
@settings(max_examples=300, deadline=None)
def test_residue_field_of_commutes_with_the_ring_operations(shape, precision, data):
    ctx = PadicContext(precision=precision, **shape)
    F = ctx.residue_field
    x, y = _full_precision_element(data, ctx), _full_precision_element(data, ctx)
    a, b = F.of(x), F.of(y)
    assert 0 <= a < F.q
    assert F.of(x + y) == F.add(a, b)
    assert F.of(x - y) == F.sub(a, b)
    assert F.of(-x) == F.sub(0, a)
    assert F.of(x * y) == F.mul(a, b)
    assert F.of(F.lift(a)) == a
    if x.is_unit():
        assert F.of(x.inverse()) == F.inv(a)
    else:
        assert a == 0
        with pytest.raises(DomainError):
            F.inv(a)
    root = F.sqrt(F.mul(a, a))
    assert root is not None and F.mul(root, root) == F.mul(a, a)
    with pytest.raises(PrecisionError):
        F.of(PadicElement(ctx, x.coords, 0))


@given(shape=st.sampled_from(FIELD_SHAPES))
@settings(max_examples=40, deadline=None)
def test_residue_field_indexes_residues_in_enumeration_order(shape):
    ctx = PadicContext(precision=3, **shape)
    F = ctx.residue_field
    residues = list(ctx.enumerate_residues(1))
    assert [F.of(r) for r in residues] == list(range(F.q))
    assert all(F.lift(a) == r for a, r in enumerate(residues))
    # reports sort residues by coordinates: that is the order of the ints
    coords = [F.lift(a).coords for a in range(F.q)]
    assert coords == sorted(coords)
    assert F.of(ctx.one()) == F.one
    squares = {F.mul(a, a) for a in range(F.q)}
    assert [a for a in range(F.q) if F.sqrt(a) is not None] == sorted(squares)


def test_a_context_and_its_residue_field_leave_no_cycle():
    """The residue field and the validated-pair cache, a context's own pair
    included, hold contexts by weak reference."""
    gc.disable()
    try:
        ctx = PadicContext(5, f=2, precision=6)
        base = PadicContext(5, precision=6)
        assert ctx.residue_field.lift(7) == ctx.from_coords([1, 2])
        assert embed(base.from_int(3), ctx) == ctx.from_int(3)  # base -> ctx
        assert relative_ramification(ctx, ctx) == 1  # ctx -> ctx, on itself
        assert ctx.from_int(30).reduce_mod(2).coords == (5, 0)
        refs = weakref.ref(ctx), weakref.ref(base)
        del ctx, base
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()


def _scanned_valuation(x):
    return PadicElement(x.context, x.coords, x.known_precision).pi_valuation()


@given(shape=st.sampled_from(SHAPES), precision=st.integers(1, 14), data=st.data())
@settings(max_examples=300, deadline=None)
def test_cached_valuations_match_a_fresh_scan(shape, precision, data):
    """Products, inverses, shifts and negation set their result's valuation
    without scanning it; every cached valuation must be what a scan finds."""
    ctx = PadicContext(precision=precision, **shape)
    x, y = _drawn_element(data, ctx), _drawn_element(data, ctx)
    if data.draw(st.booleans()):
        x.pi_valuation()  # negation copies a known valuation
    k = data.draw(st.integers(0, precision))
    m = data.draw(st.integers(0, x.known_precision))
    results = [x + y, x - y, -x, x * y, x * y * x, x.reduce_mod(m),
               (x * ctx.pi_power(k)).shift_down(k),
               (ctx.one() + ctx.pi() * y).inverse()]
    if x.is_unit():
        results.append(x.inverse())
    for r in results:
        assert r.pi_valuation() == _scanned_valuation(r)


def _zp_operand(data, ctx):
    """A Z_p element that may be zero or a multiple of a p-power, at a known
    precision that may be below the cap."""
    M = ctx.coeff_modulus
    c = data.draw(st.integers(0, M - 1))
    k = data.draw(st.integers(0, ctx.coeff_digits))
    c = data.draw(st.sampled_from([0, c, c * ctx.p ** k % M]))
    return PadicElement(ctx, (c,), data.draw(st.integers(0, ctx.precision)))


@given(p=st.sampled_from([2, 3, 5, 7]), precision=st.integers(1, 14), data=st.data())
@settings(max_examples=300, deadline=None)
def test_zp_kernel_matches_the_general_kernel(p, precision, data):
    ctx = PadicContext(p, precision=precision)
    assert ctx._mul_coords is padic._mul_coords_zp
    x, y = _zp_operand(data, ctx), _zp_operand(data, ctx)
    if data.draw(st.booleans()):
        x.pi_valuation()  # a product reads cached and fresh valuations alike
    xy = padic._mul_coords_general(ctx, x.coords, y.coords)
    assert padic._mul_coords_zp(ctx, x.coords, y.coords) == xy
    xyx = padic._mul_coords_general(ctx, xy, x.coords)
    for r, want in ((x * y, xy), (y * x, xy), (x * y * x, xyx)):
        assert r.coords == want
        assert r.pi_valuation() == _scanned_valuation(r)


def test_pi_is_the_eisenstein_root_when_e_is_one():
    """For e = 1 the uniformizer is the root -b_0 of x + b_0, the element
    that division by pi divides by."""
    ctx = PadicContext(5, eis_poly=[[-10], [1]], precision=6)
    assert ctx.pi().coords == (10,)
    assert ctx.pi().shift_down(1).coords == (1,)
    assert ctx.pi_power(3).shift_down(3) == ctx.one()
    unram = PadicContext(5, f=2, eis_poly=[[-5, 5], [1, 0]], precision=6)
    assert unram.pi().shift_down(1) == unram.one()
    default = PadicContext(5, precision=6)
    assert default.pi().coords == default.from_int(5).coords == (5,)
    assert default.pi().shift_down(1).coords == (1,)


# -- the element path against the straightforward references ------------------


def _ref_int_val(n, p, modulus):
    n %= modulus
    if n == 0:
        return None
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def ref_pi_valuation(ctx, coords, known_precision):
    """The coordinate-by-coordinate scan: min over coordinates of e v_p + i."""
    e, f = ctx.e, ctx.f
    best = None
    for i in range(e):
        for j in range(f):
            v = _ref_int_val(coords[i * f + j], ctx.p, ctx.coeff_modulus)
            if v is not None and (best is None or e * v + i < best):
                best = e * v + i
    return None if best is None or best >= known_precision else best


def ref_add(x, y):
    M = x.context.coeff_modulus
    return (tuple((a + b) % M for a, b in zip(x.coords, y.coords)),
            min(x.known_precision, y.known_precision))


def ref_sub(x, y):
    """Negate, then add."""
    M = y.context.coeff_modulus
    neg = PadicElement(y.context, tuple((-b) % M for b in y.coords), y.known_precision)
    return ref_add(x, neg)


def ref_reduce_mod(x, m):
    ctx = x.context
    coords = []
    for i in range(ctx.e):
        mod = ctx.p ** max(0, ceil((m - i) / ctx.e))
        coords.extend(c % mod for c in x.coords[i * ctx.f:(i + 1) * ctx.f])
    return tuple(coords), m


def ref_from_coords(ctx, coords, precision=None):
    """(coords, known_precision), or the exception type raised."""
    coords = tuple(c % ctx.coeff_modulus for c in coords)
    if len(coords) != ctx.degree:
        return DomainError
    prec = min(ctx.precision if precision is None else precision, ctx.precision)
    return PrecisionError if prec < 0 else (coords, prec)


def ref_enumerate_residues(ctx, m):
    ranges = []
    for i in range(ctx.e):
        ranges += [range(ctx.p ** max(0, ceil((m - i) / ctx.e)))] * ctx.f
    return [(combo, m) for combo in itertools.product(*ranges)]


def ref_gamma_injectivity(ctx_L, ctx_E, n):
    """The element-based enumeration: embed each residue, then reduce it."""
    g = padic.gamma_exponent(relative_ramification(ctx_L, ctx_E), n)
    seen = {}
    for r in ctx_L.enumerate_residues(n):
        key = embed(r, ctx_E).reduce_mod(g).coords
        if key in seen:
            return False, (r, seen[key])
        seen[key] = r
    return True, None


def ref_embed(x, ctx_E):
    ctx_L = x.context
    if ctx_L == ctx_E:
        return x.coords, x.known_precision
    coords = [0] * ctx_E.degree
    for j in range(ctx_L.f):
        coords[j] = x.coords[j] % ctx_E.coeff_modulus
    return tuple(coords), min(ctx_E.precision, x.known_precision * (ctx_E.e // ctx_L.e))


def assert_matches(got, want):
    coords, prec = want
    assert (got.coords, got.known_precision) == (coords, prec)
    assert got.pi_valuation() == ref_pi_valuation(got.context, coords, prec)


@given(shape=st.sampled_from(SHAPES), precision=st.integers(1, 14), data=st.data())
@settings(max_examples=300, deadline=None)
def test_ring_operations_match_the_references(shape, precision, data):
    ctx = PadicContext(precision=precision, **shape)
    x, y = _drawn_element(data, ctx), _drawn_element(data, ctx)
    n = data.draw(st.integers(-3 * ctx.coeff_modulus, 3 * ctx.coeff_modulus))
    assert x.pi_valuation() == ref_pi_valuation(ctx, x.coords, x.known_precision)
    assert_matches(x + y, ref_add(x, y))
    assert_matches(x - y, ref_sub(x, y))
    assert_matches(n - x, ref_sub(ctx.from_int(n), x))
    v = ref_pi_valuation(ctx, *ref_sub(x, y))
    assert (x == y) == (v is None or v >= min(x.known_precision, y.known_precision))
    assert x == x
    for m in range(x.known_precision + 1):
        assert_matches(x.reduce_mod(m), ref_reduce_mod(x, m))


@given(shape=st.sampled_from(SHAPES), precision=st.integers(1, 14), data=st.data())
@settings(max_examples=200, deadline=None)
def test_constructors_match_the_references(shape, precision, data):
    ctx = PadicContext(precision=precision, **shape)
    M = ctx.coeff_modulus
    size = data.draw(st.sampled_from([ctx.degree, ctx.degree, ctx.degree + 1]))
    coords = data.draw(st.lists(st.integers(-2 * M, 2 * M), min_size=size, max_size=size))
    for prec in (None, data.draw(st.integers(-2, precision + 3))):
        want = ref_from_coords(ctx, coords, prec)
        if isinstance(want, type):
            with pytest.raises(want):
                ctx.from_coords(coords, prec)
        else:
            assert_matches(ctx.from_coords(coords, prec), want)
    m = data.draw(st.integers(0, min(precision, 4)))
    want = ref_enumerate_residues(ctx, m)
    assume(len(want) <= 2000)
    got = list(ctx.enumerate_residues(m))
    assert len(got) == len(want)
    for r, w in zip(got, want):
        assert_matches(r, w)


def test_residues_beyond_the_precision_are_refused():
    for m in (-1, Z5.precision + 1):
        with pytest.raises(PrecisionError):
            next(Z5.enumerate_residues(m))


@given(shape=st.sampled_from(SHAPES),
       precisions=st.tuples(st.integers(1, 14), st.integers(1, 14)), data=st.data())
@settings(max_examples=200, deadline=None)
def test_embed_matches_the_reference_on_every_supported_pair(shape, precisions, data):
    """Sources: Z_p and the unramified W below each shape, and the shape itself."""
    E = PadicContext(precision=precisions[1], **shape)
    p, f = shape["p"], shape.get("f", 1)
    for L in (PadicContext(p, precision=precisions[0]),
              PadicContext(p, f=f, precision=precisions[0]),
              PadicContext(precision=precisions[0], **shape)):
        assert is_extension(L, E)
        x = _drawn_element(data, L)
        for _ in range(2):  # validating the pair, then the cached pair
            got = embed(x, E)
            assert_matches(got, ref_embed(x, E))
            if L == E:
                assert got is x


# -- gamma injectivity on coordinate tuples ----------------------------------


def _eisenstein(p, f, e):
    """x^e + p x^(e-1) + ... + p x + p: Eisenstein, but not the default x^e - p."""
    unit = [p] + [0] * (f - 1)
    return [unit] * e + [[1] + [0] * (f - 1)]


def _gamma_pairs():
    for p, f, e_rel in itertools.product((2, 3, 5), (1, 2), (1, 2, 3)):
        L = PadicContext(p, f=f, precision=12)
        sources = [L] + ([PadicContext(p, precision=12)] if f == 2 else [])
        if e_rel == 1:
            targets = [L]
        else:
            targets = [PadicContext(p, f=f, e=e_rel, precision=12),
                       PadicContext(p, f=f, e=e_rel, precision=12,
                                    eis_poly=_eisenstein(p, f, e_rel))]
        for src in sources:
            for E in targets:
                yield src, E


def assert_same_injectivity(got, want):
    assert got[0] == want[0]
    if want[1] is None:
        assert got[1] is None
        return
    for a, b in zip(got[1], want[1], strict=True):
        assert a.context is b.context
        assert (a.coords, a.known_precision) == (b.coords, b.known_precision)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_gamma_injectivity_matches_the_element_reference(n):
    pairs = list(_gamma_pairs())
    # Z_p -> W(F_{p^2}) and a non-default Eisenstein polynomial are among them
    assert any(L.f == 1 and E.f == 2 and E.e == 1 for L, E in pairs)
    assert any(E.eis_poly != PadicContext(E.p, f=E.f, e=E.e).eis_poly
               for _, E in pairs)
    for L, E in pairs:
        got = gamma_injectivity_exhaustive(L, E, n)
        assert got == (True, None)
        assert_same_injectivity(got, ref_gamma_injectivity(L, E, n))


@pytest.mark.parametrize("L,E,n", [
    (Z5, Z5, 2), (Z5, RAM2, 2), (Z5, UNRAM2, 2),
    (UNRAM2, PadicContext(5, f=2, e=3, precision=12), 2),
    (PadicContext(3, f=2, e=2, precision=12), PadicContext(3, f=2, e=2, precision=12), 2),
    (PadicContext(2), PadicContext(2, e=3, eis_poly=_eisenstein(2, 1, 3)), 3),
])
def test_gamma_injectivity_reports_the_reference_witness(monkeypatch, L, E, n):
    """At exponent gamma - 1 the map is not injective: both enumerations
    stop at the same colliding pair."""
    gamma = padic.gamma_exponent
    monkeypatch.setattr(padic, "gamma_exponent", lambda e_rel, n: gamma(e_rel, n) - 1)
    ok, witness = gamma_injectivity_exhaustive(L, E, n)
    assert not ok
    assert_same_injectivity((ok, witness), ref_gamma_injectivity(L, E, n))
    a, b = witness
    assert a.context is b.context is L
    assert (a - b).reduce_mod(n).pi_valuation() is not None
    g = gamma(relative_ramification(L, E), n) - 1
    assert embed(a, E).reduce_mod(g).coords == embed(b, E).reduce_mod(g).coords


@pytest.mark.parametrize("L,E,n,exc,message", [
    (PadicContext(5, precision=3), RAM2, 4, PrecisionError,
     "residues mod pi^4 requested at precision 3"),
    (Z5, PadicContext(5, e=3, precision=4), 3, PrecisionError,
     "residue mod pi^7 requested but only 4 digits known"),
    (Z5, PadicContext(5, f=2, precision=2), 3, PrecisionError,
     "residue mod pi^3 requested but only 2 digits known"),
    (RAM2, Z5, 1, DomainError, "unsupported extension pair"),
    (Z5, RAM2, 0, DomainError, "depth n must be at least 1, got 0"),
])
def test_gamma_injectivity_raises_what_the_reference_raises(L, E, n, exc, message):
    for check in (gamma_injectivity_exhaustive, ref_gamma_injectivity):
        with pytest.raises(exc, match=re.escape(message)):
            check(L, E, n)


def test_gamma_injectivity_on_equal_contexts_ignores_the_target_precision():
    """embed is the identity between equal contexts, so E's lower precision
    is never consulted."""
    E = PadicContext(5, precision=4)
    assert ref_gamma_injectivity(Z5, E, 6) == (True, None)
    assert gamma_injectivity_exhaustive(Z5, E, 6) == (True, None)


# -- the congruence audit on coordinate tuples -------------------------------


def ref_congruence_equiv_audit(ctx_L, ctx_E, n, samples, seed):
    """The element loop: draw beta and delta as elements, embed delta, add,
    subtract and read the transfer off the difference."""
    e_rel = relative_ramification(ctx_L, ctx_E)
    m = padic.gamma_exponent(e_rel, n)
    if n * e_rel + 1 > ctx_E.precision:
        raise PrecisionError("context precision too small for this depth")
    rng = random.Random(seed)
    failures = []
    for _ in range(samples):
        beta = ctx_E.random_element(rng)
        delta_L = ctx_L.random_element(rng)
        diff = (beta + embed(delta_L, ctx_E)) - beta
        v = diff.pi_valuation()
        if v is None and diff.known_precision < m:
            raise PrecisionError(
                f"a - b is 0 to the {diff.known_precision} known digits; "
                f"deciding it mod pi_E^{m} needs {m}")
        lhs = v is None or v >= m
        rhs = v is None or v >= n * e_rel
        if lhs != rhs:
            failures.append({"delta_coords": list(delta_L.coords),
                             "lhs": lhs, "rhs": rhs})
    return {
        "p": ctx_L.p, "e_rel": e_rel, "n": n, "gamma": m,
        "samples": samples, "failures": failures,
        "verdict": "pass" if not failures else "fail",
    }


def _audit_outcome(audit, L, E, n, seed, samples=60):
    """The report, or the type and message of what the audit raised."""
    try:
        return audit(L, E, n, samples=samples, seed=seed)
    except InconclusiveError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_congruence_audit_matches_the_element_reference(n):
    for L, E in _gamma_pairs():
        for seed in range(3):
            got = congruence_equiv_audit(L, E, n, samples=60, seed=seed)
            assert got == ref_congruence_equiv_audit(L, E, n, 60, seed)
            assert got["verdict"] == "pass" and got["samples"] == 60


@pytest.mark.parametrize("L,E,n", [
    (Z5, Z5, 2), (Z5, RAM2, 2), (Z5, UNRAM2, 1),
    (UNRAM2, PadicContext(5, f=2, e=3, precision=12), 2), (MIXED, MIXED, 2),
    (PadicContext(2), PadicContext(2, e=3, eis_poly=_eisenstein(2, 1, 3)), 3),
])
def test_congruence_audit_reports_the_reference_witnesses(monkeypatch, L, E, n):
    """At exponent gamma - 1 the transfer fails on a difference of
    valuation gamma - 1: both loops draw the same samples, so they report
    the same delta coordinates in the same order."""
    gamma = padic.gamma_exponent
    monkeypatch.setattr(padic, "gamma_exponent", lambda e_rel, n: gamma(e_rel, n) - 1)
    for seed in range(3):
        got = congruence_equiv_audit(L, E, n, samples=200, seed=seed)
        assert got == ref_congruence_equiv_audit(L, E, n, 200, seed)
        assert got["verdict"] == "fail"


@pytest.mark.parametrize("prec_L,prec_E,n", [
    (20, 9, 4), (20, 9, 8), (6, 12, 5), (6, 12, 7), (3, 12, 11),
])
def test_congruence_audit_between_equal_contexts_of_other_precision(prec_L, prec_E, n):
    """L == E with its own precision: the difference knows min(N_E, N_L)
    digits (e_rel = 1), and the L-coordinates are drawn mod L's modulus."""
    for shape in ({"p": 5}, {"p": 3, "f": 2}):
        L = PadicContext(precision=prec_L, **shape)
        E = PadicContext(precision=prec_E, **shape)
        assert L == E and L.coeff_modulus != E.coeff_modulus
        for seed in range(4):
            assert (_audit_outcome(congruence_equiv_audit, L, E, n, seed)
                    == _audit_outcome(ref_congruence_equiv_audit, L, E, n, seed))


@pytest.mark.parametrize("E", [RAM2, PadicContext(5, f=2, e=3, precision=12)])
def test_congruence_audit_from_a_one_digit_source_raises_what_the_reference_raises(E):
    """A source at precision 1 gives the difference e_rel known digits, fewer
    than gamma at n = 2: a difference divisible by p cannot be read."""
    L = PadicContext(5, f=E.f, precision=1)
    for seed in range(3):
        got = _audit_outcome(congruence_equiv_audit, L, E, 2, seed, samples=300)
        want = _audit_outcome(ref_congruence_equiv_audit, L, E, 2, seed, samples=300)
        assert got == want
        assert got[0] is PrecisionError
        assert got[1] == (f"a - b is 0 to the {E.e} known digits; "
                          f"deciding it mod pi_E^{E.e + 1} needs {E.e + 1}")


def test_congruence_audit_builds_one_element_per_sample(monkeypatch):
    """The difference of each sample, and once per audit between unequal
    contexts the image of L's zero, from which embed gives the precision;
    each element knows at most its context's digits."""
    built = []
    element = padic._element

    def counting(*args):
        built.append(args[:3])
        return element(*args)

    monkeypatch.setattr(padic, "_element", counting)
    for L, E in [(Z5, RAM2), (UNRAM2, PadicContext(5, f=2, e=3, precision=12)),
                 (MIXED, MIXED), (PadicContext(5, precision=20), PadicContext(5, precision=9))]:
        built.clear()
        assert congruence_equiv_audit(L, E, 2, samples=300, seed=1)["verdict"] == "pass"
        assert len(built) == 300 + (L != E)
        assert all(ctx is E and known <= E.precision for ctx, _, known in built)
