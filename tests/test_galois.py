"""Rank-2 filtered (phi, N)-modules and the congruence-radius formulas."""

from fractions import Fraction

import pytest

from loccon import galois
from loccon.padic import DomainError, PadicContext, PadicNumber

Z5 = PadicContext(5, precision=16)
Z7 = PadicContext(7, precision=16)


def alpha_loop(km1, p):
    total, n = 0, 1
    while True:
        d = p ** (n - 1) * (p - 1)
        if d > km1:
            return total
        total += km1 // d
        n += 1


def test_alpha_matches_loop_oracle():
    for p in (2, 3, 5, 7):
        for km1 in range(0, 30):
            assert galois.alpha(km1, p) == alpha_loop(km1, p)


def test_alpha_oracles():
    assert galois.alpha(1, 3) == 0
    assert galois.alpha(9, 3) == 5


def test_factorial_valuation():
    assert galois.factorial_valuation(10, 2) == 8
    assert galois.factorial_valuation(4, 3) == 1
    assert galois.factorial_valuation(0, 5) == 0


def test_crystalline_disc_radii():
    out = galois.crystalline_congruence_disc(2, 5, 1, 1)
    assert out["pointwise_bound"] == Fraction(2)
    assert out["pointwise_strict"]
    assert out["constancy_radius"] == Fraction(3)
    assert not out["constancy_strict"]
    frac = galois.crystalline_congruence_disc(12, 3, Fraction(1, 2), 2)
    assert frac["pointwise_bound"] == 1 + galois.alpha(11, 3) + 1


def test_crystalline_disc_preconditions():
    with pytest.raises(DomainError):
        galois.crystalline_congruence_disc(2, 5, 0, 1)
    with pytest.raises(DomainError):
        galois.crystalline_congruence_disc(1, 5, 1, 1)


def test_semistable_bound_oracles():
    assert galois.semistable_congruence_bound(4, 3, 1) == 0
    assert galois.semistable_congruence_bound(6, 5, 2) == -2
    with pytest.raises(DomainError):
        galois.semistable_congruence_bound(3, 3, 1)
    with pytest.raises(DomainError):
        galois.semistable_congruence_bound(4, 2, 1)


def newton_slopes_quadratic(v_b, v_c):
    """Reference: Newton-polygon slopes of T^2 - bT + c from the valuations
    of b, c; v_b may be None (b indistinguishable from 0)."""
    if v_b is not None and 2 * v_b <= v_c:
        return sorted([v_b, v_c - v_b])
    return [v_c / 2, v_c / 2]


def test_newton_slopes():
    assert newton_slopes_quadratic(Fraction(1), Fraction(3)) == [1, 2]
    assert newton_slopes_quadratic(Fraction(2), Fraction(3)) == \
        [Fraction(3, 2), Fraction(3, 2)]
    assert newton_slopes_quadratic(None, Fraction(1)) == \
        [Fraction(1, 2), Fraction(1, 2)]


# -- module construction -----------------------------------------------------


def crystalline_cases():
    return [
        (2, Z5.from_int(5)),
        (3, Z5.from_int(10)),
        (3, Z5.from_int(5)),
        (4, Z7.from_int(7 * 3)),
        (6, Z5.from_int(25)),
    ]


def test_crystalline_invariants():
    for k, ap in crystalline_cases():
        M = galois.crystalline_module(k, ap)
        assert M.det_phi_valuation() == k - 1  # also asserts N^2, N phi
        ok, cert = galois.weak_admissibility(M)
        assert ok, cert


def test_crystalline_needs_positive_slope():
    with pytest.raises(DomainError):
        galois.crystalline_module(2, Z5.from_int(1))


def test_semistable_invariants():
    ctx = galois.semistable_context(3, precision=24)
    for k in (2, 3, 4, 6):
        for L in (ctx.from_int(0), ctx.from_int(2), ctx.pi(), "inf"):
            M = galois.semistable_module(k, L, ctx=ctx)
            assert M.det_phi_valuation() == k - 1
            ok, cert = galois.weak_admissibility(M)
            assert ok, (k, cert)


def test_semistable_monodromy_relation_enforced():
    """phi = diag(varpi^k, varpi^{k-2}) is the shape compatible with
    N phi = p phi N for N = e_1 -> e_2; a scalar phi is not."""
    ctx = galois.semistable_context(5, precision=24)
    w = ctx.pi()
    phi_bad = [[w ** 2, ctx.zero()], [ctx.zero(), w ** 2]]
    N = [[ctx.zero(), ctx.zero()], [ctx.one(), ctx.zero()]]
    with pytest.raises(DomainError):
        galois.PhiModule2(ctx, phi_bad, N, 3, (ctx.one(), ctx.zero()),
                          ("semistable", 3))


def test_semistable_rejects_p2():
    with pytest.raises(DomainError):
        galois.semistable_context(2)


# -- triangulation -----------------------------------------------------------


def test_triangulation_slope_sum():
    for k, ap in crystalline_cases():
        d1, d2, info = galois.triangulation_parameters(k, ap)
        slopes = [Fraction(s) for s in info["slopes"]]
        assert sum(slopes) == k - 1
        assert slopes[0] <= slopes[1]
        assert d1.weight == 0 and d2.weight == -(k - 1)


def test_triangulation_matches_newton_polygon():
    for k, ap in crystalline_cases():
        _, _, info = galois.triangulation_parameters(k, ap)
        v_ap = Fraction(ap.pi_valuation(), ap.context.e)
        expect = newton_slopes_quadratic(v_ap, Fraction(k - 1))
        assert [Fraction(s) for s in info["slopes"]] == expect


def test_triangulation_roots_over_extensions():
    # disc of T^2 - 5T + 25 has even valuation but non-square unit: f = 2
    _, _, info = galois.triangulation_parameters(3, Z5.from_int(5))
    assert info["slopes"] == ["1", "1"]
    # odd-valuation disc forces a ramified quadratic extension
    _, _, info2 = galois.triangulation_parameters(2, Z5.from_int(5))
    assert info2["slopes"] == ["1/2", "1/2"]


def test_semistable_parameters():
    ctx = galois.semistable_context(3, precision=24)
    d1, d2 = galois.semistable_parameters(4, ctx)
    assert d1.weight == 0 and d2.weight == -4
    assert Fraction(d1.value_at_p.pi_valuation(), ctx.e) == Fraction(1, 2)
    assert Fraction(d2.value_at_p.pi_valuation(), ctx.e) == Fraction(1, 2) - 3


# -- characters and regularity ----------------------------------------------


def test_character_evaluation():
    chi = galois.Character(2, PadicNumber(Z5.from_int(3)))
    val = chi.evaluate(50)  # 50 = 2 * 25: unit part 2, v_p = 2
    expect = PadicNumber(Z5.from_int(4 * 9))
    assert (val - expect).num.pi_valuation() is None


def test_character_rejects_zero():
    chi = galois.Character(0, PadicNumber(Z5.one()))
    with pytest.raises(DomainError):
        chi.evaluate(0)


def test_regularity_flags_match_enumeration():
    p_num = PadicNumber(Z5.from_int(5))
    one = PadicNumber(Z5.one())

    cases = []
    for i in range(0, 11):
        cases.append(galois.Character(i, p_num ** i))  # x -> x^i
        cases.append(galois.Character(1 - i, p_num ** -i))  # |x| x^{1-i}... the dual line
    # the weight alone fixes i, however large
    cases.append(galois.Character(11, p_num ** 11))
    cases.append(galois.Character(-10, p_num ** -11))
    for chi in cases:
        assert not chi.is_regular()
    assert galois.Character(0, PadicNumber(Z5.from_int(2))).is_regular()
    assert galois.Character(5, p_num ** 4).is_regular()
    assert galois.Character(11, p_num ** 10).is_regular()
    assert galois.Character(-10, p_num ** 11).is_regular()
    # the crystalline parameters of positive slope < k-1 are always regular
    for k, ap in crystalline_cases():
        d1, d2, _ = galois.triangulation_parameters(k, ap)
        assert d1.is_regular() and d2.is_regular()
