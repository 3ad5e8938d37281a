"""Acceptance gate: ten end-to-end criteria, one summary line each.

Every criterion reports through the ``criterion`` fixture and the summary
section printed at the end of the pytest run.  Tolerances are pinned: all
comparisons are exact integer/rational arithmetic unless a sample count is
stated in the criterion body.
"""

import random
import time
from fractions import Fraction

import pytest

from loccon import galois
from loccon.domains import ModelPoint, cover_compare, describe
from loccon.families import RepFamily
from loccon.groups import cyclic_group, dihedral_group, free_group, symmetric_group
from loccon.lattice import IntegralRep, carayol_audit, iso_mod, reduce_rep_mod
from loccon.padic import (
    PadicContext,
    PadicNumber,
    congruence_transfer_holds,
    embed,
    gamma_exponent,
    gamma_injectivity_exhaustive,
)
from loccon.pseudo import PseudoRep2, from_rep_trace
from loccon.series import AlgebraModel, Annulus, Cover, constancy_certificate

from tests.test_lattice import perturbed_conjugate, sample_res_irred
from tests.test_series import sampled_constancy


def base_tower(p, f, e_rel, precision=12):
    """(L, E) with L unramified of degree f and e_{E/L} = e_rel."""
    L = PadicContext(p, f=f, precision=precision)
    if f == 1:
        E = PadicContext(p, e=e_rel, precision=precision)
    else:
        E = PadicContext(p, f=f, e=e_rel, unram_poly=L.unram_poly,
                         precision=precision)
    return L, E


# -- criterion 1: gamma calculus ---------------------------------------------


def test_criterion_1_gamma_calculus(criterion):
    start = time.time()
    checked = 0
    ok = True
    for p in (2, 3, 5):
        for f in (1, 2):
            for e_rel in (1, 2, 3):
                L, E = base_tower(p, f, e_rel)
                for n in (1, 2, 3):
                    inj, witness = gamma_injectivity_exhaustive(L, E, n)
                    ok = ok and inj
                    # transfer depends on alpha - beta only; enumerate all
                    # classes mod pi_L^(n+1) (higher valuations are inert)
                    rng = random.Random(p * 100 + f * 10 + e_rel + n)
                    betas = [E.zero(), E.random_element(rng)]
                    for delta in L.enumerate_residues(n + 1):
                        d = embed(delta, E)
                        for beta in betas:
                            t, _, _ = congruence_transfer_holds(
                                beta + d, beta, L, n)
                            ok = ok and t
                            checked += 1
    elapsed = time.time() - start
    criterion(1, "gamma-exponent injectivity and congruence transfer",
              ok and elapsed < 60, f"{checked} transfers, {elapsed:.1f}s")
    assert ok
    assert elapsed < 60


# -- criterion 2: function constancy -----------------------------------------


Z5 = PadicContext(5, precision=12)
Z3 = PadicContext(3, precision=12)


def constancy_presets():
    disc = AlgebraModel(Z5, open_vars=("T",), degree_cap=4)
    ann = AlgebraModel(Z5, bounded_vars=("zeta1", "zeta2"),
                       relation=Annulus(2), degree_cap=4)
    cov = AlgebraModel(Z3, open_vars=("Y", "T"),
                       relation=Cover(2, "Y", {(0, 1): -1}), degree_cap=4)
    return [
        ("disc", disc, {"T": Z5.zero()}),
        ("annulus", ann, {"zeta1": Z5.one(), "zeta2": Z5.from_int(25)}),
        ("cover", cov, {"Y": Z3.zero(), "T": Z3.zero()}),
    ]


def random_series(model, rng, nterms=4):
    terms = {}
    for _ in range(nterms):
        mono = tuple(rng.randrange(0, 3) for _ in model.vars)
        terms[mono] = model.base.random_element(rng)
    from loccon.series import AdicSeries
    return model.series(terms)


def test_criterion_2_function_constancy(criterion):
    start = time.time()
    rng = random.Random(2024)
    failures = 0
    total = 0
    for name, model, center_coords in constancy_presets():
        base = model.base
        exts = [base,
                PadicContext(base.p, e=2, precision=12),
                PadicContext(base.p, e=3, precision=12)]
        center = ModelPoint(model, dict(center_coords))
        corpus = [random_series(model, rng) for _ in range(200)]
        for n in (1, 2, 3):
            dom = describe(model, center, n, "U")
            for s in corpus:
                total += 1
                rep = constancy_certificate({"f": s}, dom, n, exts)
                sampled = sampled_constancy({"f": s}, dom, n, exts, 2,
                                            seed=rng.randrange(10 ** 6))
                if rep["verdict"] != "pass" or sampled["f"]:
                    failures += 1
                    continue
                rc = s.recenter_rescale(dict(center_coords),
                                        {v: n for v in model.vars})
                if not rc.is_constant_mod(n):
                    failures += 1
    elapsed = time.time() - start
    criterion(2, "pointwise constancy on U^(n) and exact V^(n) recentering",
              failures == 0 and elapsed < 300,
              f"{total} series-depth checks, {elapsed:.1f}s")
    assert failures == 0
    assert elapsed < 300


# -- criterion 3: strictness ladder ------------------------------------------


def disc_coeff_valuations(series):
    """{degree: v_pi(coefficient)} for a one-variable series, constant
    term excluded."""
    out = {}
    for mono, c in series.terms.items():
        if sum(mono) == 0:
            continue
        out[sum(mono)] = c.pi_valuation()
    return out


def pointwise_level(series, n):
    """Largest m with f(y) = f(0) mod pi^m for every base point of U^(n)
    (v(y) >= n): exactly min_k (v(a_k) + k n)."""
    vals = [v + k * n for k, v in disc_coeff_valuations(series).items()
            if v is not None]
    return min(vals) if vals else None  # None: constant at precision


def strict_at(series, center, n, scale):
    rc = series.recenter_rescale(dict(center), {"T": scale})
    return bool(rc.is_constant_mod(n))


def test_criterion_3_strictness_ladder(criterion):
    model = AlgebraModel(Z5, open_vars=("T",), degree_cap=4)
    center = {"T": Z5.zero()}
    rng = random.Random(33)
    corpus = [random_series(model, rng) for _ in range(60)]
    a_ok = b_ok = True
    for n in (2, 3):
        for s in corpus:
            pw = pointwise_level(s, n)
            # A: strict constancy mod pi^n (wide-open coordinates) implies
            # pointwise congruence mod p^n on base points
            if strict_at(s, center, n, n - 1) and not (pw is None or pw >= n):
                a_ok = False
            # B: pointwise congruence mod p^(n+1) implies strict constancy
            # mod pi^n in the affinoid coordinates
            if (pw is None or pw >= n + 1) and not strict_at(s, center, n, n):
                b_ok = False
    # sampled confirmation of A on constructed strict series
    for n in (2, 3):
        s = model.constant(7) + random_series(model, rng).scale(
            Z5.pi_power(n))
        assert strict_at(s, center, n, n - 1)
        for _ in range(10):
            y = Z5.random_with_pi_valuation(rng.randrange(n, 8), rng)
            d = (s.evaluate({"T": y}) - s.evaluate({"T": Z5.zero()}))
            v = d.pi_valuation()
            assert v is None or v >= n
    # neither converse holds; f = T is the canonical witness
    t = model.var("T")
    converse_a_fails = converse_b_fails = True
    for n in (2, 3):
        # pointwise mod p^n on U^(n) base points, yet not strict in the
        # wide-open coordinates
        if not (pointwise_level(t, n) >= n and not strict_at(t, center, n, n - 1)):
            converse_a_fails = False
        # strict in affinoid coordinates, yet not pointwise mod p^(n+1):
        # the boundary point v(y) = n realizes the defect exactly
        if not (strict_at(t, center, n, n) and pointwise_level(t, n) < n + 1):
            converse_b_fails = False
        y = Z5.random_with_pi_valuation(n, rng)
        defect = (t.evaluate({"T": y}) - t.evaluate({"T": Z5.zero()}))
        assert defect.pi_valuation() == n
    ok = a_ok and b_ok and converse_a_fails and converse_b_fails
    criterion(3, "strictness ladder with f = T counterexample", ok)
    assert ok


# -- criterion 4: residue-domain closed forms --------------------------------


def test_criterion_4_closed_form_agreement(criterion):
    rng = random.Random(4)
    mismatches = 0
    tuples = 0
    # disc tuples: (p, n, kind) x extension degrees, boundary included
    for p in (3, 5, 7):
        base = PadicContext(p, precision=12)
        model = AlgebraModel(base, open_vars=("T",), degree_cap=4)
        origin = ModelPoint(model, {"T": base.zero()})
        for n in (1, 2, 3, 4):
            for kind in ("U", "V"):
                dom = describe(model, origin, n, kind)
                tuples += 1
                thr = dom.pi_threshold(1)
                for e in (1, 2, 3):
                    ext = PadicContext(p, e=e, precision=12)
                    for v in range(1, 9):
                        pt = ModelPoint(model, {
                            "T": ext.random_with_pi_valuation(v, rng)})
                        if dom.member(pt) != dom.closed_form_member(pt):
                            mismatches += 1
                # the boundary valuation case over the base
                boundary = ModelPoint(model, {
                    "T": base.random_with_pi_valuation(max(thr, 1), rng)})
                if dom.member(boundary) != dom.closed_form_member(boundary):
                    mismatches += 1
    disc_tuples = tuples
    # annulus tuples: center valuations 0..2 against the two-branch radius
    ann_tuples = 0
    base = Z5
    for m in (1, 2, 3):
        model = AlgebraModel(base, bounded_vars=("zeta1", "zeta2"),
                             relation=Annulus(m), degree_cap=4)
        for v1 in (0, 1, 2):
            if v1 > m:
                continue
            x1 = base.random_with_pi_valuation(v1, rng)
            x2 = (PadicNumber(base.pi_power(m))
                  * PadicNumber(x1).inverse()).to_integral()
            center = ModelPoint(model, {"zeta1": x1, "zeta2": x2})
            for n in (1, 2, 3):
                for kind in ("U", "V"):
                    dom = describe(model, center, n, kind)
                    ann_tuples += 1
                    base_thr = Fraction(n - 1) if kind == "U" else Fraction(n)
                    expect = max(base_thr, base_thr - m + 2 * v1)
                    if dom.closed_form.threshold != expect:
                        mismatches += 1
                    for pt in dom.sample(base, 6, seed=n + v1):
                        if dom.member(pt) != dom.closed_form_member(pt):
                            mismatches += 1
    ok = mismatches == 0 and disc_tuples >= 20 and ann_tuples >= 20
    criterion(4, "closed-form radii match generic membership",
              ok, f"{disc_tuples} disc + {ann_tuples} annulus tuples")
    assert ok


# -- criterion 5: representation constancy and optimality --------------------


def test_criterion_5_unramified_family(criterion):
    ok = True
    for p in (3, 5):
        base = PadicContext(p, precision=12)
        model = AlgebraModel(base, open_vars=("T",), degree_cap=4)
        origin = ModelPoint(model, {"T": base.zero()})
        one, zero = model.constant(1), model.zero()
        fam = RepFamily(free_group(1), 2, model,
                        {"g1": [[one + model.var("T"), zero], [zero, one]]})
        exts = [base, PadicContext(p, e=2, precision=12),
                PadicContext(p, e=3, precision=12)]
        rng = random.Random(p)
        for n in (1, 2, 3):
            dom = describe(model, origin, n, "U")
            rep = fam.pointwise_constancy_audit(dom, n, exts, 6, seed=p + n)
            ok = ok and rep["verdict"] == "pass"
            # boundary witness: v(y - x) = n - 1 breaks the congruence
            if n >= 2:
                y = base.random_with_pi_valuation(n - 1, rng)
                a = reduce_rep_mod(fam.specialize(origin), n)
                b = reduce_rep_mod(
                    fam.specialize(ModelPoint(model, {"T": y})), n)
                res = iso_mod(a, b)
                ok = ok and res.status == "not_isomorphic"
        full = fam.trace_algebra_full(2)
        ok = ok and full["verdict"] == "full"
        slow = RepFamily(free_group(1), 2, model,
                         {"g1": [[one + model.var("T").scale(p), zero],
                                 [zero, one]]})
        ok = ok and slow.trace_algebra_full(2)["verdict"] == "proper"
    criterion(5, "1+T family: U^(n) audits, boundary witness, trace algebra",
              ok)
    assert ok


# -- criterion 6: the congruence-to-isomorphism harness ----------------------


def test_criterion_6_carayol_harness(criterion):
    start = time.time()
    ok = True
    audited = 0
    for p in (3, 5):
        ctx = PadicContext(p, precision=12)
        rng = random.Random(60 + p)
        for n in (1, 2, 3):
            for _ in range(50):
                a = sample_res_irred(ctx, rng)
                b = perturbed_conjugate(a, n, rng)
                out = carayol_audit(a, b, n)
                audited += 1
                if out["verdict"] != "pass":
                    ok = False
        # the residually reducible counterexample: trace-congruent mod p^2
        # yet provably non-isomorphic at that depth
        a = reduce_rep_mod(IntegralRep(
            free_group(1), 2, ctx,
            {"g1": [[ctx.from_int(1 + p), ctx.zero()],
                    [ctx.zero(), ctx.from_int(1 - p)]]}), 2)
        b = reduce_rep_mod(IntegralRep(
            free_group(1), 2, ctx,
            {"g1": [[ctx.one(), ctx.zero()], [ctx.zero(), ctx.one()]]}), 2)
        res = iso_mod(a, b)
        ok = ok and res.status == "not_isomorphic"
    elapsed = time.time() - start
    criterion(6, "trace congruence gives mod-pi^n intertwiners "
                 "(residually irreducible pairs)",
              ok and elapsed < 600, f"{audited} audits, {elapsed:.1f}s")
    assert ok
    assert elapsed < 600


# -- criterion 7: explicit bounds --------------------------------------------


def test_criterion_7_bounds(criterion):
    def alpha_loop(km1, p):
        total, i = 0, 1
        while True:
            d = p ** (i - 1) * (p - 1)
            if d > km1:
                return total
            total += km1 // d
            i += 1

    ok = True
    for p in (2, 3, 5, 7):
        for k in range(1, 31):
            if galois.alpha(k - 1, p) != alpha_loop(k - 1, p):
                ok = False
    disc = galois.crystalline_congruence_disc(2, 5, 1, 1)
    ok = ok and disc["pointwise_bound"] == 2 and disc["constancy_radius"] == 3
    ok = ok and galois.semistable_congruence_bound(4, 3, 1) == 0
    ok = ok and galois.semistable_congruence_bound(6, 5, 2) == -2
    criterion(7, "alpha table and congruence-radius formulas", ok)
    assert ok


# -- criterion 8: filtered (phi, N)-modules ----------------------------------


def test_criterion_8_phi_modules(criterion):
    ok = True
    crystalline = [(2, PadicContext(5, precision=16).from_int(5))]
    Z5l = PadicContext(5, precision=16)
    Z7l = PadicContext(7, precision=16)
    crystalline = [
        (2, Z5l.from_int(5)), (3, Z5l.from_int(10)), (3, Z5l.from_int(5)),
        (4, Z7l.from_int(21)), (6, Z5l.from_int(25)), (2, Z5l.from_int(30)),
    ]
    for k, ap in crystalline:
        M = galois.crystalline_module(k, ap)  # construction asserts N^2 = 0,
        ok = ok and M.det_phi_valuation() == k - 1  # N phi = p phi N
        wadm, _ = galois.weak_admissibility(M)
        ok = ok and wadm
        d1, d2, info = galois.triangulation_parameters(k, ap)
        slopes = [Fraction(s) for s in info["slopes"]]
        ok = ok and sum(slopes) == k - 1
        ok = ok and d1.is_regular() and d2.is_regular()
    for p in (3, 5):
        ctx = galois.semistable_context(p, precision=24)
        for k in (2, 4, 6):
            for L in (ctx.from_int(0), ctx.from_int(1), "inf"):
                M = galois.semistable_module(k, L, ctx=ctx)
                ok = ok and M.det_phi_valuation() == k - 1
                wadm, _ = galois.weak_admissibility(M)
                ok = ok and wadm
    # regularity flags against the exhaustive i <= 10 enumeration
    Z5r = PadicContext(5, precision=16)
    p_num = PadicNumber(Z5r.from_int(5))
    for w in range(-10, 11):
        for val_exp in range(-10, 11):
            chi = galois.Character(w, p_num ** val_exp)
            expect = not any(
                (w == i and val_exp == i) or (w == 1 - i and val_exp == -i)
                for i in range(0, 11))
            if chi.is_regular() != expect:
                ok = False
    criterion(8, "phi-module invariants, weak admissibility, regularity", ok)
    assert ok


# -- criterion 9: the finite cover -------------------------------------------


def test_criterion_9_finite_cover(criterion):
    base = Z3
    model = AlgebraModel(base, open_vars=("Y", "T"),
                         relation=Cover(2, "Y", {(0, 1): -1}),
                         degree_cap=4)
    center = ModelPoint(model, {"Y": base.zero(), "T": base.zero()})
    ok = True
    for n in (1, 2, 3):
        rep = cover_compare(model, center, n, base)
        ok = ok and rep["verdict"] == "pass"
        ok = ok and rep["preimage_equality"]["n0"] == 1
        ok = ok and "v(T - t0) = 2 * v(Y - y0)" in \
            rep["preimage_equality"]["certificate"]
    # weight congruences: weight k corresponds to a disc point with
    # v_3(t_k) = 1 + v_3(k - 1); membership in U^(n) around weight 1
    # is exactly k = 1 mod 3^(n-1)
    tmodel = AlgebraModel(base, open_vars=("T",), degree_cap=4)
    origin = ModelPoint(tmodel, {"T": base.zero()})
    rng = random.Random(9)

    def v3(m):
        v = 0
        while m % 3 == 0:
            m //= 3
            v += 1
        return v

    for n in (1, 2, 3):
        dom = describe(tmodel, origin, n, "U")
        for k in range(2, 120):
            t_k = base.random_with_pi_valuation(1 + v3(k - 1), rng)
            member = dom.member(ModelPoint(tmodel, {"T": t_k}))
            congruent = (k - 1) % 3 ** (n - 1) == 0
            if member != congruent:
                ok = False
    criterion(9, "Y^2 = -T preimage certificate, n0 = 1, weight "
                 "congruences", ok)
    assert ok


# -- criterion 10: pseudorepresentation suite --------------------------------


def test_criterion_10_pseudorep_suite(criterion):
    from tests.test_lattice import s3_standard_rep
    from tests.test_pseudo import character_sum, doubled_trivial
    ok = True
    # axioms on trace-derived pseudorepresentations
    reps = [from_rep_trace(s3_standard_rep(Z5))]
    for group in (cyclic_group(3), dihedral_group(4)):
        reps.append(doubled_trivial(group, Z5))
    for ps in reps:
        ok = ok and ps.axiom_check()["verdict"] == "pass"
    # doubled-trivial kernel = augmentation null space, |G| <= 12
    for group in (cyclic_group(2), cyclic_group(4), symmetric_group(3),
                  dihedral_group(4), dihedral_group(6), cyclic_group(12)):
        ps = doubled_trivial(group, Z5)
        gens = ps.kernel(2)
        if len(gens) != group.order - 1:
            ok = False
            continue
        for vec, s in gens:
            total = Z5.zero()
            for x in vec:
                total = total + x
            v = total.pi_valuation()
            if not (s == 0 and (v is None or v >= 2)):
                ok = False
    # multiplicity-freeness verdicts over F_5
    s3 = symmetric_group(3)
    triv_sign = character_sum(s3, Z5, [(Z5.one(), Z5.one()),
                                       (Z5.from_int(-1), Z5.one())])
    ok = ok and triv_sign.residually_multiplicity_free()["verdict"] == \
        "multiplicity_free"
    std = from_rep_trace(s3_standard_rep(Z5))
    ok = ok and std.residually_multiplicity_free()["verdict"] == \
        "multiplicity_free"
    c4 = cyclic_group(4)
    i1, i2 = Z5.teichmuller(2), Z5.teichmuller(3)
    ok = ok and character_sum(c4, Z5, [(i1,), (i2,)]) \
        .residually_multiplicity_free()["verdict"] == "multiplicity_free"
    ok = ok and character_sum(c4, Z5, [(i1,), (i1,)]) \
        .residually_multiplicity_free()["verdict"] == "not_multiplicity_free"
    criterion(10, "pseudorep axioms, augmentation kernels, multiplicity "
                  "freeness", ok)
    assert ok
