"""Integral representations, mod-pi^m isomorphism testing, stable lattices."""

import collections
import gc
import itertools
import random
import weakref
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loccon.chainring import (
    ChainSpan,
    determinant,
    mat_inverse,
    mat_mul,
    mat_reduce_mod,
)
from loccon.groups import cyclic_group, free_group, symmetric_group
from loccon.lattice import (
    IntegralRep,
    IsoResult,
    ResidueRep,
    _check_intertwines,
    carayol_audit,
    intertwiner_space,
    iso_mod,
    reduce_rep_mod,
    residually_absolutely_irreducible,
    semisimplify_mod_p,
    spanning_words,
    stable_lattice,
)
from loccon.padic import (
    DomainError,
    InconclusiveError,
    PadicContext,
    PadicNumber,
    PrecisionError,
)
from loccon.specfile import _parse_word
from tests.test_chainring import span_contains
from tests.test_padic import SHAPES

Z3 = PadicContext(3, precision=14)
Z5 = PadicContext(5, precision=14)
FREE1 = free_group(1)
FREE2 = free_group(2)


def mat(ctx, rows):
    return [[ctx.from_int(x) for x in row] for row in rows]


def s3_standard_rep(ctx):
    """The 2-dimensional irreducible of S_3, integral over any p != 3 base."""
    return IntegralRep(symmetric_group(3), 2, ctx, {
        "s": mat(ctx, [[0, 1], [1, 0]]),
        "c": mat(ctx, [[0, -1], [1, -1]]),
    })


def diag_pair(ctx):
    a = IntegralRep(FREE1, 2, ctx,
                    {"g1": mat(ctx, [[1 + ctx.p, 0], [0, 1 - ctx.p]])})
    b = IntegralRep(FREE1, 2, ctx, {"g1": mat(ctx, [[1, 0], [0, 1]])})
    return a, b


def test_rep_needs_unit_determinant():
    with pytest.raises(DomainError):
        IntegralRep(FREE1, 2, Z5, {"g1": mat(Z5, [[5, 0], [0, 1]])})


def test_residue_rep_rejects_singular():
    with pytest.raises(DomainError):
        ResidueRep(FREE1, 2, Z5, 2, {"g1": mat(Z5, [[5, 0], [0, 1]])})


def test_word_calculus():
    rep = s3_standard_rep(Z5)
    m = rep.matrix_of_word(((0, 1), (0, 1)))  # s^2 = identity
    assert (m[0][0] - Z5.one()).pi_valuation() is None
    assert m[0][1].pi_valuation() is None
    tr = rep.trace_of_word(((1, 1),))  # trace of the 3-cycle = -1
    assert (tr - Z5.from_int(-1)).pi_valuation() is None


def test_intertwiner_space_solutions_intertwine():
    a, b = diag_pair(Z5)
    gens = intertwiner_space(reduce_rep_mod(a, 2), reduce_rep_mod(b, 2))
    assert gens
    for vec, s in gens:
        X = [[vec[0], vec[1]], [vec[2], vec[3]]]
        A = a.gen_images["g1"]
        B = b.gen_images["g1"]
        for i in range(2):
            for j in range(2):
                lhs = X[i][0] * A[0][j] + X[i][1] * A[1][j]
                rhs = B[i][0] * X[0][j] + B[i][1] * X[1][j]
                v = (lhs - rhs).pi_valuation()
                assert v is None or v >= 2


def test_iso_mod_counterexample_pair():
    """Trace-congruent mod p^2 yet provably non-isomorphic mod p^2."""
    a, b = diag_pair(Z5)
    ta = a.trace_of_word(((0, 1),))
    tb = b.trace_of_word(((0, 1),))
    v = (ta - tb).pi_valuation()
    assert v is None or v >= 2  # traces agree mod 25
    res2 = iso_mod(reduce_rep_mod(a, 2), reduce_rep_mod(b, 2))
    assert res2.status == "not_isomorphic"
    assert "pi * M_d" in res2.certificate
    res1 = iso_mod(reduce_rep_mod(a, 1), reduce_rep_mod(b, 1))
    assert res1.status == "isomorphic"
    assert res1.intertwiner is not None


def test_iso_mod_finds_explicit_conjugations():
    rng = random.Random(0)
    rep = s3_standard_rep(Z5)
    C = mat(Z5, [[1, 2], [3, 2]])  # det = -4, a unit
    from loccon.chainring import mat_inverse, mat_mul
    conj = {g: mat_mul(mat_mul(C, M), mat_inverse(C))
            for g, M in rep.gen_images.items()}
    other = IntegralRep(rep.group, 2, Z5, conj)
    res = iso_mod(reduce_rep_mod(rep, 3), reduce_rep_mod(other, 3))
    assert res.status == "isomorphic"


def test_semisimplify_unipotent_splits():
    rep = IntegralRep(FREE1, 2, Z5, {"g1": mat(Z5, [[1, 1], [0, 1]])})
    ss = semisimplify_mod_p(reduce_rep_mod(rep, 1))
    assert ss["complete"]
    assert sorted(f["dim"] for f in ss["factors"]) == [1, 1]


def test_semisimplify_irreducible_is_single_factor():
    ss = semisimplify_mod_p(reduce_rep_mod(s3_standard_rep(Z5), 1))
    assert ss["complete"]
    assert [f["dim"] for f in ss["factors"]] == [2]


def test_semisimplify_reads_only_the_generators_residues(monkeypatch):
    """Over F_q a subspace stable under G is stable under G^-1, so the
    composition factors are found from the (gi, 1) letters alone."""
    found = _counting(monkeypatch, "composition_factors")
    ss = semisimplify_mod_p(reduce_rep_mod(s3_standard_rep(Z5), 1))
    assert [f["dim"] for f in ss["factors"]] == [2]
    (_, letters, *_), = found
    assert sorted(letters) == [(0, 1), (1, 1)]


def test_residual_absolute_irreducibility():
    assert residually_absolutely_irreducible(s3_standard_rep(Z5))
    uni = IntegralRep(FREE1, 2, Z5, {"g1": mat(Z5, [[1, 1], [0, 1]])})
    assert not residually_absolutely_irreducible(uni)


def test_one_generator_two_dim_is_never_residually_irreducible():
    # the commutant of a single matrix always exceeds the scalars in dim 2
    rng = random.Random(1)
    for _ in range(10):
        M = [[Z5.random_element(rng) for _ in range(2)] for _ in range(2)]
        M[0][0] = Z5.random_unit(rng)
        try:
            rep = IntegralRep(FREE1, 2, Z5, {"g1": M})
        except DomainError:
            continue
        assert not residually_absolutely_irreducible(rep)


def test_stable_lattice_integralizes():
    images = {"g": [[PadicNumber(Z5.zero()), PadicNumber(Z5.from_int(5))],
                    [PadicNumber(Z5.one(), denom_pow=1),
                     PadicNumber(Z5.zero())]]}
    lat, cert = stable_lattice(cyclic_group(2), 2, Z5, images)
    for row in lat.gen_images["g"]:
        for x in row:
            assert x.pi_valuation() is None or x.pi_valuation() >= 0
    assert cert


def _conjugated_four_cycle(ctx):
    """A 4-cycle conjugated by diag(1, pi, pi^2, pi^3): entries pi^-1 below
    the diagonal and pi^3 in the corner."""
    M = [[PadicNumber(ctx.zero())] * 4 for _ in range(4)]
    for i in range(3):
        M[i + 1][i] = PadicNumber(ctx.one(), denom_pow=1)
    M[0][3] = PadicNumber(ctx.pi_power(3))
    return M


def test_stable_lattice_in_dimension_four():
    """The orbit of O_E^4 reaches pi^-3 e_4, so the spin spans it scaled by
    pi^3; 20 digits leave room for that (13 are enough, see below)."""
    ctx = PadicContext(5, precision=20)
    M = _conjugated_four_cycle(ctx)
    lat, C = stable_lattice(cyclic_group(4), 4, ctx, {"g": M})
    conj = mat_mul(mat_mul(mat_inverse(C), M), C)
    for row, lat_row in zip(conj, lat.gen_images["g"]):
        for x, y in zip(row, lat_row):
            assert x.to_integral() == y
    assert lat.trace_of_word(((0, 1),) * 4) == ctx.from_int(4)


def test_stable_lattice_out_of_digits_is_a_precision_error():
    """At 12 digits the orbit uses up the precision: the span needs more
    digits than are known, which is inconclusive, not a proof that the
    orbit has no lattice."""
    ctx = PadicContext(5, precision=12)
    with pytest.raises(PrecisionError):
        stable_lattice(cyclic_group(4), 4, ctx, {"g": _conjugated_four_cycle(ctx)})


def test_four_cycle_orbit_succeeds_or_runs_out_of_precision():
    """From 13 digits the conjugated 4-cycle has its lattice; below, the
    orbit runs out of precision, and a lost rank on the way is lost
    precision, never a degenerate representation."""
    for precision in range(8, 28):
        ctx = PadicContext(5, precision=precision)
        run = partial(stable_lattice, cyclic_group(4), 4, ctx,
                      {"g": _conjugated_four_cycle(ctx)})
        if precision < 13:
            with pytest.raises(PrecisionError):
                run()
        else:
            run()


def _conjugated_three_cycle(ctx, cycle):
    """A 3-cycle permutation matrix conjugated as D P D^-1 with D = diag(1,
    pi^2, pi^4): entry (i, j) of P becomes pi^(2i - 2j)."""
    def entry(a):
        if a >= 0:
            return PadicNumber(ctx.pi_power(a))
        return PadicNumber(ctx.one(), denom_pow=-a)
    return [[entry(2 * i - 2 * j) if cycle[i] == j else PadicNumber(ctx.zero())
             for j in range(3)] for i in range(3)]


@pytest.mark.parametrize("cycle", [(2, 0, 1), (1, 2, 0)], ids=["up", "down"])
def test_finite_orbit_out_of_digits_is_a_precision_error(cycle):
    """A finite group's orbit lattice exists, so below 13 digits the
    conjugated 3-cycle over Z_3 runs out of precision (never "unbounded",
    whatever the denominator reached) and from 13 digits it has its
    lattice."""
    for precision in range(5, 17):
        ctx = PadicContext(3, precision=precision)
        run = partial(stable_lattice, cyclic_group(3), 3, ctx,
                      {"g": _conjugated_three_cycle(ctx, cycle)})
        if precision < 13:
            with pytest.raises(PrecisionError):
                run()
        else:
            run()


@pytest.mark.parametrize("p", [3, 5])
def test_unbounded_orbit_is_inconclusive_at_every_precision(p):
    """diag(1/p, 1) has no stable lattice: whatever the precision, the
    orbit outgrows it and the verdict names the growth."""
    for precision in range(6, 28):
        ctx = PadicContext(p, precision=precision)
        zero, one = PadicNumber(ctx.zero()), PadicNumber(ctx.one())
        M = [[PadicNumber(ctx.one(), denom_pow=1), zero], [zero, one]]
        with pytest.raises(InconclusiveError, match="keeps growing"):
            stable_lattice(FREE1, 2, ctx, {"g1": M})


def reference_stable_lattice(group, dim, context, gen_images, rounds_budget=40):
    """The orbit lattice by rounds, each re-basing the lattice: the former
    ``stable_lattice``, whose loop one spin replaced, kept as the reference
    the spin must agree with.

    ``gen_images`` maps generators to matrices of PadicNumber (possibly
    non-integral).  Returns (IntegralRep, certificate C) with C^{-1} rho C
    integral, or raises InconclusiveError("unbounded ...") when the orbit
    lattice fails to stabilize within the budget or outgrows the working
    precision.
    """
    ctx = context
    d = dim
    mats = {}
    for name, M in gen_images.items():
        mats[name] = [[x if isinstance(x, PadicNumber) else PadicNumber(x)
                       for x in row] for row in M]
    all_mats = list(mats.values()) + [mat_inverse(M) for M in mats.values()]

    basis = [[PadicNumber(ctx.one() if i == j else ctx.zero()) for i in range(d)]
             for j in range(d)]  # list of column vectors
    for _ in range(rounds_budget):
        candidates = list(basis)
        C = [list(col) for col in zip(*basis)]  # the basis vectors as columns
        for M in all_mats:
            candidates.extend(list(v) for v in zip(*mat_mul(M, C)))
        new_basis = _reference_lattice_basis(candidates, ctx, d)
        # the candidates hold the old basis, so the lattice only grows and
        # it is stable once the new basis lies in the old lattice
        span, scaled, _ = _reference_scaled_span(basis + new_basis, d, ctx, d)
        basis = new_basis
        if all(span_contains(span, v) for v in scaled[d:]):
            break
    else:
        raise InconclusiveError("unbounded: orbit did not stabilize within budget")

    C = [list(col) for col in zip(*basis)]
    Cinv = mat_inverse(C)
    images = {}
    for name, M in mats.items():
        conj = mat_mul(mat_mul(Cinv, M), C)
        images[name] = [[x.to_integral() for x in row] for row in conj]
    return IntegralRep(group, d, ctx, images), C


def _reference_scaled_span(vectors, count, ctx, d):
    """Scale the vectors by pi^denom, denom their largest denominator, and
    span the first ``count`` of them over O_E/pi^M, with M the digits known
    after scaling.  Returns (span, scaled vectors, denom).

    The vectors hold a basis of a lattice L with O_E^d <= L, so pi^denom L
    lies between pi^denom O_E^d and O_E^d: its span mod pi^M has rank d
    when denom < M, and M <= precision - denom - 1.  Past that bound the
    orbit is unbounded at this precision; below it, a loss of rank is lost
    precision.
    """
    denom = 0
    for v in vectors:
        for x in v:
            vv = x.normalized().pi_valuation()
            if vv is not None and vv < 0:
                denom = max(denom, -vv)
    if 2 * denom + 1 >= ctx.precision:
        raise InconclusiveError("unbounded: orbit lattice keeps growing "
                                "(no stable lattice at working precision)")
    scale = ctx.pi_power(denom)
    scaled = [[(x * scale).to_integral() for x in v] for v in vectors]
    M = min([ctx.precision - denom - 1]
            + [x.known_precision for v in scaled for x in v])
    if M < 2:
        raise PrecisionError("not enough precision for lattice computation")
    span = ChainSpan(ctx, M, d)
    for vec in scaled[:count]:
        span.add(vec)
    return span, scaled, denom


def _reference_lattice_basis(vectors, ctx, d):
    span, _, denom = _reference_scaled_span(vectors, len(vectors), ctx, d)
    if len(span.rows) != d:
        raise PrecisionError("orbit lattice lost rank: not enough precision")
    return [[PadicNumber(x, denom) for x in span.rows[j][1]]
            for j in sorted(span.rows)]




# permutation representations: (group, one permutation per generator)
PERMUTATION_REPS = {
    "C2": (cyclic_group(2), {"g": (1, 0)}),
    "C3": (cyclic_group(3), {"g": (1, 2, 0)}),
    "C4": (cyclic_group(4), {"g": (1, 2, 3, 0)}),
    "S3": (symmetric_group(3), {"s": (1, 0, 2), "c": (1, 2, 0)}),
}
LATTICE_SHAPES = {"Z3": dict(p=3), "Z5": dict(p=5), "e2": dict(p=5, e=2),
                  "f2": dict(p=5, f=2)}


def conjugated_permutation_rep(ctx, perms, seed):
    """The images X^-1 P X of the permutation matrices P, with X = diag(pi^k)
    U for seeded exponents 0 <= k <= 4 and U over O_E of unit determinant:
    a representation whose stable lattices include X^-1 O_E^d.  U's
    coordinates are below p^3, so the input is the same at every precision."""
    rng = random.Random(seed)
    d = len(next(iter(perms.values())))
    ks = [rng.randrange(5) for _ in range(d)]
    while True:
        U = [[ctx.from_coords([rng.randrange(ctx.p ** 3)
                               for _ in range(ctx.degree)])
              for _ in range(d)] for _ in range(d)]
        if determinant(U).is_unit():
            break
    Uinv = [[PadicNumber(x) for x in row] for row in mat_inverse(U)]
    U = [[PadicNumber(x) for x in row] for row in U]
    images = {}
    for name, perm in perms.items():
        # diag(pi^-k) P diag(pi^k) has pi^(k_j - k_i) at each (i, j) of P
        inner = [[PadicNumber(ctx.pi_power(max(0, ks[j] - ks[i])),
                              max(0, ks[i] - ks[j]))
                  if perm[j] == i else PadicNumber(ctx.zero())
                  for j in range(d)] for i in range(d)]
        images[name] = mat_mul(mat_mul(Uinv, inner), U)
    return images


def _lattice_or_reason(fn, group, ctx, images):
    """The certificate C of ``fn``'s lattice, or the inconclusive class."""
    d = len(next(iter(images.values())))
    try:
        return fn(group, d, ctx, images)[1]
    except InconclusiveError as exc:
        return type(exc)


def _in_context(C, ctx):
    """The exact entries of C, as numbers of ``ctx``."""
    return [[PadicNumber(ctx.from_coords(x.num.coords), x.denom_pow)
             for x in row] for row in C]


def _same_lattice(C, D):
    """The columns of C and of D span the same lattice."""
    return all(x.is_integral()
               for A, B in ((C, D), (D, C))
               for row in mat_mul(mat_inverse(A), B) for x in row)


def test_stable_lattice_matches_the_rounds_reference():
    """On seeded conjugated permutation representations the spin finds the
    reference's lattice wherever the reference finds one, and where the
    reference is inconclusive the spin is too or succeeds, never a usage
    error."""
    outcomes = collections.Counter()
    for (gname, (group, perms)), shape, precision in itertools.product(
            PERMUTATION_REPS.items(), LATTICE_SHAPES.values(), (12, 16, 20)):
        ctx = PadicContext(precision=precision, **shape)
        images = conjugated_permutation_rep(ctx, perms, seed=precision)
        want = _lattice_or_reason(reference_stable_lattice, group, ctx, images)
        got = _lattice_or_reason(stable_lattice, group, ctx, images)
        if isinstance(want, list):
            assert isinstance(got, list) and _same_lattice(want, got), \
                (gname, shape, precision)
        outcomes[isinstance(want, list), isinstance(got, list)] += 1
    # the sample holds both reference verdicts, and inputs the spin gains
    assert outcomes[True, True] and outcomes[False, True]
    assert not outcomes[True, False]


@pytest.mark.parametrize("group,shape,precision,seed", [
    ("C3", "Z5", 20, 15), ("C4", "Z5", 12, 17), ("C4", "e2", 20, 4),
    ("C4", "f2", 20, 3)])
def test_spin_finds_lattices_the_rounds_run_out_of_digits_for(group, shape,
                                                              precision, seed):
    """Spanning each image as it comes, normalized and at the least scale
    that holds it, keeps digits that the rounds' re-basing spent."""
    group, perms = PERMUTATION_REPS[group]
    ctx = PadicContext(precision=precision, **LATTICE_SHAPES[shape])
    images = conjugated_permutation_rep(ctx, perms, seed)
    assert _lattice_or_reason(reference_stable_lattice, group, ctx,
                              images) is PrecisionError
    assert isinstance(_lattice_or_reason(stable_lattice, group, ctx, images),
                      list)


@pytest.mark.parametrize("precision", [13, 16])
def test_stable_lattice_survives_doubled_precision(precision):
    """Precision N and 2N give the same lattice, for the conjugated 4-cycle
    and for a seeded conjugate of each permutation representation."""
    cases = [(cyclic_group(4), lambda ctx: {"g": _conjugated_four_cycle(ctx)})]
    cases += [(group, partial(conjugated_permutation_rep, perms=perms,
                              seed=precision))
              for group, perms in PERMUTATION_REPS.values()]
    for (group, images), shape in itertools.product(
            cases, (dict(p=5), dict(p=3, f=2))):
        ctx, ctx2 = (PadicContext(precision=n, **shape)
                     for n in (precision, 2 * precision))
        C, C2 = (_lattice_or_reason(stable_lattice, group, c, images(c))
                 for c in (ctx, ctx2))
        assert isinstance(C, list) and isinstance(C2, list)
        assert _same_lattice(_in_context(C, ctx2), C2)
def test_carayol_on_constructed_congruent_pair():
    rng = random.Random(5)
    rep = sample_res_irred(Z5, rng)
    n = 2
    b = perturbed_conjugate(rep, n, rng)
    out = carayol_audit(rep, b, n)
    assert out["verdict"] == "pass"


def test_carayol_rejects_reducible_pairs():
    a, b = diag_pair(Z5)
    out = carayol_audit(a, b, 2)
    assert out["verdict"] == "precondition_failed"


def defect_pair(ctx):
    """Residually absolutely irreducible reps of F_2 over Z_5 whose traces
    agree on every letter and inverse letter but not on g1 g2."""
    g1 = mat(ctx, [[1, 1], [0, 2]])
    a = IntegralRep(FREE2, 2, ctx, {"g1": g1, "g2": mat(ctx, [[1, 0], [1, 3]])})
    b = IntegralRep(FREE2, 2, ctx, {"g1": g1, "g2": mat(ctx, [[1, 0], [2, 3]])})
    return a, b


def test_carayol_names_the_word_whose_traces_differ():
    """Congruence on short words is no proof; the spin finds the word."""
    a, b = defect_pair(Z5)
    assert residually_absolutely_irreducible(a)
    assert residually_absolutely_irreducible(b)
    out = carayol_audit(a, b, 1)
    assert out["verdict"] == "precondition_failed"
    assert out["witness"] == "g1 g2"
    assert "word_cap" not in out


def test_carayol_refuses_reps_of_other_groups_or_contexts():
    a, _ = defect_pair(Z5)
    with pytest.raises(DomainError, match="not comparable"):
        carayol_audit(a, s3_standard_rep(Z5), 1)
    with pytest.raises(DomainError, match="not comparable"):
        carayol_audit(a, IntegralRep(FREE2, 2, Z3, {
            g: mat(Z3, [[1, 1], [0, 2]]) for g in ("g1", "g2")}), 1)


def _perturbed_pair(ctx, n, rng):
    """A residually absolutely irreducible rep and a conjugate perturbed at
    pi^n, redrawn until the perturbed matrices are invertible."""
    a = sample_res_irred(ctx, rng)
    while True:
        try:
            return a, perturbed_conjugate(a, n, rng)
        except DomainError:
            pass


def _traces_differ(a, b, n, words):
    for w in words:
        v = (a.trace_of_word(w) - b.trace_of_word(w)).pi_valuation()
        if v is not None and v < n:
            return True
    return False


@pytest.mark.parametrize("ctx", [Z3, Z5], ids=["Z3", "Z5"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_spanning_words_decide_congruence_like_all_short_words(ctx, n):
    """The spin's words show a trace difference exactly when some word of
    length <= 5 does; half the pairs are perturbed at pi^(n-1), so most of
    those differ.  A d = 2 spin needs at most 2 d^2 = 8 words."""
    rng = random.Random(100 * ctx.p + n)
    differ = 0
    for k in range(6):
        a, b = _perturbed_pair(ctx, n - k % 2, rng)
        words = spanning_words(reduce_rep_mod(a, n), reduce_rep_mod(b, n))
        assert words[0] == () and len(words) <= 8
        spin = _traces_differ(a, b, n, words)
        assert spin == _traces_differ(a, b, n, FREE2.words_up_to(5))
        differ += spin
        if residually_absolutely_irreducible(b):
            verdict = carayol_audit(a, b, n)["verdict"]
            assert (verdict == "precondition_failed") == spin
            assert verdict in ("pass", "precondition_failed")
    assert 0 < differ < 6


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("shift", [0, 1], ids=["conjugate", "perturbed"])
def test_carayol_report_survives_doubled_precision(p, n, shift):
    """The same seeded pair at precision 12 and 24: the same verdict and
    witness, and intertwiners that agree mod pi^n."""
    reports = []
    for precision in (12, 24):
        ctx = PadicContext(p, precision=precision)
        a, b = _perturbed_pair(ctx, n - shift, random.Random(7 * p + n))
        reports.append(carayol_audit(a, b, n))
    low, high = reports
    assert low["verdict"] == high["verdict"] == \
        ("pass" if shift == 0 else "precondition_failed")
    assert low.get("witness") == high.get("witness")
    if low["verdict"] == "pass":
        assert [[[c % p ** n for c in x] for x in row]
                for row in low["intertwiner"]] == \
            [[[c % p ** n for c in x] for x in row]
             for row in high["intertwiner"]]


# -- shared word products ---------------------------------------------------


def test_reductions_leave_the_lift_at_full_precision():
    """A reduction reads its words from the lift's memo and must not write
    reduced matrices into it."""
    rng = random.Random(11)
    rep = sample_res_irred(Z5, rng)
    words = rep.group.words_up_to(3)
    assert residually_absolutely_irreducible(rep)
    for m in (1, 2):
        for w in words:
            reduce_rep_mod(rep, m).matrix_of_word(w)
    fresh = IntegralRep(rep.group, rep.dim, Z5, rep.gen_images)
    for w in words:
        got, want = rep.matrix_of_word(w), fresh.matrix_of_word(w)
        for r1, r2 in zip(got, want):
            for x, y in zip(r1, r2):
                assert x.known_precision == Z5.precision
                assert (x.coords, x.known_precision) == (y.coords, y.known_precision)


def test_residue_word_products_reduce_the_lifts():
    """A reduction, a reduction of a reduction and a ResidueRep built from
    the lift's matrices give the lift's word products and traces reduced mod
    pi^m, coordinate for coordinate, inverse letters included; on S_3 each
    reduction passes the relations check.  The reductions run first: the
    lift's memo must still hold only full-precision products."""
    for rep in (sample_res_irred(Z5, random.Random(3)), s3_standard_rep(Z5),
                s3_standard_rep(PadicContext(5, e=2, precision=14))):
        Z = rep.context
        words = rep.group.words_up_to(3)
        got = [(m, w, r.matrix_of_word(w), r.trace_of_word(w))
               for m in (1, 2, 3)
               for r in (reduce_rep_mod(reduce_rep_mod(rep, 3), m),
                         reduce_rep_mod(rep, m),
                         ResidueRep(rep.group, 2, Z, m, rep.gen_images))
               for w in words]
        assert all(x.known_precision == Z.precision
                   for M in rep._words.values() for row in M for x in row)
        for m, w, M, t in got:
            assert [[(x.coords, x.known_precision) for x in row] for row in M] == \
                [[(x.reduce_mod(m).coords, m) for x in row]
                 for row in rep.matrix_of_word(w)]
            assert (t.coords, t.known_precision) == \
                (rep.trace_of_word(w).reduce_mod(m).coords, m)


def test_reduction_past_the_known_digits_is_a_precision_error():
    """An entry known to 12 digits has no residue mod pi^13."""
    rep = s3_standard_rep(PadicContext(5, precision=12))
    reduce_rep_mod(rep, 12)
    with pytest.raises(PrecisionError, match="only 12 digits known"):
        reduce_rep_mod(rep, 13)


def _int_letters(rep):
    """Letter matrices of a Z_p rep as integer matrices mod p."""
    p = rep.context.p
    out = {}
    for gi, name in enumerate(rep.group.generators):
        (a, b), (c, d) = [[x.coords[0] % p for x in row]
                          for row in rep.gen_images[name]]
        dinv = pow(a * d - b * c, -1, p)
        out[(gi, 1)] = [[a, b], [c, d]]
        out[(gi, -1)] = [[d * dinv % p, -b * dinv % p],
                         [-c * dinv % p, a * dinv % p]]
    return out


def _report_words(rep, ss):
    """The words of a semisimplification report, parsed back."""
    return [_parse_word(text.split(), rep.group, None) for text in ss["words"]]


def ref_semisimplify_dim2(rep, words):
    """Factor records of a 2-dim Z_p rep mod p from integer matrices: an
    invariant F_p-line gives its character and the quotient character,
    otherwise the trace of each word product, on the given words."""
    p = rep.context.p
    letters = _int_letters(rep)
    for v in [(1, t) for t in range(p)] + [(0, 1)]:
        images = {let: (M[0][0] * v[0] + M[0][1] * v[1],
                        M[1][0] * v[0] + M[1][1] * v[1])
                  for let, M in letters.items()}
        if all((v[0] * w[1] - v[1] * w[0]) % p == 0 for w in images.values()):
            j = 0 if v[0] else 1
            sub = {let: w[j] * pow(v[j], -1, p) % p for let, w in images.items()}
            quo = {let: (M[0][0] * M[1][1] - M[0][1] * M[1][0]) * pow(sub[let], -1, p) % p
                   for let, M in letters.items()}
            factors = []
            for char in (sub, quo):
                traces = []
                for w in words:
                    t = 1
                    for let in w:
                        t = t * char[let] % p
                    traces.append((t,))
                factors.append({"dim": 1, "traces": tuple(traces)})
            factors.sort(key=lambda f: (f["dim"], f["traces"]))
            return factors
    traces = []
    for w in words:
        M = [[1, 0], [0, 1]]
        for let in w:
            L = letters[let]
            M = [[sum(M[i][t] * L[t][j] for t in range(2)) % p for j in range(2)]
                 for i in range(2)]
        traces.append(((M[0][0] + M[1][1]) % p,))
    return [{"dim": 2, "traces": tuple(traces)}]


def _reference_reps(case):
    if case == "unipotent":
        return [IntegralRep(FREE1, 2, Z5, {"g1": mat(Z5, [[1, 1], [0, 1]])})]
    if case == "s3_standard":
        return [s3_standard_rep(Z5)]
    if case == "triangular":  # two distinct residual characters
        return [IntegralRep(FREE2, 2, Z5, {"g1": mat(Z5, [[2, 1], [0, 3]]),
                                           "g2": mat(Z5, [[1, 4], [5, 2]])})]
    p, seed = case  # a seeded residually irreducible pair
    rng = random.Random(seed)
    a = sample_res_irred(PadicContext(p, precision=10), rng)
    return [a, perturbed_conjugate(a, 2, rng)]


@pytest.mark.parametrize("case", ["unipotent", "s3_standard", "triangular",
                                  (3, 1), (3, 2), (5, 3), (5, 4)])
def test_semisimplify_matches_integer_reference(case):
    for rep in _reference_reps(case):
        ss = semisimplify_mod_p(reduce_rep_mod(rep, 1))
        assert ss["complete"]
        assert ss["factors"] == ref_semisimplify_dim2(rep, _report_words(rep, ss))


@pytest.mark.parametrize("n", [3, 4])
def test_semisimplify_permutation_rep_matches_fixed_points(n):
    """Over Z_5 the permutation representation of S_n is the trivial
    character plus the irreducible standard representation, whose trace is
    the number of fixed points minus one."""
    perms = {"s": [1, 0] + list(range(2, n)), "c": list(range(1, n)) + [0]}
    ints = {name: [[int(perm[j] == i) for j in range(n)] for i in range(n)]
            for name, perm in perms.items()}
    rep = IntegralRep(symmetric_group(n), n, Z5,
                      {name: mat(Z5, M) for name, M in ints.items()})
    letters = {(gi, 1): ints[name]
               for gi, name in enumerate(rep.group.generators)}
    ss = semisimplify_mod_p(reduce_rep_mod(rep, 1))
    trivial, standard = [], []
    for w in _report_words(rep, ss):
        M = [[int(i == j) for j in range(n)] for i in range(n)]
        for let in w:
            L = letters[let]
            M = [[sum(M[i][t] * L[t][j] for t in range(n)) for j in range(n)]
                 for i in range(n)]
        trivial.append((1,))
        standard.append(((sum(M[i][i] for i in range(n)) - 1) % 5,))
    assert ss["complete"]
    assert ss["factors"] == [{"dim": 1, "traces": tuple(trivial)},
                             {"dim": n - 1, "traces": tuple(standard)}]


def _rank_mod_p(rows, p):
    """Rank over F_p of integer rows, by plain Gaussian elimination."""
    rows = [[x % p for x in row] for row in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c] * inv
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _positive_word_products(letters, d, p, max_len):
    """{word: integer product mod p} over every word of positive letters of
    length <= max_len, the empty word included."""
    out = {(): [[int(i == j) for j in range(d)] for i in range(d)]}
    frontier = [()]
    for _ in range(max_len):
        frontier = [w + (let,) for w in frontier for let in letters]
        for w in frontier:
            A, B = out[w[:-1]], letters[w[-1]]
            out[w] = [[sum(A[i][t] * B[t][j] for t in range(d)) % p
                       for j in range(d)] for i in range(d)]
    return out


def _small_int_reps():
    """Seeded Z_p reps of dimension <= 3 with integer generator matrices:
    free-group reps (some with a common invariant line) and the S_3
    standard and permutation reps."""
    rng = random.Random(23)
    reps = []
    for p in (3, 5):
        ctx = PadicContext(p, precision=6)
        for d in (1, 2, 3):
            for group in (FREE1, FREE2):
                made = 0
                while made < 3:
                    ints = {name: [[rng.randrange(p) for _ in range(d)]
                                   for _ in range(d)] for name in group.generators}
                    if made == 2 and d > 1:  # a common invariant line
                        for M in ints.values():
                            for i in range(1, d):
                                M[i][0] = 0
                    try:
                        reps.append((ints, IntegralRep(
                            group, d, ctx, {g: mat(ctx, M) for g, M in ints.items()})))
                    except DomainError:
                        continue
                    made += 1
    s3 = {"s": [[0, 1], [1, 0]], "c": [[0, -1], [1, -1]]}
    perm = {"s": [[0, 1, 0], [1, 0, 0], [0, 0, 1]],
            "c": [[0, 0, 1], [1, 0, 0], [0, 1, 0]]}
    for ints in (s3, perm):
        d = len(ints["s"])
        reps.append((ints, IntegralRep(symmetric_group(3), d, Z5,
                                       {g: mat(Z5, M) for g, M in ints.items()})))
    return reps


def test_spin_words_span_what_all_short_positive_words_span():
    """The report's words number the F_p-dimension of the span of all
    products of positive letters of length < d^2, found by brute force;
    they are among those words and independent, so they span it.  Burnside
    holds exactly when there are d^2 of them."""
    for ints, rep in _small_int_reps():
        d, p = rep.dim, rep.context.p
        letters = {(gi, 1): ints[name]
                   for gi, name in enumerate(rep.group.generators)}
        products = _positive_word_products(letters, d, p, d * d - 1)
        ss = semisimplify_mod_p(reduce_rep_mod(rep, 1))
        words = _report_words(rep, ss)
        flat = [[x for row in products[w] for x in row] for w in words]
        assert len(words) == _rank_mod_p(
            [[x for row in M for x in row] for M in products.values()], p)
        assert _rank_mod_p(flat, p) == len(words)
        assert residually_absolutely_irreducible(rep) == (len(words) == d * d)


def test_incomplete_semisimplification_names_unproven_dims():
    """A 19-cycle over F_5 splits as 1 + 9 + 9, since 5 has order 9 mod 19.
    Past the exhaustive line budget the random search does not find the
    9-dimensional submodules, so the report is incomplete and names the
    18-dimensional factor it could not prove irreducible."""
    n = 19
    cycle = [[int(j == (i + 1) % n) for j in range(n)] for i in range(n)]
    rep = ResidueRep(FREE1, n, Z5, 1, {"g1": mat(Z5, cycle)})
    ss = semisimplify_mod_p(rep)
    assert not ss["complete"] and ss["unproven"] == [18]
    assert [f["dim"] for f in ss["factors"]] == [1, 18]


def test_reductions_leave_no_reference_cycle():
    """With the cyclic collector off, reference counting alone must free a
    rep, its reductions and their word products."""
    rng = random.Random(5)
    gc.disable()
    try:
        a = sample_res_irred(Z5, rng)
        b = perturbed_conjugate(a, 2, rng)
        assert carayol_audit(a, b, 2)["verdict"] == "pass"
        rbar = reduce_rep_mod(a, 1)
        semisimplify_mod_p(rbar)
        alone = ResidueRep(FREE1, 2, Z5, 1, {"g1": mat(Z5, [[1, 1], [0, 1]])})
        semisimplify_mod_p(alone)
        refs = [weakref.ref(x) for x in (a, b, rbar, alone)]
        del a, b, rbar, alone
        assert [r() for r in refs] == [None] * 4
    finally:
        gc.enable()


# -- iso_mod against brute force and the full-precision candidate loop --------


def intertwines(a, b, X):
    m = a.modulus
    for name in a.group.generators:
        for r1, r2 in zip(mat_mul(X, a.gen_images[name]),
                          mat_mul(b.gen_images[name], X)):
            for x, y in zip(r1, r2):
                v = (x - y).pi_valuation()
                if v is not None and v < m:
                    return False
    return True


def brute_force_isomorphic(a, b):
    """Whether some X in GL_d(O/pi^m) has X a(g) = b(g) X mod pi^m, by
    enumerating all of M_d(O/pi^m)."""
    d = a.dim
    residues = list(a.context.enumerate_residues(a.modulus))
    for entries in itertools.product(residues, repeat=d * d):
        X = [list(entries[i * d:(i + 1) * d]) for i in range(d)]
        if determinant(X).is_unit() and intertwines(a, b, X):
            return True
    return False


def unit_det_matrix(ctx, rng, d=2):
    while True:
        M = [[ctx.random_element(rng) for _ in range(d)] for _ in range(d)]
        if determinant(M).is_unit():
            return M


def one_generator_pairs(ctx, m, seed):
    """Seeded (A, B) pairs of one-generator reps mod pi^m: conjugates,
    perturbed conjugates, diagonal pairs that agree mod pi, and unrelated
    matrices."""
    rng = random.Random(seed)
    pi = ctx.pi()
    pairs = []
    for _ in range(3):
        A = unit_det_matrix(ctx, rng)
        C = unit_det_matrix(ctx, rng)
        conj = mat_mul(mat_mul(C, A), mat_inverse(C))
        pairs.append((A, conj))
        k = rng.randrange(1, m + 1)
        pk = ctx.pi_power(k)
        pairs.append((A, [[x + ctx.random_element(rng) * pk for x in row]
                          for row in conj]))
        u1, u2 = ctx.random_unit(rng), ctx.random_unit(rng)
        zero = ctx.zero()
        pairs.append(([[u1, zero], [zero, u2]],
                      [[u1 * (ctx.one() + pi * ctx.random_element(rng)), zero],
                       [zero, u2 * (ctx.one() - pi * ctx.random_element(rng))]]))
        pairs.append((A, unit_det_matrix(ctx, rng)))
    return [tuple(ResidueRep(FREE1, 2, ctx, m, {"g1": M}) for M in pair)
            for pair in pairs]


TINY_RINGS = {
    "Z2": PadicContext(2, precision=6),
    "Z3": PadicContext(3, precision=6),
    "Z2-e2": PadicContext(2, e=2, precision=6),
    "W(F4)": PadicContext(2, f=2, precision=6),
}


@pytest.mark.parametrize("ring,m", [("Z2", 1), ("Z2", 2), ("Z3", 1),
                                    ("Z2-e2", 2), ("W(F4)", 1)])
def test_iso_mod_agrees_with_brute_force(ring, m):
    ctx = TINY_RINGS[ring]
    statuses = set()
    for seed in range(4):
        for a, b in one_generator_pairs(ctx, m, seed):
            res = iso_mod(a, b)
            want = brute_force_isomorphic(a, b)
            assert res.status == ("isomorphic" if want else "not_isomorphic")
            statuses.add(res.status)
            if want:
                X = res.intertwiner
                assert determinant(X).is_unit()
                assert intertwines(a, b, X)
    assert statuses == {"isomorphic", "not_isomorphic"}


def seeded_pairs(ctx, group, d, m, seed):
    """Seeded pairs of reps of ``group`` in dimension d mod pi^m: a
    conjugate, a perturbed conjugate, a pair congruent entry by entry, and
    an unrelated pair."""
    rng = random.Random(seed)
    names = group.generators

    def unrelated():
        return {g: unit_det_matrix(ctx, rng, d) for g in names}

    def perturbed(images, k):
        pk = ctx.pi_power(k)
        return {g: [[x + ctx.random_element(rng) * pk for x in row]
                    for row in M] for g, M in images.items()}

    A = unrelated()
    C = unit_det_matrix(ctx, rng, d)
    conj = {g: mat_mul(mat_mul(C, M), mat_inverse(C)) for g, M in A.items()}
    pairs = [(A, conj), (A, perturbed(conj, rng.randrange(1, m + 1))),
             (A, perturbed(A, m)), (A, unrelated())]
    return [tuple(ResidueRep(group, d, ctx, m, images) for images in pair)
            for pair in pairs]


@pytest.mark.parametrize("ring,gens,d,m", [
    ("Z2", 2, 2, 1), ("Z2", 2, 2, 2), ("Z3", 2, 2, 1),
    ("Z2", 1, 3, 1), ("Z2", 2, 3, 1)])
def test_iso_mod_agrees_with_brute_force_beyond_one_generator(ring, gens, d, m):
    ctx = TINY_RINGS[ring]
    statuses = set()
    for seed in range(4):
        for a, b in seeded_pairs(ctx, free_group(gens), d, m, seed):
            res = iso_mod(a, b)
            want = brute_force_isomorphic(a, b)
            assert res.status == ("isomorphic" if want else "not_isomorphic")
            statuses.add(res.status)
            if want:
                assert determinant(res.intertwiner).is_unit()
                assert intertwines(a, b, res.intertwiner)
    assert statuses == {"isomorphic", "not_isomorphic"}


def _counting(monkeypatch, name):
    """Replace loccon.lattice.<name> by a wrapper that counts its calls."""
    import loccon.lattice as lattice
    calls = []
    original = getattr(lattice, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(lattice, name, counted)
    return calls


def _two_generator_pair(ctx, m, conjugate_by):
    """A two-generator rep and one that agrees with its conjugate by
    ``conjugate_by`` mod pi^m but not at precision m + 1."""
    a = {"g1": mat(ctx, [[1, 2], [3, 2]]), "g2": mat(ctx, [[0, 1], [1, 1]])}
    C = mat(ctx, conjugate_by)
    pm = ctx.pi_power(m)
    b = {g: [[x + pm for x in row]
             for row in mat_mul(mat_mul(C, M), mat_inverse(C))]
         for g, M in a.items()}
    return (ResidueRep(FREE2, 2, ctx, m, a), ResidueRep(FREE2, 2, ctx, m, b))


@pytest.mark.parametrize("m", [1, 2, 3])
def test_iso_mod_returns_the_identity_for_a_congruent_pair(monkeypatch, m):
    """A pair that agrees mod pi^m is isomorphic by X = I, read off the
    generators with no matrix product and without solving for the
    intertwiner module."""
    a, b = _two_generator_pair(Z5, m, [[1, 0], [0, 1]])
    solved = _counting(monkeypatch, "intertwiner_space")
    multiplied = _counting(monkeypatch, "mat_mul")
    res = iso_mod(a, b)
    assert (res.status, res.certificate) == ("isomorphic", "explicit intertwiner")
    assert res.intertwiner == mat_reduce_mod(mat(Z5, [[1, 0], [0, 1]]), m)
    assert solved == [] and multiplied == []


@pytest.mark.parametrize("m", [1, 2, 3])
def test_iso_mod_finds_a_pair_congruent_only_after_conjugation(monkeypatch, m):
    solved = _counting(monkeypatch, "intertwiner_space")
    checked = _counting(monkeypatch, "_check_intertwines")
    a, b = _two_generator_pair(Z5, m, [[1, 2], [0, 1]])
    res = iso_mod(a, b)
    assert res.status == "isomorphic"
    assert res.intertwiner != mat_reduce_mod(mat(Z5, [[1, 0], [0, 1]]), m)
    assert determinant(res.intertwiner).is_unit()
    assert intertwines(a, b, res.intertwiner)
    assert len(solved) == 1 and len(checked) == 1


@pytest.mark.parametrize("ctx,left,right,m", [
    # a unipotent block against the identity: Hom holds E12 and E22
    (Z5, {"g1": [[1, 1], [0, 1]]}, {"g1": [[1, 0], [0, 1]]}, 1),
    (Z5, {"g1": [[1, 1], [0, 1]]}, {"g1": [[1, 0], [0, 1]]}, 2),
    # distinct eigenvalues mod 3: Hom is the first row
    (Z3, {"g1": [[1, 0], [0, 1]]}, {"g1": [[1, 0], [0, -1]]}, 2),
    (Z5, {"g1": [[1, 1], [0, 1]], "g2": [[2, 0], [0, 2]]},
     {"g1": [[1, 0], [0, 1]], "g2": [[2, 0], [0, 2]]}, 1),
    (TINY_RINGS["Z2"], {"g1": [[1, 1, 0], [0, 1, 0], [0, 0, 1]]},
     {"g1": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}, 1),
], ids=["unipotent-Z5-m1", "unipotent-Z5-m2", "eigenvalues-Z3-m2",
        "two-generators-Z5-m1", "unipotent-d3-Z2-m1"])
def test_iso_mod_refutes_a_pair_with_a_singular_mod_pi_hom(ctx, left, right, m):
    """A nonzero mod-pi Hom with no invertible element: the search runs
    through to the exhaustive certificate."""
    d, group = len(left["g1"]), free_group(len(left))
    a, b = (ResidueRep(group, d, ctx, m, {g: mat(ctx, M) for g, M in x.items()})
            for x in (left, right))
    assert any(s == 0 for _, s in intertwiner_space(a, b))
    res = iso_mod(a, b)
    assert res.status == "not_isomorphic"
    assert res.certificate.endswith("(exhaustive)")
    if ctx.residue_field_size ** (d * d * m) <= 5 ** 4:
        assert not brute_force_isomorphic(a, b)


def reference_iso_mod(a, b, search_cap=1 << 20, rand_budget=2000, seed=0):
    """The full-precision candidate loop: the identity when it intertwines,
    else each combination of the unit generators with integer coefficients
    c < q, built over O_E/pi^m and kept when its determinant is a unit.
    For f = 1 these are the residue-field combinations, in the order
    iso_mod tries them."""
    d, m, ctx = a.dim, a.modulus, a.context
    identity = [[ctx.from_int(int(i == j)) for j in range(d)] for i in range(d)]
    if intertwines(a, b, identity):
        return IsoResult("isomorphic", mat_reduce_mod(identity, m),
                         "explicit intertwiner")
    gens = intertwiner_space(a, b)
    unit_gens = [g for g, s in gens if s == 0]
    if not unit_gens:
        return IsoResult("not_isomorphic", None,
                         "solution module is contained in pi * M_d")
    q = ctx.residue_field_size
    t = len(unit_gens)

    def combine(combo):
        X = [[ctx.zero()] * d for _ in range(d)]
        for c, g in zip(combo, unit_gens):
            if c == 0:
                continue
            cc = ctx.from_int(c)
            for i in range(d):
                for j in range(d):
                    X[i][j] = X[i][j] + cc * g[i * d + j]
        return X

    if q ** t <= search_cap:
        combos = itertools.product(range(q), repeat=t)
    else:
        rng = random.Random(seed)
        combos = ([rng.randrange(q) for _ in range(t)]
                  for _ in range(rand_budget))
    for combo in combos:
        if not any(combo):
            continue
        X = combine(combo)
        if determinant(X).is_unit():
            return IsoResult("isomorphic", mat_reduce_mod(X, m),
                             "explicit intertwiner")
    if q ** t <= search_cap:
        return IsoResult("not_isomorphic", None,
                         "no invertible element in the mod-pi solution span "
                         "(exhaustive)")
    return IsoResult("inconclusive", None,
                     f"randomized search exhausted ({rand_budget} trials) with a "
                     "nonzero solution space")


def _as_bytes(res):
    X = res.intertwiner
    coords = None if X is None else [[(x.coords, x.known_precision) for x in row]
                                     for row in X]
    return res.status, res.certificate, coords


@pytest.mark.parametrize("p", [3, 5])
def test_iso_mod_matches_the_full_precision_loop_when_f_is_one(p, monkeypatch):
    """Same status, certificate and intertwiner coordinates as the loop
    that built every candidate, exhaustive and randomized (the search cap
    and draw budget set on the module)."""
    import loccon.lattice as lattice
    ctx = PadicContext(p, precision=8)
    cases = []
    for m in (1, 2, 3):
        cases += one_generator_pairs(ctx, m, seed=p * 10 + m)
    rng = random.Random(p)
    for n in (1, 2):
        a = sample_res_irred(ctx, rng)
        b = perturbed_conjugate(a, n, rng)
        cases.append((reduce_rep_mod(a, n), reduce_rep_mod(b, n)))
    statuses = set()
    for a, b in cases:
        for kw in ({}, {"search_cap": 1, "seed": 3},
                   {"search_cap": 1, "rand_budget": 2, "seed": 1}):
            monkeypatch.setattr(lattice, "_ISO_SEARCH_CAP",
                                kw.get("search_cap", 1 << 20))
            monkeypatch.setattr(lattice, "_ISO_RAND_BUDGET",
                                kw.get("rand_budget", 2000))
            got = iso_mod(a, b, seed=kw.get("seed", 0))
            assert _as_bytes(got) == _as_bytes(reference_iso_mod(a, b, **kw))
            statuses.add(got.status)
    assert statuses == {"isomorphic", "not_isomorphic", "inconclusive"}


@given(shape=st.sampled_from(SHAPES), d=st.integers(1, 3), data=st.data())
@settings(max_examples=200, deadline=None)
def test_residue_image_rank_decides_unit_determinant(shape, d, data):
    """The residue of X has full rank over F_q exactly when det X is a
    unit."""
    ctx = PadicContext(precision=data.draw(st.integers(1, 6)), **shape)
    F = ctx.residue_field
    pi = ctx.pi()
    X = []
    for _ in range(d):
        row = []
        for _ in range(d):
            x = ctx.from_coords(data.draw(st.lists(
                st.integers(0, ctx.coeff_modulus - 1),
                min_size=ctx.degree, max_size=ctx.degree)))
            row.append(x * pi if data.draw(st.booleans()) else x)
        X.append(row)
    unit = determinant(X).is_unit()
    assert (F.rank([[F.of(x) for x in row] for row in X]) == d) == unit


def test_a_wrong_intertwiner_is_refused():
    """The check raises, also under python -O, when X does not intertwine."""
    a = ResidueRep(FREE1, 2, Z5, 1, {"g1": mat(Z5, [[1, 1], [0, 1]])})
    b = ResidueRep(FREE1, 2, Z5, 1, {"g1": mat(Z5, [[1, 0], [0, 1]])})
    with pytest.raises(RuntimeError, match="intertwiner verification failed"):
        _check_intertwines(a, b, mat(Z5, [[1, 0], [0, 1]]))
    _check_intertwines(a, a, mat(Z5, [[1, 0], [0, 1]]))


# -- Burnside's criterion against semisimplification and End ------------------


def ref_residually_absolutely_irreducible(rep):
    """One full-dimension mod-pi factor whose endomorphisms are the
    scalars: the test residually_absolutely_irreducible replaced."""
    rbar = reduce_rep_mod(rep, 1)
    ss = semisimplify_mod_p(rbar)
    if len(ss["factors"]) != 1 or ss["factors"][0]["dim"] != rep.dim:
        return False
    return sum(1 for _, s in intertwiner_space(rbar, rbar) if s == 0) == 1


BURNSIDE_RINGS = {
    "Z3": PadicContext(3, precision=6),
    "Z5": PadicContext(5, precision=6),
    "W(F4)": PadicContext(2, f=2, precision=6),
    "Z3-e2": PadicContext(3, e=2, precision=6),
}


@pytest.mark.parametrize("ring", sorted(BURNSIDE_RINGS))
def test_burnside_agrees_with_semisimplification_and_end(ring):
    ctx = BURNSIDE_RINGS[ring]
    rng = random.Random(ring)
    verdicts = set()
    for _ in range(40):
        group = FREE1 if rng.random() < 0.2 else FREE2
        mats = {name: unit_det_matrix(ctx, rng) for name in group.generators}
        if rng.random() < 0.3:  # a common invariant line
            for M in mats.values():
                M[1][0] = M[1][0] * ctx.pi()
        try:
            rep = IntegralRep(group, 2, ctx, mats)
        except DomainError:
            continue
        want = ref_residually_absolutely_irreducible(rep)
        assert residually_absolutely_irreducible(rep) == want
        verdicts.add(want)
    assert verdicts == {True, False}


# -- shared harness helpers (also used by the acceptance gate) ---------------


def sample_res_irred(ctx, rng, tries=200):
    """A residually absolutely irreducible 2-dim rep of the rank-2 free group."""
    for _ in range(tries):
        mats = {}
        ok = True
        for name in ("g1", "g2"):
            M = [[ctx.from_int(rng.randrange(ctx.p ** 2)) for _ in range(2)]
                 for _ in range(2)]
            det = M[0][0] * M[1][1] - M[0][1] * M[1][0]
            if det.pi_valuation() != 0:
                ok = False
                break
            mats[name] = M
        if not ok:
            continue
        rep = IntegralRep(FREE2, 2, ctx, mats)
        if residually_absolutely_irreducible(rep):
            return rep
    raise RuntimeError("no residually irreducible sample found")


def perturbed_conjugate(rep, n, rng):
    """C rep C^{-1} + O(pi^n): trace-congruent mod pi^n by construction."""
    from loccon.chainring import mat_inverse, mat_mul
    ctx = rep.context
    while True:
        C = [[ctx.from_int(rng.randrange(ctx.p ** 2)) for _ in range(2)]
             for _ in range(2)]
        det = C[0][0] * C[1][1] - C[0][1] * C[1][0]
        if det.pi_valuation() == 0:
            break
    pn = ctx.pi_power(n)
    images = {}
    for g, M in rep.gen_images.items():
        conj = mat_mul(mat_mul(C, M), mat_inverse(C))
        images[g] = [[x + ctx.from_int(rng.randrange(ctx.p)) * pn for x in row]
                     for row in conj]
    return IntegralRep(rep.group, rep.dim, ctx, images)
