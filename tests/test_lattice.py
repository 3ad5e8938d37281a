"""Integral representations, mod-pi^m isomorphism testing, stable lattices."""

import gc
import itertools
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loccon.chainring import (
    determinant,
    mat_inverse,
    mat_mul,
    mat_reduce_mod,
)
from loccon.groups import free_group, symmetric_group
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
    stable_lattice,
)
from loccon.padic import DomainError, PadicContext, PadicNumber, PrecisionError
from tests.test_padic import SHAPES

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
    from loccon.groups import cyclic_group
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
    """Each orbit round costs as many digits as the denominator, so the
    orbit's three rounds need more than the 14 digits of Z5."""
    from loccon.chainring import mat_inverse, mat_mul
    from loccon.groups import cyclic_group
    ctx = PadicContext(5, precision=20)
    M = _conjugated_four_cycle(ctx)
    lat, C = stable_lattice(cyclic_group(4), 4, ctx, {"g": M})
    conj = mat_mul(mat_mul(mat_inverse(C), M), C)
    for row, lat_row in zip(conj, lat.gen_images["g"]):
        for x, y in zip(row, lat_row):
            assert x.to_integral() == y
    assert lat.trace_of_word(((0, 1),) * 4) == ctx.from_int(4)


def test_stable_lattice_out_of_digits_is_a_precision_error():
    """At 14 digits the orbit rounds use up the precision: the division that
    follows needs more digits than are known, which is inconclusive, not a
    proof that the element is not divisible."""
    from loccon.groups import cyclic_group
    ctx = PadicContext(5, precision=14)
    with pytest.raises(PrecisionError):
        stable_lattice(cyclic_group(4), 4, ctx, {"g": _conjugated_four_cycle(ctx)})


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
    """A reduction, a reduction of a reduction and a lift-free ResidueRep
    give the lift's word products and traces reduced mod pi^m, coordinate
    for coordinate, inverse letters included.  The reductions run first:
    the lift's memo must still hold only full-precision products."""
    rep = sample_res_irred(Z5, random.Random(3))
    words = rep.group.words_up_to(3)
    got = [(m, w, r.matrix_of_word(w), r.trace_of_word(w))
           for m in (1, 2, 3)
           for r in (reduce_rep_mod(reduce_rep_mod(rep, 3), m),
                     reduce_rep_mod(rep, m),
                     ResidueRep(rep.group, 2, Z5, m, rep.gen_images))
           for w in words]
    assert all(x.known_precision == Z5.precision
               for M in rep._words.values() for row in M for x in row)
    for m, w, M, t in got:
        assert [[(x.coords, x.known_precision) for x in row] for row in M] == \
            [[(x.reduce_mod(m).coords, m) for x in row]
             for row in rep.matrix_of_word(w)]
        assert (t.coords, t.known_precision) == \
            (rep.trace_of_word(w).reduce_mod(m).coords, m)


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


def ref_semisimplify_dim2(rep):
    """Factor records of a 2-dim Z_p rep mod p from integer matrices: an
    invariant F_p-line gives its character and the quotient character,
    otherwise the trace of each word product."""
    p = rep.context.p
    letters = _int_letters(rep)
    if rep.group.kind == "finite":
        words = list(rep.group.element_words().values())
    else:
        words = rep.group.words_up_to(4)
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
        assert ss["factors"] == ref_semisimplify_dim2(rep)


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
    letters = {}
    for gi, name in enumerate(rep.group.generators):
        letters[(gi, 1)] = ints[name]
        letters[(gi, -1)] = [list(col) for col in zip(*ints[name])]
    trivial, standard = [], []
    for w in rep.group.element_words().values():
        M = [[int(i == j) for j in range(n)] for i in range(n)]
        for let in w:
            L = letters[let]
            M = [[sum(M[i][t] * L[t][j] for t in range(n)) for j in range(n)]
                 for i in range(n)]
        trivial.append((1,))
        standard.append(((sum(M[i][i] for i in range(n)) - 1) % 5,))
    ss = semisimplify_mod_p(reduce_rep_mod(rep, 1))
    assert ss["complete"]
    assert ss["factors"] == [{"dim": 1, "traces": tuple(trivial)},
                             {"dim": n - 1, "traces": tuple(standard)}]


def test_reductions_leave_no_reference_cycle():
    """With the cyclic collector off, reference counting alone must free a
    rep, its reductions and the word products they share."""
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


def unit_det_matrix(ctx, rng):
    while True:
        M = [[ctx.random_element(rng) for _ in range(2)] for _ in range(2)]
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


def reference_iso_mod(a, b, search_cap=1 << 20, rand_budget=2000, seed=0):
    """The full-precision candidate loop: each combination of the unit
    generators with integer coefficients c < q is built over O_E/pi^m and
    kept when its determinant is a unit.  For f = 1 these are the
    residue-field combinations, in the order iso_mod tries them."""
    gens = intertwiner_space(a, b)
    unit_gens = [g for g, s in gens if s == 0]
    d, m, ctx = a.dim, a.modulus, a.context
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
def test_iso_mod_matches_the_full_precision_loop_when_f_is_one(p):
    """Same status, certificate and intertwiner coordinates as the loop
    that built every candidate, exhaustive and randomized."""
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
            got = iso_mod(a, b, **kw)
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
