"""The matrix layer over O_E, E and series algebras; nullspaces and spans
over O/pi^m."""

import itertools
import random
from collections import deque
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loccon.chainring import (
    ChainSpan,
    determinant,
    identity_matrix,
    mat_inverse,
    mat_is_zero_mod,
    mat_mul,
    mat_reduce_mod,
    nullspace_mod,
    spin,
)
from loccon.padic import DomainError, PadicContext, PadicNumber
from loccon.series import AlgebraModel

Z5 = PadicContext(5, precision=12)
RAM2 = PadicContext(5, e=2, precision=12)
TOWER = PadicContext(3, f=2, e=2, precision=10)  # W(F_9) then Eisenstein
POLY = AlgebraModel(Z5, bounded_vars=("X",))


def rand_mat(ctx, d, rng):
    return [[ctx.random_element(rng) for _ in range(d)] for _ in range(d)]


def test_identity_and_mul():
    rng = random.Random(0)
    A = rand_mat(Z5, 3, rng)
    I = identity_matrix(Z5, 3)
    assert mat_is_zero_mod(
        [[x - y for x, y in zip(r1, r2)] for r1, r2 in zip(mat_mul(A, I), A)], 5)


def test_determinant_multiplicative():
    rng = random.Random(1)
    for _ in range(10):
        A, B = rand_mat(Z5, 2, rng), rand_mat(Z5, 2, rng)
        lhs = determinant(mat_mul(A, B))
        rhs = determinant(A) * determinant(B)
        assert (lhs - rhs).pi_valuation() is None


def test_mat_inverse_round_trip():
    rng = random.Random(2)
    for ctx in (Z5, RAM2):
        for _ in range(8):
            A = rand_mat(ctx, 2, rng)
            A[0][0] = ctx.random_unit(rng)  # force a unit determinant setup
            A[1][1] = ctx.random_unit(rng)
            A[0][1] = A[0][1] * ctx.pi()
            inv = mat_inverse(A)
            prod = mat_mul(A, inv)
            diff = [[x - y for x, y in zip(r1, r2)]
                    for r1, r2 in zip(prod, identity_matrix(ctx, 2))]
            assert mat_is_zero_mod(diff, ctx.precision - 2)


def test_mat_inverse_rejects_singular():
    A = [[Z5.from_int(5), Z5.zero()], [Z5.zero(), Z5.one()]]
    with pytest.raises(DomainError):
        mat_inverse(A)


def test_nullspace_is_annihilated():
    rng = random.Random(3)
    m = 4
    for ctx in (Z5, RAM2):
        for _ in range(6):
            rows = [[ctx.random_element(rng) for _ in range(3)]
                    for _ in range(3)]
            # make the matrix visibly singular mod pi^m
            rows[2] = [x * ctx.pi_power(m) for x in rows[2]]
            gens = nullspace_mod(rows, ctx, m)
            for vec, s in gens:
                assert 0 <= s < m
                img = [sum((r[j] * vec[j] for j in range(1, 3)),
                           start=r[0] * vec[0]) for r in rows]
                for x in img:
                    v = x.pi_valuation()
                    assert v is None or v >= m


@pytest.mark.parametrize("p,e,m", [(2, 1, 1), (2, 1, 2), (3, 1, 1), (3, 1, 2),
                                   (2, 2, 3)])
def test_nullspace_generates_the_enumerated_solution_module(p, e, m):
    """Over O/pi^m, against enumeration: the generators annihilate the rows,
    and their O-span is the whole solution set."""
    ctx = PadicContext(p, e=e, precision=6)
    residues = list(ctx.enumerate_residues(m))
    zero = ctx.zero().reduce_mod(m)
    rng = random.Random(p * 100 + e * 10 + m)

    def key(vec):
        return tuple(x.reduce_mod(m).coords for x in vec)

    for _ in range(20):
        k = rng.randrange(1, 4)
        rows = [[rng.choice(residues) for _ in range(k)]
                for _ in range(rng.randrange(1, 4))]

        def solves(vec):
            return mat_is_zero_mod(
                [[sum((a * x for a, x in zip(r, vec)), start=zero)]
                 for r in rows], m)

        gens = [g for g, _ in nullspace_mod(rows, ctx, m)]
        assert all(solves(g) for g in gens)
        solutions = {key(v) for v in itertools.product(residues, repeat=k)
                     if solves(v)}
        span = set()
        for cs in itertools.product(residues, repeat=len(gens)):
            vec = [zero] * k
            for c, g in zip(cs, gens):
                vec = [x + c * y for x, y in zip(vec, g)]
            span.add(key(vec))
        assert span == solutions


def test_nullspace_of_zero_matrix_is_everything():
    rows = [[Z5.zero()] * 2 for _ in range(2)]
    gens = nullspace_mod(rows, Z5, 3)
    assert len(gens) == 2
    assert all(s == 0 for _, s in gens)


def test_nullspace_of_unimodular_matrix_is_trivial():
    rows = [[Z5.one(), Z5.from_int(2)], [Z5.zero(), Z5.one()]]
    assert nullspace_mod(rows, Z5, 4) == []


def test_pi_scaled_identity_nullspace():
    # pi^2 * I mod pi^3 kills exactly pi * (anything)
    rows = [[Z5.from_int(25), Z5.zero()], [Z5.zero(), Z5.from_int(25)]]
    gens = nullspace_mod(rows, Z5, 3)
    assert len(gens) == 2
    assert sorted(s for _, s in gens) == [1, 1]


def span_contains(span, vec):
    """Reference membership test: vec reduces to 0 mod pi^m against the span."""
    return all(_val(x, span.m) >= span.m for x in span.reduce(vec))


def test_chainspan_full_detection():
    span = ChainSpan(Z5, 2, 2)
    assert not span.is_full()
    span.add([Z5.one(), Z5.zero()])
    span.add([Z5.from_int(3), Z5.one()])
    assert span.is_full()


def test_chainspan_proper_when_pivot_has_positive_valuation():
    span = ChainSpan(Z5, 2, 2)
    span.add([Z5.one(), Z5.zero()])
    span.add([Z5.zero(), Z5.from_int(5)])
    assert not span.is_full()
    assert span_contains(span, [Z5.zero(), Z5.from_int(10)])
    assert not span_contains(span, [Z5.zero(), Z5.one()])


def test_chainspan_add_reports_growth():
    span = ChainSpan(Z5, 3, 2)
    assert span.add([Z5.one(), Z5.from_int(7)])
    assert not span.add([Z5.from_int(2), Z5.from_int(14)])


def test_mat_reduce_mod_canonical():
    rng = random.Random(4)
    A = rand_mat(RAM2, 2, rng)
    R = mat_reduce_mod(A, 3)
    R2 = mat_reduce_mod(R, 3)
    assert all(x.coords == y.coords for r1, r2 in zip(R, R2)
               for x, y in zip(r1, r2))


def test_chainspan_keeps_a_row_displaced_from_its_pivot_column():
    span = ChainSpan(Z5, 3, 2)
    first = [Z5.pi(), Z5.pi_power(2)]
    span.add(first)
    span.add([Z5.one(), Z5.zero()])  # takes column 0 with a smaller valuation
    assert span_contains(span, first)
    assert not span_contains(span, [Z5.zero(), Z5.pi()])


# -- determinant and inverse against the Leibniz expansion -------------------


def leibniz_det(A):
    """Reference: the signed sum over all permutations."""
    d = len(A)
    total = None
    for perm in itertools.permutations(range(d)):
        term = A[0][perm[0]]
        for i in range(1, d):
            term = term * A[i][perm[i]]
        if sum(perm[i] > perm[j] for i in range(d) for j in range(i + 1, d)) % 2:
            term = -term
        total = term if total is None else total + term
    return total


def leibniz_inverse(A):
    """Reference: cofactors over the Leibniz determinant."""
    d = len(A)
    dinv = leibniz_det(A).inverse()
    if d == 1:
        return [[dinv]]
    out = [[None] * d for _ in range(d)]
    for i in range(d):
        for j in range(d):
            minor = [row[:j] + row[j + 1:] for k, row in enumerate(A) if k != i]
            c = leibniz_det(minor) * dinv
            out[j][i] = -c if (i + j) % 2 else c
    return out


def same_matrix(A, B):
    return all(x == y for ra, rb in zip(A, B) for x, y in zip(ra, rb))


def check_against_leibniz(A):
    assert determinant(A) == leibniz_det(A)
    try:
        ref = leibniz_inverse(A)
    except DomainError:
        with pytest.raises(DomainError):
            mat_inverse(A)
        return
    assert same_matrix(mat_inverse(A), ref)


def random_number(rng):
    return PadicNumber(Z5.random_element(rng), rng.randrange(3))


def random_poly(rng):
    return POLY.series({(k,): Z5.from_int(rng.randrange(-4, 5))
                        for k in range(rng.randrange(1, 4))})


# ring -> (random entry, one, pi)
RINGS = {
    "Z5": (Z5.random_element, Z5.one(), Z5.pi()),
    "ram2": (RAM2.random_element, RAM2.one(), RAM2.pi()),
    "tower": (TOWER.random_element, TOWER.one(), TOWER.pi()),
    "E": (random_number, PadicNumber(Z5.one()), PadicNumber(Z5.pi())),
    "series": (random_poly, POLY.constant(1), POLY.constant(Z5.pi())),
}


@pytest.mark.parametrize("ring", sorted(RINGS))
@given(seed=st.integers(0, 10 ** 6), d=st.integers(1, 4), unit=st.booleans())
@settings(max_examples=12, deadline=None)
def test_determinant_and_inverse_match_leibniz(ring, seed, d, unit):
    rng = random.Random(seed)
    entry, one, pi = RINGS[ring]
    A = [[entry(rng) for _ in range(d)] for _ in range(d)]
    if unit:  # I + pi A has determinant 1 mod pi
        A = [[x * pi + one if i == j else x * pi for j, x in enumerate(row)]
             for i, row in enumerate(A)]
    check_against_leibniz(A)


def test_series_inverse_without_a_unit_entry():
    """det = 1, but no entry is a unit of the algebra: 1 + X^2 vanishes
    where X^2 = -1, and -1 is a square mod 5."""
    one, x = POLY.constant(1), POLY.var("X")
    A = [[one + x * x, x * x * x + x.scale(2)], [x, one + x * x]]
    for row in A:
        for entry in row:
            with pytest.raises(DomainError):
                entry.inverse()
    assert determinant(A) == one
    assert same_matrix(mat_mul(A, mat_inverse(A)),
                       [[one, POLY.zero()], [POLY.zero(), one]])
    check_against_leibniz(A)


@pytest.mark.parametrize("p,m,k", [(2, 2, 2), (2, 3, 2), (3, 2, 2), (2, 2, 3)])
def test_chainspan_is_the_generated_submodule(p, m, k):
    """Against enumeration of every combination over Z/p^m."""
    ctx, n = PadicContext(p, precision=6), p ** m
    rng = random.Random(p * 100 + m * 10 + k)
    for _ in range(25):
        gens = [[rng.randrange(n) for _ in range(k)]
                for _ in range(rng.randrange(1, 4))]
        generated = {tuple(sum(c * g[i] for c, g in zip(cs, gens)) % n
                           for i in range(k))
                     for cs in itertools.product(range(n), repeat=len(gens))}
        span = ChainSpan(ctx, m, k)
        for g in gens:
            span.add([ctx.from_int(x) for x in g])
        for v in itertools.product(range(n), repeat=k):
            assert span_contains(span, [ctx.from_int(x) for x in v]) == (v in generated)


# -- the one echelon against the former Smith-like elimination ---------------


def _val(x, m):
    v = x.pi_valuation()
    return m if v is None or v >= m else v


def smith_nullspace(rows, ctx, m):
    """Reference: the former nullspace_mod, a Smith-like elimination on M
    that tracks the column operations V; the solutions are x = V z with
    D z = 0 for the diagonal D."""
    n, k = len(rows), len(rows[0])
    M = [list(row) for row in rows]
    V = identity_matrix(ctx, k)
    diag = []
    for r in range(min(n, k)):
        best = None
        for i in range(r, n):
            for j in range(r, k):
                v = _val(M[i][j], m)
                if v < m and (best is None or v < best[0]):
                    best = (v, i, j)
        if best is None:
            break
        a, pi_i, pi_j = best
        M[r], M[pi_i] = M[pi_i], M[r]
        for row in M + V:
            row[r], row[pi_j] = row[pi_j], row[r]
        unit_inv = M[r][r].shift_down(a).inverse()
        for i in range(n):
            if i != r and _val(M[i][r], m) < m:
                q = (M[i][r] * unit_inv).shift_down(a)
                M[i] = [x - q * y for x, y in zip(M[i], M[r])]
        for j in range(k):
            if j != r and _val(M[r][j], m) < m:
                q = ctx.from_coords((M[r][j] * unit_inv).shift_down(a).coords)
                for row in M + V:
                    row[j] = row[j] - q * row[r]
        diag.append(a)
    gens = []
    for j in range(k):
        s = m - diag[j] if j < len(diag) else 0  # z_j is free mod pi^(m-s)
        if s < m:
            scale = ctx.pi_power(s)
            gens.append(([(V[i][j] * scale).reduce_mod(m) for i in range(k)], s))
    return gens


class ReplacingSpan:
    """Reference: the former ChainSpan, which after each insertion reduces
    every other row against the new one and places it again."""

    def __init__(self, ctx, m, k):
        self.ctx, self.m, self.k = ctx, m, k
        self.rows = {}

    def reduce(self, vec):
        vec = list(vec)
        changed = True
        while changed:
            changed = False
            for j in sorted(self.rows):
                a, row = self.rows[j]
                v = _val(vec[j], self.m)
                if a <= v < self.m:
                    q = (vec[j] * row[j].shift_down(a).inverse()).shift_down(a)
                    vec = [x - q * y for x, y in zip(vec, row)]
                    changed = True
        return [x.reduce_mod(self.m) for x in vec]

    def add(self, vec):
        j = self._place(vec)
        if j is not None:
            for jj in list(self.rows):
                if jj != j:
                    self._place(self.rows.pop(jj)[1])

    def _place(self, vec):
        vec = self.reduce(vec)
        vals = [_val(x, self.m) for x in vec]
        a = min(vals)
        if a >= self.m:
            return None
        j = vals.index(a)
        displaced = self.rows.get(j)
        self.rows[j] = (a, vec)
        if displaced is not None:
            self._place(displaced[1])
        return j

    def contains(self, vec):
        return all(_val(x, self.m) >= self.m for x in self.reduce(vec))


def seeded_system(ctx, n, k, m, rng):
    """An n x k matrix of rank below k, with pi-power noise so that the
    solution module has generators of several orders."""
    r = rng.randrange(0, k)
    B = [[ctx.random_element(rng) for _ in range(r)] for _ in range(n)]
    C = [[ctx.random_element(rng) for _ in range(k)] for _ in range(r)]
    rows = mat_mul(B, C) if r else [[ctx.zero()] * k for _ in range(n)]
    for _ in range(k):
        row, j = rng.choice(rows), rng.randrange(k)
        row[j] = row[j] + ctx.random_element(rng) * ctx.pi_power(
            rng.randrange(1, m + 1))
    return [[x.reduce_mod(m) for x in row] for row in rows]


def generated_by(gens, ctx, m, k):
    span = ReplacingSpan(ctx, m, k)
    for g, _ in gens:
        span.add(g)
    return span


@pytest.mark.parametrize("ctx,m", [(Z5, 3), (RAM2, 3), (TOWER, 2)],
                         ids=["Z5", "ram2", "tower"])
@pytest.mark.parametrize("n,k", [(1, 3), (3, 3), (4, 6), (8, 5), (24, 24)])
def test_nullspace_matches_the_smith_like_elimination(ctx, m, n, k):
    """Over Z_5, e = 2 and an unramified-then-Eisenstein tower, up to the
    24 x 24 trace form of a group of order 24: the echelon-read solution
    module and the former Smith-like one contain each other, and every
    generator is pi^s times a unimodular vector."""
    rng = random.Random(n * 100 + k)
    for _ in range(1 if k == 24 else 6):
        rows = seeded_system(ctx, n, k, m, rng)
        new, old = nullspace_mod(rows, ctx, m), smith_nullspace(rows, ctx, m)
        for vec, s in new:
            assert 0 <= s < m and min(_val(x, m) for x in vec) == s
        old_span = generated_by(old, ctx, m, k)
        assert all(old_span.contains(g) for g, _ in new)
        new_span = generated_by(new, ctx, m, k)
        assert all(new_span.contains(g) for g, _ in old)
        assert sorted(s for _, s in new) == sorted(s for _, s in old)


# -- the one spin against the former hand-written loops ---------------------


def frontier_spin(F, vecs, mats):
    """The former ``ResidueField.spin``: echelon basis of the smallest
    subspace that holds ``vecs`` and is mapped into itself by each matrix
    of ``mats`` (acting on columns)."""
    basis = {}
    frontier = [v for v in vecs if F.insert(basis, v)]
    while frontier:
        nxt = []
        for v in frontier:
            for M in mats:
                w = [F.dot(row, v) for row in M]
                if F.insert(basis, w):
                    nxt.append(w)
        frontier = nxt
    return basis


def seeded_module(F, d, count, rng):
    """``count`` random d x d matrices over F and start vectors; half the
    time the matrices keep the span of the first k coordinates, 0 < k < d,
    and the start vectors lie in it."""
    k = rng.randrange(1, d) if d > 1 and rng.random() < 0.5 else d
    mats = [[[0 if i >= k > j else rng.randrange(F.q) for j in range(d)]
             for i in range(d)] for _ in range(count)]
    vecs = [[rng.randrange(F.q) if j < k else 0 for j in range(d)]
            for _ in range(rng.randrange(1, 3))]
    return mats, vecs


@pytest.mark.parametrize("ctx", [PadicContext(3, precision=4),
                                 PadicContext(2, f=2, precision=4),
                                 PadicContext(5, precision=4)],
                         ids=["F3", "F4", "F5"])
def test_spin_builds_the_echelon_of_the_frontier_loop(ctx):
    """Spinning ``F.insert`` under v -> M v gives exactly the echelon dict,
    rows and order of insertion alike, of the former frontier loop."""
    F = ctx.residue_field
    rng = random.Random(ctx.residue_field_size)
    for _ in range(40):
        d = rng.randrange(1, 7)
        mats, vecs = seeded_module(F, d, rng.randrange(1, 4), rng)
        basis = {}
        grown = list(spin(partial(F.insert, basis), vecs,
                          lambda v: ([F.dot(row, v) for row in M] for M in mats)))
        want = frontier_spin(F, vecs, mats)
        assert list(basis.items()) == list(want.items())
        assert len(grown) == len(basis)


def queue_spin(grows, start, successors):
    """The former first-in first-out loop of ``spanning_words``."""
    out, queue = [], deque(start)
    while queue:
        x = queue.popleft()
        if grows(x):
            out.append(x)
            queue.extend(successors(x))
    return out


def test_spin_yields_in_queue_order_and_stops_with_its_caller():
    """Items grow the span in the order a queue would try them; a round
    that grows nothing ends the spin, and a caller that stops iterating
    asks for no further successors."""
    def closure():
        seen, asked, tried = set(), [], []

        def grows(x):
            tried.append(x)
            if x % 97 in seen:
                return False
            seen.add(x % 97)
            return True

        def successors(x):
            asked.append(x)
            return (x * c + 1 for c in (2, 3, 5))

        return grows, successors, asked, tried

    grows, successors, _, _ = closure()
    want = queue_spin(grows, [1, 4, 1], successors)
    grows, successors, asked, _ = closure()
    assert list(spin(grows, [1, 4, 1], successors)) == want
    assert len(want) == 97 and asked == want
    grows, successors, asked, tried = closure()
    for i, _ in enumerate(spin(grows, [1, 4, 1], successors)):
        if i == 10:
            break
    # nothing past the item that was yielded last is tried or expanded
    assert tried[-1] == want[10]
    assert asked == want[:len(asked)] and len(asked) <= 10
