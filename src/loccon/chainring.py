"""Matrices over the coefficient rings, and linear algebra over the chain
rings O_E/pi^m.

The matrix layer (``mat_mul``, ``determinant``, ``mat_inverse``) works
over any commutative ring whose elements support ``+ - *`` and
``inverse()``, raising DomainError for a non-unit: PadicElement (O_E),
PadicNumber (E) and AdicSeries (O_X(X)).  Determinant and inverse both
come from one division-free characteristic polynomial (Berkowitz), so they
need no pivot search; with a bounded variable the series algebra is not
local, and an invertible matrix need not have a unit entry.

The solution-module and span code below works over O_E/pi^m: these rings
are local principal ideal rings, so rank and solution-space computations
pivot on minimal-valuation entries instead of nonzero ones.  Vectors there
are lists of PadicElement (reduced mod pi^m on output); "zero" means
valuation >= m.  ``spin`` is the one breadth-first span closure, over F_q
and O_E/pi^m alike.
"""

from __future__ import annotations


def _val(x, m):
    v = x.pi_valuation()
    return m if v is None or v >= m else v


# -- matrices ---------------------------------------------------------------


def mat_mul(A, B):
    n, k, c = len(A), len(B), len(B[0])
    return [[sum((A[i][t] * B[t][j] for t in range(1, k)),
                 start=A[i][0] * B[0][j]) for j in range(c)] for i in range(n)]


def identity_matrix(ctx, d):
    return [[ctx.one() if i == j else ctx.zero() for j in range(d)] for i in range(d)]


def mat_reduce_mod(A, m):
    return [[a.reduce_mod(m) for a in row] for row in A]


def mat_trace(A):
    return sum((A[i][i] for i in range(1, len(A))), start=A[0][0])


def _dot(u, v):
    return sum((a * b for a, b in zip(u[1:], v[1:])), start=u[0] * v[0])


def _charpoly(A):
    """[c_1, ..., c_d] with det(x I - A) = x^d + c_1 x^{d-1} + ... + c_d.

    Berkowitz's algorithm (Inf. Process. Lett. 18, 1984): the polynomial of
    each trailing block A[k:, k:] is a Toeplitz matrix times that of
    A[k+1:, k+1:], whose entries are -A[k][k] and -R S^j C for the row R,
    column C and block S around A[k][k].  Only + - * are used.
    """
    d = len(A)
    c = [-A[-1][-1]]
    for k in range(d - 2, -1, -1):
        s = d - k - 1
        R = A[k][k + 1:]
        S = [row[k + 1:] for row in A[k + 1:]]
        col = [row[k] for row in A[k + 1:]]
        t = [-A[k][k]]
        for j in range(s):
            t.append(-_dot(R, col))
            if j < s - 1:
                col = [_dot(row, col) for row in S]
        # c_i = t_{i-1} + sum_j t_{i-j-1} c'_j (+ c'_i), c' the block's polynomial
        c = [sum((t[i - j - 1] * c[j - 1] for j in range(1, min(i - 1, s) + 1)),
                 start=t[i - 1] + c[i - 1] if i <= s else t[i - 1])
             for i in range(1, s + 2)]
    return c


def determinant(A):
    c = _charpoly(A)[-1]
    return c if len(A) % 2 == 0 else -c


def mat_inverse(A):
    """Adjugate times det(A)^-1; DomainError when det(A) is not a unit.

    By Cayley-Hamilton, A B = -c_d I for B = A^{d-1} + c_1 A^{d-2} + ... +
    c_{d-1} I (Horner), so adj(A) = (-1)^{d-1} B.
    """
    d = len(A)
    c = _charpoly(A)
    det = c[-1] if d % 2 == 0 else -c[-1]
    dinv = det.inverse()
    if d == 1:
        return [[dinv]]
    B = [row[:] for row in A]
    for k in range(d - 1):
        if k:
            B = mat_mul(A, B)
        for i in range(d):
            B[i][i] = B[i][i] + c[k]
    scale = dinv if d % 2 else -dinv
    return [[x * scale for x in row] for row in B]


def mat_is_zero_mod(A, m):
    return all(_val(a, m) >= m for row in A for a in row)


# -- solution modules -------------------------------------------------------


def nullspace_mod(rows, ctx, m):
    """Generators of {x : M x = 0} over O_E/pi^m for the matrix with the
    given rows.

    Returns a list of (generator vector, s) where the generator is pi^s
    times a unimodular column, so it has additive order pi^{m-s}; the
    solution module is the set of R-combinations of the generators.

    The rows of [M^T | I] are echelonized with pivots in the M^T part.  As
    the stored rows are independent (see ChainSpan), the solutions are
    generated by the I part of each row whose M^T part reduces to zero and
    pi^(m-a) times the I part of each stored row of pivot valuation a.
    """
    if not rows:
        return []
    n, k = len(rows), len(rows[0])
    span = ChainSpan(ctx, m, n + k)
    span._pivots = n
    free = []
    for j, unit in enumerate(identity_matrix(ctx, k)):
        span._insert([row[j] for row in rows] + unit, free)
    out = ChainSpan(ctx, m, k)
    for vec in free:
        out.add(vec[n:])
    for a, vec in span.rows.values():
        if a:
            out.add([x * ctx.pi_power(m - a) for x in vec[n:]])
    return [(vec, a) for a, vec in (out.rows[j] for j in sorted(out.rows))]


# -- span closure -----------------------------------------------------------


class ChainSpan:
    """Incremental span of vectors in (O_E/pi^m)^k, echelon with pi-power
    pivots; supports stabilization detection and fullness tests.

    A row is stored at its pivot, the first column of least valuation a, so
    it has valuation > a before the pivot.  Hence the rows are independent:
    in a relation sum c_i row_i = 0, the term of least valuation with the
    first pivot is alone at that valuation in its pivot column, so it is 0.
    Likewise a fully reduced vector of the span is 0.  A reduction at
    valuation v adds valuation v only to later columns, so ``reduce`` ends
    after at most m + 1 passes.
    """

    def __init__(self, ctx, m, k):
        self.ctx = ctx
        self.m = m
        self.k = k
        self._pivots = k  # pivots lie in the first _pivots columns
        self.rows = {}  # pivot column -> (exponent, vector)
        self._units = {}  # pivot column -> inverse of its row's pivot / pi^a

    def reduce(self, vec):
        vec = list(vec)
        changed = True
        while changed:
            changed = False
            for j in sorted(self.rows):
                a, row = self.rows[j]
                if a <= _val(vec[j], self.m) < self.m:
                    # the quotient is known mod pi^(m-a); taking a lift as
                    # exact keeps the columns past the pivots known mod pi^m
                    u = self._units.get(j)
                    if u is None:  # first use of this row
                        u = self._units[j] = row[j].shift_down(a).inverse()
                    q = (vec[j] * u).shift_down(a)
                    q = self.ctx.from_coords(q.coords)
                    vec = [x - q * y for x, y in zip(vec, row)]
                    changed = True
        return [x.reduce_mod(self.m) for x in vec]

    def add(self, vec):
        """Insert a vector; returns True when the span grew."""
        return self._insert(vec, [])

    def _insert(self, vec, leftovers):
        """Store the reduced vector at its pivot, or append it to leftovers
        when it has none.  A row already there has a larger valuation in
        that column; it is displaced and inserted again."""
        vec = self.reduce(vec)
        vals = [_val(x, self.m) for x in vec[:self._pivots]]
        a = min(vals)
        if a >= self.m:
            leftovers.append(vec)
            return False
        j = vals.index(a)
        displaced = self.rows.get(j)
        self.rows[j] = (a, vec)
        self._units.pop(j, None)
        if displaced is not None:
            self._insert(displaced[1], leftovers)
        return True

    def is_full(self):
        return (len(self.rows) == self.k
                and all(a == 0 for a, _ in self.rows.values()))


def spin(grows, start, successors):
    """Breadth-first span closure: yield the items of ``start`` that grow
    the span, then, round by round, the ``successors`` of the last round's
    yielded items that grow it, until a round grows nothing.  ``grows(x)``
    adds x to the caller's span and says whether it grew; a caller that
    stops iterating (at a full span, say) takes no further round.
    ``successors`` may be lazy, so a round holds only its yielded items.
    """
    items = start
    while True:
        grown = []
        for x in items:
            if grows(x):
                grown.append(x)
                yield x
        if not grown:
            return
        items = (y for x in grown for y in successors(x))
