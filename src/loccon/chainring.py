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
valuation >= m.
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
    """
    if not rows:
        return []
    n, k = len(rows), len(rows[0])
    M = [[x for x in row] for row in rows]
    # column operations are tracked so solutions can be reconstructed:
    # M V = U D with V the accumulated column transform; x = V z, D z = 0.
    V = identity_matrix(ctx, k)
    diag = []
    r = 0
    while r < min(n, k):
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
        for row in M:
            row[r], row[pi_j] = row[pi_j], row[r]
        for row in V:
            row[r], row[pi_j] = row[pi_j], row[r]
        # pivot = pi^a * unit; normalize the column ops via the unit
        pivot = M[r][r]
        unit_inv = pivot.shift_down(a).inverse()
        # clear the pivot column (row ops, untracked) and row (col ops, tracked)
        for i in range(n):
            if i == r:
                continue
            if _val(M[i][r], m) < m:
                # the pivot has minimal valuation, so the quotient is exact
                q = (M[i][r] * unit_inv).shift_down(a)
                M[i] = [x - q * y for x, y in zip(M[i], M[r])]
        for j in range(k):
            if j == r:
                continue
            if _val(M[r][j], m) < m:
                # q is known mod pi^(m-a) only, but any lift of it is an
                # exact column operation over O/pi^m: take its coordinates
                # as exact, so V (and the generators) stay known mod pi^m
                q = ctx.from_coords((M[r][j] * unit_inv).shift_down(a).coords)
                for i in range(n):
                    M[i][j] = M[i][j] - q * M[i][r]
                for i in range(k):
                    V[i][j] = V[i][j] - q * V[i][r]
        diag.append(a)
        r += 1
    gens = []
    pw = ctx.pi_power
    for j in range(k):
        if j < len(diag):
            a = diag[j]
            if a == 0:
                continue  # z_j must be 0
            scale = pw(m - a)
            gen = [(V[i][j] * scale).reduce_mod(m) for i in range(k)]
            gens.append((gen, m - a))
        else:
            gen = [V[i][j].reduce_mod(m) for i in range(k)]
            gens.append((gen, 0))
    return gens


# -- span closure -----------------------------------------------------------


class ChainSpan:
    """Incremental span of vectors in (O_E/pi^m)^k, echelon with pi-power
    pivots; supports stabilization detection and fullness tests."""

    def __init__(self, ctx, m, k):
        self.ctx = ctx
        self.m = m
        self.k = k
        self.rows = {}  # pivot column -> (exponent, vector)

    def reduce(self, vec):
        vec = list(vec)
        changed = True
        while changed:
            changed = False
            for j in sorted(self.rows):
                a, row = self.rows[j]
                v = _val(vec[j], self.m)
                if v >= self.m:
                    continue
                if v >= a:
                    q = (vec[j] * row[j].shift_down(a).inverse()).shift_down(a)
                    vec = [x - q * y for x, y in zip(vec, row)]
                    changed = True
        return [x.reduce_mod(self.m) for x in vec]

    def add(self, vec):
        """Insert a vector; returns True when the span grew.

        Every other row is then reduced against the new one and placed
        again, for stability.
        """
        j = self._place(vec)
        if j is None:
            return False
        for jj in list(self.rows):
            if jj != j:
                self._place(self.rows.pop(jj)[1])
        return True

    def _place(self, vec):
        """Store the reduced vector at the column of its minimal-valuation
        entry and return that column (None when it reduces to zero).  A row
        already there has a larger valuation in that column; it is
        displaced and placed again, so no generator is lost."""
        vec = self.reduce(vec)
        best = None
        for j in range(self.k):
            v = _val(vec[j], self.m)
            if v < self.m and (best is None or v < best[0]):
                best = (v, j)
        if best is None:
            return None
        a, j = best
        displaced = self.rows.get(j)
        self.rows[j] = (a, vec)
        if displaced is not None:
            self._place(displaced[1])
        return j

    def is_full(self):
        return (len(self.rows) == self.k
                and all(a == 0 for a, _ in self.rows.values()))

    def contains(self, vec):
        red = self.reduce(vec)
        return all(_val(x, self.m) >= self.m for x in red)
