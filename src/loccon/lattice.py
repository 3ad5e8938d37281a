"""Integral representations: stable lattices, mod-pi^m reduction, module
isomorphism over chain rings, semisimplification mod pi, and the
trace-congruence isomorphism harness."""

from __future__ import annotations

import itertools
import operator
import random
from dataclasses import dataclass

from loccon.chainring import (
    ChainSpan,
    determinant,
    full_rank_mod_p,
    identity_matrix,
    mat_inverse,
    mat_mul,
    mat_reduce_mod,
    mat_trace,
    nullspace_mod,
    relations_hold,
    word_matrix,
)
from loccon.padic import DomainError, PadicNumber, PrecisionError


class IntegralRep:
    """d x d matrices over O_E with unit determinant, one per generator."""

    def __init__(self, group, dim, context, gen_images):
        self.group = group
        self.dim = dim
        self.context = context
        self.gen_images = dict(gen_images)
        self._words = {(): identity_matrix(context, dim)}
        for name, M in self.gen_images.items():
            if not determinant(M).is_unit():
                raise DomainError(f"generator {name!r} has non-unit determinant")
        if group.kind == "finite" and not relations_hold(
                group, self._words, self._letter):
            raise DomainError("matrices violate the group relations")

    def _letter(self, let):
        M = self.gen_images[self.group.generators[let[0]]]
        return M if let[1] == 1 else mat_inverse(M)

    def matrix_of_word(self, word):
        return [row[:] for row in word_matrix(self._words, word, self._letter)]

    def trace_of_word(self, word):
        return mat_trace(word_matrix(self._words, word, self._letter))


class ResidueRep:
    """Generator matrices over the chain ring O_E/pi^m.

    Word products are kept unreduced and reduced mod pi^m on output.  With
    ``lift`` (an IntegralRep reducing to this one) they are the lift's own
    memoized full-precision products, so a word is multiplied out once for
    the lift and all its reductions; no reduced matrix enters that memo.
    """

    def __init__(self, group, dim, context, modulus, gen_images, lift=None):
        self.group = group
        self.dim = dim
        self.context = context
        self.modulus = modulus
        self.gen_images = {name: mat_reduce_mod(M, modulus)
                           for name, M in gen_images.items()}
        for name, M in self.gen_images.items():
            if not determinant(M).is_unit():
                raise DomainError(f"generator {name!r} is singular mod pi")
        self._lift = lift
        self._words = (lift._words if lift is not None
                       else {(): identity_matrix(context, dim)})

    def _letter(self, let):
        if self._lift is not None:
            return self._lift._letter(let)
        M = self.gen_images[self.group.generators[let[0]]]
        return M if let[1] == 1 else mat_reduce_mod(mat_inverse(M), self.modulus)

    def matrix_of_word(self, word):
        return mat_reduce_mod(word_matrix(self._words, word, self._letter),
                              self.modulus)

    def trace_of_word(self, word):
        M = word_matrix(self._words, word, self._letter)
        return mat_trace(M).reduce_mod(self.modulus)


def reduce_rep_mod(rep, m):
    """Entrywise reduction of an IntegralRep (functorial in products); the
    reduction reads its word products from ``rep``'s memo."""
    if m > min(x.known_precision for M in rep.gen_images.values()
               for row in M for x in row):
        raise PrecisionError("not enough precision for this reduction")
    return ResidueRep(rep.group, rep.dim, rep.context, m, rep.gen_images,
                      lift=rep)


# -- isomorphism over chain rings -------------------------------------------


@dataclass
class IsoResult:
    status: str  # "isomorphic" | "not_isomorphic" | "inconclusive"
    intertwiner: list | None
    certificate: str


def intertwiner_space(a, b):
    """Generators of {X : X a(g) = b(g) X for all g} over O_E/pi^m."""
    if (a.group, a.dim, a.modulus) != (b.group, b.dim, b.modulus) \
            or a.context != b.context:
        raise DomainError("representations are not comparable")
    d, m, ctx = a.dim, a.modulus, a.context
    rows = []
    for name in a.group.generators:
        A = a.gen_images[name]
        B = b.gen_images[name]
        # (X A - B X)[i][j] = 0; unknowns X[r][s] flattened row-major
        for i in range(d):
            for j in range(d):
                row = [ctx.zero()] * (d * d)
                for s in range(d):
                    row[i * d + s] = row[i * d + s] + A[s][j]
                for r in range(d):
                    row[r * d + j] = row[r * d + j] - B[i][r]
                rows.append([x.reduce_mod(m) for x in row])
    return nullspace_mod(rows, ctx, m)


def iso_mod(a, b, search_cap=1 << 20, rand_budget=2000, seed=0):
    """Module isomorphism test over O_E/pi^m.

    An invertible intertwiner exists iff some residue-field combination of
    the solution-space generators is invertible mod pi, so the search over
    the mod-pi span is a complete decision procedure when it is enumerable.
    Candidates are tested on residues: a combination is invertible mod pi
    iff its F_p image has full rank (det over F_p of the image is the norm
    of det over F_q), so only the winner is built over O_E/pi^m.
    """
    gens = intertwiner_space(a, b)
    unit_gens = [g for g, s in gens if s == 0]
    d, ctx = a.dim, a.context
    if not unit_gens:
        return IsoResult("not_isomorphic", None,
                         "solution module is contained in pi * M_d")
    p, f, q = ctx.p, ctx.f, ctx.residue_field_size
    t = len(unit_gens)
    n = d * f
    # one F_p image per digit (k, j), k major: that of omega^j G_k, packed
    # into one int with entry i in bits [w i, w (i + 1)); a candidate is a
    # sum of t f multiples of these, and w leaves no carry between entries
    w = (t * f * (p - 1) ** 2).bit_length()
    packed = [sum(x << (w * i) for i, x in enumerate(img))
              for g in unit_gens
              for img in _residue_images(
                  [g[i * d:(i + 1) * d] for i in range(d)], ctx)]
    mask = (1 << w) - 1
    shifts = [[w * (r * n + s) for s in range(n)] for r in range(n)]

    def invertible(digits):
        v = sum(map(operator.mul, digits, packed))
        return full_rank_mod_p([[v >> s & mask for s in row] for row in shifts], p)

    if q ** t <= search_cap:
        # k major, j minor: ctx.enumerate_residues(1) for each generator
        for digits in itertools.product(range(p), repeat=t * f):
            if invertible(digits):
                X = _intertwiner(a, b, unit_gens, digits)
                return IsoResult("isomorphic", X, "explicit intertwiner")
        return IsoResult("not_isomorphic", None,
                         "no invertible element in the mod-pi solution span "
                         "(exhaustive)")
    rng = random.Random(seed)
    for _ in range(rand_budget):
        # each draw is the index of a residue in that same order
        draws = [rng.randrange(q) for _ in range(t)]
        digits = [c // p ** (f - 1 - j) % p for c in draws for j in range(f)]
        if invertible(digits):
            X = _intertwiner(a, b, unit_gens, digits)
            return IsoResult("isomorphic", X, "explicit intertwiner")
    return IsoResult("inconclusive", None,
                     f"randomized search exhausted ({rand_budget} trials) with a "
                     "nonzero solution space")


def _residue_images(X, ctx):
    """The F_p matrices of X, omega X, ..., omega^(f-1) X acting on F_q^d.

    Each is flat and (d f) x (d f): block (r, s) is the matrix of
    multiplication by omega^j X[r][s] on F_q in the basis 1, omega, ...,
    omega^(f-1), read off the residues of X[r][s] omega^k for k <= 2f - 2.
    """
    d, f = len(X), ctx.f
    n = d * f
    powers = [ctx.one()]
    for _ in range(2 * f - 2):
        powers.append(powers[-1] * ctx.omega())
    images = [[0] * (n * n) for _ in range(f)]
    for r in range(d):
        for s in range(d):
            res = [(X[r][s] * w).residue_poly() for w in powers]
            for j, img in enumerate(images):
                for col in range(f):
                    for row, x in enumerate(res[j + col]):
                        img[(r * f + row) * n + s * f + col] = x
    return images


def _intertwiner(a, b, unit_gens, digits):
    """sum_k c_k G_k mod pi^m, c_k lifted from its f residue digits,
    checked to intertwine a and b."""
    ctx, d, f = a.context, a.dim, a.context.f
    zeros = [0] * (ctx.degree - f)
    X = [[ctx.zero()] * d for _ in range(d)]
    for k, g in enumerate(unit_gens):
        c = list(digits[k * f:(k + 1) * f])
        if not any(c):
            continue
        cc = ctx.from_coords(c + zeros)
        for i in range(d):
            for j in range(d):
                X[i][j] = X[i][j] + cc * g[i * d + j]
    X = mat_reduce_mod(X, a.modulus)
    _assert_intertwines(a, b, X)
    return X


def _assert_intertwines(a, b, X):
    m = a.modulus
    for name in a.group.generators:
        L = mat_mul(X, a.gen_images[name])
        R = mat_mul(b.gen_images[name], X)
        for r1, r2 in zip(L, R):
            for x, y in zip(r1, r2):
                v = (x - y).pi_valuation()
                assert v is None or v >= m, "intertwiner verification failed"


# -- semisimplification mod pi ----------------------------------------------


def _res_zero(x):
    v = x.pi_valuation()
    return v is None or v >= 1


def _echelon_insert(basis, vec, d):
    """Insert into a residue-field row-echelon basis; True when dim grew.

    Each row is stored scaled to a unit pivot, so reducing by it needs no
    division."""
    vec = list(vec)
    for piv, row in basis.items():
        c = vec[piv]
        if not _res_zero(c):
            vec = [x - c * y for x, y in zip(vec, row)]
    for j in range(d):
        if not _res_zero(vec[j]):
            c = vec[j].inverse()
            basis[j] = [x * c for x in vec]
            return True
    return False


def _spin(vecs, mats, d):
    basis = {}
    frontier = []
    for v in vecs:
        if _echelon_insert(basis, v, d):
            frontier.append(v)
    while frontier:
        nxt = []
        for v in frontier:
            for M in mats:
                w = [sum((M[i][t] * v[t] for t in range(1, d)),
                         start=M[i][0] * v[0]) for i in range(d)]
                if _echelon_insert(basis, list(w), d):
                    nxt.append(w)
        frontier = nxt
    return basis


def _find_proper_submodule(mats, d, ctx, line_budget=300000, rand_budget=200,
                           seed=0):
    q = ctx.residue_field_size
    n_lines = (q ** d - 1) // (q - 1)
    if n_lines <= line_budget:
        # exhaustive over projective representatives: complete decision
        for vec in _projective_vectors(ctx, d):
            basis = _spin([vec], mats, d)
            if 0 < len(basis) < d:
                return basis, True
        return None, True
    rng = random.Random(seed)
    scalars = list(ctx.enumerate_residues(1))
    for _ in range(rand_budget):
        vec = [scalars[rng.randrange(q)] for _ in range(d)]
        if all(_res_zero(x) for x in vec):
            continue
        basis = _spin([vec], mats, d)
        if 0 < len(basis) < d:
            return basis, True
    return None, False


def _projective_vectors(ctx, d):
    scalars = list(ctx.enumerate_residues(1))
    one = ctx.one()
    for lead in range(d):
        for tail in itertools.product(scalars, repeat=d - lead - 1):
            yield [ctx.zero()] * lead + [one] + list(tail)


def semisimplify_mod_p(r, word_cap=4, seed=0):
    """Composition factors of a residue representation (modulus 1).

    Returns {"factors": [{dim, traces}], "complete": bool}; traces are the
    residue coordinates of the factor's trace on a fixed word list, which
    distinguishes non-isomorphic factors.
    """
    if r.modulus != 1:
        raise DomainError("semisimplification is defined at modulus 1")
    ctx = r.context
    if r.group.kind == "finite":
        words = list(r.group.element_words().values())
    else:
        words = r.group.words_up_to(word_cap)
    gen_mats = {(gi, s): word_matrix(r._words, ((gi, s),), r._letter)
                for gi in range(len(r.group.generators)) for s in (1, -1)}

    factors = []
    complete = True
    # (letter matrices, dim, word memo): an unsplit r reads r's own memo, so
    # its traces are the word products r (and its lift) already share
    todo = [(gen_mats, r.dim, r._words)]
    while todo:
        mats, d, memo = todo.pop()
        sub, certain = _find_proper_submodule(mats.values(), d, ctx, seed=seed)
        if sub is None:
            complete = complete and certain
            traces = tuple(
                tuple(mat_trace(word_matrix(memo, w, mats.__getitem__))
                      .reduce_mod(1).coords)
                for w in words)
            factors.append({"dim": d, "traces": traces})
            continue
        sub_rows = [sub[j] for j in sorted(sub)]
        k = len(sub_rows)
        P = _extend_basis(sub_rows, d, ctx)
        Pinv = mat_inverse(P)
        sub_mats, quo_mats = {}, {}
        for let, M in mats.items():
            C = mat_mul(mat_mul(Pinv, M), P)
            sub_mats[let] = [[C[i][j] for j in range(k)] for i in range(k)]
            quo_mats[let] = [[C[i][j] for j in range(k, d)] for i in range(k, d)]
        todo.append((sub_mats, k, {(): identity_matrix(ctx, k)}))
        todo.append((quo_mats, d - k, {(): identity_matrix(ctx, d - k)}))
    factors.sort(key=lambda f: (f["dim"], f["traces"]))
    return {"factors": factors, "complete": complete}


def _extend_basis(rows, d, ctx):
    """Invertible matrix whose first columns are the given row vectors."""
    basis = {}
    cols = []
    for v in rows:
        if _echelon_insert(basis, list(v), d):
            cols.append(list(v))
    for j in range(d):
        e = [ctx.one() if i == j else ctx.zero() for i in range(d)]
        if _echelon_insert(basis, list(e), d):
            cols.append(e)
    # columns of P are the chosen vectors
    return [[cols[j][i] for j in range(d)] for i in range(d)]


# -- stable lattices --------------------------------------------------------


def stable_lattice(group, dim, context, gen_images, rounds_budget=40,
                   denom_budget=60):
    """Basis change making all generator images integral.

    ``gen_images`` maps generators to matrices of PadicNumber (possibly
    non-integral).  Returns (IntegralRep, certificate C) with C^{-1} rho C
    integral, or raises DomainError("unbounded ...") when the orbit lattice
    fails to stabilize within the budget.
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
        new_basis, denom = _lattice_basis(candidates, ctx, d)
        if denom > denom_budget:
            raise DomainError("unbounded: orbit lattice keeps growing "
                              "(no stable lattice at working precision)")
        if _same_lattice(basis, new_basis, ctx, d):
            basis = new_basis
            break
        basis = new_basis
    else:
        raise DomainError("unbounded: orbit did not stabilize within budget")

    C = [list(col) for col in zip(*basis)]
    Cinv = mat_inverse(C)
    images = {}
    for name, M in mats.items():
        conj = mat_mul(mat_mul(Cinv, M), C)
        images[name] = [[x.to_integral() for x in row] for row in conj]
    return IntegralRep(group, d, ctx, images), C


def _lattice_basis(vectors, ctx, d):
    denom = 0
    for v in vectors:
        for x in v:
            x = x.normalized()
            vv = x.pi_valuation()
            if vv is not None and vv < 0:
                denom = max(denom, -vv)
    scale = ctx.pi_power(denom)
    scaled = [[(x * scale).to_integral() for x in v] for v in vectors]
    M = min([ctx.precision - denom - 1]
            + [x.known_precision for v in scaled for x in v])
    if M < 2:
        raise PrecisionError("not enough precision for lattice computation")
    span = ChainSpan(ctx, M, d)
    for vec in scaled:
        span.add(vec)
    rows = [span.rows[j] for j in sorted(span.rows)]
    if len(rows) != d:
        raise DomainError("orbit does not span; representation is degenerate")
    basis = []
    for a, row in rows:
        basis.append([PadicNumber(x, denom) for x in row])
    return basis, denom


def _same_lattice(b1, b2, ctx, d):
    return _sublattice(b1, b2, ctx, d) and _sublattice(b2, b1, ctx, d)


def _sublattice(b1, b2, ctx, d):
    denom = 0
    for v in b1 + b2:
        for x in v:
            vv = x.normalized().pi_valuation()
            if vv is not None and vv < 0:
                denom = max(denom, -vv)
    scale = ctx.pi_power(denom)
    s2 = [[(x * scale).to_integral() for x in v] for v in b2]
    s1 = [[(x * scale).to_integral() for x in v] for v in b1]
    M = min([ctx.precision - denom - 1]
            + [x.known_precision for v in s1 + s2 for x in v])
    if M < 2:
        raise PrecisionError("not enough precision for lattice comparison")
    span = ChainSpan(ctx, M, d)
    for v in s2:
        span.add(v)
    for v in s1:
        if not span.contains(v):
            return False
    return True


# -- trace-congruence harness ----------------------------------------------


def residually_absolutely_irreducible(rep, word_cap=4, seed=0):
    """Single full-dimension mod-pi factor with scalar endomorphisms."""
    rbar = reduce_rep_mod(rep, 1)
    ss = semisimplify_mod_p(rbar, word_cap=word_cap, seed=seed)
    if len(ss["factors"]) != 1 or ss["factors"][0]["dim"] != rep.dim:
        return False
    endo = intertwiner_space(rbar, rbar)
    dim_endo = sum(1 for _, s in endo if s == 0)
    return dim_endo == 1


def carayol_audit(a, b, n, word_cap=4, seed=0):
    """Trace congruence mod pi^n for residually absolutely irreducible pairs
    forces a mod-pi^n isomorphism; failures under valid preconditions are
    flagged as theorem violations."""
    report = {"n": n, "word_cap": word_cap}
    if a.group.kind == "finite":
        words = list(a.group.element_words().values())
    else:
        words = a.group.words_up_to(word_cap)
    irr_a = residually_absolutely_irreducible(a, word_cap=word_cap, seed=seed)
    irr_b = residually_absolutely_irreducible(b, word_cap=word_cap, seed=seed)
    if not (irr_a and irr_b):
        report["verdict"] = "precondition_failed"
        report["reason"] = "residual absolute irreducibility fails"
        return report
    for w in words:
        diff = a.trace_of_word(w) - b.trace_of_word(w)
        v = diff.pi_valuation()
        if v is not None and v < n:
            report["verdict"] = "precondition_failed"
            report["reason"] = f"traces differ mod pi^{n} on a word of length {len(w)}"
            return report
    res = iso_mod(reduce_rep_mod(a, n), reduce_rep_mod(b, n), seed=seed)
    if res.status == "isomorphic":
        report["verdict"] = "pass"
        report["intertwiner"] = [[list(x.coords) for x in row]
                                 for row in res.intertwiner]
    elif res.status == "inconclusive":
        report["verdict"] = "inconclusive"
        report["reason"] = res.certificate
    else:
        report["verdict"] = "THEOREM_VIOLATION"
        report["reason"] = res.certificate
    return report
