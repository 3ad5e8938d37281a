"""Integral representations: stable lattices, mod-pi^m reduction, module
isomorphism over chain rings, semisimplification mod pi, and the
trace-congruence isomorphism harness."""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import reduce

from loccon.chainring import (
    ChainSpan,
    identity_matrix,
    mat_inverse,
    mat_mul,
    mat_reduce_mod,
    mat_trace,
    nullspace_mod,
)
from loccon.padic import DomainError, InconclusiveError, PadicNumber, PrecisionError


def _residues(F, M):
    """The matrix M over O_E as a matrix over the residue field F."""
    return [[F.of(x) for x in row] for row in M]


class IntegralRep:
    """d x d matrices over O_E with unit determinant, exactly one per
    generator, satisfying the group's relations.

    The one representation class: ``ResidueRep`` (over O_E/pi^m) and
    ``families.RepFamily`` (over O_X(X)) change only how an entry is
    brought into their ring (``_coerce``, applied to generator entries and
    to every output) and, for families, the unit test.  Word products are
    memoized by prefix in ``_words``.
    """

    _lift = None  # a representation whose memo and letters this one shares

    def __init__(self, group, dim, context, gen_images):
        self.group = group
        self.dim = dim
        self.context = context
        for name in gen_images:
            if name not in group.generators:
                raise DomainError(f"matrix for {name!r}, which is not a generator")
        self.gen_images = {}
        for name in group.generators:
            if name not in gen_images:
                raise DomainError(f"missing matrix for generator {name!r}")
            M = gen_images[name]
            if len(M) != dim or any(len(row) != dim for row in M):
                raise DomainError(f"matrix for generator {name!r} is not "
                                  f"{dim} x {dim}")
            M = self._coerced(M)
            if not self._is_unit(M):
                raise DomainError(f"generator {name!r} has non-unit determinant")
            self.gen_images[name] = M
        if self._lift is not None:  # the lift has passed the relations check
            self._words = self._lift._words
            return
        self._words = {(): self._coerced(identity_matrix(context, dim))}
        if not self._relations_hold():
            raise DomainError("matrices violate the group relations")

    def _coerce(self, x):
        return x

    def _coerced(self, M):
        return [[self._coerce(x) for x in row] for row in M]

    def _is_unit(self, M):
        F = self.context.residue_field
        return F.rank(_residues(F, M)) == self.dim

    def _letter(self, let):
        if self._lift is not None:
            return self._lift._letter(let)
        M = self.gen_images[self.group.generators[let[0]]]
        return M if let[1] == 1 else mat_inverse(M)

    def _product(self, word):
        """The product of the letter matrices of ``word``, left to right.

        Products are memoized by prefix in ``_words``, letters (inverse
        letters included) as one-letter words, so a word whose prefix is
        already known costs one ``mat_mul``.
        """
        word = tuple(word)
        M = self._words.get(word)
        if M is None:
            M = (self._letter(word[0]) if len(word) == 1 else
                 mat_mul(self._product(word[:-1]), self._product(word[-1:])))
            self._words[word] = M
        return M

    def _relations_hold(self):
        """M(w_x) M(g) == M(w_xg) for every element x and generator g of a
        finite group; a free group has no relations."""
        group = self.group
        if group.kind == "free":
            return True
        words = group.element_words()
        return all(mat_mul(self._product(w), self._product(((gi, 1),)))
                   == self._product(words[group.multiply(x, g)])
                   for x, w in words.items()
                   for gi, g in enumerate(group.gen_elements))

    def matrix_of_word(self, word):
        return self._coerced(self._product(word))

    def trace_of_word(self, word):
        return self._coerce(mat_trace(self._product(word)))


class ResidueRep(IntegralRep):
    """Generator matrices over the chain ring O_E/pi^m.

    Word products are kept unreduced and reduced mod pi^m on output.  With
    ``lift`` (an IntegralRep reducing to this one) they are the lift's own
    memoized full-precision products, so a word is multiplied out once for
    the lift and all its reductions; no reduced matrix enters that memo.
    """

    def __init__(self, group, dim, context, modulus, gen_images, lift=None):
        self.modulus = modulus
        self._lift = lift
        super().__init__(group, dim, context, gen_images)

    def _coerce(self, x):
        return x.reduce_mod(self.modulus)

    # the same functions, named on this class too so that per-class traced
    # names (perfbench/run.py) resolve
    matrix_of_word = IntegralRep.matrix_of_word
    trace_of_word = IntegralRep.trace_of_word


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
    Candidates sum_k c_k G_k are tested over F_q, so only the winner is
    built over O_E/pi^m.
    """
    gens = intertwiner_space(a, b)
    unit_gens = [g for g, s in gens if s == 0]
    d, F = a.dim, a.context.residue_field
    if not unit_gens:
        return IsoResult("not_isomorphic", None,
                         "solution module is contained in pi * M_d")
    q, t = F.q, len(unit_gens)
    residues = _residues(F, unit_gens)

    def invertible(combo):
        X = [0] * (d * d)
        for c, g in zip(combo, residues):
            if c:
                X = F.axpy(c, X, g)
        return F.rank(X[i * d:(i + 1) * d] for i in range(d)) == d

    exhaustive = q ** t <= search_cap
    if exhaustive:
        combos = itertools.product(range(q), repeat=t)
    else:
        rng = random.Random(seed)
        combos = ([rng.randrange(q) for _ in range(t)] for _ in range(rand_budget))
    for combo in combos:
        if invertible(combo):
            X = _intertwiner(a, b, unit_gens, combo)
            return IsoResult("isomorphic", X, "explicit intertwiner")
    if exhaustive:
        return IsoResult("not_isomorphic", None,
                         "no invertible element in the mod-pi solution span "
                         "(exhaustive)")
    return IsoResult("inconclusive", None,
                     f"randomized search exhausted ({rand_budget} trials) with a "
                     "nonzero solution space")


def _intertwiner(a, b, unit_gens, combo):
    """sum_k c_k G_k mod pi^m, c_k lifted from F_q, checked to intertwine
    a and b."""
    ctx, d = a.context, a.dim
    X = [[ctx.zero()] * d for _ in range(d)]
    for c, g in zip(combo, unit_gens):
        if not c:
            continue
        cc = ctx.residue_field.lift(c)
        for i in range(d):
            for j in range(d):
                X[i][j] = X[i][j] + cc * g[i * d + j]
    X = mat_reduce_mod(X, a.modulus)
    _check_intertwines(a, b, X)
    return X


def _check_intertwines(a, b, X):
    """Raise unless X a(g) = b(g) X mod pi^m for every generator g."""
    m = a.modulus
    for name in a.group.generators:
        L = mat_mul(X, a.gen_images[name])
        R = mat_mul(b.gen_images[name], X)
        for r1, r2 in zip(L, R):
            for x, y in zip(r1, r2):
                v = (x - y).pi_valuation()
                if v is not None and v < m:
                    raise RuntimeError("intertwiner verification failed")


# -- semisimplification mod pi ----------------------------------------------


def _find_proper_submodule(mats, d, F, line_budget=300000, rand_budget=200,
                           seed=0):
    q = F.q
    exhaustive = (q ** d - 1) // (q - 1) <= line_budget
    if exhaustive:  # projective representatives: a complete decision
        vecs = ([0] * lead + [F.one, *tail] for lead in range(d)
                for tail in itertools.product(range(q), repeat=d - lead - 1))
    else:
        rng = random.Random(seed)
        vecs = ([rng.randrange(q) for _ in range(d)] for _ in range(rand_budget))
    for vec in vecs:
        if any(vec):
            basis = F.spin([vec], mats)
            if 0 < len(basis) < d:
                return basis, True
    return None, exhaustive


def semisimplify_mod_p(r, word_cap=4, seed=0):
    """Composition factors of a residue representation (modulus 1).

    Returns {"factors": [{dim, traces}], "complete": bool}; traces are the
    residue coordinates of the factor's trace on a fixed word list, which
    distinguishes non-isomorphic factors.  Computed over F_q from the
    residues of the generators.
    """
    if r.modulus != 1:
        raise DomainError("semisimplification is defined at modulus 1")
    F = r.context.residue_field
    words = r.group.element_words(word_cap).values()
    letters = {}
    for gi, name in enumerate(r.group.generators):
        G = _residues(F, r.gen_images[name])
        letters[(gi, 1)], letters[(gi, -1)] = G, F.inverse(G)

    factors = []
    complete = True
    todo = [(letters, r.dim)]
    while todo:
        mats, d = todo.pop()
        sub, certain = _find_proper_submodule(mats.values(), d, F, seed=seed)
        if sub is None:
            complete = complete and certain
            factors.append({"dim": d, "traces": _word_traces(F, mats, d, words)})
            continue
        k = len(sub)
        P = _extend_basis([sub[j] for j in sorted(sub)], d, F)
        Pinv = F.inverse(P)
        sub_mats, quo_mats = {}, {}
        for let, M in mats.items():
            C = F.mat_mul(F.mat_mul(Pinv, M), P)
            sub_mats[let] = [row[:k] for row in C[:k]]
            quo_mats[let] = [row[k:] for row in C[k:]]
        todo.append((sub_mats, k))
        todo.append((quo_mats, d - k))
    factors.sort(key=lambda f: (f["dim"], f["traces"]))
    return {"factors": factors, "complete": complete}


def _word_traces(F, letters, d, words):
    """The residue coordinates of the trace of each word's product of the
    F_q letter matrices."""
    traces = []
    for w in words:
        M = reduce(F.mat_mul, [letters[let] for let in w], F.identity(d))
        t = reduce(F.add, [M[i][i] for i in range(d)])
        traces.append(tuple(F.lift(t).coords))
    return tuple(traces)


def _extend_basis(rows, d, F):
    """Invertible matrix whose first columns are the given row vectors."""
    basis = {}
    cols = []
    for v in rows + F.identity(d):
        if F.insert(basis, v):
            cols.append(v)
    return [list(row) for row in zip(*cols)]


# -- stable lattices --------------------------------------------------------


def stable_lattice(group, dim, context, gen_images, rounds_budget=40,
                   denom_budget=60):
    """Basis change making all generator images integral.

    ``gen_images`` maps generators to matrices of PadicNumber (possibly
    non-integral).  Returns (IntegralRep, certificate C) with C^{-1} rho C
    integral, or raises InconclusiveError("unbounded ...") when the orbit
    lattice fails to stabilize within the budget.
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
            raise InconclusiveError("unbounded: orbit lattice keeps growing "
                                    "(no stable lattice at working precision)")
        if _same_lattice(basis, new_basis, ctx, d):
            basis = new_basis
            break
        basis = new_basis
    else:
        raise InconclusiveError("unbounded: orbit did not stabilize within budget")

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


def residually_absolutely_irreducible(rep):
    """Burnside's criterion: the generators' residues span M_d(F_q) as an
    algebra.  Spins I under right multiplication by each generator, as a
    d^2 x d^2 matrix on row-major flattened matrices; inverse letters add
    nothing, as each G^-1 is a polynomial in G."""
    F, d = rep.context.residue_field, rep.dim
    maps = []
    for M in rep.gen_images.values():
        G = _residues(F, M)
        # (X G)[r][s] = sum_t X[r][t] G[t][s]
        maps.append([[G[c % d][s] if c // d == r else 0
                      for c in range(d * d)]
                     for r in range(d) for s in range(d)])
    return len(F.spin([[x for row in F.identity(d) for x in row]], maps)) == d * d


def carayol_audit(a, b, n, word_cap=4, seed=0):
    """Trace congruence mod pi^n for residually absolutely irreducible pairs
    forces a mod-pi^n isomorphism; failures under valid preconditions are
    flagged as theorem violations."""
    report = {"n": n, "word_cap": word_cap}
    words = a.group.element_words(word_cap).values()
    irr_a = residually_absolutely_irreducible(a)
    irr_b = residually_absolutely_irreducible(b)
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
