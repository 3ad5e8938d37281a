"""Integral representations: stable lattices, mod-pi^m reduction, module
isomorphism over chain rings, semisimplification mod pi, and the
trace-congruence isomorphism harness."""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import partial, reduce

from loccon.chainring import (
    ChainSpan,
    identity_matrix,
    mat_inverse,
    mat_is_zero_mod,
    mat_mul,
    mat_reduce_mod,
    mat_trace,
    nullspace_mod,
    spin,
)
from loccon.padic import (DomainError, InconclusiveError, PadicNumber,
                          PrecisionError, require_at_least_one)


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
        """M(w) M(g) == M(v) for every relation (w, g, v) of the group."""
        return all(mat_mul(self._product(w), self._product(((gi, 1),)))
                   == self._product(v) for w, gi, v in self.group.relations())

    def matrix_of_word(self, word):
        return self._coerced(self._product(word))

    def trace_of_word(self, word):
        return self._coerce(mat_trace(self._product(word)))


class ResidueRep(IntegralRep):
    """Generator matrices over the chain ring O_E/pi^m, each entry known to
    exactly m digits; word products are reduced mod pi^m on output."""

    def __init__(self, group, dim, context, modulus, gen_images):
        self.modulus = modulus
        super().__init__(group, dim, context, gen_images)

    def _coerce(self, x):
        return x.reduce_mod(self.modulus)

    # the same functions, named on this class too so that per-class traced
    # names (perfbench/run.py) resolve
    matrix_of_word = IntegralRep.matrix_of_word
    trace_of_word = IntegralRep.trace_of_word


def reduce_rep_mod(rep, m):
    """Entrywise reduction of an IntegralRep (functorial in products); an
    entry known to fewer than m digits raises ``PrecisionError``."""
    require_at_least_one("depth m", m)
    return ResidueRep(rep.group, rep.dim, rep.context, m, rep.gen_images)


# -- isomorphism over chain rings -------------------------------------------


@dataclass
class IsoResult:
    status: str  # "isomorphic" | "not_isomorphic" | "inconclusive"
    intertwiner: list | None
    certificate: str


def _check_comparable(a, b):
    """Raise unless a and b share group, dimension, modulus and context."""
    if (a.group, a.dim, a.modulus) != (b.group, b.dim, b.modulus) \
            or a.context != b.context:
        raise DomainError("representations are not comparable")


def intertwiner_space(a, b):
    """Generators of {X : X a(g) = b(g) X for all g} over O_E/pi^m."""
    _check_comparable(a, b)
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


def iso_mod(a, b, seed=0):
    """Module isomorphism test over O_E/pi^m.

    The identity is tried first: it intertwines exactly when a(g) = b(g)
    mod pi^m for every generator g, which ``==`` decides on entries known
    to m digits.  That is the common case of a family audit's samples, and
    then no solution module is solved.  Otherwise an invertible
    intertwiner exists iff some residue-field combination of the
    solution-space generators is invertible mod pi, so the search over the
    mod-pi span is a complete decision procedure when it is enumerable.
    Candidates sum_k c_k G_k are tested over F_q, so only the winner is
    built over O_E/pi^m.
    """
    _check_comparable(a, b)
    d = a.dim
    if all(a.gen_images[g] == b.gen_images[g] for g in a.group.generators):
        X = mat_reduce_mod(identity_matrix(a.context, d), a.modulus)
        return IsoResult("isomorphic", X, "explicit intertwiner")
    gens = intertwiner_space(a, b)
    unit_gens = [g for g, s in gens if s == 0]
    F = a.context.residue_field
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

    exhaustive = q ** t <= _ISO_SEARCH_CAP
    if exhaustive:
        combos = itertools.product(range(q), repeat=t)
    else:
        rng = random.Random(seed)
        combos = ([rng.randrange(q) for _ in range(t)]
                  for _ in range(_ISO_RAND_BUDGET))
    for combo in combos:
        if invertible(combo):
            X = _intertwiner(a, b, unit_gens, combo)
            return IsoResult("isomorphic", X, "explicit intertwiner")
    if exhaustive:
        return IsoResult("not_isomorphic", None,
                         "no invertible element in the mod-pi solution span "
                         "(exhaustive)")
    return IsoResult("inconclusive", None,
                     f"randomized search exhausted ({_ISO_RAND_BUDGET} trials) "
                     "with a nonzero solution space")


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
    for name in a.group.generators:
        L = mat_mul(X, a.gen_images[name])
        R = mat_mul(b.gen_images[name], X)
        if not mat_is_zero_mod([[x - y for x, y in zip(r1, r2)]
                                for r1, r2 in zip(L, R)], a.modulus):
            raise RuntimeError("intertwiner verification failed")


# -- semisimplification mod pi ----------------------------------------------

_ISO_SEARCH_CAP = 1 << 20  # iso_mod enumerates the mod-pi span while q^t fits
_ISO_RAND_BUDGET = 2000  # else it draws this many combinations
_LINE_BUDGET = 300000  # spin every line of F_q^d while this many fit
_RAND_BUDGET = 200  # else this many random spins; a miss proves nothing


def _find_proper_submodule(mats, d, F, seed):
    q = F.q
    exhaustive = (q ** d - 1) // (q - 1) <= _LINE_BUDGET
    if exhaustive:  # projective representatives: a complete decision
        vecs = ([0] * lead + [F.one, *tail] for lead in range(d)
                for tail in itertools.product(range(q), repeat=d - lead - 1))
    else:
        rng = random.Random(seed)
        vecs = ([rng.randrange(q) for _ in range(d)] for _ in range(_RAND_BUDGET))
    for vec in vecs:
        basis = {}
        images = spin(partial(F.insert, basis), [vec],
                      lambda v: ([F.dot(row, v) for row in M] for M in mats))
        full = any(len(basis) == d for _ in images)
        if basis and not full:
            return basis, True
    return None, exhaustive


def composition_factors(F, letters, d, words, seed):
    """Composition factors of F_q^d under the letter matrices over F_q,
    keyed (generator index, +-1).

    Returns {"factors": [{dim, traces}], "complete": bool}, traces the F_q
    traces on ``words``, which distinguish non-isomorphic factors; when
    incomplete, also "unproven": the dimensions of the factors the random
    search did not prove irreducible.
    """
    factors, unproven = [], []
    todo = [(letters, d)]
    while todo:
        mats, d = todo.pop()
        sub, certain = _find_proper_submodule(mats.values(), d, F, seed)
        if sub is None:
            if not certain:
                unproven.append(d)
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
    out = {"factors": factors, "complete": not unproven}
    if unproven:
        out["unproven"] = sorted(unproven)
    return out


def with_trace_coords(F, factors):
    """The factors as reports give them: each trace as the coordinates of
    its lift, whose order is the order of the F_q ints."""
    return [{"dim": f["dim"],
             "traces": tuple(F.lift(t).coords for t in f["traces"])}
            for f in factors]


def semisimplify_mod_p(r, seed=0):
    """Composition factors of a residue representation (modulus 1), from
    the residues of the generators, each labeled by its traces on the
    ``residue_spin`` words, reported as "words".  No inverse letter is
    needed: over F_q each G^-1 is a polynomial in G, so a subspace stable
    under G is stable under G^-1, and the words use +1 letters only."""
    if r.modulus != 1:
        raise DomainError("semisimplification is defined at modulus 1")
    F = r.context.residue_field
    letters = {(gi, 1): _residues(F, r.gen_images[name])
               for gi, name in enumerate(r.group.generators)}
    words = list(residue_spin(r))
    ss = composition_factors(F, letters, r.dim, words, seed)
    ss["factors"] = with_trace_coords(F, ss["factors"])
    ss["words"] = [r.group.word_text(w) for w in words]
    return ss


def residue_spin(rep):
    """Words whose residue matrices span the image of F_q[G] in M_d(F_q),
    on which the traces of non-isomorphic simple modules differ: one
    ``spin`` of I under right multiplication by the generators' residues.
    Inverse letters add nothing, as each G^-1 is a polynomial in G."""
    F = rep.context.residue_field
    gens = [((gi, 1), _residues(F, rep.gen_images[name]))
            for gi, name in enumerate(rep.group.generators)]
    basis = {}
    items = spin(lambda item: F.insert(basis, [x for row in item[1] for x in row]),
                 [((), F.identity(rep.dim))],
                 lambda item: ((item[0] + (let,), F.mat_mul(item[1], G))
                               for let, G in gens))
    return (word for word, _ in items)


def _word_traces(F, letters, d, words):
    """The F_q trace of each word's product of the letter matrices."""
    traces = []
    for w in words:
        M = reduce(F.mat_mul, [letters[let] for let in w], F.identity(d))
        traces.append(reduce(F.add, [M[i][i] for i in range(d)]))
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


def stable_lattice(group, dim, context, gen_images):
    """Basis change making all generator images integral.

    ``gen_images`` maps generators to matrices of PadicNumber (possibly
    non-integral).  Returns (IntegralRep, certificate C) with C^{-1} rho C
    integral.  When the orbit lattice outgrows the working precision it
    raises InconclusiveError("unbounded ...") for a free group, and
    PrecisionError naming the denominator for a finite group, whose orbit
    is finite, so its lattice exists.

    The lattice L is the O_E-span of the orbit of O_E^d under the letters
    (each generator and its inverse), built by one spin from the unit
    vectors.  With D the largest denominator seen so far, O_E^d <= L <=
    pi^-D O_E^d, so pi^D L holds pi^(D+1) O_E^d and its span mod pi^(D+1)
    decides membership in L exactly.  A vector with a larger denominator
    raises D and spans the grown vectors again at the new scale.  Each
    image is normalized, so its products spend no digits on a denominator
    its numerator cancels.  The spin ends, as each grown vector lengthens a
    span of finite length.
    """
    ctx, d = context, dim
    mats = {}
    for name, M in gen_images.items():
        mats[name] = [[x if isinstance(x, PadicNumber) else PadicNumber(x)
                       for x in row] for row in M]
    letters = list(mats.values()) + [mat_inverse(M) for M in mats.values()]
    grown = []
    D, span = 0, ChainSpan(ctx, 1, d)

    def add(v):
        scale = ctx.pi_power(D)
        return span.add([(x * scale).to_integral() for x in v])

    def grows(v):
        nonlocal D, span
        vals = [x.pi_valuation() for x in v]
        k = max([0] + [-a for a in vals if a is not None])
        if 2 * k + 1 >= ctx.precision:
            if not group.capped:
                raise PrecisionError(f"orbit denominator pi^-{k} needs precision "
                                     f"above {2 * k + 1}, have {ctx.precision}")
            raise InconclusiveError("unbounded: orbit lattice keeps growing "
                                    "(no stable lattice at working precision)")
        if k > D:
            D, span = k, ChainSpan(ctx, k + 1, d)
            for u in grown:
                add(u)
        return add(v)

    def letter_images(v):
        col = [[x] for x in v]
        return ([y.normalized() for y, in mat_mul(M, col)] for M in letters)

    units = [[PadicNumber(x) for x in row] for row in identity_matrix(ctx, d)]
    # each grown vector is recorded before the spin asks about the next
    for v in spin(grows, units, letter_images):
        grown.append(v)

    def lift(x):
        x = ctx.from_coords(x.coords)
        if x.pi_valuation() is None:
            return PadicNumber(x)
        return PadicNumber(x, D).normalized()

    # column j of C is span row j over pi^D
    C = [list(col) for col in zip(*(
        [lift(x) for x in span.rows[j][1]] for j in sorted(span.rows)))]
    Cinv = mat_inverse(C)
    images = {}
    for name, M in mats.items():
        conj = mat_mul(mat_mul(Cinv, M), C)
        images[name] = [[x.to_integral() for x in row] for row in conj]
    return IntegralRep(group, d, ctx, images), C


# -- trace-congruence harness ----------------------------------------------


def residually_absolutely_irreducible(rep):
    """Burnside's criterion: the generators' residues span M_d(F_q) as an
    algebra, that is, their ``residue_spin`` reaches d^2 words."""
    d2 = rep.dim * rep.dim
    return len(list(itertools.islice(residue_spin(rep), d2))) == d2


def spanning_words(a, b):
    """Words whose pairs (a(w), b(w)) span the image of O_E[G] in
    M_d(O_E/pi^m)^2, for residue reps a and b mod pi^m, in breadth-first
    order from the empty word.

    Each word that grows the span (a ``ChainSpan`` of length-2d^2 vectors)
    is followed by its right multiples by every letter; the others lie in
    the span already.  So once the spin ends the span is closed under
    right multiplication by the letters and holds the empty word: it is
    the image of O_E[G].
    """
    span = ChainSpan(a.context, a.modulus, 2 * a.dim * a.dim)
    return list(spin(lambda w: span.add([x for r in (a, b)
                                         for row in r.matrix_of_word(w)
                                         for x in row]),
                     [()], a.group.right_multiples))


def carayol_audit(a, b, n, seed=0):
    """Trace congruence mod pi^n for residually absolutely irreducible pairs
    forces a mod-pi^n isomorphism (Carayol 1994; Nyssen 1996); failures
    under valid preconditions are flagged as theorem violations.

    Trace is linear, so the congruence holds on all of O_E[G] once it holds
    on the ``spanning_words``; a failure names the first of them whose
    traces differ, in spec syntax, as the ``witness``.
    """
    require_at_least_one("depth n", n)
    if (a.group, a.dim) != (b.group, b.dim) or a.context != b.context:
        raise DomainError("representations are not comparable")
    report = {"n": n}
    irr_a = residually_absolutely_irreducible(a)
    irr_b = residually_absolutely_irreducible(b)
    if not (irr_a and irr_b):
        report["verdict"] = "precondition_failed"
        report["reason"] = "residual absolute irreducibility fails"
        return report
    ra, rb = reduce_rep_mod(a, n), reduce_rep_mod(b, n)
    for w in spanning_words(ra, rb):
        v = (ra.trace_of_word(w) - rb.trace_of_word(w)).pi_valuation()
        if v is not None and v < n:
            report["verdict"] = "precondition_failed"
            report["reason"] = f"traces differ mod pi^{n} on a word of length {len(w)}"
            report["witness"] = a.group.word_text(w)
            return report
    res = iso_mod(ra, rb, seed=seed)
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
