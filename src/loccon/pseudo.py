"""Two-dimensional pseudorepresentation calculus.

A pseudorepresentation here is a trace-like function T with T(1) = 2,
T(gh) = T(hg), and the dimension-2 identity
T(g)T(h) = T(gh) + D(g) T(g^{-1}h) with D(g) = (T(g)^2 - T(g^2))/2.
The coefficient ring must have 2 invertible, so p = 2 is refused.
"""

from __future__ import annotations

import itertools
from functools import cached_property

from loccon.padic import DomainError, InconclusiveError, require_at_least_one
from loccon.series import AdicSeries, constancy_certificate


class PseudoRep2:
    """d = 2 pseudorepresentation on a finite group or a free group (values
    on finitely many words); values live in O_E or in a series algebra over
    it, and ``base`` is the coefficient context O_E, with p odd.

    ``values`` is a table {word: value}, or a function of no arguments that
    returns one; either is read the first time ``values`` is read, so a
    trace table (``from_rep_trace``) costs nothing until it is used.
    """

    def __init__(self, group, values, base):
        if base.p == 2:
            raise DomainError("pseudorepresentation calculus needs p != 2")
        self.group = group
        self.base = base
        self.half = base.from_int(2).inverse()
        self._table = values

    @cached_property
    def values(self):
        """{word in normal form: value}, built once, on first read."""
        table = self._table() if callable(self._table) else self._table
        return {self.group.normal_form(w): v for w, v in table.items()}

    # -- evaluation --------------------------------------------------------

    def value(self, x):
        w = self.group.normal_form(x)
        if w not in self.values:
            raise DomainError(f"value not available for word of length {len(w)}")
        return self.values[w]

    def determinant(self, g):
        """D(g) = (T(g)^2 - T(g^2))/2."""
        t = self.value(g)
        t2 = self.value(self.group.multiply(g, g))
        return (t * t - t2) * self.half

    # -- axioms ------------------------------------------------------------

    def axiom_check(self):
        """T(1) = 2, then symmetry and the d = 2 identity on every pair of
        elements of a finite group, or of free-group words of length <= 2
        (``word_length``); a pair is skipped when a word it needs has no
        value, and ``pairs_skipped`` counts those pairs."""
        report = {"verdict": "pass", "violations": []}
        group = self.group
        if self.value(group.identity) != 2:
            report["verdict"] = "fail"
            report["violations"].append({"axiom": "T(1)=2"})
            return report
        small = group.elements(2)
        checkable = 0
        for g, h in itertools.product(small, repeat=2):
            try:
                lhs_sym = self.value(group.multiply(g, h))
                rhs_sym = self.value(group.multiply(h, g))
                lhs = self.value(g) * self.value(h)
                rhs = self.value(group.multiply(g, h)) + self.determinant(g) \
                    * self.value(group.multiply(group.inverse_element(g), h))
            except DomainError:
                continue  # word escaped the cap
            checkable += 1
            if lhs_sym != rhs_sym:
                report["verdict"] = "fail"
                report["violations"].append({"axiom": "symmetry", "pair": str((g, h))})
            if lhs != rhs:
                report["verdict"] = "fail"
                report["violations"].append({"axiom": "d=2 identity", "pair": str((g, h))})
        report["pairs_checked"] = checkable
        report["pairs_skipped"] = len(small) ** 2 - checkable
        if group.capped:
            report["word_length"] = 2
        return report

    # -- kernel ------------------------------------------------------------

    def kernel(self, m):
        """Generators of the null space of B(x, y) = T(xy) over O/pi^m, for
        finite groups: the algebra kernel {y : T(xy) = 0 for all x}."""
        from loccon.chainring import nullspace_mod
        require_at_least_one("depth m", m)
        els = range(self.group.order)
        rows = []
        for x in els:
            rows.append([self.value(self.group.multiply(x, y)).reduce_mod(m)
                         for y in els])
        return nullspace_mod(rows, self.base, m)

    # -- multiplicity-freeness --------------------------------------------

    def residually_multiplicity_free(self, seed=0):
        """Decompose T mod pi as a sum of irreducible traces of the group,
        found on the regular representation over F_q; multiplicity-free
        when no factor repeats, inconclusive when the irreducibility of a
        factor is unproven."""
        from loccon.lattice import composition_factors, with_trace_coords
        group = self.group
        if group.order > 24:
            raise InconclusiveError("exhaustive route limited to |G| <= 24")
        F = self.base.residue_field
        n = group.order
        # regular representation: the letter of h sends e_x to e_{hx}, read
        # off the multiplication table (an inverse letter is the letter of
        # the inverse element)
        letters = {}
        for gi, g in enumerate(group.gen_elements):
            for sign, h in ((1, g), (-1, group.inverse_element(g))):
                M = [[0] * n for _ in range(n)]
                for x in group.elements():
                    M[group.multiply(h, x)][x] = F.one
                letters[(gi, sign)] = M
        words = group.element_words()
        ss = composition_factors(F, letters, n, words.values(), seed)
        uniq = []
        for f in ss["factors"]:
            if f not in uniq:
                uniq.append(f)
        out = {"complete": ss["complete"],
               "factors": with_trace_coords(F, uniq)}
        if not ss["complete"]:
            dims = ", ".join(map(str, ss["unproven"]))
            out.update(verdict="inconclusive", unproven=ss["unproven"],
                       reason=f"the random submodule search did not prove "
                              f"the factors of dimension {dims} irreducible")
            return out
        # factor traces are aligned with element_words() iteration order
        tbar = [F.of(self.value(el)) for el in words]
        mult = _decompose_trace(tbar, [f["dim"] for f in uniq],
                                [f["traces"] for f in uniq], F)
        if mult is None:
            out["verdict"] = "no_decomposition"
        elif max(mult) <= 1:
            out.update(multiplicities=mult, verdict="multiplicity_free")
        else:
            out.update(multiplicities=mult, verdict="not_multiplicity_free",
                       repeated_factor=mult.index(max(mult)))
        return out

    # -- constancy over algebras ------------------------------------------

    def constancy_audit(self, domain, n, extensions):
        """The closed-form constancy certificate of the values on the
        domain (``series.constancy_certificate``)."""
        require_at_least_one("depth n", n)
        if not all(isinstance(val, AdicSeries) for val in self.values.values()):
            raise DomainError("constancy audits need series-valued T")
        return constancy_certificate(
            {str(key): val for key, val in self.values.items()},
            domain, n, extensions)


def from_rep_trace(rep, word_cap=4):
    """T(w) = trace of the word matrix, for d = 2 representations or
    families, for the words of length <= ``word_cap`` (at least 1).  The
    arguments are checked here; the traces are taken when ``values`` is
    first read."""
    require_at_least_one("word_cap", word_cap)
    if rep.dim != 2:
        raise DomainError("pseudorepresentations are implemented for d = 2")
    return PseudoRep2(rep.group, lambda: {
        el: rep.trace_of_word(w)
        for el, w in rep.group.element_words(word_cap).items()}, rep.context)


def _decompose_trace(tbar, dims, traces, F):
    """Non-negative integer combination of the factor traces (over the
    residue field F) equal to tbar with total dimension 2, by exhaustive
    search (d = 2 only)."""
    for combo in itertools.product(range(3), repeat=len(dims)):
        if sum(c * d for c, d in zip(dims, combo)) != 2:
            continue
        ok = True
        for pos, want in enumerate(tbar):
            acc = 0
            for c, tr in zip(combo, traces):
                for _ in range(c):
                    acc = F.add(acc, tr[pos])
            if acc != want:
                ok = False
                break
        if ok:
            return list(combo)
    return None
