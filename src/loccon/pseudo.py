"""Two-dimensional pseudorepresentation calculus.

A pseudorepresentation here is a trace-like function T with T(1) = 2,
T(gh) = T(hg), and the dimension-2 identity
T(g)T(h) = T(gh) + D(g) T(g^{-1}h) with D(g) = (T(g)^2 - T(g^2))/2.
The coefficient ring must have 2 invertible, so p = 2 is refused.
"""

from __future__ import annotations

import itertools
from functools import cached_property

from loccon.padic import DomainError, require_at_least_one
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
        self._table = values

    @cached_property
    def half(self):
        """1/2 in O_E, for ``determinant``, inverted on first read."""
        return self.base.from_int(2).inverse()

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

    def residually_multiplicity_free(self):
        """Whether the residual representation repeats no factor, from T
        mod pi: for p odd, T mod pi is the trace of a semisimple 2-dimensional
        rho exactly when T(1) = 2, T(gh) = T(hg), D(gh) = D(g) D(h) and the
        d = 2 identity hold mod pi (Chenevier), and rho repeats a factor
        exactly when chi = T/2 mod pi is a character (Brauer-Nesbitt).  The
        report names the first pair, in ``element_words()`` order, that breaks
        a condition (``no_decomposition``), or else on which chi is not
        multiplicative (``multiplicity_free``)."""
        group = self.group
        n = group.order  # a free group refuses here
        words = group.element_words()
        inverse = [group.inverse_element(x) for x in range(n)]
        F = self.base.residue_field
        mul, two = F.mul, F.add(F.one, F.one)
        half = F.inv(two)
        t = [F.of(self.value(x)) for x in range(n)]
        det = [mul(half, F.sub(mul(tx, tx), t[group.multiply(x, x)]))
               for x, tx in enumerate(t)]
        chi = [mul(half, tx) for tx in t]

        def report(verdict, g, h, rule):
            return {"verdict": verdict, "certificate": f"{rule} fails mod pi",
                    "witness": [group.word_text(words[x]) for x in (g, h)]}

        e = group.identity
        if t[e] != two:
            return report("no_decomposition", e, e, "T(1) = 2")
        split = None
        for g, h in itertools.product(words, repeat=2):
            gh = group.multiply(g, h)
            if t[gh] != t[group.multiply(h, g)]:
                return report("no_decomposition", g, h, "T(gh) = T(hg)")
            if det[gh] != mul(det[g], det[h]):
                return report("no_decomposition", g, h, "D(gh) = D(g) D(h)")
            if mul(t[g], t[h]) != F.add(t[gh], mul(
                    det[g], t[group.multiply(inverse[g], h)])):
                return report("no_decomposition", g, h,
                              "T(g) T(h) = T(gh) + D(g) T(g^-1 h)")
            if split is None and chi[gh] != mul(chi[g], chi[h]):
                split = (g, h)
        if split is not None:
            return report("multiplicity_free", *split,
                          "chi(gh) = chi(g) chi(h) for chi = T/2")
        return {"verdict": "not_multiplicity_free",
                "certificate": "chi(gh) = chi(g) chi(h) for chi = T/2 holds "
                               "mod pi on every pair",
                "character": {name: F.lift(chi[x]).coords for name, x
                              in zip(group.generators, group.gen_elements)}}

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

