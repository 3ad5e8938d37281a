"""Families of representations over a mixed algebra: matrices of series
attached to group generators, constancy verifiers, and the trace-algebra
fullness test."""

from __future__ import annotations

import itertools

from loccon.chainring import (
    ChainSpan,
    determinant,
    mat_inverse,
    mat_trace,
    relations_hold,
    word_matrix,
)
from loccon.padic import DomainError, gamma_exponent, relative_ramification
from loccon.series import AdicSeries


class RepFamily:
    """d x d matrices of AdicSeries over a model, one per group generator.

    Generator images must be invertible with integral inverse (unit
    determinant in the integral algebra).
    """

    def __init__(self, group, dim, model, gen_images):
        self.group = group
        self.dim = dim
        self.model = model
        self.gen_images = {}
        for name in group.generators:
            if name not in gen_images:
                raise DomainError(f"missing matrix for generator {name!r}")
            M = [[model._coerce(x) if not isinstance(x, AdicSeries) else x
                  for x in row] for row in gen_images[name]]
            if len(M) != dim or any(len(r) != dim for r in M):
                raise DomainError("generator matrices must be d x d")
            self.gen_images[name] = M
        self._words = {(): [[model.constant(1 if i == j else 0) for j in range(dim)]
                            for i in range(dim)]}
        for M in self.gen_images.values():
            determinant(M).inverse()  # raises when the determinant is not a unit
        if not relations_hold(group, self._words, self._letter):
            raise DomainError("generator matrices violate the group's relations")

    # -- word calculus -----------------------------------------------------

    def _letter(self, let):
        M = self.gen_images[self.group.generators[let[0]]]
        return M if let[1] == 1 else mat_inverse(M)

    def matrix_of_word(self, word):
        return [row[:] for row in word_matrix(self._words, word, self._letter)]

    def trace_of_word(self, word):
        return mat_trace(word_matrix(self._words, word, self._letter))

    # -- specialization ----------------------------------------------------

    def specialize(self, point):
        """Integral representation at a point of the model."""
        from loccon.lattice import IntegralRep
        coords = dict(point.coords)
        images = {}
        for name, M in self.gen_images.items():
            images[name] = [[x.evaluate(coords) for x in row] for row in M]
        return IntegralRep(self.group, self.dim, point.context, images)

    # -- constancy ---------------------------------------------------------

    def strict_constancy_check(self, center, n, scale=None):
        """Whether the family is constant mod pi^n after recentering.

        ``scale`` defaults to n (the affinoid V^(n) coordinates); pass n-1
        for the wide open U^(n) coordinates.  On success returns the constant
        model matrices mod pi^n.
        """
        if scale is None:
            scale = n
        scales = {v: scale for v in self.model.vars}
        centers = dict(center.coords)
        constants = {}
        for name, M in self.gen_images.items():
            const = [[None] * self.dim for _ in range(self.dim)]
            for i in range(self.dim):
                for j in range(self.dim):
                    rc = M[i][j].recenter_rescale(dict(centers), dict(scales))
                    res = rc.is_constant_mod(n)
                    if not res:
                        return False, (name, i, j, res.witness), None
                    const[i][j] = res.constant_value
            constants[name] = const
        return True, None, constants

    def pointwise_constancy_audit(self, domain, n, extensions, samples_per_ext,
                                  seed=0, word_cap=3):
        """Sampled audit: specializations at points of the domain are
        isomorphic mod pi_E^{gamma(n)} to the specialization at the center.
        """
        from loccon.domains import ModelPoint
        from loccon.lattice import iso_mod, reduce_rep_mod
        from loccon.padic import embed
        report = {"n": n, "word_cap": word_cap, "verdict": "pass",
                  "witnesses": [], "extensions": []}
        for idx, ext in enumerate(extensions):
            e_rel = relative_ramification(self.model.base, ext)
            g = gamma_exponent(e_rel, n)
            center_pt = ModelPoint(self.model, {
                v: embed(c, ext) for v, c in domain.center.coords.items()})
            ref = reduce_rep_mod(self.specialize(center_pt), g)
            entry = {"e_rel": e_rel, "gamma": g, "samples": 0, "failures": 0,
                     "inconclusive": 0}
            for pt in domain.sample(ext, samples_per_ext, seed=seed + idx):
                spec = reduce_rep_mod(self.specialize(pt), g)
                res = iso_mod(ref, spec)
                entry["samples"] += 1
                if res.status == "isomorphic":
                    continue
                if res.status == "inconclusive":
                    entry["inconclusive"] += 1
                    if report["verdict"] == "pass":
                        report["verdict"] = "inconclusive"
                    continue
                entry["failures"] += 1
                report["verdict"] = "fail"
                report["witnesses"].append({
                    "extension_index": idx,
                    "point": pt.to_json(),
                    "certificate": res.certificate,
                })
            report["extensions"].append(entry)
        return report

    # -- trace algebra -----------------------------------------------------

    def trace_algebra_full(self, n, degree_budget=None, word_cap=3,
                           max_rounds=40):
        """Is the closure of the O_L-algebra generated by the matrix entries
        the whole truncated algebra?

        Works on disc models only (monomial basis).  Returns "full",
        "proper", or "inconclusive" together with the stabilized span size.
        """
        model = self.model
        if model.relation is not None:
            raise DomainError("trace-algebra test needs a disc model")
        if degree_budget is None:
            degree_budget = model.degree_cap
        monos = _monomials_up_to(model, degree_budget)
        mono_index = {m: i for i, m in enumerate(monos)}
        k = len(monos)
        ctx = model.base

        def vec(series):
            out = [ctx.zero()] * k
            for mono, c in series.terms.items():
                if mono in mono_index:
                    out[mono_index[mono]] = c
            return out

        entries = []
        for word in self.group.words_up_to(word_cap):
            if not word:
                continue
            M = self.matrix_of_word(word)
            for row in M:
                for x in row:
                    entries.append(x)
        span = ChainSpan(ctx, n, k)
        basis = [model.constant(1)]
        span.add(vec(basis[0]))
        frontier = list(basis)
        rounds = 0
        while frontier and rounds < max_rounds:
            rounds += 1
            new = []
            for b in frontier:
                for e in entries:
                    prod = b * e
                    if span.add(vec(prod)):
                        new.append(prod)
            frontier = new
            if span.is_full():
                return {"verdict": "full", "rounds": rounds,
                        "modulus": n, "degree_budget": degree_budget}
        if frontier:
            return {"verdict": "inconclusive", "rounds": rounds,
                    "modulus": n, "degree_budget": degree_budget}
        return {"verdict": "proper", "rounds": rounds,
                "modulus": n, "degree_budget": degree_budget}


def _monomials_up_to(model, budget):
    nv = len(model.vars)
    out = []
    for combo in itertools.product(range(budget + 1), repeat=nv):
        if sum(combo) <= budget:
            out.append(combo)
    return sorted(out)
