"""Families of representations over a mixed algebra: matrices of series
attached to group generators, constancy verifiers, and the trace-algebra
fullness test."""

from __future__ import annotations

import itertools

from loccon.chainring import ChainSpan, determinant, spin
from loccon.lattice import IntegralRep
from loccon.padic import (DomainError, embed, gamma_exponent, relative_ramification,
                          require_at_least_one)
from loccon.series import AdicSeries, ModelPoint


class RepFamily(IntegralRep):
    """d x d matrices of AdicSeries over a model, one per group generator.

    Generator images must be invertible with integral inverse (unit
    determinant in the integral algebra).  Entries that are not series
    (integers, elements of the base) become constant series.
    """

    def __init__(self, group, dim, model, gen_images):
        self.model = model
        super().__init__(group, dim, model.base, gen_images)

    def _coerce(self, x):
        return x if isinstance(x, AdicSeries) else self.model.constant(x)

    def _is_unit(self, M):
        try:
            determinant(M).inverse()
        except DomainError:
            return False
        return True

    # -- specialization ----------------------------------------------------

    def specialize(self, point):
        """Integral representation at a point (a ModelPoint) of the model."""
        images = {}
        for name, M in self.gen_images.items():
            images[name] = [[x.evaluate(point) for x in row] for row in M]
        return IntegralRep(self.group, self.dim, point.context, images)

    # -- constancy ---------------------------------------------------------

    def strict_constancy_check(self, center, n, scale=None):
        """Whether the family is constant mod pi^n after recentering.

        ``scale`` defaults to n (the affinoid V^(n) coordinates); pass n-1
        for the wide open U^(n) coordinates.  On success returns the constant
        model matrices mod pi^n.
        """
        require_at_least_one("depth n", n)
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
                                  seed=0):
        """Sampled audit: specializations at points of the domain are
        isomorphic mod pi_E^{gamma(n)} to the specialization at the center.
        """
        from loccon.lattice import iso_mod, reduce_rep_mod
        require_at_least_one("depth n", n)
        require_at_least_one("samples", samples_per_ext)
        report = {"n": n, "verdict": "pass", "witnesses": [], "extensions": []}
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

    def trace_algebra_full(self, n, word_cap=3):
        """Is the closure of the O_L-algebra generated by the matrix entries
        the whole truncated algebra?

        Works on disc models only (monomial basis up to the degree cap).
        Returns "full" or "proper" together with the number of product
        rounds.  Each round but the last grows the span, a submodule of
        (O_E/pi^n)^k of length at most n k, so there are at most n k + 1.
        """
        require_at_least_one("depth n", n)
        model = self.model
        if model.relation is not None:
            raise DomainError("trace-algebra test needs a disc model")
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
        # items are (round, product); full in round r reports r (1 if full at
        # the start), proper also counts the last round, which grew nothing
        span = ChainSpan(ctx, n, k)
        products = spin(lambda item: span.add(vec(item[1])),
                        [(0, model.constant(1))],
                        lambda item: ((item[0] + 1, item[1] * e) for e in entries))
        last = 0
        for last, _ in products:
            if span.is_full():
                return {"verdict": "full", "rounds": max(last, 1),
                        "modulus": n, "degree_budget": degree_budget}
        return {"verdict": "proper", "rounds": last + 1,
                "modulus": n, "degree_budget": degree_budget}


def _monomials_up_to(model, budget):
    nv = len(model.vars)
    out = []
    for combo in itertools.product(range(budget + 1), repeat=nv):
        if sum(combo) <= budget:
            out.append(combo)
    return sorted(out)
