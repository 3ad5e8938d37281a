"""Residue neighborhoods of a point on a preset formal model.

For a base point x and a depth n, the wide open neighborhood U^(n) is cut
out by v_p(g(y)) > (n-1)/e for every generator g of the vanishing ideal of
x, and the affinoid neighborhood V^(n) by v_p(g(y)) >= n/e; e is the
ramification index of the base field.  In pi_E-units over an extension E of
relative index e' these thresholds are integral: v(g(y)) >= (n-1)e'+1 for U
and v(g(y)) >= n e' for V.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from loccon.padic import (
    DomainError,
    PrecisionError,
    embed,
    gamma_exponent,
    relative_ramification,
    require_at_least_one,
)
from loccon.series import Cover, ModelPoint, _eval_terms

# sampling gives up after this many draws per requested point
_SAMPLE_BUDGET = 20
# cover_compare tests preimage equality at the depths 1.._PREIMAGE_DEPTHS
_PREIMAGE_DEPTHS = 4


def ideal_generators(model, x):
    """Generators {var - x_var} of the vanishing ideal of a base point."""
    if not x.is_base_point():
        raise DomainError("vanishing-ideal generators are defined for base points only")
    gens = []
    for name in model.vars:
        gens.append(model.var(name) - model.constant(x.coords[name]))
    return gens


@dataclass(frozen=True)
class ClosedForm:
    """Disc description: v_p(variable - center) vs a rational threshold."""

    variable: str
    threshold: Fraction
    strict: bool

    def to_json(self):
        return {
            "variable": self.variable,
            "threshold": {"num": self.threshold.numerator,
                          "den": self.threshold.denominator},
            "strict": self.strict,
        }


def _pi_threshold(kind, n, e_rel):
    """The threshold for v_piE(g(y)) on U^(n) (kind 'U') or V^(n) (kind
    'V') over an extension of relative ramification index e_rel."""
    return gamma_exponent(e_rel, n) if kind == "U" else n * e_rel


class ResidueDomain:
    """U^(n) (kind 'U') or V^(n) (kind 'V') around a base point."""

    def __init__(self, model, center, n, kind, closed_form=None):
        self.model = model
        self.center = center
        self.n = n
        self.kind = kind
        self.closed_form = closed_form

    def pi_threshold(self, e_rel):
        return _pi_threshold(self.kind, self.n, e_rel)

    def member(self, y):
        """Membership of a point over a marked extension of the base, read
        from v(y_var - x_var) for the generators var - x_var of the ideal.

        Raises PrecisionError when a comparison is undecidable at the
        point's working precision.
        """
        ext = y.context
        thr = self.pi_threshold(relative_ramification(self.model.base, ext))
        for name in self.model.vars:
            delta = y.coords[name] - embed(self.center.coords[name], ext)
            v = delta.pi_valuation()
            if v is None:
                if delta.known_precision >= thr:
                    continue
                raise PrecisionError(
                    "membership undecidable: generator value indistinguishable "
                    f"from 0 below the threshold pi^{thr}")
            if v < thr:
                return False
        return True

    def closed_form_member(self, y):
        """Membership via the closed-form disc description, when available."""
        if self.closed_form is None:
            raise DomainError("no closed form for this domain")
        cf = self.closed_form
        ext = y.context
        e_E = ext.e
        delta = y.coords[cf.variable] - embed(self.center.coords[cf.variable], ext)
        v = delta.pi_valuation()
        if v is None:
            lb = Fraction(delta.known_precision, e_E)
            if (lb > cf.threshold) or (not cf.strict and lb >= cf.threshold):
                return True
            raise PrecisionError("closed-form membership undecidable at precision")
        vp = Fraction(v, e_E)
        return vp > cf.threshold if cf.strict else vp >= cf.threshold

    def sample(self, ext, count, seed=0):
        """Up to `count` member points over ext, deterministic under seed."""
        require_at_least_one("samples", count)
        rng = random.Random(seed)
        e_rel = relative_ramification(self.model.base, ext)
        thr = self.pi_threshold(e_rel)
        if thr >= ext.precision:
            raise PrecisionError("extension precision too small for this depth")
        out = []
        tries = 0
        while len(out) < count and tries < _SAMPLE_BUDGET * count:
            tries += 1
            pt = self._sample_one(ext, thr, rng)
            if pt is None:
                continue
            try:
                if self.member(pt):
                    out.append(pt)
            except PrecisionError:
                continue
        return out

    def _sample_one(self, ext, thr, rng):
        coords = self.model.relation.sample(self.center, ext, thr, rng)
        if coords is None:
            return None
        try:
            return ModelPoint(self.model, coords)
        except DomainError:
            return None

    def to_json(self):
        from loccon.specfile import series_literal
        return {
            "kind": self.kind,
            "n": self.n,
            "center": self.center.to_json(),
            "generators": [series_literal(g) for g in ideal_generators(self.model, self.center)],
            "closed_form": self.closed_form.to_json() if self.closed_form else None,
        }


def describe(model, x, n, kind):
    """Build the residue domain U^(n) or V^(n) around a base point."""
    require_at_least_one("depth n", n)
    if kind not in ("U", "V"):
        raise DomainError("kind must be 'U' or 'V'")
    if not x.is_base_point():
        raise DomainError("residue domains are defined around base points only")
    e = model.base.e
    base_thr = Fraction(n - 1, e) if kind == "U" else Fraction(n, e)
    form = model.relation.closed_form(x, base_thr)
    closed = None if form is None else ClosedForm(*form, kind == "U")
    return ResidueDomain(model, x, n, kind, closed)


def sqrt_in_context(a, ext):
    """A square root of a in ext, or None; p odd, exact valuations only."""
    if ext.p == 2:
        raise DomainError("square roots are implemented for odd p only")
    v = a.pi_valuation()
    if v is None:
        return ext.zero()
    if v % 2:
        return None
    u = a.shift_down(v)
    F = ext.residue_field
    y0 = F.sqrt(F.of(u))
    if y0 is None:
        return None
    y = F.lift(y0)
    # Newton: y <- (y + u/y)/2
    inv2 = ext.from_int(2).inverse()
    acc = 1
    while acc < ext.precision:
        y = (y + u * y.inverse()) * inv2
        acc *= 2
    return y * ext.pi_power(v // 2)


def cover_fiber(model, ext, tval):
    """Roots y of y^d = g(t) over ext for the cover preset, d = 2 only."""
    rel = model.relation
    if not isinstance(rel, Cover):
        raise DomainError("not a cover model")
    if rel.d != 2:
        raise DomainError("fiber solving implemented for degree-2 covers only")
    yvar = rel.yvar
    tvar = [v for v in model.vars if v != yvar][0]
    _, rhs = model.rule
    root = sqrt_in_context(_eval_terms(model, rhs, {tvar: tval}, ext), ext)
    if root is None:
        return []
    if root.pi_valuation() is None:
        return [ModelPoint(model, {yvar: root, tvar: tval})]
    return [ModelPoint(model, {yvar: root, tvar: tval}),
            ModelPoint(model, {yvar: -root, tvar: tval})]


def cover_compare(model, center, n, ext):
    """The preimage-equality certificate of a cover y^d = c*t, at depth n.

    At a ramification center y0 = 0, v(t - t0) = d v(y - y0): the preimage
    of the downstairs domain, d v(y) >= thr, is the upstairs one, v(y) >=
    thr, exactly when ceil(thr / d) = thr.  The report gives this test at
    the depths 1.._PREIMAGE_DEPTHS and the first depth n0 where both kinds
    pass; away from the center nothing is certified (None).  The
    pushforward needs no test: the downstairs domains compare v(t - t0)
    with the upstairs threshold, which every upstairs point meets.
    """
    require_at_least_one("depth n", n)
    d, yvar, tvar, _ = model.linear_cover()
    e_rel = relative_ramification(model.base, ext)
    y0_is_zero = center.coords[yvar].pi_valuation() is None
    per_n = {}
    n0 = None
    for nn in range(1, _PREIMAGE_DEPTHS + 1):
        entry = {}
        for kind in ("U", "V"):
            thr = _pi_threshold(kind, nn, e_rel)
            entry[kind] = math.ceil(thr / d) == thr if y0_is_zero else None
        per_n[str(nn)] = entry
        if n0 is None and all(entry.values()):
            n0 = nn
    certificate = (f"v({tvar} - t0) = {d} * v({yvar} - y0) at the "
                   "ramification center" if y0_is_zero else None)
    return {"n": n, "verdict": "pass",
            "preimage_equality": {"per_n": per_n, "n0": n0,
                                  "certificate": certificate,
                                  "budget": _PREIMAGE_DEPTHS}}
