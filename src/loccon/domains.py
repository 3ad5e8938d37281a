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
from loccon.series import AlgebraModel, Cover, ModelPoint, _eval_terms

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
        model = self.model
        if model.relation is None:
            coords = {}
            for name in model.vars:
                c = embed(self.center.coords[name], ext)
                t = rng.randrange(thr, ext.precision)
                if rng.random() < 0.5:
                    t = thr  # favor the boundary
                delta = ext.random_with_pi_valuation(t, rng) \
                    if rng.random() > 0.05 else ext.zero()
                coords[name] = c + delta
        else:
            coords = model.relation.sample(self.center, ext, thr, rng)
            if coords is None:
                return None
        try:
            return ModelPoint(model, coords)
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
    if kind not in ("U", "V"):
        raise DomainError("kind must be 'U' or 'V'")
    if n < 1:
        raise DomainError("n must be >= 1")
    if not x.is_base_point():
        raise DomainError("residue domains are defined around base points only")
    e = model.base.e
    base_thr = Fraction(n - 1, e) if kind == "U" else Fraction(n, e)
    if model.relation is not None:
        form = model.relation.closed_form(x, base_thr)
    else:
        form = (model.vars[0], base_thr) if len(model.vars) == 1 else None
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


def cover_compare(model, center, n, ext, samples=100, seed=0):
    """Pushforward containment and preimage-equality search for a cover.

    Checks that points of the upstairs U^(n)/V^(n) map into the downstairs
    neighborhoods of the image point, and searches for the smallest tested
    depth at which the preimage of the downstairs neighborhood equals the
    upstairs one (reported as found/not found within the budget).
    """
    require_at_least_one("depth n", n)
    require_at_least_one("samples", samples)
    d, yvar, tvar, _ = model.linear_cover()
    base = model.base
    down_model = AlgebraModel(base, (), (tvar,), None, model.degree_cap)
    down_center = ModelPoint(down_model, {tvar: center.coords[tvar]})
    report = {"n": n, "containment": {}, "verdict": "pass"}
    for kind in ("U", "V"):
        up = describe(model, center, n, kind)
        down = describe(down_model, down_center, n, kind)
        ok = 0
        bad = []
        # down.member reads an upstairs point's image, its tvar coordinate: a point
        # of down_model, as an upstairs member has v(t - t0) >= 1 and v(t0) >= 1
        for pt in up.sample(ext, samples, seed=seed):
            if down.member(pt):
                ok += 1
            else:
                bad.append(pt.to_json())
                report["verdict"] = "fail"
        report["containment"][kind] = {"checked": ok + len(bad), "failures": bad}
    # preimage equality: exact threshold comparison using v(t - t0) = d v(y - y0)
    # (valid at a ramification center y0 = 0)
    eq = {}
    n0 = None
    e_rel = relative_ramification(base, ext)
    y0_is_zero = center.coords[yvar].pi_valuation() is None
    for nn in range(1, _PREIMAGE_DEPTHS + 1):
        entry = {}
        for kind in ("U", "V"):
            thr = _pi_threshold(kind, nn, e_rel)
            if y0_is_zero:
                # upstairs: v(y) >= thr; preimage: d v(y) >= thr
                pre_thr = math.ceil(thr / d)
                entry[kind] = (pre_thr == thr)
            else:
                entry[kind] = None  # not certified away from ramification
        eq[nn] = entry
        if n0 is None and all(entry[k] for k in entry):
            n0 = nn
    report["preimage_equality"] = {
        "per_n": {str(k): v for k, v in eq.items()},
        "n0": n0,
        "certificate": (f"v({tvar} - t0) = {d} * v({yvar} - y0) at the "
                        "ramification center" if y0_is_zero else None),
        "budget": _PREIMAGE_DEPTHS,
    }
    return report
