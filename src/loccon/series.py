"""Truncated elements of mixed algebras O_L<zeta>[[xi]] and constancy tests.

An AlgebraModel fixes a base ring, named variables of two kinds (bounded:
|.| <= 1, open: |.| < 1), an optional preset relation, and a degree cap for
the open variables.  AdicSeries are finitely supported coefficient maps in
normal form under the relation.  A ModelPoint is a point of a model, checked
once when it is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from loccon.padic import (
    DomainError,
    PadicElement,
    PrecisionError,
    embed,
    gamma_exponent,
    power,
    relative_ramification,
    require_at_least_one,
)


@dataclass(frozen=True)
class Annulus:
    """The relation zeta1*zeta2 = pi^m on the two bounded variables."""

    m: int
    kind = "annulus"

    def rule(self, model):
        """The rewrite rule (lhs monomial, rhs terms) on a valid model."""
        if len(model.bounded_vars) != 2 or self.m < 1:
            raise DomainError("annulus preset needs exactly two bounded vars and m >= 1")
        n = len(model.vars)
        return (1, 1) + (0,) * (n - 2), {(0,) * n: model.base.pi_power(self.m)}

    def recenter(self, series, center, scales):
        """zeta1 = x1 + pi^k U, zeta2 = pi^m/zeta1 as a series in U."""
        model = series.model
        z1, z2 = model.bounded_vars
        x1, x2 = center[z1], center[z2]
        if (x1 * x2 - model.base.pi_power(self.m)).pi_valuation() is not None:
            raise DomainError("annulus center must satisfy zeta1*zeta2 = pi^m")
        k = scales[z1]
        v1 = x1.pi_valuation()
        if v1 is None or k <= v1:
            raise DomainError(
                "annulus recentering needs scale exponent > v(zeta1-coordinate)")
        out_model = AlgebraModel(model.base, (), (z1,), None, model.degree_cap)
        U = out_model.var(z1)
        # zeta1 = x1 + pi^k U ; zeta2 = pi^m/zeta1 = x2 * sum ((-pi^k/x1) U)^i
        t = model.base.pi_power(k - v1) * x1.shift_down(v1).inverse()
        sub1 = out_model.constant(x1) + U.scale(model.base.pi_power(k))
        geometric, c = {}, x2
        for i in range(model.degree_cap + 1):
            geometric[(i,)] = c
            c = c * (-t)
        sub2 = out_model.series(geometric)
        return _eval_terms(model, series.terms, {z1: sub1, z2: sub2}, out_model)

    def sample(self, center, ext, thr, rng):
        """Coordinates near the center point over ext, or None."""
        z1, z2 = center.model.bounded_vars
        m = self.m
        e_rel = relative_ramification(center.model.base, ext)
        x1 = embed(center.coords[z1], ext)
        v1 = x1.pi_valuation()
        t1 = thr if v1 is None else max(thr, thr - m * e_rel + 2 * v1)
        if t1 >= ext.precision:
            return None
        t = rng.randrange(t1, ext.precision) if rng.random() > 0.5 else t1
        zeta1 = x1 + ext.random_with_pi_valuation(t, rng)
        vz = zeta1.pi_valuation()
        if vz is None or vz > m * e_rel:
            return None
        # zeta2 = pi^m / zeta1, exact
        unit = zeta1.shift_down(vz)
        zeta2 = unit.inverse() * ext.pi_power(m * e_rel - vz)
        return {z1: zeta1, z2: zeta2}

    def closed_form(self, x, base_thr):
        """(variable, threshold) of the disc around the point x, or None."""
        z1 = x.model.bounded_vars[0]
        v1 = x.coords[z1].pi_valuation()
        if v1 is None:
            return None
        # disc at x1 of radius min{p^{-thr}, p^{-thr+m/e}|x1|^2}
        e = x.model.base.e
        alt = base_thr - Fraction(self.m, e) + 2 * Fraction(v1, e)
        return z1, max(base_thr, alt)


@dataclass(frozen=True)
class Cover:
    """The relation yvar^d = g, with g a coefficient map (monomial tuple ->
    int) over the remaining variables."""

    d: int
    yvar: str
    g: dict
    kind = "cover"

    def rule(self, model):
        """The rewrite rule (lhs monomial, rhs terms) on a valid model.

        The truncated product is associative only if a product that the
        degree cap drops never comes back under the cap by rewriting.  A
        rewrite of an open y^d into a term of g of open degree k lowers the
        open degree by d - k.  So a model with y open is refused when
        d - k >= 2 for the lowest open degree k among g's terms, unless y
        is the only open variable and degree_cap >= d - 1 (then the cap
        never drops a product).
        """
        if self.d < 2 or self.yvar not in model.vars:
            raise DomainError("cover preset needs degree >= 2 and a declared cover variable")
        yi = model.vars.index(self.yvar)
        if any(mono[yi] for mono in self.g):
            raise DomainError("cover relation right side must not involve the cover variable")
        if model.is_open(self.yvar):
            open_idx = [model.vars.index(v) for v in model.open_vars]
            k = min((sum(mono[i] for i in open_idx) for mono in self.g),
                    default=self.d)
            if self.d - k >= 2 and (len(open_idx) > 1
                                    or model.degree_cap < self.d - 1):
                raise DomainError(
                    f"cover relation {self.yvar}^{self.d} = g with an open "
                    f"{self.yvar} lowers the open degree by {self.d - k}, "
                    "so its truncated product is not associative")
        lhs = tuple(self.d if i == yi else 0 for i in range(len(model.vars)))
        return lhs, {mono: model._coerce(c) for mono, c in self.g.items()}

    def recenter(self, series, center, scales):
        """y = y0 + pi^k W, t = y^d/c as a series in W."""
        model = series.model
        d, yvar, tvar, c = model.linear_cover()
        y0, t0 = center[yvar], center[tvar]
        if (y0 ** d - c * t0).pi_valuation() is not None:
            raise DomainError("cover center must satisfy the relation")
        k = scales[yvar]
        out_model = AlgebraModel(model.base, (), (yvar,), None, model.degree_cap)
        W = out_model.var(yvar)
        suby = out_model.constant(y0) + W.scale(model.base.pi_power(k))
        subt = (suby ** d).scale(c.inverse())
        return _eval_terms(model, series.terms, {yvar: suby, tvar: subt}, out_model)

    def sample(self, center, ext, thr, rng):
        """Coordinates near the center point over ext, parameterized by y."""
        d, yvar, tvar, c = center.model.linear_cover()
        y0 = embed(center.coords[yvar], ext)
        t = rng.randrange(thr, ext.precision) if rng.random() > 0.5 else thr
        y = y0 + ext.random_with_pi_valuation(t, rng)
        return {yvar: y, tvar: y ** d * embed(c, ext).inverse()}

    def closed_form(self, x, base_thr):
        """(variable, threshold) of the disc around the point x, or None."""
        if x.coords[self.yvar].pi_valuation() is not None:
            return None
        # at the ramification point: v(t) = d v(y) collapses both generator
        # conditions to the one on the cover variable
        return self.yvar, base_thr


@dataclass(frozen=True)
class AlgebraModel:
    """Shape of a truncated mixed algebra over a p-adic base.

    ``relation`` is ``None`` for a disc or polydisc, or an ``Annulus`` or
    ``Cover`` preset; ``rule`` caches the preset's rewrite rule.
    """

    base: object
    bounded_vars: tuple = ()
    open_vars: tuple = ()
    relation: Annulus | Cover | None = None
    degree_cap: int = 8
    rule: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if set(self.bounded_vars) & set(self.open_vars):
            raise DomainError("a variable cannot be both bounded and open")
        if self.relation is not None:
            if not isinstance(self.relation, (Annulus, Cover)):
                raise DomainError(f"unknown relation preset {self.relation!r}")
            object.__setattr__(self, "rule", self.relation.rule(self))

    @property
    def vars(self):
        return tuple(self.bounded_vars) + tuple(self.open_vars)

    def var_index(self, name):
        try:
            return self.vars.index(name)
        except ValueError:
            raise DomainError(f"unknown variable {name!r}") from None

    def is_open(self, name):
        return name in self.open_vars

    def linear_cover(self):
        """(d, yvar, tvar, c) for a cover relation y^d = c*t with c a unit
        of the base: the only shape the cover closed forms (recentering,
        sampling, pushforward comparison) are written for."""
        rel = self.relation
        if not isinstance(rel, Cover):
            raise DomainError("not a cover model")
        others = [v for v in self.vars if v != rel.yvar]
        t_mono = tuple(int(v != rel.yvar) for v in self.vars)
        if len(others) != 1 or list(rel.g) != [t_mono]:
            raise DomainError("cover closed forms need y^d = c*t")
        c = self._coerce(rel.g[t_mono])
        if not c.is_unit():
            raise DomainError("cover relation constant must be a unit")
        return rel.d, rel.yvar, others[0], c

    # -- series constructors ---------------------------------------------

    def _coerce(self, c):
        if isinstance(c, int):
            return self.base.from_int(c)
        return c

    def zero(self):
        return AdicSeries(self, {})

    def constant(self, c):
        c = self._coerce(c)
        return AdicSeries(self, {(0,) * len(self.vars): c})

    def var(self, name):
        i = self.var_index(name)
        mono = tuple(1 if j == i else 0 for j in range(len(self.vars)))
        return AdicSeries(self, {mono: self.base.one()})

    def series(self, terms):
        out = {}
        for mono, c in terms.items():
            out[tuple(mono)] = self._coerce(c)
        return AdicSeries(self, out)


@dataclass(frozen=True)
class ModelPoint:
    """A point of a model over an extension of its base (``context``),
    checked once, when it is built; every reader takes it as checked."""

    model: AlgebraModel
    coords: dict
    context: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ext = _point_context(self.model, self.coords)
        _check_point(self.model, self.coords, ext)
        object.__setattr__(self, "context", ext)

    def is_base_point(self):
        return self.context == self.model.base

    def to_json(self):
        return {v: list(c.coords) for v, c in sorted(self.coords.items())}


def _mono_str(model, mono):
    parts = []
    for name, a in zip(model.vars, mono):
        if a == 1:
            parts.append(name)
        elif a > 1:
            parts.append(f"{name}^{a}")
    return "*".join(parts) if parts else "1"


class AdicSeries:
    """Finitely supported coefficient map in normal form.

    Normal form: open-variable total degree <= degree_cap; no monomial mixes
    the two annulus variables; cover-variable degree < d.
    """

    __slots__ = ("model", "terms")

    def __init__(self, model, terms):
        self.model = model
        self.terms = _normalize(model, terms)

    # -- ring structure ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, AdicSeries):
            if other.model != self.model:
                raise DomainError("mixed algebra models")
            return other
        return self.model.constant(other)

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for mono, c in other.terms.items():
            out[mono] = out[mono] + c if mono in out else c
        return AdicSeries(self.model, out)

    __radd__ = __add__

    def __neg__(self):
        return AdicSeries(self.model, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                prod = c1 * c2
                out[m] = out[m] + prod if m in out else prod
        return AdicSeries(self.model, out)

    __rmul__ = __mul__

    def __pow__(self, n):
        return power(self, n, self.model.constant(1))

    def scale(self, c):
        c = self.model._coerce(c)
        return AdicSeries(self.model, {m: coeff * c for m, coeff in self.terms.items()})

    def coefficient(self, mono):
        return self.terms.get(tuple(mono), self.model.base.zero())

    def constant_term(self):
        return self.coefficient((0,) * len(self.model.vars))

    def inverse(self):
        """Inverse in the integral algebra; exists when the constant term is
        a unit and every other monomial is topologically nilpotent."""
        c = self.constant_term()
        if not c.is_unit():
            raise DomainError("series with non-unit constant term is not invertible")
        cinv = c.inverse()
        h = self.model.constant(1) - self.scale(cinv)
        const_mono = (0,) * len(self.model.vars)
        open_idx = [self.model.vars.index(v) for v in self.model.open_vars]
        for mono, coeff in h.terms.items():
            if mono == const_mono:
                continue
            if sum(mono[i] for i in open_idx) >= 1:
                continue
            v = coeff.pi_valuation()
            if v is not None and v < 1:
                raise DomainError(
                    "series is not invertible in the integral algebra "
                    f"(bounded monomial {_mono_str(self.model, mono)} has unit coefficient)")
        acc = self.model.constant(1)
        power = h
        guard = (self.model.degree_cap + 1) * self.model.base.precision + 1
        for _ in range(guard):
            if not power.terms:
                break
            acc = acc + power
            power = power * h
        return acc.scale(cinv)

    def coefficient_precision(self):
        if not self.terms:
            return self.model.base.precision
        return min(c.known_precision for c in self.terms.values())

    def __eq__(self, other):
        other = self._coerce(other)
        diff = self - other
        return all(c.pi_valuation() is None for c in diff.terms.values())

    def __repr__(self):
        if not self.terms:
            return "<0>"
        parts = []
        for mono in sorted(self.terms):
            c = self.terms[mono]
            parts.append(f"({c!r})*{_mono_str(self.model, mono)}")
        return "<" + " + ".join(parts) + ">"

    # -- evaluation --------------------------------------------------------

    def evaluate(self, point):
        """Value at a point: a ModelPoint of this model, or a dict {var:
        PadicElement over an extension}, which is checked as a ModelPoint.

        The returned element carries the guaranteed absolute precision
        min(coefficient precision, (D+1) * min open-var valuation).
        """
        model = self.model
        if not isinstance(point, ModelPoint):
            point = ModelPoint(model, point)
        elif point.model != model:
            point = ModelPoint(model, point.coords)
        ext, coords = point.context, point.coords
        acc = _eval_terms(model, self.terms, coords, ext)
        guar = self.coefficient_precision() * relative_ramification(model.base, ext)
        if model.open_vars:
            vmin = min(coords[v].pi_valuation_lower() for v in model.open_vars)
            guar = min(guar, (model.degree_cap + 1) * vmin)
        guar = min(guar, ext.precision)
        if guar < 1:
            raise PrecisionError("evaluation guarantee fell below one digit")
        return PadicElement(ext, acc.coords, min(acc.known_precision, guar))

    # -- constancy ---------------------------------------------------------

    def is_constant_mod(self, n):
        """Whether the series lies in O_L + pi^n * (integral series).

        Returns a ConstancyResult; the verdict is annotated with the
        precision at which it is rigorous.
        """
        prec = self.coefficient_precision()
        if n > prec:
            raise PrecisionError(f"need {n} digits but only {prec} known")
        const_mono = (0,) * len(self.model.vars)
        for mono in sorted(self.terms):
            if mono == const_mono:
                continue
            v = self.terms[mono].pi_valuation()
            if v is not None and v < n:
                return ConstancyResult(False, _mono_str(self.model, mono), None, prec)
        return ConstancyResult(True, None, self.constant_term().reduce_mod(n), prec)

    def pointwise_constancy_audit(self, domain, n, extensions, samples_per_ext,
                                  seed=0):
        """The report of ``constancy_audits`` for this one series."""
        return constancy_audits({None: self}, domain, n, extensions,
                                 samples_per_ext, seed)[None]

    # -- recentering -------------------------------------------------------

    def recenter_rescale(self, center, scales):
        """Substitute var -> center[var] + pi^scales[var] * var.

        ``center`` maps variables to integral base elements; ``scales`` maps
        variables to non-negative integers (pi-units).  Returns a series over
        a relation-free model in the same variable names, where a variable
        scaled by k >= 1 becomes open.  The annulus and cover presets are
        rewritten through their one-parameter closed forms.
        """
        model = self.model
        for v in model.vars:
            center.setdefault(v, model.base.zero())
            scales.setdefault(v, 0)
        for v, k in scales.items():
            if k < 0:
                raise DomainError("scale exponents must be >= 0")
        if model.relation is None:
            return self._recenter_free(center, scales)
        return model.relation.recenter(self, center, scales)

    def _recenter_free(self, center, scales):
        model = self.model
        new_open, new_bounded = [], []
        for v in model.vars:
            if scales[v] >= 1 or model.is_open(v):
                new_open.append(v)
            else:
                new_bounded.append(v)
        out_model = AlgebraModel(model.base, tuple(new_bounded), tuple(new_open),
                                 None, model.degree_cap)
        subs = {}
        for v in model.vars:
            s = out_model.var(v).scale(model.base.pi_power(scales[v]))
            subs[v] = s + out_model.constant(center[v])
        return _eval_terms(model, self.terms, subs, out_model)


def constancy_audits(values, domain, n, extensions, samples_per_ext, seed=0):
    """Per key of ``values``, a sampled check that the series' values over
    each extension E agree with its value at the domain's center mod
    pi_E^{gamma(n)}.  ``domain`` provides .center (a ModelPoint) and
    .sample(ext, count, seed); the points over the extension of index i
    are drawn once, with seed + i, and read by every series."""
    require_at_least_one("depth n", n)
    require_at_least_one("samples", samples_per_ext)
    model = domain.center.model
    reports = {key: {"n": n, "verdict": "pass", "witnesses": [],
                     "extensions": []} for key in values}
    for idx, ext in enumerate(extensions):
        e_rel = relative_ramification(model.base, ext)
        g = gamma_exponent(e_rel, n)
        center = ModelPoint(model, {v: embed(c, ext)
                                    for v, c in domain.center.coords.items()})
        refs = {key: s.evaluate(center).reduce_mod(g) for key, s in values.items()}
        pts = domain.sample(ext, samples_per_ext, seed=seed + idx)
        for key, s in values.items():
            report, ref = reports[key], refs[key]
            entry = {"e_rel": e_rel, "gamma": g, "samples": len(pts),
                     "failures": 0}
            for pt in pts:
                val = s.evaluate(pt).reduce_mod(g)
                if val.coords != ref.coords:
                    entry["failures"] += 1
                    report["verdict"] = "fail"
                    report["witnesses"].append({
                        "extension_index": idx,
                        "point": pt.to_json(),
                        "value": list(val.coords),
                        "center_value": list(ref.coords),
                    })
            report["extensions"].append(entry)
    return reports


@dataclass(frozen=True)
class ConstancyResult:
    constant: bool
    witness: str | None
    constant_value: object
    precision: int

    def __bool__(self):
        return self.constant


def _normalize(model, terms):
    work = {}
    for mono, c in terms.items():
        work[tuple(mono)] = work[tuple(mono)] + c if tuple(mono) in work else c
    if model.rule is not None:
        lhs, rhs = model.rule
        changed = True
        while changed:
            changed = False
            for mono in list(work):
                if all(a >= b for a, b in zip(mono, lhs)):
                    c = work.pop(mono)
                    for gm, gc in rhs.items():
                        new = tuple(a - b + q for a, b, q in zip(mono, lhs, gm))
                        add = c * gc
                        work[new] = work[new] + add if new in work else add
                    changed = True
    # degree cap on open variables, then drop exact zeros
    open_idx = [model.vars.index(v) for v in model.open_vars]
    out = {}
    for mono, c in work.items():
        if sum(mono[i] for i in open_idx) > model.degree_cap:
            continue
        if all(x == 0 for x in c.coords):
            continue
        out[mono] = c
    return out


def _point_context(model, point):
    ctxs = {v.context for v in point.values()}
    if len(ctxs) > 1:
        raise DomainError("point coordinates live in different contexts")
    return ctxs.pop() if ctxs else model.base


def _check_point(model, point, ext):
    for name in model.vars:
        if name not in point:
            raise DomainError(f"point is missing coordinate {name!r}")
        v = point[name].pi_valuation()
        if model.is_open(name):
            if v is not None and v < 1:
                raise DomainError(f"open variable {name!r} needs v > 0")
        else:
            if v is not None and v < 0:
                raise DomainError(f"bounded variable {name!r} needs v >= 0")
    if model.rule is not None:
        lhs, rhs = model.rule
        resid = (_eval_terms(model, {lhs: model.base.one()}, point, ext)
                 - _eval_terms(model, rhs, point, ext))
        if resid.pi_valuation() is not None:
            raise DomainError(
                f"point violates the {model.relation.kind} relation")


def _eval_terms(model, terms, point, target):
    """The coefficient map ``terms`` at ``point`` (values of the variables
    the terms involve): elements over the context ``target``, or series over
    the model ``target`` for a substitution.  Each power of a value is
    computed once, as one product with the power below."""
    lift = (target.constant if isinstance(target, AlgebraModel)
            else lambda c: embed(c, target))
    powers = {}
    acc = target.zero()
    for mono, c in terms.items():
        term = lift(c)
        for name, a in zip(model.vars, mono):
            if a:
                pw = powers.setdefault(name, [point[name]])  # x, x^2, ...
                while len(pw) < a:
                    pw.append(pw[-1] * pw[0])
                term = term * pw[a - 1]
        acc = acc + term
    return acc
