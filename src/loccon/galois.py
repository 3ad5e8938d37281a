"""Explicit rank-2 filtered (phi, N)-modules, weak admissibility,
triangulation characters, and the congruence-radius calculators."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from loccon.chainring import mat_mul
from loccon.padic import (DomainError, PadicContext, PadicNumber, embed,
                          require_at_least_one, require_prime)


# -- elementary bounds ------------------------------------------------------


def alpha(km1, p):
    """alpha(k-1) = sum_{n>=1} floor((k-1) / (p^{n-1}(p-1)))."""
    require_prime(p)
    if km1 < 0:
        raise DomainError("alpha takes a non-negative argument")
    total = 0
    denom = p - 1
    while denom <= km1:
        total += km1 // denom
        denom *= p
    return total


def factorial_valuation(n, p):
    """v_p(n!) by Legendre's formula."""
    if n < 0:
        raise DomainError("factorial of a negative number")
    total = 0
    q = p
    while q <= n:
        total += n // q
        q *= p
    return total


def crystalline_congruence_disc(k, p, v_ap0, n):
    """Radii around a_p0 with v_p(a_p0) = v_ap0 > 0: congruence mod p^n of
    the attached modules holds pointwise on the wide open disc
    v_p(a_p - a_p0) > 2 v + alpha(k-1) + n - 1, and constancy holds on the
    affinoid of valuation radius 2 v + alpha(k-1) + n."""
    require_at_least_one("depth n", n)
    require_prime(p)
    v = Fraction(v_ap0)
    if v <= 0:
        raise DomainError("need v_p(a_p0) > 0")
    if k < 2:
        raise DomainError("need k >= 2")
    a = alpha(k - 1, p)
    return {
        "pointwise_bound": 2 * v + a + n - 1,
        "pointwise_strict": True,
        "constancy_radius": 2 * v + a + n,
        "constancy_strict": False,
    }


def semistable_congruence_bound(k, p, n):
    """Threshold 2 - k/2 - v_p((k-2)!) + 1 - n on v_p(L) below which the
    semistable modules of weight k are congruent mod p^n in the L-aspect."""
    require_at_least_one("depth n", n)
    require_prime(p)
    if k < 4:
        raise DomainError("the semistable bound needs k >= 4")
    if p == 2:
        raise DomainError("p = 2 is excluded")
    return Fraction(2) - Fraction(k, 2) - factorial_valuation(k - 2, p) + 1 - n


# -- characters -------------------------------------------------------------


@dataclass(frozen=True)
class Character:
    """Locally algebraic character of Q_p^* with trivial finite-order part:
    x -> (unit part of x)^weight * value_at_p^{v_p(x)}."""

    weight: int
    value_at_p: PadicNumber

    @property
    def context(self):
        return self.value_at_p.context

    def evaluate(self, y):
        ctx = self.context
        if isinstance(y, int):
            if y == 0:
                raise DomainError("character evaluated at 0")
            sign = -1 if y < 0 else 1
            y, yv = abs(y), 0
            while y % ctx.p == 0:
                y //= ctx.p
                yv += 1
            unit = PadicNumber(ctx.from_int(sign * y))
        else:
            if not isinstance(y, PadicNumber):
                y = PadicNumber(y)
            vpi = y.pi_valuation()
            if vpi is None:
                raise DomainError("character evaluated at 0")
            if vpi % ctx.e:
                raise DomainError("characters are evaluated on Q_p-rational values")
            yv = vpi // ctx.e
            unit = y * PadicNumber(ctx.from_int(ctx.p)) ** -yv
        return unit ** self.weight * self.value_at_p ** yv

    def is_regular(self):
        """Non-regular exactly when (weight, value) is (i, p^i) or
        (1-i, p^{-i}) for some i >= 0: the weight fixes i, to i = weight
        when weight >= 0 and to i = 1 - weight when weight <= 1."""
        ctx = self.context
        p_num = PadicNumber(ctx.from_int(ctx.p))
        w = self.weight
        if w >= 0 and self.value_at_p == p_num ** w:
            return False
        return not (w <= 1 and self.value_at_p == p_num ** (w - 1))


# -- filtered (phi, N)-modules ----------------------------------------------


class PhiModule2:
    """Rank-2 filtered (phi, N)-module with Hodge jumps (0, k-1) and the
    filtration line at the positive jump."""

    def __init__(self, context, phi, N, k, fil_line, label):
        self.context = context
        self.phi = phi
        self.N = N
        self.k = k
        self.fil_line = fil_line  # projective pair of context elements
        self.label = label
        self._assert_invariants()

    def _assert_invariants(self):
        ctx = self.context
        N2 = mat_mul(self.N, self.N)
        if any(x.pi_valuation() is not None for row in N2 for x in row):
            raise DomainError("N^2 != 0")
        Np = mat_mul(self.N, self.phi)
        pN = [[ctx.from_int(ctx.p) * x for x in row] for row in mat_mul(self.phi, self.N)]
        for r1, r2 in zip(Np, pN):
            for x, y in zip(r1, r2):
                if (x - y).pi_valuation() is not None:
                    raise DomainError("N phi != p phi N")
        if self.det_phi_valuation() != self.k - 1:
            raise DomainError("v_p(det phi) != k - 1")

    def det_phi_valuation(self):
        det = (self.phi[0][0] * self.phi[1][1]
               - self.phi[0][1] * self.phi[1][0])
        v = det.pi_valuation()
        if v is None:
            raise DomainError("phi is not invertible at working precision")
        return Fraction(v, self.context.e)


def crystalline_module(k, a_p):
    """phi = [[0, -1], [p^{k-1}, a_p]], N = 0, filtration line e_1."""
    ctx = a_p.context
    v = a_p.pi_valuation()
    if v is not None and v < 1:
        raise DomainError("need v_p(a_p) > 0")
    if k < 2:
        raise DomainError("need k >= 2")
    p_pow = ctx.from_int(ctx.p) ** (k - 1)
    phi = [[ctx.zero(), ctx.from_int(-1)], [p_pow, a_p]]
    N = [[ctx.zero(), ctx.zero()], [ctx.zero(), ctx.zero()]]
    return PhiModule2(ctx, phi, N, k, (ctx.one(), ctx.zero()),
                      ("crystalline", k))


def semistable_context(p, precision=20):
    """Q_p(varpi) with varpi^2 = p, the coefficient field for the
    semistable presets."""
    if p == 2:
        raise DomainError("p = 2 is excluded for the semistable presets")
    return PadicContext(p, e=2, precision=precision)


def semistable_module(k, L_inv, ctx=None):
    """N = [[0,0],[1,0]] (0 at L = infinity), filtration line e_1 + L e_2
    (e_1 + e_2 at infinity), phi = diag(varpi^k, varpi^{k-2}).

    The diagonal (varpi^k, varpi^{k-2}) with eigenvalue ratio p is forced by
    N phi = p phi N; see the project notes for the convention.
    """
    if k < 2:
        raise DomainError("need k >= 2")
    if ctx is None:
        if L_inv == "inf":
            raise DomainError("pass an explicit context for L = infinity")
        ctx = L_inv.context
    if ctx.p == 2:
        raise DomainError("p = 2 is excluded")
    if ctx.e % 2:
        raise DomainError("the context must contain varpi with varpi^2 = p")
    w = ctx.pi_power(ctx.e // 2)  # varpi
    if ((w * w) - ctx.from_int(ctx.p)).pi_valuation() is not None:
        raise DomainError("the context's uniformizer does not square to p")
    phi = [[w ** k, ctx.zero()], [ctx.zero(), w ** (k - 2)]]
    if L_inv == "inf":
        N = [[ctx.zero()] * 2, [ctx.zero()] * 2]
        fil = (ctx.one(), ctx.one())
    else:
        N = [[ctx.zero(), ctx.zero()], [ctx.one(), ctx.zero()]]
        fil = (ctx.one(), embed(L_inv, ctx))
    return PhiModule2(ctx, phi, N, k, fil, ("semistable", k))


# -- weak admissibility -----------------------------------------------------


def _lines_equal(l1, l2):
    d = l1[0] * l2[1] - l1[1] * l2[0]
    return d.pi_valuation() is None


def stable_lines(M):
    """(phi, N)-stable lines with their phi-eigenvalue valuations (v_p).

    Returns (lines, note) where each line is {"line": (a, b),
    "slope": Fraction or None}.  For the preset shapes the enumeration is
    exact; eigenvalues needed over a quadratic extension are constructed
    automatically when the base is Q_p.
    """
    ctx = M.context
    N_zero = all(x.pi_valuation() is None for row in M.N for x in row)
    out = []
    if _is_diagonal(M.phi):
        lines = [((ctx.one(), ctx.zero()), M.phi[0][0]),
                 ((ctx.zero(), ctx.one()), M.phi[1][1])]
        scalar = (M.phi[0][1].pi_valuation() is None
                  and M.phi[1][0].pi_valuation() is None
                  and (M.phi[0][0] - M.phi[1][1]).pi_valuation() is None)
        if scalar and N_zero:
            # every line is stable; include the filtration line explicitly
            lines.append((M.fil_line, M.phi[0][0]))
        for line, ev in lines:
            if not N_zero and not _n_stable(M.N, line):
                continue
            v = ev.pi_valuation()
            slope = None if v is None else Fraction(v, ctx.e)
            out.append({"line": line, "slope": slope})
        return out, "diagonal shape"
    # companion shape: eigenlines (1, -lambda) for the char-poly roots
    b = M.phi[1][1] + M.phi[0][0]  # trace
    c = (M.phi[0][0] * M.phi[1][1] - M.phi[0][1] * M.phi[1][0])
    roots, root_ctx = solve_quadratic_monic(ctx, b, c)
    for lam in roots:
        line = (root_ctx.one(), -lam)
        if not N_zero:
            continue
        v = lam.pi_valuation()
        slope = None if v is None else Fraction(v, root_ctx.e)
        out.append({"line": line, "slope": slope})
    note = "eigenlines over the base field" if root_ctx == ctx \
        else "eigenlines over an auto-built quadratic extension"
    return out, note


def _is_diagonal(phi):
    return (phi[0][1].pi_valuation() is None
            and phi[1][0].pi_valuation() is None)


def _n_stable(N, line):
    a, b = line
    img = (N[0][0] * a + N[0][1] * b, N[1][0] * a + N[1][1] * b)
    if img[0].pi_valuation() is None and img[1].pi_valuation() is None:
        return True
    return _lines_equal(line, img)


def weak_admissibility(M):
    """Fontaine's condition for the rank-2 presets: t_N = t_H globally and
    slope >= induced Hodge number on every (phi, N)-stable line."""
    cert = {"t_N": str(M.det_phi_valuation()), "t_H": M.k - 1, "lines": []}
    if M.det_phi_valuation() != M.k - 1:
        return False, cert
    lines, note = stable_lines(M)
    cert["note"] = note
    ok = True
    for entry in lines:
        line = entry["line"]
        fil = (embed(M.fil_line[0], line[0].context),
               embed(M.fil_line[1], line[0].context))
        is_fil = _lines_equal(line, fil)
        needed = M.k - 1 if is_fil else 0
        slope = entry["slope"]
        passed = slope is not None and slope >= needed
        cert["lines"].append({
            "slope": None if slope is None else str(slope),
            "hodge": needed,
            "ok": passed,
        })
        ok = ok and passed
    return ok, cert


# -- quadratic roots --------------------------------------------------------


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


def solve_quadratic_monic(ctx, b, c):
    """Roots of T^2 - bT + c, in ctx or an auto-built quadratic extension
    (base must be Q_p with p odd for the extension route)."""
    if ctx.p == 2:
        raise DomainError("quadratic solving implemented for odd p")
    half = ctx.from_int(2).inverse()
    disc = b * b - ctx.from_int(4) * c
    s = sqrt_in_context(disc, ctx)
    if s is not None:
        return [(b + s) * half, (b - s) * half], ctx
    if ctx.e != 1 or ctx.f != 1:
        raise DomainError("needs-extension: roots live outside the base field "
                          "and automatic construction requires base Q_p")
    v = disc.pi_valuation()
    if v is None:
        return [b * half, b * half], ctx
    if v % 2 == 0:
        ext = PadicContext(ctx.p, f=2, precision=ctx.precision)
    else:
        # pi^2 = p * u gives sqrt(disc) = pi * p^{(v-1)/2} * sqrt(u / u)
        u = disc.shift_down(v)
        ext = PadicContext(ctx.p, e=2,
                           eis_poly=[[-ctx.p * u.coords[0]], [0], [1]],
                           precision=2 * ctx.precision)
    disc_e = embed(disc, ext)
    s = sqrt_in_context(disc_e, ext)
    if s is None:
        raise DomainError("needs-extension: square root not found in the "
                          "constructed quadratic extension")
    half_e = ext.from_int(2).inverse()
    b_e = embed(b, ext)
    return [(b_e + s) * half_e, (b_e - s) * half_e], ext


# -- triangulation ----------------------------------------------------------


def triangulation_parameters(k, a_p):
    """(delta_1, delta_2) for the crystalline module: delta_1 = (0, phi_1)
    with phi_1 the smaller-valuation root of T^2 - a_p T + p^{k-1}, and
    delta_2 = (-(k-1), phi_2 p^{-(k-1)})."""
    ctx = a_p.context
    M = crystalline_module(k, a_p)
    roots, root_ctx = solve_quadratic_monic(ctx, a_p, ctx.from_int(ctx.p) ** (k - 1))
    vals = []
    for r in roots:
        v = r.pi_valuation()
        if v is None:
            raise DomainError("root-finding precision failure")
        vals.append(Fraction(v, root_ctx.e))
    order = sorted(range(2), key=lambda i: vals[i])
    phi1, phi2 = roots[order[0]], roots[order[1]]
    # sanity: phi1 * phi2 = p^{k-1}
    prod = phi1 * phi2 - root_ctx.from_int(root_ctx.p) ** (k - 1)
    if prod.pi_valuation() is not None:
        raise DomainError("root product check failed")
    p_inv = PadicNumber(root_ctx.from_int(root_ctx.p)).inverse()
    delta1 = Character(0, PadicNumber(phi1))
    delta2 = Character(-(k - 1), PadicNumber(phi2) * p_inv ** (k - 1))
    return delta1, delta2, {"slopes": [str(vals[order[0]]), str(vals[order[1]])]}


def semistable_parameters(k, ctx):
    """(delta_1, delta_2) for the semistable presets, from the character
    alpha: x -> varpi^{v_p(x)} |x|^{-1}: delta_1(p) = varpi and
    delta_2(p) = varpi p^{1-k}, with weights 0 and -k."""
    w = ctx.pi_power(ctx.e // 2)
    if ((w * w) - ctx.from_int(ctx.p)).pi_valuation() is not None:
        raise DomainError("context has no varpi with varpi^2 = p")
    varpi = PadicNumber(w)
    p_inv = PadicNumber(ctx.from_int(ctx.p)).inverse()
    delta1 = Character(0, varpi)
    delta2 = Character(-k, varpi * p_inv ** (k - 1))
    return delta1, delta2
