"""Exact arithmetic in finite extensions of Q_p at capped precision.

A context describes an extension E/Q_p as an unramified-then-Eisenstein
tower: E = Q_p(omega)(pi) with omega a root of a monic polynomial that is
irreducible mod p, and pi a root of an Eisenstein polynomial over the
unramified subring W = Z_p[omega].  Elements are coordinate vectors in the
basis {pi^i * omega^j}, stored modulo a power of p derived from the
context's absolute precision cap.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random
import weakref
from math import ceil, gcd, isqrt


class InconclusiveError(Exception):
    """No verdict: a precision, budget or precondition limit was reached."""


class PrecisionError(InconclusiveError):
    """An operation needed more pi-adic digits than are known."""


class DomainError(ValueError):
    """An argument violates a valuation or domain constraint."""


def require_at_least_one(what, value):
    """Refuse a depth (an exponent of pi), a sample count or a word-length
    cap below 1, where a check mod pi^0, over no point or over the empty
    word alone would pass vacuously.  ``what`` names the value in the error:
    "depth n", "depth m", "samples" or "word_cap"."""
    if value < 1:
        raise DomainError(f"{what} must be at least 1, got {value}")


def require_prime(p):
    """Refuse a p that is not a prime number."""
    if p < 2 or any(p % q == 0 for q in range(2, isqrt(p) + 1)):
        raise DomainError(f"p={p} is not prime")


def _poly_addmul(acc, off, a, b):
    """Add the integer polynomial a * b into acc from index off on."""
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                acc[off + i + j] += x * y


def _poly_rem(poly, monic):
    """Remainder of an integer polynomial modulo a monic one, over Z, as
    deg(monic) coefficients."""
    r = list(poly)
    d = len(monic) - 1
    for top in range(len(r) - 1, d - 1, -1):
        lead = r[top]
        if lead:
            for k in range(d):
                r[top - d + k] -= lead * monic[k]
    return r[:d]


# -- coordinate product kernels: PadicContext.__init__ picks one per shape ----


def _mul_coords_zp(ctx, a, b):
    """Coordinates of a product in Z_p (e = f = 1): one integer product."""
    return ((a[0] * b[0]) % ctx.coeff_modulus,)


def _mul_coords_general(ctx, a, b):
    """Coordinates of a product in O_E for any (e, f): convolve over Z in
    (pi, omega), fold pi^r for r >= e by the Eisenstein relation, reduce
    each pi-row by the unramified polynomial and mod the modulus once."""
    e, f, g = ctx.e, ctx.f, ctx.unram_poly
    w = 2 * f - 1  # omega-degrees of a product of two W-coordinates
    # 1. convolve over Z in (pi, omega): pi^r omega^j lands in slot r*w + j
    acc = [0] * ((2 * e - 1) * w)
    for i, x in enumerate(a):
        if x:
            i += i // f * (f - 1)
            for k, y in enumerate(b):
                if y:
                    acc[i + k + k // f * (f - 1)] += x * y
    # 2. reduce the pi-rows by g from the top down, folding each pi^r with
    #    r >= e into the rows below by pi^e = -sum_{i<e} b_i pi^i
    low = []
    for r in range(2 * e - 2, -1, -1):
        row = _poly_rem(acc[r * w:(r + 1) * w], g)
        if r < e:
            low[:0] = row
            continue
        row = [-c for c in row]
        for i in range(e):
            _poly_addmul(acc, (r - e + i) * w, row, ctx.eis_poly[i])
    # 3. take the coordinates mod M once
    M = ctx.coeff_modulus
    return tuple(c % M for c in low)


def _int_val(n, p, modulus):
    """p-adic valuation of an integer known mod a power of p; None if 0."""
    n %= modulus
    if n == 0:
        return None
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


class PadicContext:
    """The valuation ring O_E of a finite extension E/Q_p, at finite precision.

    Parameters
    ----------
    p : prime
    f : inertia degree; ``unram_poly`` must be monic of degree f and
        irreducible mod p (checked).
    e : ramification index; ``eis_poly`` must be monic Eisenstein of degree e
        over W, its coefficients given as length-f integer vectors in the
        omega-basis (checked).
    precision : absolute cap N on pi-adic digits.
    """

    def __init__(self, p, f=1, e=1, unram_poly=None, eis_poly=None, precision=20):
        require_prime(p)
        if f < 1 or e < 1 or precision < 1:
            raise DomainError("f, e and precision must be >= 1")
        self.p = p
        self.f = f
        self.e = e
        self.precision = precision
        self.coeff_digits = ceil(precision / e) + 1
        self.coeff_modulus = p ** self.coeff_digits
        if unram_poly is None:
            unram_poly = _default_unram_poly(p, f)
        if eis_poly is None:
            # x^e - p, the simplest Eisenstein choice
            eis_poly = [[-p] + [0] * (f - 1)] + [[0] * f] * (e - 1) + [[1] + [0] * (f - 1)]
        self.unram_poly = tuple(int(c) for c in unram_poly)
        self.eis_poly = tuple(tuple(int(c) for c in row) for row in eis_poly)
        self._check_unram()
        if f == 1:
            # W = Z_p reads no polynomial: any degree-1 choice is the same ring
            self.unram_poly = (0, 1)
        self._check_eisenstein()
        # a module function, not a bound method: the context holds no cycle
        self._mul_coords = _mul_coords_zp if e == f == 1 else _mul_coords_general
        self._p_over_pi_el = None
        self._residue_field = None
        # v_p of gcd(M, row) for a pi-row of coordinates; M itself: a zero row
        self._gcd_valuation = {p ** k: k for k in range(self.coeff_digits)}
        self._gcd_valuation[self.coeff_modulus] = None
        self._moduli = {}  # m -> per-coordinate moduli of O_E / pi^m
        # id(ctx_L) -> (weakref to ctx_L, (e_rel, ctx_L == self)) for every
        # validated pair O_L -> O_E; weak, so the cache keeps no context alive
        self._pairs = {}

    # -- validation -------------------------------------------------------

    def _check_unram(self):
        g = self.unram_poly
        if len(g) != self.f + 1 or g[-1] != 1:
            raise DomainError("unram_poly must be monic of degree f")
        if not _is_irreducible_mod_p(list(g), self.p):
            raise DomainError("unram_poly is reducible mod p")

    def _check_eisenstein(self):
        rows = self.eis_poly
        if len(rows) != self.e + 1 or any(len(r) != self.f for r in rows):
            raise DomainError("eis_poly must have e+1 coefficient vectors of length f")
        if list(rows[-1]) != [1] + [0] * (self.f - 1):
            raise DomainError("eis_poly must be monic")
        c0 = [c % self.p ** 2 for c in rows[0]]
        v0 = min((_int_val(c, self.p, self.p ** 2) for c in c0 if c), default=None)
        if v0 != 1:
            raise DomainError("eis_poly constant term must have valuation exactly 1")
        for row in rows[1:-1]:
            if any(c % self.p for c in row):
                raise DomainError("eis_poly middle coefficients must be divisible by p")

    # -- properties -------------------------------------------------------

    @property
    def degree(self):
        return self.e * self.f

    @property
    def residue_field_size(self):
        return self.p ** self.f

    @property
    def residue_field(self):
        """The residue field F_q = O_E/pi (built on first use)."""
        if self._residue_field is None:
            self._residue_field = ResidueField(self)
        return self._residue_field

    def __repr__(self):
        return f"PadicContext(p={self.p}, f={self.f}, e={self.e}, N={self.precision})"

    def __eq__(self, other):
        if self is other:
            return True
        return (isinstance(other, PadicContext)
                and (self.p, self.f, self.e, self.unram_poly, self.eis_poly)
                == (other.p, other.f, other.e, other.unram_poly, other.eis_poly))

    def __hash__(self):
        return hash((self.p, self.f, self.e, self.unram_poly, self.eis_poly))

    def _extension_of(self, ctx_L):
        """(e_rel, ctx_L == self) for a supported pair O_L -> O_E = self,
        validated once per source context; an unsupported pair is not cached
        and raises every time."""
        hit = self._pairs.get(id(ctx_L))
        if hit is not None and hit[0]() is ctx_L:
            return hit[1]
        if not is_extension(ctx_L, self):
            raise DomainError("unsupported extension pair")
        info = (self.e // ctx_L.e, ctx_L == self)
        self._pairs[id(ctx_L)] = (weakref.ref(ctx_L), info)
        return info

    def _residue_moduli(self, m):
        """The modulus p^ceil((m - i)/e) of each coordinate of a residue mod
        pi^m (cached per m)."""
        mods = self._moduli.get(m)
        if mods is None:
            mods = self._moduli[m] = tuple(
                self.p ** max(0, -((i - m) // self.e))
                for i in range(self.e) for _ in range(self.f))
        return mods

    # -- element constructors --------------------------------------------

    def zero(self):
        return PadicElement(self, (0,) * self.degree)

    def one(self):
        return self.from_int(1)

    def from_int(self, n):
        coords = [0] * self.degree
        coords[0] = n % self.coeff_modulus
        return PadicElement(self, tuple(coords))

    def pi(self):
        if self.e == 1:  # the root -b_0 of the Eisenstein polynomial x + b_0
            return self.element_from_poly([[-c for c in self.eis_poly[0]]])
        coords = [0] * self.degree
        coords[self.f] = 1
        return PadicElement(self, tuple(coords))

    def from_coords(self, coords, precision=None):
        M = self.coeff_modulus
        coords = tuple([c % M for c in coords])
        if len(coords) != self.degree:
            raise DomainError(f"expected {self.degree} coordinates")
        if precision is None or precision > self.precision:
            precision = self.precision
        elif precision < 0:
            raise PrecisionError("element has no known digits left")
        return _element(self, coords, precision)

    def element_from_poly(self, pi_rows):
        """Element from an e x f table of integers (pi-row, omega-column)."""
        coords = []
        for row in pi_rows:
            coords.extend(c % self.coeff_modulus for c in row)
        return PadicElement(self, tuple(coords))

    # -- sampling ---------------------------------------------------------

    def random_element(self, rng):
        M, draw = self.coeff_modulus, rng.randrange
        return _element(self, tuple([draw(M) for _ in range(self.degree)]), self.precision)

    def random_unit(self, rng):
        while True:
            x = self.random_element(rng)
            if x.pi_valuation() == 0:
                return x

    def random_with_pi_valuation(self, k, rng):
        """A uniform element of valuation exactly k (in pi-units), 0 <= k < N."""
        if not 0 <= k < self.precision:
            raise DomainError("valuation out of range at this precision")
        u = self.random_unit(rng)
        return u * self.pi_power(k)

    def teichmuller(self, a):
        """The root of unity of order dividing q-1 congruent to a mod pi."""
        x = self.from_int(a) if isinstance(a, int) else a
        if not x.is_unit():
            raise DomainError("Teichmuller lift needs a unit")
        q = self.residue_field_size
        for _ in range(self.coeff_digits + 2):
            nxt = x ** q
            if (nxt - x).pi_valuation() is None:
                return nxt
            x = nxt
        return x

    def pi_power(self, k):
        return self.pi() ** k

    def _p_over_pi(self):
        """The element p/pi (cached).  With b_0 = -p u, the Eisenstein
        relation gives p/pi = u^-1 (pi^(e-1) + sum_{i>=1} b_i pi^(i-1))."""
        if self._p_over_pi_el is None:
            zero_rows = [[0] * self.f] * (self.e - 1)
            u = self.element_from_poly([[-c // self.p for c in self.eis_poly[0]]] + zero_rows)
            F = self.residue_field
            y = F.lift(F.inv(F.of(u)))
            acc = 1
            while acc < self.coeff_digits:  # Newton to the full coefficient modulus
                y = y * (2 - u * y)
                acc *= 2
            self._p_over_pi_el = y * self.element_from_poly(self.eis_poly[1:])
        return self._p_over_pi_el

    def enumerate_residues(self, m):
        """All canonical residues of O_E / pi^m, 0 <= m <= precision (use
        only for small sizes)."""
        if not 0 <= m <= self.precision:
            raise PrecisionError(
                f"residues mod pi^{m} requested at precision {self.precision}")
        for combo in itertools.product(*map(range, self._residue_moduli(m))):
            yield _element(self, combo, m)


def _default_unram_poly(p, f):
    # a zero constant term makes x a factor, so the search starts at 1
    for tail in itertools.product(range(1, p), *[range(p)] * (f - 1)):
        poly = list(tail) + [1]
        if _is_irreducible_mod_p(poly, p):
            return poly
    raise DomainError(f"no irreducible polynomial of degree {f} mod {p} found")


def _is_irreducible_mod_p(poly, p):
    """Rabin's test for a monic polynomial g of degree d over F_p: g divides
    x^(p^d) - x, and g is coprime to x^(p^(d/r)) - x for every prime r | d."""
    g = [c % p for c in poly]
    d = len(g) - 1
    if d == 1:
        return True
    # y -> y^p is F_p-linear: sum a_i x^i -> sum a_i frob[i], frob[i] = x^(ip)
    frob, xj = [], [1] + [0] * (d - 1)
    for j in range(p * (d - 1) + 1):
        if j % p == 0:
            frob.append(xj)
        xj = [c % p for c in _poly_rem([0] + xj, g)]
    x = y = [0, 1] + [0] * (d - 2)
    for k in range(1, d + 1):
        y = [sum(a * row[i] for a, row in zip(y, frob)) % p for i in range(d)]
        r = d // k
        if k < d and d % k == 0 and all(r % q for q in range(2, r)):
            u, v = g, [(a - b) % p for a, b in zip(y, x)]  # gcd(g, y - x)
            while any(v):
                while not v[-1]:
                    v.pop()
                inv = pow(v[-1], -1, p)  # divide by v made monic
                u, v = v, [c % p for c in _poly_rem(u, [c * inv % p for c in v])]
            if any(u[1:]):
                return False
    return y == x


def power(x, n, one):
    """x ** n by square-and-multiply from ``one``; a negative n inverts x
    first.  The one power routine of PadicElement, PadicNumber and
    AdicSeries."""
    if n < 0:
        x, n = x.inverse(), -n
    out = one
    while n:
        if n & 1:
            out = out * x
        n >>= 1
        if n:
            x = x * x
    return out


_UNSCANNED = object()  # PadicElement valuation not computed yet
_new = object.__new__


def _element(ctx, coords, known_precision, valuation=_UNSCANNED):
    """A PadicElement from coordinates reduced mod the coefficient modulus
    and a precision 0 <= known_precision <= ctx.precision, unchecked."""
    x = _new(PadicElement)
    x.context = ctx
    x.coords = coords
    x.known_precision = known_precision
    x._valuation = valuation
    return x


class PadicElement:
    """An element of O_E at known absolute pi-adic precision.

    Immutable.  Coordinates live in the basis {pi^i omega^j} with
    0 <= i < e, 0 <= j < f, flattened row-major (i major).  ``valuation``
    is what ``pi_valuation()`` returns, when the caller already knows it;
    otherwise the first call scans the coordinates and caches the result.
    """

    __slots__ = ("context", "coords", "known_precision", "_valuation")

    def __init__(self, context, coords, known_precision=None,
                 valuation=_UNSCANNED):
        self.context = context
        self.coords = coords
        if known_precision is None:
            known_precision = context.precision
        self.known_precision = min(known_precision, context.precision)
        if self.known_precision < 0:
            raise PrecisionError("element has no known digits left")
        self._valuation = valuation

    # -- ring operations --------------------------------------------------

    def _check_same(self, other):
        if self.context is not other.context and self.context != other.context:
            raise DomainError("mixed contexts; embed explicitly first")

    def __add__(self, other):
        ctx = self.context
        if isinstance(other, int):
            other = ctx.from_int(other)
        if other.context is not ctx:
            self._check_same(other)
        M = ctx.coeff_modulus
        ka, kb = self.known_precision, other.known_precision
        return _element(ctx, tuple([(a + b) % M for a, b in zip(self.coords, other.coords)]),
                        ka if ka < kb else kb)

    __radd__ = __add__

    def __neg__(self):
        M = self.context.coeff_modulus
        return _element(self.context, tuple([(-a) % M for a in self.coords]),
                        self.known_precision, self._valuation)

    def __sub__(self, other):
        ctx = self.context
        if isinstance(other, int):
            other = ctx.from_int(other)
        if other.context is not ctx:
            self._check_same(other)
        M = ctx.coeff_modulus
        ka, kb = self.known_precision, other.known_precision
        return _element(ctx, tuple([(a - b) % M for a, b in zip(self.coords, other.coords)]),
                        ka if ka < kb else kb)

    def __rsub__(self, other):
        if not isinstance(other, int):
            return NotImplemented
        M = self.context.coeff_modulus
        coords = [(-a) % M for a in self.coords]
        coords[0] = (other - self.coords[0]) % M
        return _element(self.context, tuple(coords), self.known_precision)

    def __mul__(self, other):
        ctx = self.context
        if isinstance(other, int):
            other = ctx.from_int(other)
        if other.context is not ctx:
            self._check_same(other)
        coords = ctx._mul_coords(ctx, self.coords, other.coords)
        va, vb = self.pi_valuation(), other.pi_valuation()
        ka, kb = self.known_precision, other.known_precision
        prec = min(ctx.precision, ka + (kb if vb is None else vb),
                   kb + (ka if va is None else va))
        # O_E is a discrete valuation ring: valuations add below the precision
        v = None if va is None or vb is None or va + vb >= prec else va + vb
        return _element(ctx, coords, prec, v)

    __rmul__ = __mul__

    def __pow__(self, n):
        return power(self, n, self.context.one())

    # -- valuation and reduction ------------------------------------------

    def pi_valuation(self):
        """Valuation in pi-units, or None when indistinguishable from 0."""
        if self._valuation is not _UNSCANNED:
            return self._valuation
        ctx = self.context
        e, f, M, val = ctx.e, ctx.f, ctx.coeff_modulus, ctx._gcd_valuation
        c = self.coords
        best = None
        for i in range(e):  # gcd(M, row) = p^v, or M when the row is 0
            v = val[gcd(M, *c[i * f:(i + 1) * f])]
            if v is not None and (best is None or e * v + i < best):
                best = e * v + i
        if best is not None and best >= self.known_precision:
            best = None
        self._valuation = best
        return best

    def pi_valuation_lower(self):
        v = self.pi_valuation()
        return self.known_precision if v is None else v

    def is_unit(self):
        return self.pi_valuation() == 0

    def reduce_mod(self, m):
        """Canonical residue mod pi^m, as an element of known precision m."""
        ctx = self.context
        if m > self.known_precision:
            raise PrecisionError(
                f"residue mod pi^{m} requested but only {self.known_precision} digits known")
        if m < 0:
            raise DomainError("modulus must be >= 0")
        mods = ctx._residue_moduli(m)
        return _element(ctx, tuple([c % q for c, q in zip(self.coords, mods)]), m)

    # -- division ----------------------------------------------------------

    def inverse(self):
        """Inverse of a unit, via residue-field inversion and Newton lifting."""
        ctx = self.context
        if self.pi_valuation() != 0:
            raise DomainError("only units are invertible in O_E")
        F = ctx.residue_field
        y = F.lift(F.inv(F.of(self)))
        # Newton: y <- y(2 - xy), doubling pi-adic accuracy each step
        acc = 1
        while acc < ctx.precision:
            y = y * (ctx.from_int(2) - self * y)
            acc *= 2
        return PadicElement(ctx, y.coords, self.known_precision, 0)

    def shift_down(self, k=1):
        """Divide by pi^k; requires valuation >= k."""
        if k == 0:
            return self
        v = self.pi_valuation()
        if v is None and self.known_precision < k:
            raise PrecisionError(
                f"division by pi^{k} needs {k} digits but only {self.known_precision} are known")
        if v is not None and v < k:
            raise DomainError("element is not divisible by pi^k")
        x = self
        for _ in range(k):
            if v is not None:
                v -= 1
            x = x._shift_down_once(v)
        return x

    def _shift_down_once(self, valuation):
        # x = a_0 + pi * y with a_0 in W, so x / pi = (a_0 / p) * (p / pi) + y
        ctx = self.context
        f, p, M = ctx.f, ctx.p, ctx.coeff_modulus
        a0 = self.coords[:f]
        if any(c % p for c in a0):
            # possible only because higher rows cancel; fall back via unit division
            raise PrecisionError("cannot shift: leading coordinate not divisible by p")
        coords = self.coords[f:] + (0,) * f
        if any(a0):
            a0p = PadicElement(ctx, tuple(c // p for c in a0) + (0,) * (ctx.degree - f))
            term = a0p * ctx._p_over_pi()
            coords = tuple((c + t) % M for c, t in zip(coords, term.coords))
        return PadicElement(ctx, coords, self.known_precision - 1, valuation)

    # -- misc --------------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.context.from_int(other)
        if not isinstance(other, PadicElement) or (
                self.context is not other.context and self.context != other.context):
            return NotImplemented
        m = min(self.known_precision, other.known_precision)
        v = (self - other).pi_valuation()
        return v is None or v >= m

    def __hash__(self):
        raise TypeError("PadicElement is not hashable (precision-sensitive equality)")

    def __repr__(self):
        ctx = self.context
        terms = []
        for i in range(ctx.e):
            for j in range(ctx.f):
                c = self.coords[i * ctx.f + j]
                if c:
                    mon = "".join(s for s in (
                        f"pi^{i}" if i else "", f"w^{j}" if j else "") if s)
                    terms.append(f"{c}{'*' + mon if mon else ''}")
        body = " + ".join(terms) if terms else "0"
        return f"<{body} + O(pi^{self.known_precision})>"


class ResidueField:
    """The residue field F_q = O_E/pi of a context, with ints as elements.

    The int 0 <= a < q names the residue whose omega-coordinates c_0, ...,
    c_{f-1} (c_j the coefficient of omega^j) are the base-p digits of a,
    c_0 the most significant: the order of ``ctx.enumerate_residues(1)``.
    Products are taken over Z in omega and reduced by the unramified
    polynomial; for f = 1 each operation is one integer operation mod p, and
    extension fields with q <= 64 keep their sums and products in q^2-entry
    tables.

    Linear algebra keeps an echelon basis as a dict {pivot column: row},
    each row 1 at its pivot and 0 at the pivots of the rows inserted before
    it; ``insert`` is the one elimination step, and ``rank`` and
    ``inverse`` are built on it (``chainring.spin`` spins with it).
    """

    def __init__(self, ctx):
        self._context = weakref.ref(ctx)  # the context owns the field
        self.p, self.f, self.q = ctx.p, ctx.f, ctx.residue_field_size
        self.one = self.p ** (self.f - 1)  # c_0 = 1, the rest 0
        self._unram_poly = ctx.unram_poly
        self._add_table = self._mul_table = None
        if self.f > 1 and self.q <= 64:  # filled by the polynomial arithmetic
            pairs = [divmod(i, self.q) for i in range(self.q ** 2)]
            self._add_table = [self.add(a, b) for a, b in pairs]
            self._mul_table = [self.mul(a, b) for a, b in pairs]

    def _coeffs(self, a):
        c = [0] * self.f
        for j in range(self.f - 1, -1, -1):
            a, c[j] = divmod(a, self.p)
        return c

    def _index(self, coeffs):
        a = 0
        for c in coeffs:
            a = a * self.p + c % self.p
        return a

    def of(self, x):
        """The residue of a PadicElement."""
        if x.known_precision < 1:
            raise PrecisionError("residue mod pi requested but no digit is known")
        return self._index(x.coords[:self.f])

    def lift(self, a):
        """The element of O_E with the digits of a, at full precision."""
        ctx = self._context()
        return ctx.from_coords(self._coeffs(a) + [0] * (ctx.degree - self.f))

    # -- arithmetic -------------------------------------------------------

    def add(self, a, b):
        if self.f == 1:
            return (a + b) % self.p
        if self._add_table:
            return self._add_table[a * self.q + b]
        return self._index(map(operator.add, self._coeffs(a), self._coeffs(b)))

    def sub(self, a, b):
        return self.add(a, self.mul((self.p - 1) * self.one, b))

    def mul(self, a, b):
        if self.f == 1:
            return a * b % self.p
        if self._mul_table:
            return self._mul_table[a * self.q + b]
        acc = [0] * (2 * self.f - 1)
        _poly_addmul(acc, 0, self._coeffs(a), self._coeffs(b))
        return self._index(_poly_rem(acc, self._unram_poly))

    def dot(self, u, v):
        """sum_i u_i v_i."""
        if self.f == 1:
            return sum(map(operator.mul, u, v)) % self.p
        return functools.reduce(self.add, map(self.mul, u, v), 0)

    def inv(self, a):
        if a == 0:
            raise DomainError("zero is not invertible in the residue field")
        out, n = self.one, self.q - 2  # a^(q-2), by squaring
        while n:
            if n & 1:
                out = self.mul(out, a)
            a = self.mul(a, a)
            n >>= 1
        return out

    def sqrt(self, a):
        """A square root of a, or None.  Of the roots y and -y it is the one
        with the smaller sum_j c_j p^j (digits read from omega^(f-1) down)."""
        y = next((y for y in range(self.q) if self.mul(y, y) == a), None)
        if y is None:
            return None
        return min(y, self.sub(0, y),
                   key=lambda z: self._index(reversed(self._coeffs(z))))

    # -- linear algebra ---------------------------------------------------

    def axpy(self, c, u, v):
        """The vector u + c v."""
        if self.f == 1:
            p = self.p
            return [(x + c * y) % p for x, y in zip(u, v)]
        return [self.add(x, self.mul(c, y)) for x, y in zip(u, v)]

    def identity(self, d):
        return [[self.one if i == j else 0 for j in range(d)] for i in range(d)]

    def mat_mul(self, A, B):
        cols = list(zip(*B))
        return [[self.dot(row, col) for col in cols] for row in A]

    def reduce(self, basis, vec):
        """vec minus the combination of basis rows that clears every pivot."""
        for piv, row in basis.items():
            if vec[piv]:
                vec = self.axpy(self.sub(0, vec[piv]), vec, row)
        return vec

    def insert(self, basis, vec):
        """Add vec to an echelon basis; True when the span grew."""
        vec = self.reduce(basis, vec)
        for j, x in enumerate(vec):
            if x:
                c = self.inv(x)
                basis[j] = [self.mul(c, y) for y in vec]
                return True
        return False

    def rank(self, rows):
        basis = {}
        return sum(self.insert(basis, row) for row in rows)

    def inverse(self, M):
        """Inverse of an invertible matrix.  Each row (r | s) inserted from
        (M | -I) has r = -s M, so reducing (e_j | 0) to (0 | s) gives
        s = e_j M^-1."""
        d = len(M)
        eye = self.identity(d)
        basis = {}
        for row, e in zip(M, eye):
            self.insert(basis, list(row) + [self.sub(0, x) for x in e])
        return [self.reduce(basis, e + [0] * d)[d:] for e in eye]


# -- gamma calculus --------------------------------------------------------


def gamma_exponent(e_rel, n):
    """Smallest m with O_L/pi_L^n injecting into O_E/pi_E^m: (n-1)e + 1."""
    require_at_least_one("depth n", n)
    if e_rel < 1:
        raise DomainError("gamma_exponent needs e_rel >= 1")
    return (n - 1) * e_rel + 1


def is_extension(ctx_L, ctx_E):
    """Whether we support the embedding O_L -> O_E (same unramified part)."""
    if ctx_L.p != ctx_E.p:
        return False
    if ctx_L == ctx_E:
        return True
    if ctx_L.e != 1:
        return False
    if ctx_L.f == 1:
        return True
    return ctx_L.f == ctx_E.f and ctx_L.unram_poly == ctx_E.unram_poly


def relative_ramification(ctx_L, ctx_E):
    return ctx_E._extension_of(ctx_L)[0]


def embed(x, ctx_E):
    """Image of x in a marked extension context."""
    ctx_L = x.context
    if ctx_L is ctx_E:
        return x
    e_rel, same = ctx_E._extension_of(ctx_L)
    if same:
        return x
    # ctx_L is unramified (e = 1) over the same W, or Z_p: its coordinates
    # are the omega-row of pi^0
    M = ctx_E.coeff_modulus
    coords = tuple([c % M for c in x.coords]) + (0,) * (ctx_E.degree - ctx_L.f)
    return _element(ctx_E, coords, min(ctx_E.precision, x.known_precision * e_rel))


def gamma_injectivity_exhaustive(ctx_L, ctx_E, n):
    """Check injectivity of O_L/pi_L^n -> O_E/pi_E^gamma by enumeration.

    Returns (ok, witness) where witness is a colliding pair on failure.
    The loop runs on coordinate tuples: the image of a residue mod pi_E^gamma
    is its coordinates, each reduced by the modulus of its place in O_E
    (L's coordinates are the omega-row of pi^0 in E, and the image's other
    coordinates are 0).  Elements are built only for a witness.
    """
    e_rel, same = ctx_E._extension_of(ctx_L)
    g = gamma_exponent(e_rel, n)
    if n > ctx_L.precision:
        raise PrecisionError(
            f"residues mod pi^{n} requested at precision {ctx_L.precision}")
    # an embedded residue knows min(E.precision, n e_rel) >= min(E.precision, g)
    # digits; between equal contexts embed is the identity
    if not same and g > ctx_E.precision:
        raise PrecisionError(
            f"residue mod pi^{g} requested but only {ctx_E.precision} digits known")
    # equal contexts have equal moduli, so E's serve both cases
    mods = ctx_E._residue_moduli(g)
    seen = {}
    for combo in itertools.product(*map(range, ctx_L._residue_moduli(n))):
        key = tuple(map(operator.mod, combo, mods))
        if key in seen:
            return False, (_element(ctx_L, combo, n), _element(ctx_L, seen[key], n))
        seen[key] = combo
    return True, None


def _transfer_sides(diff, n, e_rel, m):
    """The two sides of the transfer for d = a - b, an element of O_L seen
    in O_E: (lhs == rhs, lhs, rhs) with lhs "d in pi_E^m O_E" and rhs
    "d in pi_L^n O_L".  Raises PrecisionError when d is 0 to fewer than m
    known digits, so neither side can be read."""
    v = diff.pi_valuation()
    if v is None and diff.known_precision < m:
        raise PrecisionError(
            f"a - b is 0 to the {diff.known_precision} known digits; "
            f"deciding it mod pi_E^{m} needs {m}")
    lhs = v is None or v >= m
    # d comes from O_L, so v_piL = v_piE / e_rel
    rhs = v is None or v >= n * e_rel
    return lhs == rhs, lhs, rhs


def congruence_transfer_holds(alpha, beta, ctx_L, n):
    """Two-way check: a-b in pi_E^m O_E  <=>  a-b in pi_L^n O_L, m = gamma.

    alpha, beta live in the extension context; alpha-beta must come from O_L.
    Returns (equivalence_ok, lhs, rhs).  Raises PrecisionError when alpha-beta
    is 0 to fewer than m known digits, so neither side can be read.
    """
    e_rel = relative_ramification(ctx_L, alpha.context)
    return _transfer_sides(alpha - beta, n, e_rel, gamma_exponent(e_rel, n))


def congruence_equiv_audit(ctx_L, ctx_E, n, samples=1000, seed=0):
    """Sampled audit of the two-way congruence transfer at exponent gamma.

    Each sample draws beta in O_E, then delta in O_L, one randrange per
    coordinate as ``random_element`` draws them.  alpha = beta + delta gives
    alpha - beta = delta in O_E whatever beta is, so beta's draws only keep
    the sequence, and the one element built per sample is the embedded delta
    (L's coordinates are the omega-row of pi^0 in E), for its valuation.
    """
    require_at_least_one("depth n", n)
    require_at_least_one("samples", samples)
    e_rel = relative_ramification(ctx_L, ctx_E)
    m = gamma_exponent(e_rel, n)
    if n * e_rel + 1 > ctx_E.precision:
        raise PrecisionError("context precision too small for this depth")
    M, M_L = ctx_E.coeff_modulus, ctx_L.coeff_modulus
    deg_E, deg_L = ctx_E.degree, ctx_L.degree
    pad = (0,) * (deg_E - deg_L)
    # beta knows all of E's digits, the embedded delta what embed gives it
    known = min(ctx_E.precision, embed(ctx_L.zero(), ctx_E).known_precision)
    draw = random.Random(seed).randrange
    failures = []
    for _ in range(samples):
        for _ in range(deg_E):
            draw(M)
        delta = [draw(M_L) for _ in range(deg_L)]
        diff = _element(ctx_E, tuple([c % M for c in delta]) + pad, known)
        ok, lhs, rhs = _transfer_sides(diff, n, e_rel, m)
        if not ok:
            failures.append({"delta_coords": delta, "lhs": lhs, "rhs": rhs})
    return {
        "p": ctx_L.p, "e_rel": e_rel, "n": n, "gamma": m,
        "samples": samples, "failures": failures,
        "verdict": "pass" if not failures else "fail",
    }


# -- field elements (quotients by powers of pi) ----------------------------


class PadicNumber:
    """An element of E presented as (integral numerator) / pi^denom_pow."""

    __slots__ = ("num", "denom_pow")

    def __init__(self, num, denom_pow=0):
        self.num = num
        self.denom_pow = denom_pow

    @property
    def context(self):
        return self.num.context

    def _align(self, other):
        if isinstance(other, PadicElement):
            other = PadicNumber(other)
        if isinstance(other, int):
            other = PadicNumber(self.context.from_int(other))
        k = max(self.denom_pow, other.denom_pow)
        a = self.num * self.context.pi_power(k - self.denom_pow)
        b = other.num * other.context.pi_power(k - other.denom_pow)
        return a, b, k

    def __add__(self, other):
        a, b, k = self._align(other)
        return PadicNumber(a + b, k)

    def __sub__(self, other):
        a, b, k = self._align(other)
        return PadicNumber(a - b, k)

    def __neg__(self):
        return PadicNumber(-self.num, self.denom_pow)

    def __mul__(self, other):
        if isinstance(other, PadicElement):
            other = PadicNumber(other)
        if isinstance(other, int):
            other = PadicNumber(self.context.from_int(other))
        return PadicNumber(self.num * other.num, self.denom_pow + other.denom_pow)

    def __pow__(self, n):
        return power(self, n, PadicNumber(self.context.one()))

    def inverse(self):
        v = self.num.pi_valuation()
        if v is None:
            # 0 to its known digits: more digits may show a unit
            raise PrecisionError("cannot invert an element indistinguishable from 0")
        unit = self.num.shift_down(v)
        # 1 / (u pi^v / pi^d) = u^{-1} pi^{d-v}
        d = self.denom_pow
        if d >= v:
            return PadicNumber(unit.inverse() * self.context.pi_power(d - v), 0)
        return PadicNumber(unit.inverse(), v - d)

    def pi_valuation(self):
        v = self.num.pi_valuation()
        if v is None:
            return None
        return v - self.denom_pow

    def is_integral(self):
        v = self.pi_valuation()
        return v is None or v >= 0

    def to_integral(self):
        """Return the underlying O_E element (requires integrality)."""
        if not self.is_integral():
            raise DomainError("element is not integral")
        if self.denom_pow == 0:
            return self.num
        return self.num.shift_down(self.denom_pow)

    def normalized(self):
        """Clear the denominator as far as the numerator's valuation allows."""
        v = self.num.pi_valuation()
        if v is None or self.denom_pow == 0:
            return self
        k = min(v, self.denom_pow)
        return PadicNumber(self.num.shift_down(k), self.denom_pow - k)

    def __eq__(self, other):
        d = self - other
        v = d.num.pi_valuation()
        return v is None

    def __repr__(self):
        return f"({self.num!r})/pi^{self.denom_pow}"
