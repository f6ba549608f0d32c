"""Capped-precision p-adic arithmetic for odd primes.

A nonzero element of Q_p is stored as p^val * (unit + O(p^rel)) with the unit
coprime to p, so ``rel`` counts known significant digits and ``val + rel`` is
the absolute precision.  Cancellation that eats every known digit leaves a
value with ``rel == 0``: a valuation *floor* and no known digits, which is the
"indistinguishable from zero at this precision" state.  An exact zero has
valuation +infinity.  All operations propagate precision pessimistically; a
division whose divisor has no known digits raises :class:`PrecisionLossError`
so the caller can retry with a doubled cap.

One precision rule: an exact int or Fraction takes the precision of the
p-adic value it meets (its absolute precision in a sum, its relative precision
in a product), so no constant caps a result at a fixed default.  Adding a
nonzero constant to an exact zero raises TypeError: read it at a precision
with :func:`lift` first.

Quadratic extensions Q_p(sqrt(d)) for d in {c, p, p*c} (c the smallest
positive non-residue) are pairs a + b*sqrt(d) of base elements.  Valuations of
extension elements are integers in the uniformizer, so the ramified cases
count half-integers doubled.

Power series carry an explicit truncation order and a tail valuation bound,
which is what lets Strassmann counts and series evaluations return certified
precisions instead of hopeful ones.  Their products, inverses and square
roots (series_mul, series_inv, series_sqrt) run on int lanes: each operand is
read once into valuations, absolute precisions and units scaled to a common
shift, and every coefficient is built once from the exact sum of unit
products and the least absolute precision over its pairs, over Q_p and over
Q_p(sqrt(d)) alike, digit for digit what the operator fold gives.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add, and_, mul

DEFAULT_PRECISION = 20

#: truncation order used for disc series, as a multiple of the relative cap
TRUNCATION_FACTOR = 4

_INF = math.inf


class PrecisionLossError(ArithmeticError):
    """Raised when a result has no certified digits (e.g. dividing by a value
    indistinguishable from zero)."""


class NotHenselLiftableError(ArithmeticError):
    """Raised when the hypothesis v(f(x0)) > 2 v(f'(x0)) fails."""


class InconclusiveTruncationError(ArithmeticError):
    """Raised when a series' tail bound cannot exclude coefficients that would
    change a zero count."""


def vp(x, p: int):
    """p-adic valuation of an int or a Fraction; math.inf at 0."""
    if x == 0:
        return _INF
    if not isinstance(x, int):
        # a Fraction; tested this way round because isinstance against
        # Fraction goes through the numbers ABCs, which slows every _make
        return vp(x.numerator, p) - vp(x.denominator, p)
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def _ilog(p: int, n: int) -> int:
    """floor(log_p(n)) for n >= 1."""
    e = 0
    q = p
    while q <= n:
        q *= p
        e += 1
    return e


def legendre_symbol(a: int, p: int) -> int:
    """(a|p) in {-1, 0, 1} for odd p."""
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def sqrt_mod_p(a: int, p: int) -> int | None:
    """A square root of a modulo odd prime p, or None for a non-residue.

    Tonelli-Shanks; the p % 4 == 3 shortcut covers half the primes.
    """
    a %= p
    if a == 0:
        return 0
    if legendre_symbol(a, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while legendre_symbol(z, p) != -1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        t2, i = t, 0
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def smallest_nonresidue(p: int) -> int:
    """Smallest positive quadratic non-residue modulo p."""
    c = 2
    while legendre_symbol(c, p) != -1:
        c += 1
    return c


class PadicNumber:
    """An element of Q_p known to finite precision.

    ``valuation`` is exact when at least one digit is known and a lower bound
    otherwise; ``abs_precision`` is the exponent below which digits are
    certified.  Equality of p-adic data is always "indistinguishable at the
    shared precision", exposed as :meth:`indistinguishable_from`.
    """

    __slots__ = ("prime", "_val", "_unit", "_rel")

    def __init__(self, prime: int, val, unit: int, rel: int):
        # internal; use the classmethods or _make for canonical construction
        self.prime = prime
        self._val = val
        self._unit = unit
        self._rel = rel

    # -- construction -------------------------------------------------

    @classmethod
    def _make(cls, p: int, val: int, unit: int, rel: int) -> "PadicNumber":
        if rel <= 0:
            return cls(p, val + rel, 0, 0)
        mod = p ** rel
        unit %= mod
        if unit == 0:
            return cls(p, val + rel, 0, 0)
        s = vp(unit, p)
        if s:
            # keep the absolute precision, move digits into the valuation
            val += s
            rel -= s
            unit //= p ** s
        return cls(p, val, unit, rel)

    @classmethod
    def exact_zero(cls, p: int) -> "PadicNumber":
        return cls(p, _INF, 0, 0)

    @classmethod
    def zeroish(cls, p: int, floor: int) -> "PadicNumber":
        """A value only known to satisfy v >= floor."""
        return cls(p, floor, 0, 0)

    @classmethod
    def from_int(cls, n: int, p: int, rel: int = DEFAULT_PRECISION) -> "PadicNumber":
        if n == 0:
            return cls.exact_zero(p)
        v = vp(n, p)
        return cls._make(p, v, n // p ** v, rel)

    @classmethod
    def from_rational(cls, q, p: int, rel: int = DEFAULT_PRECISION) -> "PadicNumber":
        q = Fraction(q)
        if q == 0:
            return cls.exact_zero(p)
        num, den = q.numerator, q.denominator
        vn = vp(num, p)
        vd = vp(den, p)
        num //= p ** vn
        den //= p ** vd
        unit = num * pow(den, -1, p ** rel) % p ** rel
        return cls._make(p, vn - vd, unit, rel)

    # -- state --------------------------------------------------------

    @property
    def valuation(self):
        """Exact valuation, lower bound when no digits are known, +inf for 0."""
        return self._val

    @property
    def rel_precision(self) -> int:
        return self._rel

    @property
    def abs_precision(self):
        return self._val + self._rel if not self.is_exact_zero() else _INF

    def is_exact_zero(self) -> bool:
        return self._val == _INF

    def is_zeroish(self) -> bool:
        """True when no nonzero digit is certified."""
        return self._rel == 0

    def indistinguishable_from(self, other) -> bool:
        if self.is_exact_zero() and isinstance(other, (int, Fraction)):
            return other == 0
        return (self - other).is_zeroish()

    def valuation_p(self):
        """Valuation normalized to v(p) = 1 (same as .valuation in the base)."""
        return self._val

    def residue(self) -> int:
        """Image in F_p; requires v >= 0 at precision."""
        if self.is_zeroish():
            if not self.is_exact_zero() and self._val < 1:
                raise PrecisionLossError("residue of a value with no known digits")
            return 0
        if self._val < 0:
            raise ValueError("residue of a non-integral element")
        return self._unit % self.prime if self._val == 0 else 0

    def unit_part(self) -> int:
        return self._unit

    def with_abs_cap(self, n: int) -> "PadicNumber":
        """Forget digits at and above p^n (sound: keeps only certified data)."""
        if self.is_exact_zero():
            return PadicNumber.zeroish(self.prime, n)
        if self.is_zeroish():
            return self if self._val < n else PadicNumber.zeroish(self.prime, n)
        if self._val >= n:
            return PadicNumber.zeroish(self.prime, n)
        if self.abs_precision <= n:
            return self
        return PadicNumber._make(self.prime, self._val, self._unit, n - self._val)

    def pshift(self, k: int) -> "PadicNumber":
        """Multiply by p^k (exact)."""
        if self.is_exact_zero():
            return self
        return PadicNumber(self.prime, self._val + k, self._unit, self._rel)

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other):
        # a rational summand is read at this value's absolute precision; a
        # product or quotient reaches here with a rational only when it is 0
        if isinstance(other, PadicNumber):
            return other
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            if q == 0:
                return PadicNumber.exact_zero(self.prime)
            if self.is_exact_zero():
                raise TypeError("an exact zero gives %s no precision; "
                                "read it with padic.lift" % q)
            rel = int(self.abs_precision) - vp(q, self.prime)
            return PadicNumber.from_rational(q, self.prime, max(rel, 1))
        return None

    def __add__(self, other):
        if isinstance(other, QuadExtNumber):
            return other + self
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        a = self
        if a.is_exact_zero():
            return b
        if b.is_exact_zero():
            return a
        p = a.prime
        absprec = int(min(a.abs_precision, b.abs_precision))
        floor = int(min(a._val, b._val, absprec))
        if floor >= absprec:
            return PadicNumber.zeroish(p, absprec)
        mod = p ** (absprec - floor)
        ua = a._unit * p ** (int(a._val) - floor) % mod if not a.is_zeroish() else 0
        ub = b._unit * p ** (int(b._val) - floor) % mod if not b.is_zeroish() else 0
        s = (ua + ub) % mod
        if s == 0:
            return PadicNumber.zeroish(p, absprec)
        return PadicNumber._make(p, floor, s, absprec - floor)

    __radd__ = __add__

    def __neg__(self):
        if self.is_zeroish():
            return self
        return PadicNumber._make(self.prime, self._val,
                                 self.prime ** self._rel - self._unit, self._rel)

    def __sub__(self, other):
        if isinstance(other, QuadExtNumber):
            return -other + self
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        return self + (-b)

    def __mul__(self, other):
        if isinstance(other, QuadExtNumber):
            return other * self
        if self._val == _INF and isinstance(other, (int, Fraction)):
            return self  # an exact zero times a rational: no scalar to read
        if isinstance(other, int) and other:
            return self._scaled(other, 1)
        if type(other) is Fraction and other:
            return self._scaled(other.numerator, other.denominator)
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        a = self
        p = a.prime
        if a.is_exact_zero() or b.is_exact_zero():
            return PadicNumber.exact_zero(p)
        if a.is_zeroish() or b.is_zeroish():
            return PadicNumber.zeroish(p, int(a._val + b._val))
        return PadicNumber._make(p, a._val + b._val, a._unit * b._unit,
                                 min(a._rel, b._rel))

    __rmul__ = __mul__

    def _scaled(self, num: int, den: int) -> "PadicNumber":
        """self * num / den for nonzero ints num, den, the scalar read as
        p^v * u: the triple that lifting num / den at this value's rel, then
        multiplying gives, with no Fraction and no lift."""
        p = self.prime
        v = vp(num, p)
        vd = vp(den, p) if den != 1 else 0
        if self._rel == 0:
            return PadicNumber.zeroish(p, self._val + v - vd)
        u = num // p ** v
        if den != 1:
            u *= pow(den // p ** vd, -1, p ** self._rel)
        return PadicNumber._make(p, self._val + v - vd, self._unit * u, self._rel)

    def inverse(self) -> "PadicNumber":
        if self.is_zeroish():
            raise PrecisionLossError(
                "inverting a value indistinguishable from 0 (valuation floor %s)" % self._val)
        p, rel = self.prime, self._rel
        inv = pow(self._unit, -1, p ** rel)
        return PadicNumber._make(p, -self._val, inv, rel)

    def __truediv__(self, other):
        if self._val == _INF and isinstance(other, (int, Fraction)) and other:
            return self  # a division by 0 still raises, from inverse()
        if isinstance(other, int) and other:
            return self._scaled(1, other)
        if type(other) is Fraction and other:
            return self._scaled(other.denominator, other.numerator)
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        return self * b.inverse()

    # -- display ------------------------------------------------------

    def __repr__(self):
        if self.is_exact_zero():
            return "PadicNumber(0, p=%d)" % self.prime
        if self.is_zeroish():
            return "PadicNumber(O(%d^%d))" % (self.prime, self._val)
        return "PadicNumber(%d^%d * %d + O(%d^%d))" % (
            self.prime, self._val, self._unit, self.prime, self.abs_precision)

    def __eq__(self, other):
        if isinstance(other, (PadicNumber, int, Fraction)):
            return self.indistinguishable_from(other)
        return NotImplemented

    __hash__ = None  # precision-capped equality is not hash-compatible


def padic_agree(a: PadicNumber, b: PadicNumber) -> bool:
    """True when a and b agree on all digits both claim (soundness check)."""
    return (a - b).is_zeroish()


class QuadExtension:
    """Descriptor of Q_p(sqrt(d)) with d in {c, p, p*c}.

    c is the smallest positive non-residue mod p, so the three choices cover
    the three quadratic extension classes of Q_p for odd p.  Ramification
    index e is 1 for d = c and 2 otherwise.
    """

    __slots__ = ("prime", "kind", "d", "e")

    UNRAMIFIED = "unramified"
    RAMIFIED = "ramified"
    RAMIFIED_TWIST = "ramified-twist"

    def __init__(self, prime: int, kind: str):
        self.prime = prime
        self.kind = kind
        c = smallest_nonresidue(prime)
        if kind == self.UNRAMIFIED:
            self.d, self.e = c, 1
        elif kind == self.RAMIFIED:
            self.d, self.e = prime, 2
        elif kind == self.RAMIFIED_TWIST:
            self.d, self.e = prime * c, 2
        else:
            raise ValueError("unknown extension kind %r" % kind)

    def __eq__(self, other):
        return (isinstance(other, QuadExtension)
                and (self.prime, self.kind) == (other.prime, other.kind))

    def __repr__(self):
        return "QuadExtension(p=%d, sqrt(%d))" % (self.prime, self.d)


class QuadExtNumber:
    """a + b*sqrt(d) with a, b in Q_p.

    Valuations are integers in the uniformizer: v_p for the unramified
    extension and 2*v_p for ramified ones, so sqrt(p) has valuation 1.
    """

    __slots__ = ("ext", "a", "b")

    def __init__(self, ext: QuadExtension, a: PadicNumber, b: PadicNumber):
        self.ext = ext
        self.a = a
        self.b = b

    @classmethod
    def from_base(cls, ext: QuadExtension, a: PadicNumber) -> "QuadExtNumber":
        return cls(ext, a, PadicNumber.exact_zero(ext.prime))

    # -- state --------------------------------------------------------

    @property
    def prime(self) -> int:
        return self.ext.prime

    def is_zeroish(self) -> bool:
        return self.a.is_zeroish() and self.b.is_zeroish()

    def is_exact_zero(self) -> bool:
        return self.a.is_exact_zero() and self.b.is_exact_zero()

    @property
    def valuation(self):
        """Valuation in uniformizer units (a lower bound when zeroish)."""
        va, vb = self.a.valuation, self.b.valuation
        if self.ext.e == 1:
            return min(va, vb)
        return min(2 * va if va != _INF else _INF,
                   2 * vb + 1 if vb != _INF else _INF)

    def valuation_p(self):
        """Valuation normalized so v(p) = 1 (a Fraction when ramified)."""
        v = self.valuation
        if v == _INF:
            return _INF
        return Fraction(v, self.ext.e)

    def conjugate(self) -> "QuadExtNumber":
        return QuadExtNumber(self.ext, self.a, -self.b)

    def norm(self) -> PadicNumber:
        return self.a * self.a - self.b * self.b * self.ext.d

    def with_abs_cap(self, n: int) -> "QuadExtNumber":
        """Forget digits at and above p^n in both components."""
        return QuadExtNumber(self.ext, self.a.with_abs_cap(n), self.b.with_abs_cap(n))

    def base_part_checked(self) -> PadicNumber:
        """Return a for an element certified to lie in Q_p (b zeroish)."""
        if not self.b.is_zeroish():
            raise PrecisionLossError("element has a certified sqrt(d) component")
        return self.a

    def residue_pair(self) -> tuple[int, int]:
        """Image in the residue field as (a mod p, b mod p) w.r.t. sqrt(d);
        the second component is always 0 for ramified extensions."""
        if self.ext.e == 1:
            return self.a.residue(), self.b.residue()
        if not self.b.is_zeroish() and self.b.valuation < 0:
            raise ValueError("non-integral uniformizer part")
        if self.b.is_zeroish() and not self.b.is_exact_zero() and self.b.valuation < 0:
            raise PrecisionLossError("uniformizer part with no known digits")
        return self.a.residue(), 0

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other):
        # a rational summand is read at the larger relative precision of
        # the two parts; products and quotients scale the parts instead
        if isinstance(other, QuadExtNumber):
            if other.ext != self.ext:
                raise ValueError("mixing distinct quadratic extensions")
            return other
        if isinstance(other, PadicNumber):
            return QuadExtNumber.from_base(self.ext, other)
        if isinstance(other, (int, Fraction)):
            if other != 0 and self.is_exact_zero():
                raise TypeError("an exact zero gives %s no precision; "
                                "read it with padic.lift" % other)
            rel = max(self.a.rel_precision, self.b.rel_precision, 1)
            return QuadExtNumber.from_base(
                self.ext, PadicNumber.from_rational(other, self.prime, rel))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadExtNumber(self.ext, self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self):
        return QuadExtNumber(self.ext, -self.a, -self.b)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __mul__(self, other):
        if isinstance(other, int) or type(other) is Fraction:
            # each part through PadicNumber's scalar path, as a lift of
            # other at the larger relative precision of the parts would give
            return QuadExtNumber(self.ext, self.a * other, self.b * other)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b, c, d = self.a, self.b, o.a, o.b
        return QuadExtNumber(self.ext, a * c + b * d * self.ext.d, a * d + b * c)

    __rmul__ = __mul__

    def inverse(self) -> "QuadExtNumber":
        n = self.norm()
        if n.is_zeroish():
            raise PrecisionLossError("inverting an extension element of indistinguishable norm")
        ninv = n.inverse()
        return QuadExtNumber(self.ext, self.a * ninv, -self.b * ninv)

    def __truediv__(self, other):
        if isinstance(other, int) or type(other) is Fraction:
            return QuadExtNumber(self.ext, self.a / other, self.b / other)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __repr__(self):
        return "QuadExtNumber((%r) + (%r)*sqrt(%d))" % (self.a, self.b, self.ext.d)


def lift(c, p: int, rel: int):
    """c as a p-adic field element: an int or a Fraction is read in Q_p at
    rel digits, and a PadicNumber or a QuadExtNumber is returned as it is."""
    if isinstance(c, (PadicNumber, QuadExtNumber)):
        return c
    return PadicNumber.from_rational(c, p, rel)


def valuation_is_negative(x) -> bool:
    """Certified v(x) < 0 decision for a PadicNumber or a QuadExtNumber.

    True when v(x) < 0, False when v(x) >= 0; raises PrecisionLossError
    when a part with no known digits leaves the sign open.
    """
    if isinstance(x, QuadExtNumber):
        # v(x) = min(v(a), v(b sqrt(d))), and v(sqrt(d)) = 1/2 when ramified
        half = Fraction(1, 2) if x.ext.e == 2 else 0
        parts = ((x.a, x.a.valuation), (x.b, x.b.valuation + half))
    else:
        parts = ((x, x.valuation),)
    if any(v < 0 and not c.is_zeroish() for c, v in parts):
        return True
    if all(v >= 0 for _, v in parts):
        return False
    raise PrecisionLossError("sign of the valuation unresolved at working precision")


def padic_sqrt(a: PadicNumber):
    """Square root of a, in Q_p when one exists, else in the forced extension.

    The root is determined by the residue data of ``a`` alone:

    * even valuation, residue a QR  -> Hensel lift in Q_p;
    * even valuation, non-residue   -> b*sqrt(c), unramified;
    * odd valuation, residue a QR   -> b*sqrt(p), ramified;
    * odd valuation, non-residue    -> b*sqrt(p*c), ramified.

    Canonical choice: the lowest mantissa digit of the returned root (of its b
    component for extensions) lies in [1, (p-1)/2].
    """
    if a.is_zeroish():
        raise PrecisionLossError("square root of a value with no known digits")
    p = a.prime
    v, unit, rel = int(a.valuation), a.unit_part(), a.rel_precision
    r0 = sqrt_mod_p(unit % p, p)
    if v % 2 == 0 and r0 is not None:
        root = PadicNumber._make(p, v // 2, _lift_sqrt(unit, r0, p, rel), rel)
        return _canonical_sign(root)
    c = smallest_nonresidue(p)
    if v % 2 == 0:
        ext = QuadExtension(p, QuadExtension.UNRAMIFIED)
        u2 = unit * pow(c, -1, p ** rel) % p ** rel
        b = PadicNumber._make(p, v // 2, _lift_sqrt(u2, sqrt_mod_p(u2 % p, p), p, rel), rel)
    elif r0 is not None:
        ext = QuadExtension(p, QuadExtension.RAMIFIED)
        b = PadicNumber._make(p, (v - 1) // 2, _lift_sqrt(unit, r0, p, rel), rel)
    else:
        ext = QuadExtension(p, QuadExtension.RAMIFIED_TWIST)
        u2 = unit * pow(c, -1, p ** rel) % p ** rel
        b = PadicNumber._make(p, (v - 1) // 2, _lift_sqrt(u2, sqrt_mod_p(u2 % p, p), p, rel), rel)
    return QuadExtNumber(ext, PadicNumber.exact_zero(p), _canonical_sign(b))


def _canonical_sign(x: PadicNumber) -> PadicNumber:
    return -x if x.unit_part() % x.prime > (x.prime - 1) // 2 else x


def _lift_sqrt(unit: int, r0: int, p: int, rel: int) -> int:
    """Newton-lift r0^2 = unit (mod p) to mod p^rel."""
    r = r0 % p
    known = 1
    while known < rel:
        known = min(2 * known, rel)
        m = p ** known
        r = (r + unit * pow(r, -1, m)) * pow(2, -1, m) % m
    return r


def hensel_root(f, x0: PadicNumber, target_rel: int | None = None) -> PadicNumber:
    """The unique root near x0 of f = sum f[i] x^i, a list of p-adic
    coefficients, under v(f(x0)) > 2 v(f'(x0)).

    Newton iteration with quadratic convergence.  Raises
    NotHenselLiftableError when the hypothesis fails at x0.  x0 may be a
    QuadExtNumber when target_rel is given.
    """
    fx = _horner(f, x0)
    df = [f[i] * i for i in range(1, len(f))]
    dfx = _horner(df, x0)
    if dfx.is_zeroish():
        raise NotHenselLiftableError("derivative indistinguishable from 0 at x0")
    if fx.is_zeroish():
        if not fx.is_exact_zero() and fx.valuation - 2 * dfx.valuation <= 0:
            raise NotHenselLiftableError("cannot certify v(f(x0)) > 2 v(f'(x0))")
    elif fx.valuation <= 2 * dfx.valuation:
        raise NotHenselLiftableError(
            "v(f(x0)) = %s <= 2 v(f'(x0)) = %s" % (fx.valuation, 2 * dfx.valuation))
    x, fxk, dfxk = x0, fx, dfx
    target = target_rel if target_rel is not None else x0.rel_precision
    for _ in range(64):
        if fxk.is_zeroish() and (fxk.is_exact_zero()
                                 or fxk.valuation >= dfx.valuation + target):
            break
        # f'(x) only when a step needs it; at x0 it is dfx
        step = fxk / (dfxk if dfxk is not None else _horner(df, x))
        if step.is_zeroish():
            break
        x = x - step
        fxk, dfxk = _horner(f, x), None
    else:
        raise NotHenselLiftableError("Newton iteration failed to converge")
    if x is x0 and not fx.is_exact_zero():
        # no step taken: x0 is known only to its distance from the root
        return x0.with_abs_cap(int(fx.valuation - dfx.valuation))
    return x


class PadicPowerSeries:
    """Truncated power series sum_i c_i t^i with a certified tail.

    ``tail_valuation_bound`` promises v(coefficient of t^d) >= bound for every
    d beyond truncation_order; a bound of +inf means those coefficients
    vanish exactly (a genuine polynomial).  When ``tail_log_penalty`` is set
    the promise weakens to bound - floor(log_p d), which is what
    antiderivatives produce; the penalty is discharged back into an integer
    bound by argument rescaling or by evaluation at |t| < 1.
    """

    __slots__ = ("prime", "coeffs", "tail_valuation_bound", "tail_log_penalty")

    def __init__(self, prime: int, coeffs, tail_valuation_bound=_INF, *,
                 tail_log_penalty: bool = False):
        self.prime = prime
        self.coeffs = list(coeffs) or [PadicNumber.exact_zero(prime)]
        for c in self.coeffs:
            if not isinstance(c, (PadicNumber, QuadExtNumber)):
                raise TypeError("series coefficient %r is not p-adic; lift it "
                                "at the digits it should carry" % (c,))
        self.tail_valuation_bound = tail_valuation_bound
        self.tail_log_penalty = tail_log_penalty
        if tail_log_penalty and tail_valuation_bound == _INF:
            self.tail_log_penalty = False

    @property
    def truncation_order(self) -> int:
        return len(self.coeffs) - 1

    def coeff_of_degree(self, d: int) -> PadicNumber:
        if 0 <= d < len(self.coeffs):
            return self.coeffs[d]
        return PadicNumber.exact_zero(self.prime)

    def _horizon(self):
        """Largest t-degree whose coefficient is fully determined (inf for
        polynomials)."""
        return _INF if self.tail_valuation_bound == _INF else self.truncation_order

    def _finite_min_val(self):
        m = self.tail_valuation_bound
        for c in self.coeffs:
            if c.valuation < m:
                m = c.valuation
        return m

    def is_normal(self) -> bool:
        """All coefficients integral and tending to 0."""
        if self.tail_log_penalty:
            return False
        if any(c.valuation < 0 for c in self.coeffs):
            return False
        return self.tail_valuation_bound > 0

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        if not isinstance(other, PadicPowerSeries):
            return NotImplemented
        p = self.prime
        hi = min(self._horizon(), other._horizon())
        if hi == _INF:
            hi = max(self.truncation_order, other.truncation_order)
        hi = int(hi)
        # past one operand's end the other's coefficient is copied: adding an
        # exact zero would return it unchanged
        a, b = self.coeffs, other.coeffs
        coeffs = []
        for d in range(hi + 1):
            if d < len(a):
                coeffs.append(a[d] + b[d] if d < len(b) else a[d])
            else:
                coeffs.append(b[d] if d < len(b) else PadicNumber.exact_zero(p))
        tail = min(self.tail_valuation_bound, other.tail_valuation_bound)
        penalty = self.tail_log_penalty or other.tail_log_penalty
        # a log penalty only ever weakens the bound, so keeping the flag on the
        # min of the bases stays sound
        return PadicPowerSeries(p, coeffs, tail, tail_log_penalty=penalty)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, PadicNumber)):
            # each coefficient reads an exact constant at its own precision
            v = other.valuation if isinstance(other, PadicNumber) else vp(other, self.prime)
            if v == _INF:
                return PadicPowerSeries(self.prime, [PadicNumber.exact_zero(self.prime)])
            if isinstance(other, PadicNumber) and other.is_zeroish():
                raise PrecisionLossError("scaling a series by a value with no known digits")
            return PadicPowerSeries(self.prime, [x * other for x in self.coeffs],
                                    self.tail_valuation_bound + v,
                                    tail_log_penalty=self.tail_log_penalty)
        if not isinstance(other, PadicPowerSeries):
            return NotImplemented
        if self.tail_log_penalty or other.tail_log_penalty:
            raise ValueError("multiplying log-penalized tails is unsupported")
        p = self.prime
        hi = min(self._horizon(), other._horizon())
        if hi == _INF:
            hi = self.truncation_order + other.truncation_order
        out = series_mul(p, self.coeffs, other.coeffs, int(hi) + 1)
        if self.tail_valuation_bound == _INF and other.tail_valuation_bound == _INF:
            tail = _INF
        else:
            tail = min(self.tail_valuation_bound + other._finite_min_val(),
                       other.tail_valuation_bound + self._finite_min_val())
        return PadicPowerSeries(p, out, tail)

    __rmul__ = __mul__

    def derivative(self) -> "PadicPowerSeries":
        coeffs = [self.coeffs[i] * i for i in range(1, len(self.coeffs))]
        return PadicPowerSeries(self.prime, coeffs, self.tail_valuation_bound,
                                tail_log_penalty=self.tail_log_penalty)

    def antiderivative(self) -> "PadicPowerSeries":
        """Termwise integral with constant 0; the tail picks up a log penalty."""
        if self.tail_log_penalty:
            raise ValueError("iterated antiderivatives are unsupported")
        p = self.prime
        coeffs = [PadicNumber.exact_zero(p)]
        coeffs.extend(c / (i + 1) for i, c in enumerate(self.coeffs))
        return PadicPowerSeries(p, coeffs, self.tail_valuation_bound,
                                tail_log_penalty=self.tail_valuation_bound != _INF)

    def rescale_argument(self, n: int) -> "PadicPowerSeries":
        """Substitute t = p^n r; discharges any tail log penalty (n >= 1)."""
        if n < 1:
            raise ValueError("level must be >= 1")
        p = self.prime
        coeffs = [c.pshift(n * i) for i, c in enumerate(self.coeffs)]
        T = self.truncation_order
        base = self.tail_valuation_bound
        if base == _INF:
            tail = _INF
        elif self.tail_log_penalty:
            # min over d > T of base - floor(log_p d) + n d; each step changes
            # the value by n - (log jump) >= 0, so the minimum is at d = T + 1
            tail = base - _ilog(p, T + 1) + n * (T + 1)
        else:
            tail = base + n * (T + 1)
        return PadicPowerSeries(p, coeffs, tail)

    def evaluate(self, t):
        """Value at t with v_p(t) > 0; the result's precision includes the
        truncation error."""
        delta = t.valuation_p()
        if delta == _INF:
            return self.coeffs[0]
        delta = Fraction(delta)
        if delta <= 0:
            raise ValueError("series evaluation requires v(t) > 0")
        acc = _horner(self.coeffs, t)
        cap = self._eval_tail_cap(delta)
        if cap == _INF:
            return acc
        return acc.with_abs_cap(int(math.floor(cap)))

    def _eval_tail_cap(self, delta: Fraction):
        base = self.tail_valuation_bound
        if base == _INF:
            return _INF
        T = self.truncation_order
        if not self.tail_log_penalty:
            return base + (T + 1) * delta
        return log_penalty_tail_cap(self.prime, T, base, delta)

    def inverse(self) -> "PadicPowerSeries":
        """1/self for an integral series with unit constant term."""
        c0 = self.coeffs[0]
        if c0.is_zeroish():
            raise PrecisionLossError("inverting a series with indistinguishable constant term")
        if c0.valuation != 0 or self._finite_min_val() < 0:
            raise ValueError("series inverse requires an integral series with unit constant")
        p = self.prime
        out = series_inv(p, self.coeffs, len(self.coeffs))
        tail = 0 if self.tail_valuation_bound != _INF else _INF
        return PadicPowerSeries(p, out, tail)

    def __repr__(self):
        return "PadicPowerSeries(p=%d, T=%d, tail>=%s%s)" % (
            self.prime, self.truncation_order, self.tail_valuation_bound,
            ", log-penalty" if self.tail_log_penalty else "")


# -- sums of products on int lanes --------------------------------------------
# Every coefficient of a series product, inverse or square root is a sum of
# products x_i y_j, and must be what the left fold of the operators from an
# exact zero gives.  Addition is canonical, so over Q_p that fold depends
# only on A, the least absolute precision min(top_i + v_j, v_i + top_j)
# over the products that are not exact zeros, and on S, the sum of
# unit * p^val over the products with known digits, mod p^A; _make
# normalizes any common shift of S that is at most its least valuation.
# Over Q_p(sqrt(d)) each part of the fold is such a sum: a + b sqrt(d) times
# a' + b' sqrt(d) is (aa' + d bb') + (ab' + ba') sqrt(d), and d bb' moves
# the cap by v(d).


class _Part:
    """One part of a coefficient list as int lanes: the valuations ``v``
    and absolute precisions ``top`` (+inf at an exact zero), and the units
    times p^(v - shift) ``u`` (0 with no known digits)."""

    __slots__ = ("v", "top", "u")

    def __init__(self, xs, p: int, shift: int):
        self.v = [x._val for x in xs]
        self.top = [x._val + x._rel for x in xs]
        self.u = [x._unit * p ** (x._val - shift) if x._rel else 0 for x in xs]

    def append(self, x, p: int, shift: int):
        self.v.append(x._val)
        self.top.append(x._val + x._rel)
        self.u.append(x._unit * p ** (x._val - shift) if x._rel else 0)


class _Lanes:
    """A coefficient list read once into one _Part over Q_p, or two over
    Q_p(sqrt(d)): a and b of a + b sqrt(d), a base element having b = 0.

    ``shift`` is common to the parts and at most every valuation with known
    digits, so the units are exact ints; a coefficient appended with a lower
    one rescales them.  Over an extension ``nz`` flags the coefficients
    that are not exact zeros and ``qz`` those of them that are extension
    elements: a sum of products is a QuadExtNumber when some pair of nonzero
    factors has one.
    """

    __slots__ = ("prime", "ext", "shift", "parts", "nz", "qz")

    def __init__(self, p: int, ext, cs):
        self.prime, self.ext = p, ext
        parts = self._split(cs)
        self.shift = min((x._val for xs in parts for x in xs if x._rel), default=0)
        self.parts = [_Part(xs, p, self.shift) for xs in parts]
        if ext is not None:
            self.nz = [0 if c.is_exact_zero() else 1 for c in cs]
            self.qz = [f if type(c) is QuadExtNumber else 0
                       for f, c in zip(self.nz, cs)]

    def _split(self, cs):
        if self.ext is None:
            return (cs,)
        zero = PadicNumber.exact_zero(self.prime)
        return ([c.a if type(c) is QuadExtNumber else c for c in cs],
                [c.b if type(c) is QuadExtNumber else zero for c in cs])

    def append(self, c):
        p = self.prime
        xs = [part[0] for part in self._split([c])]
        for x in xs:
            if x._rel and x._val < self.shift:
                f = p ** (self.shift - x._val)
                for part in self.parts:
                    part.u = [u * f for u in part.u]
                self.shift = x._val
        for part, x in zip(self.parts, xs):
            part.append(x, p, self.shift)
        if self.ext is not None:
            self.nz.append(0 if c.is_exact_zero() else 1)
            self.qz.append(self.nz[-1] if type(c) is QuadExtNumber else 0)


def _lanes(p: int, *lists):
    """One _Lanes per coefficient list, all over the quadratic extension of
    the QuadExtNumber entries of any of them (Q_p when there is none)."""
    ext = None
    if any(QuadExtNumber in set(map(type, cs)) for cs in lists):
        for c in (c for cs in lists for c in cs if type(c) is QuadExtNumber):
            if ext is None:
                ext = c.ext
            elif c.ext != ext:
                raise ValueError("mixing distinct quadratic extensions")
    return [_Lanes(p, ext, cs) for cs in lists]


def _term(p: int, shift: int, s: int, cap):
    """p^shift * s + O(p^cap), an exact zero when no pair reached it."""
    if cap == _INF:
        return PadicNumber.exact_zero(p)
    return PadicNumber._make(p, shift, s, cap - shift)


def _convolution(xs, ys, n: int):
    """[sum of xs[i] * ys[k - i] for k < n] for lists of ints >= 0, read off
    one product of the lists packed into ints (Kronecker substitution)."""
    if not xs or not ys:
        return [0] * n
    w = (max(xs).bit_length() + max(ys).bit_length()
         + min(len(xs), len(ys)).bit_length()) // 8 + 1
    x = int.from_bytes(b"".join([c.to_bytes(w, "little") for c in xs]), "little")
    y = int.from_bytes(b"".join([c.to_bytes(w, "little") for c in ys]), "little")
    z = (x * y).to_bytes(w * (len(xs) + len(ys)), "little")
    return [int.from_bytes(z[i: i + w], "little") for i in range(0, n * w, w)]


def _sumset(xm: int, ym: int) -> int:
    """The bit mask of the index sums i + j over the bits i of xm and j of ym."""
    if xm.bit_count() > ym.bit_count():
        xm, ym = ym, xm
    out = 0
    while xm:
        low = xm & -xm
        out |= ym * low
        xm ^= low
    return out


def _classes(X: _Part):
    """{(v, top): bit mask of its indices} over the coefficients that are
    not exact zeros."""
    out = {}
    for i, key in enumerate(zip(X.v, X.top)):
        if key[0] != _INF:
            out[key] = out.get(key, 0) | 1 << i
    return out


def _caps(X: _Part, Y: _Part, n: int):
    """[the least min(top_i + v_j, v_i + top_j) over the pairs i + j = k of
    nonzero factors, for k < n], +inf where there is none.

    The coefficients fall into a few classes (v, top), and a pair of classes
    has one such value; so each degree takes the value of the first class
    pair, in increasing order, whose index sums reach it."""
    xc, yc = _classes(X), _classes(Y)
    todo = _sumset(sum(xc.values()), sum(yc.values())) & ((1 << n) - 1)
    caps = [_INF] * n
    for cap, xm, ym in sorted((min(t + w, v + s), xm, ym)
                              for (v, t), xm in xc.items()
                              for (w, s), ym in yc.items()):
        if not todo:
            break
        hit = todo & _sumset(xm, ym)
        todo ^= hit
        while hit:
            low = hit & -hit
            caps[low.bit_length() - 1] = cap
            hit ^= low
    return caps


def _mask(flags) -> int:
    return int("".join(map(str, reversed(flags))) or "0", 2)


class _Dot:
    """The sums of products x_i y_(k-i), each as the operator fold gives
    it.  The part pairs are (a, a') over Q_p and (a, a'), (b, b'), (a, b'),
    (b, a') over Q_p(sqrt(d)); x may grow between calls, as in a sequential
    recursion."""

    __slots__ = ("x", "y", "pairs")

    def __init__(self, x: _Lanes, y: _Lanes):
        self.x, self.y = x, y
        if x.ext is None:
            self.pairs = [(x.parts[0], y.parts[0])]
        else:
            (xa, xb), (ya, yb) = x.parts, y.parts
            self.pairs = [(xa, ya), (xb, yb), (xa, yb), (xb, ya)]

    def term(self, sums, caps, quad):
        """The sum from the unit sums and caps of the part pairs: an
        exact-zero PadicNumber when no pair has two nonzero factors, a
        QuadExtNumber when such a pair has an extension factor, else a
        PadicNumber."""
        x = self.x
        p, shift = x.prime, x.shift + self.y.shift
        if x.ext is None:
            return _term(p, shift, sums[0], caps[0])
        d = x.ext.d
        real = _term(p, shift, sums[0] + d * sums[1],
                     min(caps[0], caps[1] + vp(d, p)))
        if not quad:
            return real
        return QuadExtNumber(x.ext, real,
                             _term(p, shift, sums[2] + sums[3], min(caps[2], caps[3])))

    def at(self, k: int, i0: int, i1: int):
        """The sum over i0 <= i < i1, walking its pairs on the lanes."""
        x, y = self.x, self.y
        j0 = k - i1 + 1
        xs, ys = slice(i0, i1), slice(k - i0, j0 - 1 if j0 > 0 else None, -1)
        sums, caps = [], []
        for X, Y in self.pairs:
            sums.append(sum(map(mul, X.u[xs], Y.u[ys])))
            caps.append(min(min(map(add, X.top[xs], Y.v[ys]), default=_INF),
                            min(map(add, X.v[xs], Y.top[ys]), default=_INF)))
        quad = x.ext is not None and (any(map(and_, x.qz[xs], y.nz[ys]))
                                      or any(map(and_, x.nz[xs], y.qz[ys])))
        return self.term(sums, caps, quad)

    def product(self, n: int):
        """The sums of every degree k < n over all pairs, from one
        Kronecker product of the unit lanes and the class caps per part
        pair, so that no degree walks its pairs."""
        x, y = self.x, self.y
        if x.ext is None:
            (X, Y), = self.pairs
            return [_term(x.prime, x.shift + y.shift, s, cap) for s, cap
                    in zip(_convolution(X.u, Y.u, n), _caps(X, Y, n))]
        sums = list(zip(*(_convolution(X.u, Y.u, n) for X, Y in self.pairs)))
        caps = list(zip(*(_caps(X, Y, n) for X, Y in self.pairs)))
        quad = (_sumset(_mask(x.qz), _mask(y.nz))
                | _sumset(_mask(x.nz), _mask(y.qz)))
        return [self.term(sums[k], caps[k], quad >> k & 1) for k in range(n)]


def series_mul(p: int, a, b, n: int):
    """The first n coefficients of a*b, for coefficient lists a and b."""
    return _Dot(*_lanes(p, a, b)).product(n)


def series_inv(p: int, a, n: int):
    """The first n coefficients of 1/a, for a coefficient list a whose
    constant term is invertible: out_d = -out_0 sum_{0<=i<d} out_i a_(d-i)."""
    inv0 = a[0].inverse()
    neg = -inv0
    out = [inv0]
    a_lanes, out_lanes = _lanes(p, a, out)
    dot = _Dot(out_lanes, a_lanes)
    for d in range(1, n):
        out.append(neg * dot.at(d, max(0, d - len(a) + 1), d))
        out_lanes.append(out[d])
    return out


def series_sqrt(p: int, f, y0, n: int):
    """The first n coefficients of the square root of the series f that
    starts at y0, for f[0] = y0^2 and y0 a unit:
    y_m = (f_m - sum_{0<i<m} y_i y_(m-i)) / (2 y0)."""
    inv = (y0 * 2).inverse()
    out = [y0]
    _, y = _lanes(p, f, out)
    dot = _Dot(y, y)
    for m in range(1, n):
        s = dot.at(m, 1, m)
        out.append((f[m] - s if m < len(f) else -s) * inv)
        y.append(out[m])
    return out


def _horner(coeffs, x):
    """sum coeffs[i] x^i by Horner from an exact zero."""
    acc = PadicNumber.exact_zero(x.prime)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def log_penalty_tail_cap(p: int, T: int, base, delta: Fraction):
    """min over d > T of base - floor(log_p d) + d*delta, for delta > 0.

    The lower bound on v(c_d t^d) for every degree d past T of a series
    whose tail carries a log penalty, evaluated at v(t) = delta.
    """
    # scan a window past T, then use floor(log_p d) <= d*delta/2 beyond it
    end = T + 2
    while not (end * delta >= 2 * (_ilog(p, end) + 1) and p ** _ilog(p, end) >= 4 * (T + 2)):
        end += max(T, 8)
        if end > 200000:
            raise InconclusiveTruncationError(
                "no proven tail cap for v(t) = %s past degree %d" % (delta, T))
    # floor(log_p d) is constant on [p^k, p^(k+1)) and delta > 0, so each
    # block's minimum sits at its first degree inside [T + 1, end]
    k = _ilog(p, T + 1)
    best = base - k + (T + 1) * delta
    d = p ** (k + 1)
    while d <= end:
        k += 1
        best = min(best, base - k + d * delta)
        d *= p
    analytic = base + Fraction(end + 1) * delta / 2
    return min(best, analytic)


def strassmann_count(f: PadicPowerSeries) -> int:
    """Number of zeros of f in the closed unit ball, with multiplicity.

    f must be normal after scaling by p^(-mu), mu the minimal coefficient
    valuation; the count is the largest index attaining mu.  A coefficient
    with no known digits is tolerated only when its valuation floor certifiably
    clears mu; a tail bound <= mu raises InconclusiveTruncationError.
    """
    if f.tail_log_penalty:
        raise InconclusiveTruncationError("tail bound carries an undischarged log penalty")
    mu = None
    for c in f.coeffs:
        if not c.is_zeroish() and (mu is None or c.valuation < mu):
            mu = c.valuation
    if mu is None:
        raise PrecisionLossError("series has no coefficient with known digits")
    N = None
    for i, c in enumerate(f.coeffs):
        if not c.is_zeroish() and c.valuation == mu:
            N = i
    for i, c in enumerate(f.coeffs):
        if c.is_zeroish() and not c.is_exact_zero():
            if c.valuation < mu or (c.valuation == mu and i > N):
                raise PrecisionLossError(
                    "coefficient %d known only to O(p^%s) against minimum %s"
                    % (i, c.valuation, mu))
    if f.tail_valuation_bound != _INF and f.tail_valuation_bound <= mu:
        raise InconclusiveTruncationError(
            "tail bound %s cannot exclude coefficients at the minimal valuation %s"
            % (f.tail_valuation_bound, mu))
    return N


def mahler_bound_holds(f: PadicPowerSeries, zero_valuations, r_val: int, x, k: int) -> bool:
    """Check v(f^(k)(x)) >= (d - k) * r_val for a normal polynomial f of
    degree d whose zeros all have valuation >= r_val, at v(x) >= r_val.

    The k-th derivative here is the true derivative (with factorial factors),
    evaluated honestly; the predicate returns False on a violation instead of
    raising, since the point of the check is to look for one.
    """
    if not f.is_normal():
        raise ValueError("predicate requires a normal series")
    for v in zero_valuations:
        if v < r_val:
            raise ValueError("zero of valuation %s outside radius p^-%d" % (v, r_val))
    xv = x.valuation_p()
    if xv < r_val:
        raise ValueError("evaluation point outside radius")
    d = f.truncation_order
    while d > 0 and f.coeffs[d].is_exact_zero():
        d -= 1
    g = f
    for _ in range(k):
        g = g.derivative()
    if xv != _INF and xv > 0:
        val = g.evaluate(x)
    else:
        val = _horner(g.coeffs, x)
        if g.tail_valuation_bound != _INF:
            val = val.with_abs_cap(int(g.tail_valuation_bound))
    need = (d - k) * r_val
    return val.valuation_p() >= need


def with_precision_retry(fn, base_precision: int, escalations: int):
    """Run fn(precision), doubling the cap after each precision-loss error."""
    prec = base_precision
    for attempt in range(escalations + 1):
        try:
            return fn(prec)
        except (PrecisionLossError, InconclusiveTruncationError):
            if attempt == escalations:
                raise
            prec *= 2
    raise AssertionError("unreachable")
