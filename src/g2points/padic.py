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
nonzero constant to an exact zero raises TypeError: lift it through a domain.

Quadratic extensions Q_p(sqrt(d)) for d in {c, p, p*c} (c the smallest
positive non-residue) are pairs a + b*sqrt(d) of base elements.  Valuations of
extension elements are integers in the uniformizer, so the ramified cases
count half-integers doubled.

Power series carry an explicit truncation order and a tail valuation bound,
which is what lets Strassmann counts and series evaluations return certified
precisions instead of hopeful ones.
"""

from __future__ import annotations

import math
from fractions import Fraction

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

    def _coerce(self, other, rel: int | None = None):
        if isinstance(other, PadicNumber):
            return other
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            if q == 0:
                return PadicNumber.exact_zero(self.prime)
            if rel is None:
                if self.is_exact_zero():
                    raise TypeError("an exact zero gives %s no precision; "
                                    "lift it through a domain" % q)
                rel = int(self.abs_precision) - vp(q, self.prime)
            return PadicNumber.from_rational(q, self.prime, max(rel, 1))
        return None

    def __add__(self, other):
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
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        return self + (-b)

    def __rsub__(self, other):
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        return b + (-self)

    def __mul__(self, other):
        if isinstance(other, QuadExtNumber):
            return NotImplemented
        b = self._coerce(other, rel=max(self._rel, 1))
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

    def inverse(self) -> "PadicNumber":
        if self.is_zeroish():
            raise PrecisionLossError(
                "inverting a value indistinguishable from 0 (valuation floor %s)" % self._val)
        p, rel = self.prime, self._rel
        inv = pow(self._unit, -1, p ** rel)
        return PadicNumber._make(p, -self._val, inv, rel)

    def __truediv__(self, other):
        b = self._coerce(other, rel=max(self._rel, 1))
        if b is None:
            return NotImplemented
        return self * b.inverse()

    def __rtruediv__(self, other):
        b = self._coerce(other, rel=max(self._rel, 1))
        if b is None:
            return NotImplemented
        return b * self.inverse()

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        result = PadicNumber.from_int(1, self.prime, max(self._rel, 1))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- display ------------------------------------------------------

    def __repr__(self):
        if self.is_exact_zero():
            return "PadicNumber(0, p=%d)" % self.prime
        if self.is_zeroish():
            return "PadicNumber(O(%d^%d))" % (self.prime, self._val)
        return "PadicNumber(%d^%d * %d + O(%d^%d))" % (
            self.prime, self._val, self._unit, self.prime, self.abs_precision)

    def __str__(self):
        if self.is_exact_zero():
            return "0"
        if self.is_zeroish():
            return "O(%d^%d)" % (self.prime, self._val)
        p = self.prime
        parts = []
        u = self._unit
        for i in range(self._rel):
            d = u % p
            u //= p
            if d:
                e = self._val + i
                if e == 0:
                    parts.append("%d" % d)
                elif e == 1:
                    parts.append("%d*%d" % (d, p))
                else:
                    parts.append("%d*%d^%d" % (d, p, e))
        parts.append("O(%d^%d)" % (p, self.abs_precision))
        return " + ".join(parts)

    def __eq__(self, other):
        if isinstance(other, (PadicNumber, int, Fraction)):
            return self.indistinguishable_from(other)
        return NotImplemented

    __hash__ = None  # precision-capped equality is not hash-compatible


def padic_agree(a: PadicNumber, b: PadicNumber) -> bool:
    """True when a and b agree on all digits both claim (soundness check)."""
    return (a - b).is_zeroish()


def padic_dot(p: int, xs, ys) -> PadicNumber:
    """sum(x*y for x, y in zip(xs, ys)) over Q_p, computed on plain ints.

    Returns exactly the PadicNumber of the left fold ``acc = acc + x*y`` from
    an exact zero.  Addition is canonical, so that fold depends only on
    A = min abs precision over the products that are not exact zeros and on
    S = sum of unit * p^val over the products with known digits, mod p^A.
    A product with no known digits lowers A and adds nothing to S.  S is
    kept exactly as s * p^m, m the least valuation seen so far.
    """
    A = m = _INF
    s = 0
    for x, y in zip(xs, ys):
        v = x._val + y._val
        if v == _INF:
            continue
        r = x._rel
        if y._rel < r:
            r = y._rel
        if v + r < A:
            A = v + r
        if not r:
            continue
        if v == m:
            s += x._unit * y._unit
        elif v > m:
            s += x._unit * y._unit * p ** (v - m)
        elif m == _INF:
            s = x._unit * y._unit
            m = v
        else:
            s = s * p ** (m - v) + x._unit * y._unit
            m = v
    if A == _INF:
        return PadicNumber.exact_zero(p)
    if m >= A:
        return PadicNumber.zeroish(p, A)
    return PadicNumber._make(p, m, s, A - m)


def object_dot(zero, xs, ys):
    """sum(x*y for x, y in zip(xs, ys)) as the object fold from ``zero``.

    The sum of products for coefficients that padic_dot cannot take, such
    as QuadExtNumber pairs.  Exact-zero products are skipped: adding one
    would return the accumulator unchanged.
    """
    acc = zero
    for x, y in zip(xs, ys):
        if not (x.is_exact_zero() or y.is_exact_zero()):
            acc = acc + x * y
    return acc


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

    def __hash__(self):
        return hash((self.prime, self.kind))

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

    def trace(self) -> PadicNumber:
        """Tr(a + b*sqrt(d)) = 2a."""
        return self.a * 2

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

    def _coerce(self, other, additive: bool = False):
        if isinstance(other, QuadExtNumber):
            if other.ext != self.ext:
                raise ValueError("mixing distinct quadratic extensions")
            return other
        if isinstance(other, PadicNumber):
            return QuadExtNumber.from_base(self.ext, other)
        if isinstance(other, (int, Fraction)):
            if additive and other != 0 and self.is_exact_zero():
                raise TypeError("an exact zero gives %s no precision; "
                                "lift it through a domain" % other)
            rel = max(self.a.rel_precision, self.b.rel_precision, 1)
            return QuadExtNumber.from_base(
                self.ext, PadicNumber.from_rational(other, self.prime, rel))
        return None

    def __add__(self, other):
        o = self._coerce(other, additive=True)
        if o is None:
            return NotImplemented
        return QuadExtNumber(self.ext, self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self):
        return QuadExtNumber(self.ext, -self.a, -self.b)

    def __sub__(self, other):
        o = self._coerce(other, additive=True)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other, additive=True)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
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
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        result = self._coerce(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __repr__(self):
        return "QuadExtNumber((%r) + (%r)*sqrt(%d))" % (self.a, self.b, self.ext.d)


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


def padic_sqrt(a: PadicNumber, ext: QuadExtension | None = None):
    """Square root of a, in Q_p when one exists, else in the forced extension.

    The root is determined by the residue data of ``a`` alone:

    * even valuation, residue a QR  -> Hensel lift in Q_p;
    * even valuation, non-residue   -> b*sqrt(c), unramified;
    * odd valuation, residue a QR   -> b*sqrt(p), ramified;
    * odd valuation, non-residue    -> b*sqrt(p*c), ramified.

    Canonical choice: the lowest mantissa digit of the returned root (of its b
    component for extensions) lies in [1, (p-1)/2].  If ``ext`` is supplied it
    must match the forced extension; a base-field root ignores it.
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
        target = QuadExtension(p, QuadExtension.UNRAMIFIED)
        u2 = unit * pow(c, -1, p ** rel) % p ** rel
        b = PadicNumber._make(p, v // 2, _lift_sqrt(u2, sqrt_mod_p(u2 % p, p), p, rel), rel)
    elif r0 is not None:
        target = QuadExtension(p, QuadExtension.RAMIFIED)
        b = PadicNumber._make(p, (v - 1) // 2, _lift_sqrt(unit, r0, p, rel), rel)
    else:
        target = QuadExtension(p, QuadExtension.RAMIFIED_TWIST)
        u2 = unit * pow(c, -1, p ** rel) % p ** rel
        b = PadicNumber._make(p, (v - 1) // 2, _lift_sqrt(u2, sqrt_mod_p(u2 % p, p), p, rel), rel)
    if ext is not None and ext != target:
        raise ValueError("root lies in %r, not the declared %r" % (target, ext))
    return QuadExtNumber(target, PadicNumber.exact_zero(p), _canonical_sign(b))


def _ext_sqrt(F, z: QuadExtNumber) -> QuadExtNumber:
    """Square root of a unit z of the unramified extension F.ext at F.rel
    digits (F a polys.QuadExtDomain): brute-force the residue, then Newton."""
    ext, p = F.ext, F.p
    za, zb = z.residue_pair()
    start = None
    for ra in range(p):
        for rb in range(p):
            if ((ra * ra + ext.d * rb * rb) % p == za
                    and (2 * ra * rb) % p == zb):
                start = (ra, rb)
                break
        if start is not None:
            break
    if start is None:
        raise ArithmeticError("residue is not a square in the extension")
    x = QuadExtNumber(ext, PadicNumber.from_rational(start[0], p, F.rel),
                      PadicNumber.from_rational(start[1], p, F.rel))
    half = F.lift(Fraction(1, 2))
    for _ in range(64):
        d = x * x - z
        if d.is_zeroish():
            return x
        x = (x + z / x) * half
    raise ArithmeticError("Newton iteration for the extension sqrt stalled")


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


class PadicPoly:
    """Dense polynomial over Q_p; index i holds the coefficient of x^i."""

    __slots__ = ("prime", "coeffs")

    def __init__(self, prime: int, coeffs):
        self.prime = prime
        self.coeffs = [c if isinstance(c, PadicNumber)
                       else PadicNumber.from_rational(c, prime)
                       for c in coeffs] or [PadicNumber.exact_zero(prime)]

    def __call__(self, x):
        acc = PadicNumber.exact_zero(self.prime)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "PadicPoly":
        return PadicPoly(self.prime,
                         [self.coeffs[i] * i for i in range(1, len(self.coeffs))])

    def newton_polygon(self) -> "NewtonPolygon":
        return NewtonPolygon.of_poly(self)


class NewtonPolygon:
    """Lower convex hull of (i, v(c_i)); slopes are non-decreasing.

    A segment of slope -s and horizontal length l certifies l roots of
    valuation s (with multiplicity, over an algebraic closure).  Exactly
    vanishing low coefficients contribute roots at 0, reported with
    valuation +inf.
    """

    __slots__ = ("vertices", "zero_roots")

    def __init__(self, vertices, zero_roots: int = 0):
        self.vertices = list(vertices)
        self.zero_roots = zero_roots

    @classmethod
    def of_poly(cls, f: PadicPoly) -> "NewtonPolygon":
        pts, floors = [], []
        for i, c in enumerate(f.coeffs):
            if c.is_zeroish():
                if not c.is_exact_zero():
                    floors.append((i, c.valuation))
            else:
                pts.append((i, int(c.valuation)))
        if not pts:
            raise PrecisionLossError("no coefficient with known digits")
        hull = _lower_hull(pts)
        for i, floor in floors:
            # a coefficient with no known digits is tolerable only strictly
            # above the hull; anything else could reshape the polygon
            if i < hull[0][0] or i > hull[-1][0]:
                raise PrecisionLossError(
                    "coefficient %d known only to O(p^%s) outside the hull span" % (i, floor))
            if floor < _hull_value_at(hull, i):
                raise PrecisionLossError(
                    "coefficient %d known only to O(p^%s); polygon undetermined" % (i, floor))
        return cls(hull, zero_roots=hull[0][0])

    def slopes(self):
        """[(slope, horizontal_length)] left to right; slope is a Fraction."""
        return [(Fraction(v1 - v0, i1 - i0), i1 - i0)
                for (i0, v0), (i1, v1) in zip(self.vertices, self.vertices[1:])]

    def root_valuations(self):
        """[(valuation, count)], roots at 0 first with valuation +inf."""
        out = [(_INF, self.zero_roots)] if self.zero_roots else []
        out.extend((-s, l) for s, l in self.slopes())
        return out


def _lower_hull(pts):
    pts = sorted(pts)
    hull = []
    for pt in pts:
        while len(hull) >= 2:
            (x0, y0), (x1, y1) = hull[-2], hull[-1]
            if (y1 - y0) * (pt[0] - x0) >= (pt[1] - y0) * (x1 - x0):
                hull.pop()
            else:
                break
        hull.append(pt)
    return hull


def _hull_value_at(hull, i):
    for (x0, y0), (x1, y1) in zip(hull, hull[1:]):
        if x0 <= i <= x1:
            return Fraction(y0) + Fraction(y1 - y0, x1 - x0) * (i - x0)
    return None


def hensel_root(f: PadicPoly, x0: PadicNumber, target_rel: int | None = None) -> PadicNumber:
    """The unique root of f near x0, under v(f(x0)) > 2 v(f'(x0)).

    Newton iteration with quadratic convergence.  Raises
    NotHenselLiftableError when the hypothesis fails at x0.  x0 may be a
    QuadExtNumber when target_rel is given.
    """
    fx = f(x0)
    df = f.derivative()
    dfx = df(x0)
    if dfx.is_zeroish():
        raise NotHenselLiftableError("derivative indistinguishable from 0 at x0")
    if fx.is_zeroish():
        if not fx.is_exact_zero() and fx.valuation - 2 * dfx.valuation <= 0:
            raise NotHenselLiftableError("cannot certify v(f(x0)) > 2 v(f'(x0))")
    elif fx.valuation <= 2 * dfx.valuation:
        raise NotHenselLiftableError(
            "v(f(x0)) = %s <= 2 v(f'(x0)) = %s" % (fx.valuation, 2 * dfx.valuation))
    x = x0
    target = target_rel if target_rel is not None else x0.rel_precision
    for _ in range(64):
        fx = f(x)
        if fx.is_zeroish() and (fx.is_exact_zero()
                                or fx.valuation >= dfx.valuation + target):
            break
        step = fx / df(x)
        if step.is_zeroish():
            break
        x = x - step
    else:
        raise NotHenselLiftableError("Newton iteration failed to converge")
    return x


class PadicPowerSeries:
    """Truncated series sum_i c_i t^(shift+i) with a certified tail.

    ``tail_valuation_bound`` promises v(coefficient of t^d) >= bound for every
    d beyond shift + truncation_order; a bound of +inf means those
    coefficients vanish exactly (a genuine polynomial).  When
    ``tail_log_penalty`` is set the promise weakens to bound - floor(log_p d),
    which is what antiderivatives produce; the penalty is discharged back into
    an integer bound by argument rescaling or by evaluation at |t| < 1.

    shift < 0 gives the Laurent expansions needed at the point at infinity;
    normality, Strassmann counting and antidifferentiation require shift 0.
    """

    __slots__ = ("prime", "coeffs", "tail_valuation_bound", "shift", "tail_log_penalty")

    def __init__(self, prime: int, coeffs, tail_valuation_bound=_INF, shift: int = 0,
                 tail_log_penalty: bool = False):
        self.prime = prime
        self.coeffs = [c if isinstance(c, (PadicNumber, QuadExtNumber))
                       else PadicNumber.from_rational(c, prime)
                       for c in coeffs] or [PadicNumber.exact_zero(prime)]
        self.tail_valuation_bound = tail_valuation_bound
        self.shift = shift
        self.tail_log_penalty = tail_log_penalty
        if tail_log_penalty and tail_valuation_bound == _INF:
            self.tail_log_penalty = False

    @property
    def truncation_order(self) -> int:
        return len(self.coeffs) - 1

    def coeff_of_degree(self, d: int) -> PadicNumber:
        i = d - self.shift
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return PadicNumber.exact_zero(self.prime)

    def _horizon(self):
        """Largest t-degree whose coefficient is fully determined (inf for
        polynomials)."""
        return _INF if self.tail_valuation_bound == _INF else self.shift + self.truncation_order

    def _finite_min_val(self):
        m = self.tail_valuation_bound
        for c in self.coeffs:
            if c.valuation < m:
                m = c.valuation
        return m

    def is_normal(self) -> bool:
        """All coefficients integral and tending to 0 (shift 0 required)."""
        if self.shift != 0 or self.tail_log_penalty:
            return False
        if any(c.valuation < 0 for c in self.coeffs):
            return False
        return self.tail_valuation_bound > 0

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        if not isinstance(other, PadicPowerSeries):
            return NotImplemented
        p = self.prime
        lo = min(self.shift, other.shift)
        hi = min(self._horizon(), other._horizon())
        if hi == _INF:
            hi = max(self.shift + self.truncation_order,
                     other.shift + other.truncation_order)
        hi = int(hi)
        # outside one operand's range the other's coefficient is copied:
        # adding an exact zero would return it unchanged
        a, b = self.coeffs, other.coeffs
        coeffs = []
        for d in range(lo, hi + 1):
            i, j = d - self.shift, d - other.shift
            if 0 <= i < len(a):
                coeffs.append(a[i] + b[j] if 0 <= j < len(b) else a[i])
            else:
                coeffs.append(b[j] if 0 <= j < len(b) else PadicNumber.exact_zero(p))
        tail = min(self.tail_valuation_bound, other.tail_valuation_bound)
        penalty = self.tail_log_penalty or other.tail_log_penalty
        # a log penalty only ever weakens the bound, so keeping the flag on the
        # min of the bases stays sound
        return PadicPowerSeries(p, coeffs, tail, lo, penalty)

    def __neg__(self):
        return PadicPowerSeries(self.prime, [-c for c in self.coeffs],
                                self.tail_valuation_bound, self.shift, self.tail_log_penalty)

    def __sub__(self, other):
        if not isinstance(other, PadicPowerSeries):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, PadicNumber)):
            # each coefficient reads an exact constant at its own precision
            v = other.valuation if isinstance(other, PadicNumber) else vp(other, self.prime)
            if v == _INF:
                return PadicPowerSeries(self.prime, [PadicNumber.exact_zero(self.prime)], _INF, 0)
            if isinstance(other, PadicNumber) and other.is_zeroish():
                raise PrecisionLossError("scaling a series by a value with no known digits")
            return PadicPowerSeries(self.prime, [x * other for x in self.coeffs],
                                    self.tail_valuation_bound + v, self.shift,
                                    self.tail_log_penalty)
        if not isinstance(other, PadicPowerSeries):
            return NotImplemented
        if self.tail_log_penalty or other.tail_log_penalty:
            raise ValueError("multiplying log-penalized tails is unsupported")
        p = self.prime
        sa, sb = self.shift, other.shift
        hi = min(self._horizon() + sb, other._horizon() + sa)
        if hi == _INF:
            hi = sa + self.truncation_order + sb + other.truncation_order
        hi = int(hi)
        lo = sa + sb
        a, b = self.coeffs, other.coeffs
        dot = _series_dot(p, a + b)
        out = []
        for k in range(hi - lo + 1):
            i0 = max(0, k - len(b) + 1)
            out.append(dot(a[i0: k + 1], b[k - i0:: -1]))
        if self.tail_valuation_bound == _INF and other.tail_valuation_bound == _INF:
            tail = _INF
        else:
            tail = min(self.tail_valuation_bound + other._finite_min_val(),
                       other.tail_valuation_bound + self._finite_min_val())
        return PadicPowerSeries(p, out, tail, lo)

    __rmul__ = __mul__

    def shifted(self, k: int) -> "PadicPowerSeries":
        """Multiply by t^k."""
        return PadicPowerSeries(self.prime, list(self.coeffs), self.tail_valuation_bound,
                                self.shift + k, self.tail_log_penalty)

    def derivative(self) -> "PadicPowerSeries":
        p = self.prime
        if self.shift == 0:
            coeffs = [self.coeffs[i] * i for i in range(1, len(self.coeffs))]
            return PadicPowerSeries(p, coeffs, self.tail_valuation_bound, 0,
                                    self.tail_log_penalty)
        coeffs = [c * (self.shift + i) for i, c in enumerate(self.coeffs)]
        return PadicPowerSeries(p, coeffs, self.tail_valuation_bound,
                                self.shift - 1, self.tail_log_penalty)

    def antiderivative(self) -> "PadicPowerSeries":
        """Termwise integral with constant 0; the tail picks up a log penalty."""
        if self.shift != 0:
            raise ValueError("antiderivative requires shift 0")
        if self.tail_log_penalty:
            raise ValueError("iterated antiderivatives are unsupported")
        p = self.prime
        coeffs = [PadicNumber.exact_zero(p)]
        coeffs.extend(c / (i + 1) for i, c in enumerate(self.coeffs))
        return PadicPowerSeries(p, coeffs, self.tail_valuation_bound, 0,
                                tail_log_penalty=self.tail_valuation_bound != _INF)

    def rescale_argument(self, n: int) -> "PadicPowerSeries":
        """Substitute t = p^n r; discharges any tail log penalty (n >= 1)."""
        if self.shift != 0:
            raise ValueError("rescale requires shift 0")
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
        return PadicPowerSeries(p, coeffs, tail, 0)

    def evaluate(self, t):
        """Value at t with v_p(t) > 0; the result's precision includes the
        truncation error."""
        if self.shift < 0:
            raise ValueError("evaluation of a Laurent series is unsupported")
        delta = t.valuation_p()
        if delta == _INF:
            val = self.coeffs[0]
            return val * 0 if self.shift else val
        delta = Fraction(delta)
        if delta <= 0:
            raise ValueError("series evaluation requires v(t) > 0")
        acc = None
        for c in reversed(self.coeffs):
            acc = c if acc is None else acc * t + c
        for _ in range(self.shift):
            acc = acc * t
        cap = self._eval_tail_cap(delta)
        if cap == _INF:
            return acc
        return acc.with_abs_cap(int(math.floor(cap)))

    def _eval_tail_cap(self, delta: Fraction):
        base = self.tail_valuation_bound
        if base == _INF:
            return _INF
        T = self.shift + self.truncation_order
        if not self.tail_log_penalty:
            return base + (T + 1) * delta
        return log_penalty_tail_cap(self.prime, T, base, delta)

    def inverse(self) -> "PadicPowerSeries":
        """1/self for an integral series with unit constant term."""
        if self.shift != 0:
            raise ValueError("inverse requires shift 0 (strip poles with shifted())")
        c0 = self.coeffs[0]
        if c0.is_zeroish():
            raise PrecisionLossError("inverting a series with indistinguishable constant term")
        if c0.valuation != 0 or self._finite_min_val() < 0:
            raise ValueError("series inverse requires an integral series with unit constant")
        p = self.prime
        dot = _series_dot(p, self.coeffs)
        inv0 = c0.inverse()
        out = [inv0]
        for d in range(1, self.truncation_order + 1):
            out.append(-inv0 * dot(self.coeffs[1: d + 1], out[d - 1:: -1]))
        tail = 0 if self.tail_valuation_bound != _INF else _INF
        return PadicPowerSeries(p, out, tail, 0)

    def __repr__(self):
        return "PadicPowerSeries(p=%d, T=%d, shift=%d, tail>=%s%s)" % (
            self.prime, self.truncation_order, self.shift, self.tail_valuation_bound,
            ", log-penalty" if self.tail_log_penalty else "")


def _series_dot(p: int, coeffs):
    """The sum of products for one series product or inverse: padic_dot
    when every coefficient is a PadicNumber, else the object fold."""
    if all(type(c) is PadicNumber for c in coeffs):
        return lambda xs, ys: padic_dot(p, xs, ys)
    zero = PadicNumber.exact_zero(p)
    return lambda xs, ys: object_dot(zero, xs, ys)


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
    if f.shift != 0:
        raise ValueError("strassmann_count requires shift 0")
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
        acc = None
        for c in reversed(g.coeffs):
            acc = c if acc is None else acc * x + c
        val = acc
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
