"""Dense polynomial arithmetic over pluggable coefficient domains.

The same composition/reduction code drives Jacobian arithmetic over Q
(exact Fractions), over F_p (ints), and over Q_p and its quadratic
extensions (capped precision).  A domain supplies ring ops plus the two
predicates the algorithms actually branch on: "certainly zero" and
"usable as a pivot".  Over Q_p the two differ: a coefficient with no
known digits is neither, and any degree decision that depends on one
raises PrecisionLossError so the caller can retry with more digits.

The Q_p and extension domains also drive the truncated series recursions
in curve; their sums of products go through ``dot``.

Polynomials are ascending coefficient lists; [] is the zero polynomial.
"""

from __future__ import annotations

from fractions import Fraction

from .padic import (
    PadicNumber,
    PrecisionLossError,
    QuadExtension,
    QuadExtNumber,
    object_dot,
    padic_dot,
)


class _ElementOps:
    """Ring operations of a domain whose elements carry their own
    operators: Fraction, PadicNumber and QuadExtNumber."""

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def div(self, a, b):
        return a / b


class RationalDomain(_ElementOps):
    """Exact arithmetic in Q."""

    def lift(self, x):
        return Fraction(x)

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def is_zero(self, a):
        return a == 0

    def is_pivot(self, a):
        return a != 0

    def eq(self, a, b):
        return a == b


class PrimeFieldDomain:
    """F_p with elements stored as ints in [0, p)."""

    def __init__(self, p: int):
        self.p = p

    def lift(self, x):
        if isinstance(x, Fraction):
            return x.numerator * pow(x.denominator, -1, self.p) % self.p
        return int(x) % self.p

    def zero(self):
        return 0

    def one(self):
        return 1

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return -a % self.p

    def mul(self, a, b):
        return a * b % self.p

    def div(self, a, b):
        return a * pow(b, -1, self.p) % self.p

    def is_zero(self, a):
        return a == 0

    def is_pivot(self, a):
        return a != 0

    def eq(self, a, b):
        return a == b


class PadicDomain(_ElementOps):
    """Q_p at a fixed working precision."""

    def __init__(self, p: int, rel: int):
        self.p = p
        self.rel = rel

    def lift(self, x):
        if isinstance(x, PadicNumber):
            return x
        return PadicNumber.from_rational(x, self.p, self.rel)

    def zero(self):
        return PadicNumber.exact_zero(self.p)

    def one(self):
        return PadicNumber.from_int(1, self.p, self.rel)

    def dot(self, xs, ys):
        return padic_dot(self.p, xs, ys)

    def is_zero(self, a):
        # only an exact zero is *certainly* zero
        return a.is_exact_zero()

    def is_pivot(self, a):
        return not a.is_zeroish()

    def eq(self, a, b):
        return (a - b).is_zeroish()


class QuadExtDomain(_ElementOps):
    """Quadratic extension of Q_p at a fixed working precision."""

    def __init__(self, ext: QuadExtension, rel: int):
        self.ext = ext
        self.p = ext.prime
        self.rel = rel

    def lift(self, x):
        if isinstance(x, QuadExtNumber):
            return x
        if isinstance(x, PadicNumber):
            return QuadExtNumber.from_base(self.ext, x)
        return QuadExtNumber.from_base(
            self.ext, PadicNumber.from_rational(x, self.p, self.rel))

    def zero(self):
        z = PadicNumber.exact_zero(self.p)
        return QuadExtNumber(self.ext, z, z)

    def one(self):
        return self.lift(1)

    def dot(self, xs, ys):
        # extension elements are pairs, so the integer kernel does not apply
        return object_dot(self.zero(), xs, ys)

    def is_zero(self, a):
        return a.a.is_exact_zero() and a.b.is_exact_zero()

    def is_pivot(self, a):
        return not a.is_zeroish()

    def eq(self, a, b):
        return (a - b).is_zeroish()


def poly_lift(dom, coeffs):
    return [dom.lift(c) for c in coeffs]


def poly_trim(dom, a):
    """Strip certainly-zero leading coefficients (keeps uncertain ones)."""
    n = len(a)
    while n > 0 and dom.is_zero(a[n - 1]):
        n -= 1
    return a[:n]


def poly_degree_certified(dom, a):
    """Degree with a certified leading coefficient; -1 for the zero poly.

    Raises PrecisionLossError when the top surviving coefficient is
    indistinguishable from zero without being certainly zero.
    """
    a = poly_trim(dom, a)
    if not a:
        return -1
    if not dom.is_pivot(a[-1]):
        raise PrecisionLossError(
            "leading coefficient indistinguishable from 0; degree ambiguous")
    return len(a) - 1


def poly_add(dom, a, b):
    n = min(len(a), len(b))
    out = [dom.add(x, y) for x, y in zip(a, b)] + a[n:] + b[n:]
    return poly_trim(dom, out)


def poly_sub(dom, a, b):
    return poly_add(dom, a, [dom.neg(c) for c in b])


def poly_neg(dom, a):
    return [dom.neg(c) for c in a]


def poly_mul(dom, a, b):
    if not a or not b:
        return []
    # each coefficient starts from its first product: a sum that starts
    # from zero costs one wasted add per coefficient over Q_p
    out = [None] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if dom.is_zero(x):
            continue
        for j, y in enumerate(b):
            t = dom.mul(x, y)
            out[i + j] = t if out[i + j] is None else dom.add(out[i + j], t)
    return poly_trim(dom, [dom.zero() if c is None else c for c in out])


def poly_scale(dom, c, a):
    return poly_trim(dom, [dom.mul(c, x) for x in a])


def poly_divmod(dom, a, b):
    """(q, r) with a = q*b + r, deg r < deg b; b needs a certified pivot lead."""
    db = poly_degree_certified(dom, b)
    if db < 0:
        raise ZeroDivisionError("polynomial division by zero")
    lead_inv = dom.div(dom.one(), b[db])
    r = list(a)
    q = [dom.zero() for _ in range(max(len(a) - db, 0))]
    for k in range(len(r) - 1 - db, -1, -1):
        top = r[k + db]
        if dom.is_zero(top):
            continue
        c = dom.mul(top, lead_inv)
        q[k] = c
        for j in range(db + 1):
            r[k + j] = dom.sub(r[k + j], dom.mul(c, b[j]))
        r[k + db] = dom.zero()
    return poly_trim(dom, q), poly_trim(dom, r[:db])


def poly_mod(dom, a, b):
    return poly_divmod(dom, a, b)[1]


def poly_divexact(dom, a, b):
    """a / b when the division is known to be exact; remainder must vanish
    at the domain's certainty level (uncertain remainders raise)."""
    q, r = poly_divmod(dom, a, b)
    for c in r:
        if dom.is_pivot(c):
            raise ArithmeticError("inexact polynomial division")
    return q


def poly_monic(dom, a):
    d = poly_degree_certified(dom, a)
    if d < 0:
        return []
    if dom.eq(a[d], dom.one()):
        return poly_trim(dom, a)
    inv = dom.div(dom.one(), a[d])
    return poly_scale(dom, inv, a)


def poly_xgcd(dom, a, b):
    """(g, s, t) with s*a + t*b = g, g monic (or the zero poly).

    Plain Euclid; each division pivots on a certified leading coefficient,
    so precision loss surfaces as an error instead of a wrong degree.
    """
    r0, r1 = poly_trim(dom, list(a)), poly_trim(dom, list(b))
    s0, s1 = [dom.one()], []
    t0, t1 = [], [dom.one()]
    while poly_degree_certified(dom, r1) >= 0:
        q, r = poly_divmod(dom, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, poly_sub(dom, s0, poly_mul(dom, q, s1))
        t0, t1 = t1, poly_sub(dom, t0, poly_mul(dom, q, t1))
    d = poly_degree_certified(dom, r0)
    if d < 0:
        return [], [], []
    inv = dom.div(dom.one(), r0[d])
    return (poly_scale(dom, inv, r0), poly_scale(dom, inv, s0),
            poly_scale(dom, inv, t0))


def poly_eq(dom, a, b):
    a, b = poly_trim(dom, a), poly_trim(dom, b)
    n = max(len(a), len(b))
    for i in range(n):
        x = a[i] if i < len(a) else dom.zero()
        y = b[i] if i < len(b) else dom.zero()
        if not dom.eq(x, y):
            return False
    return True
