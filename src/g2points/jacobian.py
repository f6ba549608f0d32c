"""Jacobian arithmetic in Mumford representation.

A divisor class is held as a pair (u, v): u monic of degree <= 2, v of
degree < deg u, with u | v^2 - f.  The identity is (1, 0).  The group law
is Cantor composition and reduction, generic over the coefficient domains
in polys (exact rationals, F_p, capped-precision Q_p).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .curve import (FP_INFINITY, CurvePoint, HyperellipticCurve, count_Fp_points,
                    count_Fp2_points, fp_curve_points, reduce_point)
from .padic import (DEFAULT_PRECISION, PadicNumber, QuadExtension, padic_sqrt,
                    sqrt_mod_p)
from .polys import (PadicDomain, PrimeFieldDomain, QuadExtDomain,
                    RationalDomain, poly_add, poly_degree_certified,
                    poly_divexact, poly_eq, poly_lift, poly_mod, poly_monic,
                    poly_mul, poly_neg, poly_trim, poly_xgcd)


class MumfordDivisor:
    """(u, v) divisor class representative over a coefficient domain."""

    __slots__ = ("domain", "u", "v")

    def __init__(self, domain, u, v):
        self.domain = domain
        self.u = poly_trim(domain, list(u))
        self.v = poly_trim(domain, list(v))

    @classmethod
    def identity(cls, domain) -> "MumfordDivisor":
        return cls(domain, [domain.one()], [])

    def degree(self) -> int:
        return poly_degree_certified(self.domain, self.u)

    def is_identity(self) -> bool:
        return self.degree() == 0

    def neg(self) -> "MumfordDivisor":
        return MumfordDivisor(self.domain, self.u,
                              poly_neg(self.domain, self.v))

    def validate(self, C: HyperellipticCurve) -> None:
        dom = self.domain
        du = poly_degree_certified(dom, self.u)
        if du > 2:
            raise ValueError("u degree exceeds genus bound")
        if not dom.is_pivot(self.u[du]) or not dom.eq(self.u[du], dom.one()):
            raise ValueError("u is not monic")
        dv = len(poly_trim(dom, self.v)) - 1
        if dv >= du and self.v:
            raise ValueError("v degree not below u degree")
        f = poly_lift(dom, C.f_coeffs)
        resid = poly_mod(dom, poly_add(dom, poly_mul(dom, self.v, self.v),
                                       poly_neg(dom, f)), self.u)
        for c in resid:
            if dom.is_pivot(c):
                raise ValueError("u does not divide v^2 - f")

    def key(self):
        """Hashable form; exact domains only."""
        return tuple(self.u), tuple(self.v)

    def __eq__(self, other):
        if not isinstance(other, MumfordDivisor):
            return NotImplemented
        return (poly_eq(self.domain, self.u, other.u)
                and poly_eq(self.domain, self.v, other.v))

    __hash__ = None

    def __repr__(self):
        return "MumfordDivisor(u=%r, v=%r)" % (self.u, self.v)


def cantor_add(C: HyperellipticCurve, a: MumfordDivisor,
               b: MumfordDivisor) -> MumfordDivisor:
    """Group law: composition then reduction to degree <= 2."""
    dom = a.domain
    f = poly_lift(dom, C.f_coeffs)
    u1, v1, u2, v2 = a.u, a.v, b.u, b.v

    if u1 is u2:
        # doubling: gcd(u, u) = u structurally, no pivot decisions needed
        # (over Q_p a numeric u - u is zeroish, not certifiably zero)
        d1, e1, e2 = list(u1), [], [dom.one()]
    else:
        d1, e1, e2 = poly_xgcd(dom, u1, u2)
    d, c1, c2 = poly_xgcd(dom, d1, poly_add(dom, v1, v2))
    s1 = poly_mul(dom, c1, e1)
    s2 = poly_mul(dom, c1, e2)
    s3 = c2

    u3 = poly_divexact(dom, poly_mul(dom, u1, u2), poly_mul(dom, d, d))
    num = poly_add(dom, poly_add(dom,
                                 poly_mul(dom, poly_mul(dom, s1, u1), v2),
                                 poly_mul(dom, poly_mul(dom, s2, u2), v1)),
                   poly_mul(dom, s3, poly_add(dom, poly_mul(dom, v1, v2), f)))
    v3 = poly_mod(dom, poly_divexact(dom, num, d), u3)

    while poly_degree_certified(dom, u3) > 2:
        u3 = poly_divexact(dom, poly_add(dom, f, poly_neg(
            dom, poly_mul(dom, v3, v3))), u3)
        u3 = poly_monic(dom, u3)
        v3 = poly_mod(dom, poly_neg(dom, v3), u3)
    u3 = poly_monic(dom, u3)
    return MumfordDivisor(dom, u3, poly_mod(dom, v3, u3))


def scalar_mul(C: HyperellipticCurve, m: int,
               D: MumfordDivisor) -> MumfordDivisor:
    """m.D by double-and-add; negative m through the involution inverse."""
    if m < 0:
        return scalar_mul(C, -m, D.neg())
    if m >= 3 and isinstance(D.domain, PadicDomain) and D.degree() == 1:
        # 2D stays supported at the base point, so the plain ladder asks
        # for a gcd no capped-precision pivot can certify; multiples of
        # the doubled class move off the base disc
        E = cantor_add(C, D, D)
        if m % 2 == 0:
            return scalar_mul(C, m // 2, E)
        acc = scalar_mul(C, (m + 1) // 2, E)
        return cantor_add(C, acc, D.neg())
    acc = MumfordDivisor.identity(D.domain)
    base = D
    while m:
        if m & 1:
            acc = cantor_add(C, acc, base)
        m >>= 1
        if m:
            base = cantor_add(C, base, base)
    return acc


def _domain_for_point(Q: CurvePoint):
    if Q.at_infinity:
        return None
    if isinstance(Q.x, PadicNumber):
        rel = max(Q.x.rel_precision, Q.y.rel_precision)
        if not rel:
            raise TypeError("a point with no known digits gives embed_point "
                            "no precision; pass a domain")
        return PadicDomain(Q.x.prime, rel)
    return RationalDomain()


def embed_point(C: HyperellipticCurve, Q: CurvePoint,
                P0: CurvePoint, domain=None) -> MumfordDivisor:
    """The class [Q - P0].  With P0 at infinity and Q affine: (x - x_Q, y_Q)."""
    if domain is None:
        domain = (_domain_for_point(Q) or _domain_for_point(P0)
                  or RationalDomain())

    def against_infinity(pt):
        if pt.at_infinity:
            return MumfordDivisor.identity(domain)
        x = domain.lift(pt.x) if not isinstance(pt.x, PadicNumber) else pt.x
        y = domain.lift(pt.y) if not isinstance(pt.y, PadicNumber) else pt.y
        return MumfordDivisor(domain, [domain.neg(x), domain.one()], [y])

    D = against_infinity(Q)
    if P0.at_infinity:
        return D
    return cantor_add(C, D, against_infinity(P0).neg())


def curve_preimage(C: HyperellipticCurve, D: MumfordDivisor, P0: CurvePoint):
    """The rational point Q with [Q - P0] = D, or None."""
    E = cantor_add(C, D, embed_point(C, P0, CurvePoint.infinity(),
                                     domain=D.domain))
    deg = E.degree()
    if deg == 0:
        return CurvePoint.infinity()
    if deg == 1:
        x = E.domain.neg(E.u[0])
        y = E.v[0] if E.v else E.domain.zero()
        return CurvePoint.affine(x, y)
    return None


# -- the groups J(F_q) ------------------------------------------------------

class FpJacobian:
    """The full group J(F_p): element list, order, exponent."""

    __slots__ = ("elements", "order", "exponent")

    def __init__(self, elements, order, exponent):
        self.elements = elements
        self.order = order
        self.exponent = exponent


def _prime_factors(n: int):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def element_order(C: HyperellipticCurve, D: MumfordDivisor, n: int) -> int:
    """Order of D, given a multiple n of it: one descent over n's primes."""
    o = n
    for q in _prime_factors(n):
        while o % q == 0 and scalar_mul(C, o // q, D).is_identity():
            o //= q
    if not scalar_mul(C, o, D).is_identity():
        raise ValueError("%d is not a multiple of the element's order" % n)
    return o


def jacobian_order(C: HyperellipticCurve, q: int) -> int:
    """|J(F_q)| from the zeta identity, built from |C(F_q)| and
    |C(F_{q^2})|."""
    if not C.good_reduction(q):
        raise ValueError("curve has bad reduction at %d" % q)
    s1 = q + 1 - count_Fp_points(C, q)
    s2 = (s1 * s1 - (q * q + 1 - count_Fp2_points(C, q))) // 2
    return 1 - s1 + s2 - q * s1 + q * q


_enumeration_cache: dict = {}


def enumerate_Fp_jacobian(C: HyperellipticCurve, p: int) -> FpJacobian:
    """All Mumford pairs over F_p, cross-checked against jacobian_order."""
    ck = (tuple(C.f_coeffs), p)
    if ck in _enumeration_cache:
        return _enumeration_cache[ck]
    if p > 50:
        raise ValueError("enumeration is desk-scale only (p <= 50)")
    # jacobian_order also refuses a prime of bad reduction
    zeta_order = jacobian_order(C, p)
    dom = PrimeFieldDomain(p)
    f = poly_lift(dom, C.f_coeffs)
    els = [fp_point_class(dom, c) for c in fp_curve_points(C, p)]

    for u1 in range(p):
        for u0 in range(p):
            u = [u0, u1, 1]
            r = poly_mod(dom, f, u)
            r0 = r[0] if len(r) > 0 else 0
            r1 = r[1] if len(r) > 1 else 0
            # v = v1 x + v0 with v^2 = f mod u:
            #   2 v1 v0 - v1^2 u1 = r1 and v0^2 - v1^2 u0 = r0
            v0 = sqrt_mod_p(r0, p) if r1 == 0 else None
            if v0 is not None:
                els.append(MumfordDivisor(dom, u, [v0] if v0 else []))
                if v0:
                    els.append(MumfordDivisor(dom, u, [p - v0]))
            for v1 in range(1, p):
                v0 = (r1 + v1 * v1 % p * u1) * pow(2 * v1, -1, p) % p
                if (v0 * v0 - v1 * v1 % p * u0) % p == r0:
                    els.append(MumfordDivisor(dom, u, poly_trim(dom, [v0, v1])))

    order = len(els)
    if order != zeta_order:
        raise ArithmeticError(
            "enumeration found %d elements but zeta identity gives %d"
            % (order, zeta_order))

    exponent = 1
    for el in els:
        if not scalar_mul(C, exponent, el).is_identity():
            o = element_order(C, el, order)
            exponent = exponent * o // math.gcd(exponent, o)
    J = FpJacobian(els, order, exponent)
    _enumeration_cache[ck] = J
    return J


# -- reduction J(Q) -> J(F_p) ------------------------------------------------

def divisor_support(D: MumfordDivisor, p: int, rel: int):
    """(points, disc): the support of a class of degree <= 2 over Q or Q_p.

    points is empty for the identity, one point for degree 1, and for
    degree 2 the two roots x of u with y = v(x): both over Q_p, or a
    conjugate pair P, sigma(P) over Q_p(sqrt(d)).  When disc(u) has no
    known digits the roots cannot be separated and only their midpoint is
    returned.  disc is disc(u) over Q_p for degree 2, None below.  A
    rational D is read at rel digits, but its discriminant is formed
    exactly.
    """
    if isinstance(D.domain, PadicDomain) and D.domain.p != p:
        raise ValueError("divisor is %d-adic, support asked at %d"
                         % (D.domain.p, p))
    deg = D.degree()
    if deg == 0:
        return [], None
    F = PadicDomain(p, rel)
    uc = poly_lift(F, D.u)
    vc = poly_lift(F, D.v) + [F.zero()] * (2 - len(D.v))

    def point_over(x):
        return CurvePoint(x, vc[0] + vc[1] * x, False)

    if deg == 1:
        return [point_over(-(uc[0] / uc[1]))], None
    if isinstance(D.domain, RationalDomain):
        disc = F.lift(Fraction(D.u[1]) ** 2
                      - 4 * Fraction(D.u[2]) * Fraction(D.u[0]))
    else:
        disc = uc[1] * uc[1] - uc[2] * uc[0] * 4
    if disc.is_zeroish():
        return [point_over(-(uc[1] / (uc[2] * 2)))], disc
    root = padic_sqrt(disc)
    minus_b, inv2a = -uc[1], (uc[2] * 2).inverse()
    if isinstance(root, PadicNumber):
        return [point_over((minus_b + root) * inv2a),
                point_over((minus_b - root) * inv2a)], disc
    E = QuadExtDomain(root.ext, rel)
    P = point_over((E.lift(minus_b) + root) * E.lift(inv2a))
    return [P, CurvePoint(P.x.conjugate(), P.y.conjugate(), False)], disc


def reduce_divisor(C: HyperellipticCurve, D: MumfordDivisor, p: int,
                   rel: int = DEFAULT_PRECISION) -> MumfordDivisor:
    """Reduce a divisor class to J(F_p), pointwise: reduce the support
    points of divisor_support and sum their F_p point classes with
    cantor_add.  Points with v(x) < 0 drop to infinity.  D may be given
    over Q or over Q_p itself."""
    if not C.good_reduction(p):
        raise ValueError("curve has bad reduction at %d" % p)
    fdom = PrimeFieldDomain(p)
    points, disc = divisor_support(D, p, rel)
    if disc is not None and disc.is_zeroish():
        # doubled root, or a pair congruent to working precision; the
        # midpoint value decides every subcase (a pair whose y-residues
        # cancel gives residue 0 there, hence the canonical class)
        points = points * 2
    labels = [r for r in (reduce_point(C, P, p) for P in points)
              if r != FP_INFINITY]
    if not labels:
        return MumfordDivisor.identity(fdom)
    if labels[0][0] == "ext":
        # a conjugate pair over F_{p^2}; when x-bar lies in F_p it is an
        # involution pair {P, -P}
        if labels[0][3] != 0:
            return _conjugate_pair_class(C, fdom, labels[0])
        return MumfordDivisor.identity(fdom)
    out = fp_point_class(fdom, labels[0])
    for label in labels[1:]:
        out = cantor_add(C, out, fp_point_class(fdom, label))
    return out


def _conjugate_pair_class(C, fdom, label):
    """F_p class of a conjugate pair over F_{p^2}: trace/norm assembly."""
    _, kind, xa, xb, ya, yb = label
    p = fdom.p
    c = QuadExtension(p, kind).d % p
    u_bar = [(xa * xa - c * xb * xb) % p, (-2 * xa) % p, 1]
    v1bar = yb * pow(xb, -1, p) % p
    v0bar = (ya - v1bar * xa) % p
    out = MumfordDivisor(fdom, u_bar, poly_trim(fdom, [v0bar, v1bar]))
    out.validate(C)
    return out


def fp_point_class(fdom, point) -> MumfordDivisor:
    """The class [P - infinity] over F_q of an entry P of fp_curve_points,
    FP_INFINITY giving the identity."""
    if point == FP_INFINITY:
        return MumfordDivisor.identity(fdom)
    x, y = point
    return MumfordDivisor(fdom, [(-x) % fdom.p, 1], [y])


def torsion_multiple_bound(C: HyperellipticCurve, primes) -> int:
    """gcd of |J(F_q)| over the given odd good primes; every rational
    torsion order divides it."""
    primes = list(primes)
    if not primes:
        raise ValueError("need at least one good odd prime")
    return math.gcd(*(jacobian_order(C, q) for q in primes))
