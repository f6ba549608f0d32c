"""Jacobian arithmetic in Mumford representation.

A divisor class is held as a pair (u, v): u monic of degree <= 2, v of
degree < deg u, with u | v^2 - f.  The identity is (1, 0).  The group law
is Cantor composition and reduction, generic over the coefficient domains
in polys (exact rationals, F_p, capped-precision Q_p).  Over F_p, where
the sieve spends its group operations, cantor_add first tries the same
law on plain ints (_fq_add: one inverse from a resultant, one reduction
step); only shared roots and doubling with Res(u, v) = 0 fall back to the
generic composition.

The sieve reads J(F_q) without listing it (order_and_exponent): the order
from the zeta identity, and the exponent one Sylow subgroup at a time
(_sylow_exponent), cached per (f, q): the one record of J(F_q) that the
torsion bound, the sieve and the logarithm read.  The cache holds the
records of one curve, which are all a job reads.  Full listing,
enumerate_Fp_jacobian, is for the tests.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .curve import (FP_INFINITY, CurvePoint, HyperellipticCurve, count_Fp_points,
                    count_Fp2_points, fp_curve_points, reduce_point,
                    store_for_curve)
from .padic import DEFAULT_PRECISION, PadicNumber, lift, padic_sqrt, sqrt_mod_p
from .polys import (PadicDomain, PrimeFieldDomain, RationalDomain, poly_add,
                    poly_degree_certified, poly_divexact, poly_eq, poly_lift,
                    poly_mod, poly_monic, poly_mul, poly_neg, poly_trim,
                    poly_xgcd)


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
    """Group law: composition then reduction to degree <= 2.

    Over F_q the generic shapes take _fq_add on plain ints: an identity
    operand, P + (-P), coprime u1, u2, and doubling with Res(u, v) != 0.
    Shared roots and doubling with Res(u, v) = 0 take the generic Cantor
    composition below, as every class over Q, Q_p and Q_p(sqrt(c)) does.
    """
    dom = a.domain
    if isinstance(dom, PrimeFieldDomain):
        out = _fq_add(C, dom, a, b)
        if out is not None:
            return out
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


# -- the group law over F_q on plain ints (Cantor 1987, Lange 2005) ----------

def _fq_add(C, dom, a, b):
    """a + b over F_p on plain ints in [0, p) with at most two inversions,
    or None for a shape left to the generic composition.

    The composed class is (U, l) with U = u1.u2 and l = v1 + u1.s: for
    coprime u's, s = (v2 - v1).u1^-1 mod u2 gives l = v_i mod u_i; when
    doubling, s = ((f - v^2)/u).(2v)^-1 mod u makes u^2 divide l^2 - f.
    As f is a monic quintic and deg l < deg U <= 4, one reduction step
    u3 = monic((f - l^2)/U), v3 = -l mod u3 reaches degree <= 2.
    """
    if len(a.u) == 1:
        return b
    if len(b.u) == 1:
        return a
    p, f = dom.p, C.f_coeffs
    if len(a.u) > len(b.u):
        a, b = b, a
    u1, u2 = a.u, b.u
    # v padded to deg u coefficients
    v1 = a.v + [0] * (len(u1) - 1 - len(a.v))
    v2 = b.v + [0] * (len(u2) - 1 - len(b.v))
    if u1 == u2:
        if not any((x + y) % p for x, y in zip(v1, v2)):
            return MumfordDivisor.identity(dom)
        if v1 != v2:
            # v1 = v2 at one root of u and v1 = -v2 at the other
            return None
        s = _fq_tangent(f, u1, v1, p)
    elif len(u2) == 2:
        r = (u1[0] - u2[0]) % p
        s = [(v2[0] - v1[0]) * pow(r, -1, p) % p] if r else None
    elif len(u1) == 2:
        s = _fq_div_mod_u(v2[0] - v1[0], v2[1], u1[0], 1, u2, p)
    else:
        s = _fq_div_mod_u(v2[0] - v1[0], v2[1] - v1[1], u1[0] - u2[0],
                          u1[1] - u2[1], u2, p)
    if s is None:
        return None
    a0, c0 = u1[0], u2[0]
    if len(u2) == 2:
        # two points: U = u1.u2 has degree 2
        return MumfordDivisor(dom, [a0 * c0 % p, (a0 + c0) % p, 1],
                              [(v1[0] + a0 * s[0]) % p, s[0]])
    # deg u2 = 2; u1 padded to x^2 + a1 x + a0, a2 = 0 when deg u1 = 1
    a1, a2 = (u1[1], 1) if len(u1) == 3 else (1, 0)
    b0, b1 = v1[0], v1[1] if len(v1) == 2 else 0
    c1, (s0, s1) = u2[1], s
    l0, l1 = b0 + a0 * s0, b1 + a0 * s1 + a1 * s0
    l2, l3 = a1 * s1 + a2 * s0, a2 * s1
    U1, U2, U3 = a0 * c1 + a1 * c0, a0 + a1 * c1 + a2 * c0, a1 + a2 * c1
    # the quotient (f - l^2)/U = q2 x^2 + q1 x + q0 reads the top three
    # coefficients of f - l^2 (f monic, so its x^5 coefficient is 1)
    if a2:
        q2 = -l3 * l3 % p
        q1 = (1 - 2 * l2 * l3 - q2 * U3) % p
        q0 = (f[4] - l2 * l2 - 2 * l1 * l3 - q2 * U2 - q1 * U3) % p
    else:
        q2 = 1
        q1 = (f[4] - l2 * l2 - U2) % p
        q0 = (f[3] - 2 * l1 * l2 - U1 - q1 * U2) % p
    if not q2:
        # l3 = 0 and q1 = 1: u3 = x + q0, v3 = -l(-q0)
        return MumfordDivisor(dom, [q0, 1],
                              [-((l2 * -q0 + l1) * -q0 + l0) % p])
    if q2 != 1:
        q2 = pow(q2, -1, p)
        q0, q1 = q0 * q2 % p, q1 * q2 % p
    # -l mod x^2 + q1 x + q0, with x^3 = (q1^2 - q0) x + q1 q0 there
    return MumfordDivisor(dom, [q0, q1, 1],
                          [-(l0 - l2 * q0 + l3 * q1 * q0) % p,
                           -(l1 - l2 * q1 + l3 * (q1 * q1 - q0)) % p])


def _fq_div_mod_u(w0, w1, z0, z1, u, p):
    """(w1 x + w0)/(z1 x + z0) mod a monic quadratic u, from the
    resultant; None when z1 x + z0 vanishes at a root of u."""
    c0, c1 = u[0], u[1]
    # (z1 x + z0)(z0 - c1 z1 - z1 x) = Res(u, z1 x + z0) mod u
    r = (z0 * z0 - c1 * z0 * z1 + c0 * z1 * z1) % p
    if not r:
        return None
    r = pow(r, -1, p)
    i0, i1 = (z0 - c1 * z1) * r, -z1 * r
    t = w1 * i1
    return [(w0 * i0 - t * c0) % p, (w1 * i0 + w0 * i1 - t * c1) % p]


def _fq_tangent(f, u, v, p):
    """s = ((f - v^2)/u).(2v)^-1 mod u, v != 0; None when v vanishes at a
    root of u."""
    if len(u) == 2:
        # (f - v^2)/u at the root of u is f' there
        x0, d = -u[0], 0
        for i in range(5, 0, -1):
            d = d * x0 + i * f[i]
        return [d * pow(2 * v[0], -1, p) % p]
    c0, c1 = u[0], u[1]
    # k = (f - v^2)/u from the top; v^2 reaches it only at x^2
    k3 = f[5]
    k2 = f[4] - c1 * k3
    k1 = f[3] - c1 * k2 - c0 * k3
    k0 = f[2] - v[1] * v[1] - c1 * k1 - c0 * k2
    # k mod u, with x^2 = -c1 x - c0 and x^3 = (c1^2 - c0) x + c1 c0
    return _fq_div_mod_u(k0 - c0 * k2 + c1 * c0 * k3,
                         k1 - c1 * k2 + (c1 * c1 - c0) * k3,
                         2 * v[0], 2 * v[1], u, p)


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


def embed_point(C: HyperellipticCurve, Q: CurvePoint,
                P0: CurvePoint, domain=None) -> MumfordDivisor:
    """The class [Q - P0] over ``domain``, Q by default.  With P0 at
    infinity and Q affine: (x - x_Q, y_Q)."""
    if domain is None:
        domain = RationalDomain()

    def against_infinity(pt):
        if pt.at_infinity:
            return MumfordDivisor.identity(domain)
        x, y = domain.lift(pt.x), domain.lift(pt.y)
        return MumfordDivisor(domain, [domain.neg(x), domain.one()], [y])

    D = against_infinity(Q)
    if P0.at_infinity:
        return D
    return cantor_add(C, D, against_infinity(P0).neg())


def curve_preimage(C: HyperellipticCurve, D: MumfordDivisor, P0: CurvePoint):
    """The rational point Q with [Q - P0] = D, or None."""
    E = D if P0.at_infinity else cantor_add(
        C, D, embed_point(C, P0, CurvePoint.infinity(), domain=D.domain))
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


def cyclic_walk(C: HyperellipticCurve, D: MumfordDivisor, n: int):
    """The keys of 0, D, ..., (m-1).D over an exact domain, m = ord(D),
    by cantor_add alone; n is a multiple of m and caps the walk."""
    keys = [MumfordDivisor.identity(D.domain).key()]
    E = D
    while not E.is_identity() and len(keys) < n:
        keys.append(E.key())
        E = cantor_add(C, E, D)
    if not E.is_identity() or n % len(keys):
        raise ValueError("%d is not a multiple of the element's order" % n)
    return keys


def element_order(C: HyperellipticCurve, D: MumfordDivisor, n: int) -> int:
    """Order of D, given a multiple n of it: the length of its walk."""
    return len(cyclic_walk(C, D, n))


def jacobian_order(C: HyperellipticCurve, q: int) -> int:
    """|J(F_q)| from the zeta identity, built from |C(F_q)| and
    |C(F_{q^2})|."""
    if not C.good_reduction(q):
        raise ValueError("curve has bad reduction at %d" % q)
    s1 = q + 1 - count_Fp_points(C, q)
    s2 = (s1 * s1 - (q * q + 1 - count_Fp2_points(C, q))) // 2
    return 1 - s1 + s2 - q * s1 + q * q


def _fq_classes(C: HyperellipticCurve, p: int):
    """Every class of J(F_p) once, lazily, in a fixed order: the point
    classes of fp_curve_points, then per monic quadratic u each v with
    v^2 = f mod u."""
    dom = PrimeFieldDomain(p)
    for P in fp_curve_points(C, p):
        yield fp_point_class(dom, P)
    f = poly_lift(dom, C.f_coeffs)
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
                yield MumfordDivisor(dom, u, [v0] if v0 else [])
                if v0:
                    yield MumfordDivisor(dom, u, [p - v0])
            for v1 in range(1, p):
                v0 = (r1 + v1 * v1 % p * u1) * pow(2 * v1, -1, p) % p
                if (v0 * v0 - v1 * v1 % p * u0) % p == r0:
                    yield MumfordDivisor(dom, u, poly_trim(dom, [v0, v1]))


def _prime_powers(n: int):
    """(ell, k) for each ell^k || n, by trial division."""
    ell = 2
    while ell * ell <= n:
        k = 0
        while n % ell == 0:
            n, k = n // ell, k + 1
        if k:
            yield ell, k
        ell += 1
    if n > 1:
        yield n, 1


def _sylow_exponent(C: HyperellipticCurve, q: int, order: int, ell: int,
                    k: int) -> int:
    """The exponent of the ell-part of J(F_q), ell^k || order.

    (order / ell^k).D projects a class D into the ell-part.  The
    projections of the classes of _fq_classes, taken in turn, span it once
    the span holds ell^k classes, and an abelian group's exponent is the
    lcm of its generators' orders: for an ell-group, the largest.  A
    projection of order above ell^k, a span that would pass ell^k, or
    classes that run out first raise ArithmeticError: then order is not
    |J(F_q)|.
    """
    size = ell ** k
    identity = MumfordDivisor.identity(PrimeFieldDomain(q))
    span, keys, top = [identity], {identity.key()}, 1
    for D in _fq_classes(C, q):
        g = scalar_mul(C, order // size, D)
        if g.key() in keys:
            continue
        # ord(g) = ell^j, the least j with ell^j.g = 0, for some j <= k
        n, h = ell, scalar_mul(C, ell, g)
        while not h.is_identity():
            if n == size:
                raise ArithmeticError("%d does not kill the %d-part of a "
                                      "class of J(F_%d)" % (size, ell, q))
            n, h = n * ell, scalar_mul(C, ell, h)
        top = max(top, n)
        # span + <g>: the cosets span + j.g, j = 1, 2, ... up to the first
        # j.g already in the span
        base, h = list(span), g
        while h.key() not in keys:
            for s in base:
                E = cantor_add(C, s, h)
                span.append(E)
                keys.add(E.key())
            if len(span) > size:
                raise ArithmeticError("the %d-part of J(F_%d) has more than "
                                      "%d classes" % (ell, q, size))
            h = cantor_add(C, h, g)
        if len(span) == size:
            return top
    raise ArithmeticError("the classes of J(F_%d) ran out before its %d-part "
                          "reached %d classes" % (q, ell, size))


_enumeration_cache: dict = {}


def order_and_exponent(C: HyperellipticCurve, q: int):
    """(|J(F_q)|, its exponent) without listing J(F_q): the order from the
    zeta identity, the exponent one Sylow subgroup at a time from the
    classes of _fq_classes, generated only as far as it reads them.
    Cached per (f, q); the cache holds one curve's records, and a record
    of another curve empties it first."""
    ck = (C.f_coeffs, q)
    if ck not in _enumeration_cache:
        order, exponent = jacobian_order(C, q), 1
        for ell, k in _prime_powers(order):
            # an ell-part of order ell is cyclic and needs no class
            exponent *= (ell if k == 1
                         else _sylow_exponent(C, q, order, ell, k))
        store_for_curve(_enumeration_cache, ck, (order, exponent))
    return _enumeration_cache[ck]


def enumerate_Fp_jacobian(C: HyperellipticCurve, p: int) -> FpJacobian:
    """All Mumford pairs over F_p, the classes of _fq_classes listed to
    the end, cross-checked against the zeta order; order and exponent are
    order_and_exponent's."""
    if p > 50:
        raise ValueError("enumeration is desk-scale only (p <= 50)")
    # order_and_exponent also refuses a prime of bad reduction
    order, exponent = order_and_exponent(C, p)
    els = list(_fq_classes(C, p))
    if len(els) != order:
        raise ArithmeticError(
            "enumeration found %d elements but zeta identity gives %d"
            % (len(els), order))
    return FpJacobian(els, order, exponent)


# -- reduction J(Q) -> J(F_p) ------------------------------------------------

def divisor_support(D: MumfordDivisor, p: int, rel: int):
    """(points, eps): the support of a class of degree <= 2 over Q or Q_p.

    points is empty for the identity, one point for degree 1, and for
    degree 2 the two roots x of u with y = v(x): both over Q_p, or a
    conjugate pair P, sigma(P) over Q_p(sqrt(d)).  When disc(u) has no
    known digits the roots cannot be separated: the same midpoint object
    comes back twice, and eps = floor(v(disc)/2) is a floor on v(x - x0)
    for each true root x.  eps is None when the points are the support
    itself, an exactly zero disc(u) included.  A rational D is read at rel
    digits, but its discriminant is formed exactly.
    """
    if isinstance(D.domain, PadicDomain) and D.domain.p != p:
        raise ValueError("divisor is %d-adic, support asked at %d"
                         % (D.domain.p, p))
    deg = D.degree()
    if deg == 0:
        return [], None
    uc = [lift(c, p, rel) for c in D.u]
    vc = ([lift(c, p, rel) for c in D.v]
          + [PadicNumber.exact_zero(p)] * (2 - len(D.v)))

    def point_over(x):
        return CurvePoint(x, vc[0] + vc[1] * x, False)

    if deg == 1:
        return [point_over(-(uc[0] / uc[1]))], None
    if isinstance(D.domain, RationalDomain):
        disc = lift(Fraction(D.u[1]) ** 2
                    - 4 * Fraction(D.u[2]) * Fraction(D.u[0]), p, rel)
    else:
        disc = uc[1] * uc[1] - uc[2] * uc[0] * 4
    if disc.is_zeroish():
        mid = point_over(-(uc[1] / (uc[2] * 2)))
        eps = None if disc.is_exact_zero() else int(disc.valuation) // 2
        return [mid, mid], eps
    root = padic_sqrt(disc)
    minus_b, inv2a = -uc[1], (uc[2] * 2).inverse()
    if isinstance(root, PadicNumber):
        return [point_over((minus_b + root) * inv2a),
                point_over((minus_b - root) * inv2a)], None
    P = point_over((root + minus_b) * inv2a)
    return [P, CurvePoint(P.x.conjugate(), P.y.conjugate(), False)], None


def reduce_divisor(C: HyperellipticCurve, D: MumfordDivisor, p: int,
                   rel: int = DEFAULT_PRECISION) -> MumfordDivisor:
    """Reduce a divisor class to J(F_p), pointwise: reduce the support
    points of divisor_support and sum their F_p point classes with
    cantor_add.  Points with v(x) < 0 drop to infinity.  A conjugate pair
    whose reduction leaves F_p reduces D's own u and v instead, which are
    p-integral: x-bar not in F_p keeps the two roots apart mod p.  D may be
    given over Q or over Q_p itself."""
    if not C.good_reduction(p):
        raise ValueError("curve has bad reduction at %d" % p)
    fdom = PrimeFieldDomain(p)
    points, _ = divisor_support(D, p, rel)
    labels = [r for r in (reduce_point(C, P, p) for P in points)
              if r != FP_INFINITY]
    if not labels:
        return MumfordDivisor.identity(fdom)
    if labels[0][0] == "ext":
        # a conjugate pair over F_{p^2}; when x-bar lies in F_p it is an
        # involution pair {P, -P}
        if labels[0][3] != 0:
            u, v = ([lift(c, p, rel).residue() for c in cs]
                    for cs in (D.u, D.v))
            return MumfordDivisor(fdom, u, v)
        return MumfordDivisor.identity(fdom)
    out = fp_point_class(fdom, labels[0])
    for label in labels[1:]:
        out = cantor_add(C, out, fp_point_class(fdom, label))
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
    return math.gcd(*(order_and_exponent(C, q)[0] for q in primes))
