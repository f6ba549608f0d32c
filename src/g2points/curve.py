"""Genus-2 curves y^2 = f(x), f monic quintic over Z.

Covers the geometric side of the pipeline: point reduction mod good
primes, canonical residue-disc centers, local power-series expansions of
the coordinates in a disc parameter, and expansion of regular 1-forms
w = (c1 + c2 x) dx/(2y) into a0 + a1 t + ... with integral coefficients.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .padic import (
    DEFAULT_PRECISION,
    PadicNumber,
    PadicPoly,
    PadicPowerSeries,
    PrecisionLossError,
    QuadExtension,
    QuadExtNumber,
    _ext_sqrt,
    hensel_root,
    legendre_symbol,
    padic_sqrt,
    smallest_nonresidue,
    sqrt_mod_p,
    valuation_is_negative,
    vp,
)
from .polys import PadicDomain, QuadExtDomain

_INF = math.inf

#: reduction of a point in the disc at infinity
FP_INFINITY = "infinity"


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond desk scale."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _int_det(M):
    """Fraction-free (Bareiss) determinant of an integer matrix."""
    M = [row[:] for row in M]
    n = len(M)
    sign, prev = 1, 1
    for k in range(n - 1):
        if M[k][k] == 0:
            for i in range(k + 1, n):
                if M[i][k] != 0:
                    M[k], M[i] = M[i], M[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
            M[i][k] = 0
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


def _resultant_int(a, b):
    """Resultant of integer polynomials (ascending coefficients)."""
    m, n = len(a) - 1, len(b) - 1
    size = m + n
    M = [[0] * size for _ in range(size)]
    arev, brev = a[::-1], b[::-1]
    for i in range(n):
        M[i][i: i + m + 1] = arev
    for i in range(m):
        M[n + i][i: i + n + 1] = brev
    return _int_det(M)


class HyperellipticCurve:
    """y^2 = f(x) with f a monic quintic with integer coefficients.

    The monic odd-degree model pins down a single rational point at
    infinity, which serves as the base point of the embedding into the
    Jacobian throughout.
    """

    __slots__ = ("f_coeffs", "disc")

    def __init__(self, f_coeffs):
        coeffs = [int(c) for c in f_coeffs]
        if len(coeffs) != 6:
            raise ValueError("f must have six coefficients (degree 5)")
        if coeffs[5] != 1:
            raise ValueError("f must be monic")
        self.f_coeffs = tuple(coeffs)
        fp = [coeffs[i] * i for i in range(1, 6)]
        self.disc = _resultant_int(list(coeffs), fp)
        if self.disc == 0:
            raise ValueError("f has a repeated root (singular curve)")

    def f_eval(self, x):
        # Horner seeded with the leading term, so that every coefficient is
        # read at the precision of x
        if isinstance(x, int):
            x = Fraction(x)
        acc = self.f_coeffs[5] * x
        for c in reversed(self.f_coeffs[1:5]):
            acc = (acc + c) * x
        return acc + self.f_coeffs[0]

    def fprime_coeffs(self):
        return tuple(self.f_coeffs[i] * i for i in range(1, 6))

    def good_reduction(self, p: int) -> bool:
        return p >= 3 and is_prime(p) and self.disc % p != 0

    def __repr__(self):
        return "HyperellipticCurve(f=%r)" % (list(self.f_coeffs),)


class CurvePoint:
    """A point on the curve: Affine(x, y) or the point at infinity.

    Coordinates are Fractions for rational points or PadicNumbers for
    p-adic ones; only rational points are hashable.
    """

    __slots__ = ("x", "y", "at_infinity")

    def __init__(self, x, y, at_infinity: bool):
        self.x = x
        self.y = y
        self.at_infinity = at_infinity

    @classmethod
    def affine(cls, x, y) -> "CurvePoint":
        if isinstance(x, int):
            x = Fraction(x)
        if isinstance(y, int):
            y = Fraction(y)
        return cls(x, y, False)

    @classmethod
    def infinity(cls) -> "CurvePoint":
        return cls(None, None, True)

    def is_rational(self) -> bool:
        return self.at_infinity or (isinstance(self.x, Fraction)
                                    and isinstance(self.y, Fraction))

    def involution(self) -> "CurvePoint":
        if self.at_infinity:
            return self
        return CurvePoint(self.x, -self.y, False)

    def __eq__(self, other):
        if not isinstance(other, CurvePoint):
            return NotImplemented
        if self.at_infinity or other.at_infinity:
            return self.at_infinity == other.at_infinity
        if self.is_rational() and other.is_rational():
            return self.x == other.x and self.y == other.y
        dx, dy = self.x - other.x, self.y - other.y
        return dx.is_zeroish() and dy.is_zeroish()

    def __hash__(self):
        if self.at_infinity:
            return hash("curve-point-infinity")
        if not self.is_rational():
            raise TypeError("p-adic points are not hashable")
        return hash((self.x, self.y))

    def __repr__(self):
        if self.at_infinity:
            return "CurvePoint(infinity)"
        return "CurvePoint(%s, %s)" % (self.x, self.y)


def is_on_curve(C: HyperellipticCurve, P: CurvePoint) -> bool:
    if P.at_infinity:
        return True
    if P.is_rational():
        return P.y * P.y == C.f_eval(P.x)
    d = P.y * P.y - C.f_eval(P.x)
    return d.is_zeroish()


def _fraction_residue(q: Fraction, p: int) -> int:
    return q.numerator * pow(q.denominator, -1, p) % p


def reduce_point(C: HyperellipticCurve, P: CurvePoint, p: int):
    """Image of P in C(F_p) as a residue-disc label: a coordinate pair,
    FP_INFINITY, or for a point over a quadratic extension whose reduction
    leaves F_p the label ("ext", kind, xa, xb, ya, yb) of disc_center, with
    residues taken w.r.t. sqrt(d).

    Points with v(x) < 0 land in the residue disc at infinity.
    """
    if not C.good_reduction(p):
        raise ValueError("reduction requires an odd good prime")
    if P.at_infinity:
        return FP_INFINITY
    if P.is_rational():
        if vp(P.x, p) < 0:
            return FP_INFINITY
        return (_fraction_residue(P.x, p), _fraction_residue(P.y, p))
    if valuation_is_negative(P.x):
        return FP_INFINITY
    if isinstance(P.x, PadicNumber):
        return (P.x.residue(), P.y.residue())
    xa, xb = P.x.residue_pair()
    ya, yb = P.y.residue_pair()
    if xb == 0 and yb == 0:
        return (xa, ya)
    return ("ext", P.x.ext.kind, xa, xb, ya, yb)


def fp_curve_points(C: HyperellipticCurve, p: int):
    """All of C(F_p), infinity included."""
    pts = [FP_INFINITY]
    for x in range(p):
        r = C.f_eval(Fraction(x)).numerator % p
        if r == 0:
            pts.append((x, 0))
        elif legendre_symbol(r, p) == 1:
            y = sqrt_mod_p(r, p)
            pts.append((x, y))
            pts.append((x, p - y))
    return pts


def count_Fp_points(C: HyperellipticCurve, p: int) -> int:
    return len(fp_curve_points(C, p))


def count_Fp2_points(C: HyperellipticCurve, p: int) -> int:
    """|C(F_{p^2})| by scanning F_{p^2} = F_p(sqrt(c)).

    The quadratic character of F_{p^2} is the Legendre symbol of the norm.
    """
    c = smallest_nonresidue(p)
    count = 1
    coeffs = [k % p for k in C.f_coeffs]
    for a in range(p):
        for b in range(p):
            ra, rb = 0, 0
            for k in reversed(coeffs):
                ra, rb = (ra * a + rb * b * c + k) % p, (ra * b + rb * a) % p
            if ra == 0 and rb == 0:
                count += 1
            else:
                if legendre_symbol((ra * ra - c * rb * rb) % p, p) == 1:
                    count += 2
    return count


def disc_center(C: HyperellipticCurve, fp_point, p: int,
                rel: int = DEFAULT_PRECISION) -> CurvePoint:
    """Canonical p-adic center of a residue disc.

    fp_point is a label as reduce_point returns it: an F_p-point, or
    ("ext", kind, xa, xb, ya, yb) for a point over F_{p^2} = F_p(sqrt(c)),
    whose center has coordinates in the unramified extension Q_p(sqrt(c)).
    Smallest non-negative integer lift of the x-coordinate, corrected onto
    the curve by Hensel: the square root of f(x0) matching the reduced y
    away from Weierstrass points, the exact root of f at them.
    """
    if fp_point == FP_INFINITY:
        return CurvePoint.infinity()
    if fp_point[0] == "ext":
        _, kind, xa, xb, ya, yb = fp_point
        ext = QuadExtension(p, kind)
        if ext.e != 1:
            raise ValueError("extension discs are labeled over the unramified field")
        x0 = QuadExtNumber(ext, PadicNumber.from_int(xa, p, rel),
                           PadicNumber.from_int(xb, p, rel))
        ybar = (ya % p, yb % p)
        weierstrass = ybar == (0, 0)
        F, residue = QuadExtDomain(ext, rel), QuadExtNumber.residue_pair
    else:
        xbar, ybar = fp_point
        x0 = PadicNumber.from_int(xbar, p, rel)
        ybar %= p
        weierstrass = ybar == 0
        F, residue = PadicDomain(p, rel), PadicNumber.residue
    if weierstrass:
        f = PadicPoly(p, [PadicNumber.from_int(k, p, rel) for k in C.f_coeffs])
        return CurvePoint(hensel_root(f, x0, rel), PadicNumber.exact_zero(p), False)
    # f read at rel digits: an exact x0 = 0 gives f_eval no precision to read
    fx0 = _taylor_coeffs([F.lift(k) for k in C.f_coeffs], x0)[0]
    if isinstance(x0, QuadExtNumber):
        y0 = _ext_sqrt(F, fx0)
    else:
        y0 = padic_sqrt(fx0)
        if not isinstance(y0, PadicNumber):
            raise ArithmeticError("f(x0) is a unit square by assumption")
    if residue(y0) != ybar:
        y0 = -y0
    if residue(y0) != ybar:
        raise ArithmeticError("center sign mismatch on the disc label")
    return CurvePoint(x0, y0, False)


# -- local series helpers (plain coefficient lists, truncated products) ----
# generic over the coefficient field through a polys domain (PadicDomain or
# QuadExtDomain), so the same recursions serve Q_p and its quadratic
# extensions

def _lzero(F, n):
    return [F.zero() for _ in range(n)]


def _lsub(a, b, n, k=0):
    """a - t^k b to n coefficients, n at most max(len(a), k + len(b)).
    Where one side is an exact zero or past its list, the other entry is
    copied (negated for b): adding an exact zero would return it unchanged."""
    out = a[:k]
    for i in range(k, n):
        x = a[i] if i < len(a) else None
        y = b[i - k] if i - k < len(b) else None
        if y is None or y.is_exact_zero():
            out.append(y if x is None else x)
        elif x is None or x.is_exact_zero():
            out.append(-y)
        else:
            out.append(x - y)
    return out


def _lmul(F, a, b, n):
    out = []
    for k in range(n):
        i0 = max(0, k - len(b) + 1)
        out.append(F.dot(a[i0: k + 1], b[k - i0:: -1]))
    return out


def _linv(F, a, n):
    inv0 = a[0].inverse()
    out = [inv0]
    for d in range(1, n):
        out.append(-inv0 * F.dot(a[1: d + 1], out[d - 1:: -1]))
    return out


def _lpolyval(F, poly_coeffs, s, n):
    """poly(s(t)) truncated to n coefficients.  Horner starts from the
    leading coefficient, and a constant meeting an exact-zero acc[0] is
    copied: the add would return it unchanged."""
    acc = [poly_coeffs[-1]]
    for c in reversed(poly_coeffs[:-1]):
        acc = _lmul(F, acc, s, n)
        acc[0] = c if acc[0].is_exact_zero() else acc[0] + c
    return acc


def _affine_y_coeffs(F, fc, x0, y0, T):
    """y(t) on y^2 = f(x0 + t) to T coefficients, y(0) = y0 a unit."""
    taylor = _taylor_coeffs(fc, x0)
    ys = [y0]
    for m in range(1, T + 1):
        s = F.dot(ys[1: m], ys[m - 1: 0: -1])
        ys.append((taylor[m] - s if m < len(taylor) else -s) / (y0 * 2))
    return ys


def _weierstrass_x_coeffs(F, fc, x0, T):
    """x(t) solving f(x(t)) = t^2 with x(0) = x0 a simple root of f;
    the series is even in t."""
    one = F.one()
    fpc = [fc[i] * i for i in range(1, 6)]
    xs = [x0]
    m = 1
    while m < T + 1:
        m = min(2 * m, T + 1)
        res = _lsub(_lpolyval(F, fc, xs, m), [one], m, 2)
        dfx = _lpolyval(F, fpc, xs, m)
        step = _lmul(F, res, _linv(F, dfx, m), m)
        xs = _lsub(xs, step, m)
    return xs[: T + 1]


def _disc_field(center: CurvePoint, p: int, rel: int):
    """The polys domain of center's disc: Q_p, or Q_p(sqrt(c)) for a center
    with extension coordinates."""
    if isinstance(center.x, QuadExtNumber):
        return QuadExtDomain(center.x.ext, rel)
    return PadicDomain(p, rel)


def lift_anchor(center: CurvePoint, p: int, rel: int) -> CurvePoint:
    """center with its coordinates in its disc's field at rel digits, as the
    local expansions read it."""
    if center.at_infinity:
        return center
    F = _disc_field(center, p, rel)
    return CurvePoint(F.lift(center.x), F.lift(center.y), False)


def local_expansion(C: HyperellipticCurve, center: CurvePoint, p: int, T: int,
                    rel: int):
    """(x(t), y(t)) in the disc parameter t at the given center.

    t = x - x0 off the Weierstrass locus, t = y at a Weierstrass center,
    t = x^2/y at infinity (where x(t) is Laurent with leading term t^-2).
    Coefficients are p-adically integral; tail bounds reflect that.  They
    lie in the field of the center's x-coordinate: Q_p, or its unramified
    quadratic extension for a disc with no Q_p-rational center.
    """
    F = _disc_field(center, p, rel)
    fc = [F.lift(k) for k in C.f_coeffs]
    if center.at_infinity:
        return _expansion_at_infinity(F, fc, T)
    center = lift_anchor(center, p, rel)
    x0, y0 = center.x, center.y
    ybar_zero = y0.is_zeroish() or y0.valuation >= 1
    if ybar_zero:
        if not y0.is_zeroish():
            raise ValueError("Weierstrass-disc center must have y = 0")
        return _expansion_at_weierstrass(F, fc, x0, T)
    return _expansion_at_affine(F, fc, x0, y0, T)


def _expansion_at_affine(F, fc, x0, y0, T):
    # y(t)^2 = f(x0 + t): coefficient recursion off 2 y0 y_m = F_m - cross terms
    ys = _affine_y_coeffs(F, fc, x0, y0, T)
    x_series = PadicPowerSeries(F.p, [x0, F.one()], _INF, 0)
    y_series = PadicPowerSeries(F.p, ys, 0, 0)
    return x_series, y_series


def _taylor_coeffs(fc, x0):
    """Coefficients of f(x0 + t) by repeated synthetic division."""
    cs = list(fc)
    out = []
    while cs:
        b = cs[-1]
        qs = [b]
        for c in reversed(cs[:-1]):
            b = b * x0 + c
            qs.append(b)
        out.append(b)
        qs.reverse()
        cs = qs[1:]
    return out


def _expansion_at_weierstrass(F, fc, x0, T):
    # solve f(x(t)) = t^2 by series Newton; x(t) is even in t
    xs = _weierstrass_x_coeffs(F, fc, x0, T)
    x_series = PadicPowerSeries(F.p, xs, 0, 0)
    y_series = PadicPowerSeries(F.p, [F.zero(), F.one()], _INF, 0)
    return x_series, y_series


def _expansion_at_infinity(F, fc, T):
    # xi = 1/x satisfies xi = t^2 g(xi), g(w) = 1 + c4 w + ... + c0 w^5
    p, one = F.p, F.one()
    g = [one, fc[4], fc[3], fc[2], fc[1], fc[0]]
    gp = [g[i] * i for i in range(1, 6)]
    n = T + 3
    xi = _lzero(F, n)
    xi[2] = one
    m = 3
    while m < n:
        m = min(2 * m, n)
        res = _lsub(xi, _lpolyval(F, g, xi, m), m, 2)
        gpx = _lpolyval(F, gp, xi, m)
        dF = [one, F.zero()] + [-c for c in gpx[: m - 2]]
        step = _lmul(F, res, _linv(F, dF, m), m)
        xi = _lsub(xi, step, m)
    u = xi[2: T + 3]  # xi = t^2 * u(t), u(0) = 1
    uinv = _linv(F, u, T + 1)
    x_series = PadicPowerSeries(p, uinv, 0, -2)
    y_series = PadicPowerSeries(p, _lmul(F, uinv, uinv, T + 1), 0, -5)
    return x_series, y_series


class Differential:
    """w = (c1 + c2 x) dx / (2y), the regular 1-forms on the curve."""

    __slots__ = ("c1", "c2")

    def __init__(self, c1, c2, p: int | None = None, rel: int = DEFAULT_PRECISION):
        def conv(c):
            if isinstance(c, PadicNumber):
                return c
            if p is None:
                raise ValueError("rational coefficients need the prime")
            return PadicNumber.from_rational(c, p, rel)
        self.c1 = conv(c1)
        self.c2 = conv(c2)
        if self.c1.is_zeroish() and self.c2.is_zeroish():
            raise ValueError("differential must be nonzero at precision")

    def apply(self, L):
        """The pairing c1 * l1 + c2 * l2 with a logarithm vector."""
        return self.c1 * L.l1 + self.c2 * L.l2

    def normalized(self) -> "Differential":
        """Scale so min(v(c1), v(c2)) = 0; then all a_i are integral."""
        vs = [c.valuation for c in (self.c1, self.c2) if not c.is_zeroish()]
        m = int(min(vs))
        for c in (self.c1, self.c2):
            if c.is_zeroish() and not c.is_exact_zero() and c.valuation <= m:
                raise PrecisionLossError("cannot certify the minimal valuation")
        if m == 0:
            return self
        return Differential(self.c1.pshift(-m), self.c2.pshift(-m))

    def __repr__(self):
        return "Differential((%r) + (%r) x) dx/2y" % (self.c1, self.c2)


def local_frame(C: HyperellipticCurve, center: CurvePoint, p: int, T: int,
                rel: int):
    """The form-independent part of an expansion at center: (x(t), h) with
    (c1 + c2 x) dx/2y = (c1 + c2 x(t)) h(t) dt for every regular form, h the
    product of its factors taken left to right.

    h is 1/(2y) on an affine disc (t = x - x0), x'(t)/(2t) at a branch
    point (t = y), and x'(t), t^5 (t^5 y)^-1, 1/2 at infinity (t = x^2/y).
    """
    center = lift_anchor(center, p, rel)
    xs, ys = local_expansion(C, center, p, T + 6, rel)
    if center.at_infinity:
        return xs, (xs.derivative(), ys.shifted(5).inverse().shifted(5),
                    Fraction(1, 2))
    if center.y.is_zeroish():
        half_dxdt = [xs.coeffs[j + 2] * Fraction(j + 2, 2)
                     for j in range(len(xs.coeffs) - 2)]
        return xs, (PadicPowerSeries(p, half_dxdt, 0, 0),)
    return xs, (PadicPowerSeries(p, [c * 2 for c in ys.coeffs], 0, 0).inverse(),)


def expand_on_frame(w: Differential, frame) -> PadicPowerSeries:
    """Coefficient series a0 + a1 t + ... of w on a local frame."""
    xs, factors = frame
    a = PadicPowerSeries(xs.prime, [w.c1], _INF, 0) + xs * w.c2
    for h in factors:
        a = a * h
    return _laurent_to_series(a)


def expand_differential(C: HyperellipticCurve, w: Differential, center: CurvePoint,
                        p: int, T: int, rel: int = DEFAULT_PRECISION) -> PadicPowerSeries:
    """Coefficient series a0 + a1 t + ... of w in the disc parameter at center,
    with truncation order at least T."""
    return expand_on_frame(w, local_frame(C, center, p, T, rel))


def _laurent_to_series(a: PadicPowerSeries) -> PadicPowerSeries:
    if a.shift == 0:
        return a
    if a.shift > 0:
        pad = [PadicNumber.exact_zero(a.prime)] * a.shift
        return PadicPowerSeries(a.prime, pad + list(a.coeffs),
                                a.tail_valuation_bound, 0, a.tail_log_penalty)
    for c in a.coeffs[: -a.shift]:
        if not c.is_zeroish():
            raise ArithmeticError("differential has a pole in the disc")
    return PadicPowerSeries(a.prime, a.coeffs[-a.shift:],
                            a.tail_valuation_bound, 0, a.tail_log_penalty)
