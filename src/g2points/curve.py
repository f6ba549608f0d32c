"""Genus-2 curves y^2 = f(x), f monic quintic over Z.

Covers the geometric side of the pipeline: point reduction mod good
primes, canonical residue-disc centers, and one local frame per disc
(local_frame), which expands every regular 1-form w = (c1 + c2 x) dx/(2y)
into a0 + a1 t + ... with integral coefficients.  local_frame tells the
three disc shapes apart (infinity, branch point, affine), and
disc_parameter reads a point's t by the same test, is_branch_point.
"""

from __future__ import annotations

from fractions import Fraction

from .padic import (
    DEFAULT_PRECISION,
    PadicNumber,
    PadicPowerSeries,
    PrecisionLossError,
    QuadExtension,
    QuadExtNumber,
    _horner,
    _taylor_coeffs,
    hensel_root,
    legendre_symbol,
    lift,
    series_inv,
    series_mul,
    series_sqrt,
    smallest_nonresidue,
    sqrt_mod_p,
    valuation_is_negative,
    vp,
)

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


def store_for_curve(cache: dict, key, value):
    """cache[key] = value, returned; key[0] is the curve's f_coeffs.  A
    cache holds one curve's records, so a record of another curve empties
    it first."""
    if cache and next(iter(cache))[0] != key[0]:
        cache.clear()
    cache[key] = value
    return value


class CurvePoint:
    """A point on the curve: Affine(x, y) or the point at infinity.

    Coordinates are Fractions for rational points, and PadicNumbers or
    QuadExtNumbers for p-adic ones.  Equality of p-adic points holds up to
    working precision, so no point is hashable.
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
    # a branch-point center over Q_p(sqrt(c)) keeps y the Q_p exact zero
    ya, yb = P.y.residue_pair() if isinstance(P.y, QuadExtNumber) \
        else (P.y.residue(), 0)
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
    """Canonical p-adic center of a residue disc: the Hensel lift of its
    label.

    fp_point is a label as reduce_point returns it: an F_p-point, or
    ("ext", kind, xa, xb, ya, yb) for a point over F_{p^2} = F_p(sqrt(c)),
    whose center has coordinates in the unramified extension Q_p(sqrt(c)).
    x0 is the smallest non-negative integer lift of the label's x.  At a
    Weierstrass label the center is the root of f near x0; elsewhere y0 is
    the root of y^2 - f(x0) near the label's y, over Q_p and Q_p(sqrt(c))
    alike.  A label off the curve raises NotHenselLiftableError.
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
        y0 = QuadExtNumber(ext, PadicNumber.from_int(ya % p, p, rel),
                           PadicNumber.from_int(yb % p, p, rel))
    else:
        x0 = PadicNumber.from_int(fp_point[0], p, rel)
        y0 = PadicNumber.from_int(fp_point[1] % p, p, rel)
    f = [PadicNumber.from_int(k, p, rel) for k in C.f_coeffs]
    if y0.is_exact_zero():
        return CurvePoint(hensel_root(f, x0, rel), PadicNumber.exact_zero(p), False)
    # y^2 - f(x0), with 1 = f[5] read at rel digits
    y0 = hensel_root([-_horner(f, x0), PadicNumber.exact_zero(p), f[5]], y0, rel)
    return CurvePoint(x0, y0, False)


# -- local series helpers (plain coefficient lists, truncated products) ----
# products and inverses are padic.series_mul / series_inv.  The recursions
# take f as padic.lift reads it, with p and 1 = fc[5] read off it; f stays in
# Q_p on an extension disc, where the extension arithmetic coerces it


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


def _lpolyval(p, poly_coeffs, s, n):
    """poly(s(t)) truncated to n coefficients.  Horner starts from the
    leading coefficient, and a constant meeting an exact-zero acc[0] is
    copied: the add would return it unchanged."""
    acc = [poly_coeffs[-1]]
    for c in reversed(poly_coeffs[:-1]):
        acc = series_mul(p, acc, s, n)
        acc[0] = c if acc[0].is_exact_zero() else acc[0] + c
    return acc


def _affine_y_coeffs(fc, x0, y0, T):
    """y(t) on y^2 = f(x0 + t) to T + 1 coefficients, y(0) = y0 a unit."""
    return series_sqrt(fc[5].prime, _taylor_coeffs(fc, x0), y0, T + 1)


def _u_lengths(m, n):
    """The lengths, in u = t^2, of a series Newton loop that doubles an even
    t-series from m to n coefficients: (k + 1) // 2 for each t-length k.
    The odd t-coefficients of such a loop are exact zeros, whose products
    every sum of products skips, so the u-loop gives the even coefficients
    digit for digit."""
    while m < n:
        m = min(2 * m, n)
        yield (m + 1) // 2


def _even_in_t(p, us, n):
    """sum us[j] t^(2j) to n coefficients, the odd ones exact zeros."""
    out = [PadicNumber.exact_zero(p)] * n
    out[::2] = us[: (n + 1) // 2]
    return out


def _weierstrass_x_coeffs(fc, x0, T):
    """x(t) solving f(x(t)) = t^2 with x(0) = x0 a simple root of f, to
    T + 1 coefficients.  x(t) is even in t, so Newton solves f(X(u)) = u
    in u = t^2; its first step, at one coefficient, refines x0 itself."""
    one = fc[5]
    p = one.prime
    fpc = [fc[i] * i for i in range(1, 6)]
    xs = [x0]
    for n in _u_lengths(1, T + 1):
        res = _lsub(_lpolyval(p, fc, xs, n), [one], n, 1)
        dfx = _lpolyval(p, fpc, xs, n)
        step = series_mul(p, res, series_inv(p, dfx, n), n)
        xs = _lsub(xs, step, n)
    return _even_in_t(p, xs, T + 1)


def lift_anchor(center: CurvePoint, p: int, rel: int) -> CurvePoint:
    """center with its coordinates read by padic.lift at rel digits, as the
    local frames read it."""
    if center.at_infinity:
        return center
    return CurvePoint(lift(center.x, p, rel), lift(center.y, p, rel), False)


def _expansion_at_infinity(fc, T):
    """(t^2 x, t^5 y) at infinity to T + 1 coefficients, t = x^2/y.

    xi = 1/x, t^2 x and t^5 y are even in t.  In u = t^2, xi solves
    xi = u g(xi), g(w) = 1 + c4 w + ... + c0 w^5, by Newton from
    xi = u + O(u^2); t^2 x = u/xi and its square t^5 y follow in u too.
    """
    one = fc[5]
    p = one.prime
    g = [one, fc[4], fc[3], fc[2], fc[1], fc[0]]
    gp = [g[i] * i for i in range(1, 6)]
    xi = [PadicNumber.exact_zero(p), one]
    for n in _u_lengths(3, T + 3):
        res = _lsub(xi, _lpolyval(p, g, xi, n), n, 1)
        gpx = _lpolyval(p, gp, xi, n)
        dF = [one] + [-c for c in gpx[: n - 1]]
        step = series_mul(p, res, series_inv(p, dF, n), n)
        xi = _lsub(xi, step, n)
    k = (T + 2) // 2  # the even t-degrees up to T
    v = xi[1: k + 1]  # xi = u * v(u), v(0) = 1
    vinv = series_inv(p, v, k)
    # t^2 x = 1/v, and t^5 y = (t^2 x)^2 since t = x^2/y; both even in t
    return (_even_in_t(p, vinv, T + 1),
            _even_in_t(p, series_mul(p, vinv, vinv, k), T + 1))


class Differential:
    """w = (c1 + c2 x) dx / (2y), the regular 1-forms on the curve."""

    __slots__ = ("c1", "c2")

    def __init__(self, c1, c2, p: int | None = None, rel: int = DEFAULT_PRECISION):
        def conv(c):
            if p is None and not isinstance(c, PadicNumber):
                raise ValueError("rational coefficients need the prime")
            return lift(c, p, rel)
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


def is_branch_point(P: CurvePoint) -> bool:
    """y(P) is zero at precision, P lifted: the one test of the disc shape
    where t = y."""
    return not P.at_infinity and P.y.is_zeroish()


def centers_a_frame(P: CurvePoint) -> bool:
    """P, lifted, may center a local frame: infinity, a branch point, or y a
    unit.  Other points of a branch-point disc are read at t = y."""
    return P.at_infinity or is_branch_point(P) or P.y.valuation == 0


def local_frame(C: HyperellipticCurve, center: CurvePoint, p: int, T: int,
                rel: int):
    """The form-independent part of an expansion at center: (k, X, factors)
    with (c1 + c2 x) dx/2y = (c1 t^k + c2 X(t)) h(t) dt for every regular
    form, X = t^k x and h the product of the factors taken left to right.

    k = 0, with h = 1/(2y) on an affine disc (t = x - x0) and x'(t)/(2t) at a
    branch point (t = y).  At infinity (t = x^2/y) k = 2, and h is t^3 x'(t),
    (t^5 y)^-1, 1/2, all power series.  Coefficients are integral, in the
    field of the center's x: Q_p, or its unramified quadratic extension.
    """
    fc = [lift(k, p, rel) for k in C.f_coeffs]
    n = T + 6
    if center.at_infinity:
        X, Y = _expansion_at_infinity(fc, n)
        # t^3 x'(t) = sum (i - 2) X_i t^i
        dX = [c * (i - 2) for i, c in enumerate(X)]
        return 2, PadicPowerSeries(p, X, 0), (PadicPowerSeries(p, dX, 0),
                                              PadicPowerSeries(p, Y, 0).inverse(),
                                              Fraction(1, 2))
    center = lift_anchor(center, p, rel)
    if is_branch_point(center):
        xs = _weierstrass_x_coeffs(fc, center.x, n)
        half_dxdt = [xs[j] * Fraction(j, 2) for j in range(2, len(xs))]
        return 0, PadicPowerSeries(p, xs, 0), (PadicPowerSeries(p, half_dxdt, 0),)
    if not centers_a_frame(center):
        raise ValueError("a frame centers at infinity, a branch point or a unit y")
    ys = _affine_y_coeffs(fc, center.x, center.y, n)
    return 0, PadicPowerSeries(p, [center.x, fc[5]]), (
        PadicPowerSeries(p, [c * 2 for c in ys], 0).inverse(),)


def disc_parameter(P: CurvePoint, center: CurvePoint, p: int, rel: int):
    """t(P) in the frame at center, lifted: t = x^2/y on the disc at
    infinity, t = y on a branch-point disc, t = x - x0 elsewhere."""
    if center.at_infinity:
        if P.at_infinity:
            return PadicNumber.exact_zero(p)
        x = lift(P.x, p, rel)
        return x * x / lift(P.y, p, rel)
    if is_branch_point(center):
        return lift(P.y, p, rel)
    return lift(P.x, p, rel) - center.x


def expand_on_frame(w: Differential, frame) -> PadicPowerSeries:
    """Coefficient series a0 + a1 t + ... of w on a local frame."""
    k, xs, factors = frame
    zero = PadicNumber.exact_zero(xs.prime)
    # c1 t^k h for c2 = 0: the factors meet c1 alone and the product enters
    # k degrees up, known as far as h is
    lead = k if w.c2.is_exact_zero() else 0
    a = PadicPowerSeries(xs.prime, [zero] * (k - lead) + [w.c1]) + xs * w.c2
    for h in factors:
        a = a * h
    return PadicPowerSeries(xs.prime, [zero] * lead + a.coeffs, a.tail_valuation_bound)


def expand_differential(C: HyperellipticCurve, w: Differential, center: CurvePoint,
                        p: int, T: int, rel: int = DEFAULT_PRECISION) -> PadicPowerSeries:
    """Coefficient series a0 + a1 t + ... of w in the disc parameter at center,
    with truncation order at least T."""
    return expand_on_frame(w, local_frame(C, center, p, T, rel))
