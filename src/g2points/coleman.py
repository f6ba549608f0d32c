"""Single-disc Coleman machinery for rank-1 genus-2 Jacobians.

Tiny integrals of regular 1-forms between points of one residue disc,
the p-adic logarithm on the Jacobian (tiny integrals against the basis
dx/2y, x dx/2y after multiplying into the kernel of reduction), the
1-form annihilating a given logarithm vector, and Strassmann-certified
zero counts of its antiderivative on residue discs.  Everything returns
capped-precision values or raises; no answer is ever silently rounded.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .curve import (
    FP_INFINITY,
    CurvePoint,
    Differential,
    HyperellipticCurve,
    _taylor_coeffs,
    disc_center,
    expand_on_frame,
    lift_anchor,
    local_frame,
    reduce_point,
)
from .jacobian import (
    MumfordDivisor,
    divisor_support,
    element_order,
    embed_point,
    jacobian_order,
    reduce_divisor,
    scalar_mul,
)
from .padic import (
    DEFAULT_PRECISION,
    TRUNCATION_FACTOR,
    PadicNumber,
    PadicPowerSeries,
    PrecisionLossError,
    QuadExtNumber,
    strassmann_count,
    valuation_is_negative,
)
from .polys import PadicDomain

_INF = math.inf


class DecompositionFailureError(ArithmeticError):
    """The kernel element does not match any supported support configuration."""


# -- logarithm vectors ------------------------------------------------------

class LogVector:
    """(integral of dx/2y, integral of x dx/2y) along a Jacobian class."""

    __slots__ = ("l1", "l2")

    def __init__(self, l1: PadicNumber, l2: PadicNumber):
        self.l1 = l1
        self.l2 = l2

    def __add__(self, other):
        if not isinstance(other, LogVector):
            return NotImplemented
        return LogVector(self.l1 + other.l1, self.l2 + other.l2)

    def __sub__(self, other):
        if not isinstance(other, LogVector):
            return NotImplemented
        return LogVector(self.l1 - other.l1, self.l2 - other.l2)

    def __mul__(self, k):
        if not isinstance(k, (int, Fraction)):
            return NotImplemented
        return LogVector(self.l1 * k, self.l2 * k)

    __rmul__ = __mul__

    def __repr__(self):
        return "LogVector(%r, %r)" % (self.l1, self.l2)


# -- residue-disc bookkeeping ----------------------------------------------

def _as_padic(c, p: int, rel: int):
    """c as a p-adic field element; rationals are lifted into Q_p."""
    if isinstance(c, (PadicNumber, QuadExtNumber)):
        return c
    return PadicNumber.from_rational(Fraction(c), p, rel)


def _infinity_param(P: CurvePoint, p: int, rel: int):
    """t = x^2/y at a point of the disc at infinity."""
    if P.at_infinity:
        return PadicNumber.exact_zero(p)
    x, y = P.x, P.y
    if isinstance(x, Fraction) or isinstance(x, int):
        return PadicNumber.from_rational(Fraction(x) ** 2 / Fraction(y), p, rel)
    return x * x / y


def _disc_param(P: CurvePoint, center: CurvePoint, p: int, rel: int):
    """Disc parameter of P w.r.t. the center's expansion."""
    if center.at_infinity:
        return _infinity_param(P, p, rel)
    if center.y.is_exact_zero():
        return _as_padic(P.y, p, rel)
    return _as_padic(P.x, p, rel) - center.x


# -- tiny integrals within one residue disc --------------------------------

def tiny_integral(C: HyperellipticCurve, w, frm: CurvePoint, to: CurvePoint,
                  p: int, rel: int = DEFAULT_PRECISION):
    """Integral of w from frm to to, both in one residue disc, combined
    from the disc's cached basis antiderivatives.

    Endpoints may have rational, p-adic, or quadratic-extension coordinates;
    the value lies in the same field (a conjugate-symmetric extension value
    with no certified sqrt(d) part is returned as its Q_p component).
    """
    if not C.good_reduction(p):
        raise ValueError("tiny integrals need a prime of good reduction")
    basis = _basis_integrals(C, frm, to, p, rel)
    if basis is None:
        raise ValueError("endpoints lie in different residue discs")
    val = w.c1 * basis[0] + w.c2 * basis[1]
    if isinstance(val, QuadExtNumber) and val.b.is_zeroish():
        return val.a
    return val


# -- the Jacobian logarithm --------------------------------------------------

def _basis(p: int, rel: int):
    return (Differential(1, 0, p, rel), Differential(0, 1, p, rel))


_DISC_LAMBDA_CACHE: dict = {}


def _field_key(c):
    """Hashable digits of a p-adic coordinate."""
    if isinstance(c, QuadExtNumber):
        return (c.ext.kind, _field_key(c.a), _field_key(c.b))
    return (c.valuation, c.unit_part(), c.rel_precision)


def _anchor_frame(C: HyperellipticCurve, anchor: CurvePoint, p: int, rel: int):
    """(center, local frame) at an anchor point at truncation order
    TRUNCATION_FACTOR * rel, the center being the anchor as the local
    expansions lift it.  Cached per curve and precision by those lifted
    coordinates, so a rational point that is its disc's center shares the
    disc's frame."""
    center = lift_anchor(anchor, p, rel)
    key = FP_INFINITY if center.at_infinity else (_field_key(center.x),
                                                  _field_key(center.y))
    ck = (C.f_coeffs, p, rel, key)
    hit = _DISC_LAMBDA_CACHE.get(ck)
    if hit is None:
        hit = (center, local_frame(C, center, p, TRUNCATION_FACTOR * rel, rel))
        _DISC_LAMBDA_CACHE[ck] = hit
    return hit


def _disc_frame(C: HyperellipticCurve, disc_key, p: int, rel: int):
    """(center, local frame) at the canonical center of a residue disc,
    labeled as reduce_point labels it."""
    return _anchor_frame(C, disc_center(C, disc_key, p, rel), p, rel)


def _basis_lambdas(C: HyperellipticCurve, disc_key, p: int, rel: int):
    """(center, (antiderivative of dx/2y, antiderivative of x dx/2y)) for a
    residue disc, formed on its cached frame."""
    center, frame = _disc_frame(C, disc_key, p, rel)
    return center, tuple(expand_on_frame(w, frame).antiderivative()
                         for w in _basis(p, rel))


def _basis_integrals(C: HyperellipticCurve, frm: CurvePoint, to: CurvePoint,
                     p: int, rel: int):
    """Integrals of dx/2y and x dx/2y from frm to to, or None when the
    endpoints lie in different residue discs."""
    key = reduce_point(C, to, p)
    if key != reduce_point(C, frm, p):
        return None
    center, lams = _basis_lambdas(C, key, p, rel)
    t_to = _disc_param(to, center, p, rel)
    t_frm = _disc_param(frm, center, p, rel)
    return tuple(lam.evaluate(t_to) - lam.evaluate(t_frm) for lam in lams)


def _base_value(val):
    """val as a Q_p element, raising when it has a certified sqrt(d) part."""
    return val.base_part_checked() if isinstance(val, QuadExtNumber) else val


def log_jacobian(C: HyperellipticCurve, D: MumfordDivisor, p: int,
                 rel: int = DEFAULT_PRECISION) -> LogVector:
    """Logarithm of the class of D: (1/m) * tiny integrals along m*D, where
    m is the order of the reduction of D in J(F_p)."""
    if not C.good_reduction(p):
        raise ValueError("the logarithm needs a prime of good reduction")
    m = element_order(C, reduce_divisor(C, D, p, rel), jacobian_order(C, p))
    # a rational D keeps the exact ladder: no capped-precision pivots, and
    # a torsion class dies to the exact identity, not an uncertifiable zero
    l1, l2 = _kernel_log(C, scalar_mul(C, m, D), p, rel)
    inv_m = Fraction(1, m)
    return LogVector(l1 * inv_m, l2 * inv_m)


def _kernel_log(C: HyperellipticCurve, delta: MumfordDivisor, p: int, rel: int):
    """Basis tiny integrals for a divisor class in the kernel of reduction.

    The reduction being the canonical class forces the support, as
    divisor_support splits it, into one of: empty, one point, two points or
    a conjugate pair in the disc at infinity, or an affine pair P, Q with
    Q-bar = (iota P)-bar, integrated as a single path from iota(Q) to P
    inside P's disc.
    """
    points, disc = divisor_support(delta, p, rel)
    if not points:
        zero = PadicNumber.exact_zero(p)
        return zero, zero
    if disc is not None and disc.is_zeroish():
        return _near_doubled_log(C, delta, points[0], disc, p, rel)
    drops = [valuation_is_negative(P.x) for P in points]
    if all(drops):
        _, lams = _basis_lambdas(C, FP_INFINITY, p, rel)
        ts = [_infinity_param(P, p, rel) for P in points]
        return tuple(_base_value(sum((lam.evaluate(t) for t in ts[1:]),
                                     lam.evaluate(ts[0])))
                     for lam in lams)
    if any(drops):
        raise DecompositionFailureError(
            "kernel class with mixed affine and infinite support")
    if len(points) == 1:
        raise DecompositionFailureError(
            "degree-1 kernel class with integral support")
    P, Q = points
    basis = _basis_integrals(C, Q.involution(), P, p, rel)
    if basis is None:
        raise DecompositionFailureError(
            "kernel endpoints land in distinct residue discs")
    return tuple(_base_value(val) for val in basis)


def _near_doubled_log(C, delta, mid, disc, p, rel):
    """Kernel class whose two support points cannot be separated: integrate
    from the midpoint's involute and cap by the perturbation size.

    The true roots sit at x0 +- eps with 2 v(eps) >= v(disc); the basis
    antiderivatives have integral coefficients in the disc parameter, so
    |lambda(t + dt) - lambda(t)| <= |dt| bounds the error of treating the
    class as exactly doubled.
    """
    if disc.is_exact_zero():
        k_eps = None
    else:
        k_eps = int(disc.valuation) // 2
    if valuation_is_negative(mid.x):
        _, lams = _basis_lambdas(C, FP_INFINITY, p, rel)
        t = _infinity_param(mid, p, rel)
        out = [lam.evaluate(t) * 2 for lam in lams]
        # dt/dx has positive valuation on the disc at infinity
        if k_eps is not None:
            out = [v.with_abs_cap(k_eps) for v in out]
        return tuple(out)
    # affine doubled support reduces to a Weierstrass point; t = y there.
    # A midpoint that reduces anywhere else means the zeroish discriminant
    # was precision erosion, not a genuine double root: retryable.
    key = reduce_point(C, mid, p)
    fbar = 0
    for k in reversed(C.f_coeffs):
        fbar = (fbar * key[0] + k) % p
    if key[1] % p != 0 or fbar % p != 0:
        raise PrecisionLossError(
            "eroded kernel data: midpoint does not reduce to a branch point")
    _, lams = _basis_lambdas(C, key, p, rel)
    cap = None
    if k_eps is not None and len(delta.v) == 2:
        # dy = v'(x) dx along the support, so |dt| <= |v1| |eps|; a
        # constant v makes the parameter y0 exact in eps
        cap = k_eps + int(_as_padic(delta.v[1], p, rel).valuation)
    out = []
    for lam in lams:
        val = lam.evaluate(mid.y) - lam.evaluate(-mid.y)
        if cap is not None:
            val = val.with_abs_cap(cap)
        out.append(val)
    return tuple(out)


# -- annihilating form and transversality -----------------------------------

def annihilating_form(gamma_log: LogVector) -> Differential:
    """The normalized 1-form (up to scaling) killing the line spanned by
    gamma_log."""
    if gamma_log.l1.is_zeroish() and gamma_log.l2.is_zeroish():
        raise ValueError(
            "torsion-generator: the logarithm vector vanishes at precision")
    return Differential(gamma_log.l2, -gamma_log.l1).normalized()


def transversality_certificate(C: HyperellipticCurve, w, Q: CurvePoint, p: int,
                               rel: int = DEFAULT_PRECISION):
    """(True, v(a0)) when the normalized w is certifiably nonvanishing at the
    center of Q's residue disc, (False, None) when it vanishes at working
    precision."""
    _, frame = _disc_frame(C, reduce_point(C, Q, p), p, rel)
    a0 = expand_on_frame(w.normalized(), frame).coeff_of_degree(0)
    if a0.is_zeroish():
        return False, None
    return True, int(a0.valuation)


# -- Strassmann zero counts per disc ----------------------------------------

class DiscCertificate:
    """Replayable record of an analytic zero count on one residue disc."""

    __slots__ = ("center", "zero_count", "known_count", "n", "v_w", "prime",
                 "precision", "truncation_order", "lambda_coefficients",
                 "tail_valuation_bound")

    def __init__(self, center, zero_count, known_count, n, v_w, prime,
                 precision, truncation_order, lambda_coefficients,
                 tail_valuation_bound=None):
        self.center = center
        self.zero_count = zero_count
        self.known_count = known_count
        self.n = n
        self.v_w = v_w
        self.prime = prime
        self.precision = precision
        self.truncation_order = truncation_order
        self.lambda_coefficients = lambda_coefficients
        self.tail_valuation_bound = tail_valuation_bound

    @property
    def contains_known_point(self) -> bool:
        return self.known_count > 0

    @property
    def resolved(self) -> bool:
        """Every analytic zero is accounted for by a known rational point."""
        return self.zero_count == self.known_count

    def __repr__(self):
        return ("DiscCertificate(center=%r, zeros=%d, known=%d, n=%d, p=%d)"
                % (self.center, self.zero_count, self.known_count,
                   self.n, self.prime))


def disc_zero_count(C: HyperellipticCurve, w, fp_point, p: int, n: int = 1,
                    known_points=(), rel: int = DEFAULT_PRECISION) -> DiscCertificate:
    """Strassmann count of zeros of the antiderivative of w on the depth-n
    sub-disc around the canonical center of an F_p-point's residue disc.

    The series counted is kappa + int(w), kappa the pairing of w with the
    logarithm of [center - infinity], so its zeros are exactly the points
    where the full Coleman function based at infinity vanishes.
    """
    if not C.good_reduction(p):
        raise ValueError("zero counts need a prime of good reduction")
    w = w.normalized()
    center, frame = _disc_frame(C, fp_point, p, rel)
    if center.at_infinity or center.y.is_exact_zero():
        # [center - infinity] is trivial or 2-torsion: kappa = 0 exactly
        kappa = PadicNumber.exact_zero(p)
    else:
        D = embed_point(C, center, CurvePoint.infinity(),
                        domain=PadicDomain(p, rel))
        L = log_jacobian(C, D, p, rel=rel)
        kappa = w.apply(L)
    a = expand_on_frame(w, frame)
    a0 = a.coeff_of_degree(0)
    v_w = None if a0.is_zeroish() else int(a0.valuation)
    series = PadicPowerSeries(p, [kappa], _INF, 0) \
        + a.antiderivative().rescale_argument(n)
    count = strassmann_count(series)
    inside = 0
    for Q in known_points:
        if reduce_point(C, Q, p) != fp_point:
            continue
        t = _disc_param(Q, center, p, rel)
        if t.valuation_p() >= n:
            inside += 1
    if count < inside:
        raise ArithmeticError(
            "zero count %d below the %d known points of the disc" % (count, inside))
    return DiscCertificate(center=fp_point, zero_count=count, known_count=inside,
                           n=n, v_w=v_w, prime=p, precision=rel,
                           truncation_order=series.truncation_order,
                           lambda_coefficients=tuple(series.coeffs),
                           tail_valuation_bound=series.tail_valuation_bound)


# -- anchored series and the single-point criterion --------------------------

def point_anchored_series(C: HyperellipticCurve, w, Q: CurvePoint, p: int,
                          n: int = 1, rel: int = DEFAULT_PRECISION) -> PadicPowerSeries:
    """Antiderivative of w as a series in t/p^n, anchored at Q itself with
    constant term exactly 0 (so r = 0 is the zero at Q)."""
    y0 = None if Q.at_infinity else _as_padic(Q.y, p, rel)
    if y0 is None or y0.is_exact_zero() or y0.valuation == 0:
        # Q anchors its own expansion: infinity (t = x^2/y), branch point
        # (t = y) or ordinary disc
        _, frame = _anchor_frame(C, Q, p, rel)
        return expand_on_frame(w, frame).antiderivative().rescale_argument(n)
    # Q sits above a Weierstrass point without being one: recenter the disc
    # series t = y at t0 = y(Q)
    _, frame = _disc_frame(C, reduce_point(C, Q, p), p, rel)
    lam = expand_on_frame(w, frame).antiderivative()
    return _recentered_series(lam, y0).rescale_argument(n)


def _recentered_series(lam: PadicPowerSeries, t0: PadicNumber) -> PadicPowerSeries:
    """lam(t0 + s) - lam(t0) as a series in s, for v(t0) >= 1.

    The polynomial part shifts exactly; the tail contributes at least
    M - k v(t0) to the degree-k coefficient, M the tail cap of lam at t0.
    """
    if lam.shift != 0:
        raise ValueError("shift-0 series required")
    if t0.is_zeroish() or t0.valuation < 1:
        raise ValueError("recentering requires certified v(t0) >= 1")
    p = lam.prime
    v0 = Fraction(int(t0.valuation))
    bs = _taylor_coeffs(lam.coeffs, t0)
    M = lam._eval_tail_cap(v0)
    if M != _INF:
        bs = [b.with_abs_cap(int(math.floor(M - k * v0)))
              for k, b in enumerate(bs)]
    bs[0] = PadicNumber.exact_zero(p)
    # for d > T the tail contributions keep the penalized shape: the log
    # term grows by at most 1 per unit of degree while v(t0) >= 1
    return PadicPowerSeries(p, bs, lam.tail_valuation_bound, 0,
                            lam.tail_log_penalty)


def single_point_criterion(v_w, p: int, n: int, series: PadicPowerSeries) -> bool:
    """True when the level-n series provably has exactly the one zero at the
    anchor: p odd, n past v_w, and the linear coefficient dominating every
    other certified coefficient and the truncation tail.  Never raises;
    any uncertainty returns False."""
    if v_w is None or p < 3 or n < v_w + 1:
        return False
    if series.shift != 0 or series.tail_log_penalty:
        return False
    b1 = series.coeff_of_degree(1)
    if b1.is_zeroish():
        return False
    v1 = b1.valuation
    b0 = series.coeff_of_degree(0)
    if not b0.is_exact_zero() and b0.valuation < v1:
        return False
    for k in range(2, series.truncation_order + 1):
        c = series.coeffs[k]
        if c.is_exact_zero():
            continue
        if c.valuation <= v1:
            return False
    if series.tail_valuation_bound != _INF and series.tail_valuation_bound <= v1:
        return False
    return True
