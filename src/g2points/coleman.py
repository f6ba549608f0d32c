"""Single-disc Coleman machinery for rank-1 genus-2 Jacobians.

Tiny integrals of regular 1-forms between points of one residue disc,
the p-adic logarithm on the Jacobian (tiny integrals against the basis
dx/2y, x dx/2y after multiplying into the kernel of reduction), the
1-form annihilating a given logarithm vector, its transversality (a0 of
its expansion at a disc center), and Strassmann-certified zero counts of
its integral on residue discs.  Each disc and precision has one cache
entry, read by the disc's label, which expands each form once; integrals
are read off those series at points (PadicPowerSeries.integrals_at) or
as series in t/p^n (PadicPowerSeries.integral).  Everything returns
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
    centers_a_frame,
    disc_center,
    disc_parameter,
    expand_on_frame,
    is_branch_point,
    lift_anchor,
    local_frame,
    reduce_point,
    store_for_curve,
)
from .jacobian import (
    MumfordDivisor,
    divisor_support,
    element_order,
    embed_point,
    order_and_exponent,
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
    lift,
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

    def __neg__(self):
        return LogVector(-self.l1, -self.l2)

    def __repr__(self):
        return "LogVector(%r, %r)" % (self.l1, self.l2)


# -- tiny integrals within one residue disc --------------------------------

def tiny_integral(C: HyperellipticCurve, w, frm: CurvePoint, to: CurvePoint,
                  p: int, rel: int = DEFAULT_PRECISION):
    """Integral of w from frm to to, both in one residue disc, combined
    from the integrals of the basis forms, whose expansions the disc's
    cache entry keeps.

    Endpoints may have rational, p-adic, or quadratic-extension coordinates;
    the value lies in the same field (a conjugate-symmetric extension value
    with no certified sqrt(d) part is returned as its Q_p component).  The
    basis integrals are the signed disc sum over [(to, +1), (frm, -1)].
    """
    if not C.good_reduction(p):
        raise ValueError("tiny integrals need a prime of good reduction")
    key = reduce_point(C, to, p)
    if key != reduce_point(C, frm, p):
        raise ValueError("endpoints lie in different residue discs")
    l1, l2 = _disc_sums(C, key, [(to, 1), (frm, -1)], p, rel)
    val = w.c1 * l1 + w.c2 * l2
    if isinstance(val, QuadExtNumber) and val.b.is_zeroish():
        return val.a
    return val


# -- the Jacobian logarithm --------------------------------------------------

_DISC_LAMBDA_CACHE: dict = {}


def _field_key(c):
    """Hashable digits of a p-adic coordinate."""
    if isinstance(c, QuadExtNumber):
        return (c.ext.kind, _field_key(c.a), _field_key(c.b))
    return (c.valuation, c.unit_part(), c.rel_precision)


def _cache_key(C: HyperellipticCurve, center: CurvePoint, p: int, rel: int):
    return (C.f_coeffs, p, rel, FP_INFINITY if center.at_infinity
            else (_field_key(center.x), _field_key(center.y)))


def _partner_entry(C: HyperellipticCurve, center: CurvePoint, p: int, rel: int):
    """The cached entry of an affine, non-branch center's iota-partner."""
    if center.at_infinity or is_branch_point(center):
        return None
    return _DISC_LAMBDA_CACHE.get(_cache_key(C, center.involution(), p, rel))


def _anchor_entry(C: HyperellipticCurve, anchor: CurvePoint, p: int, rel: int):
    """The cache entry [center, local frame, center log, expansions] at an
    anchor point: the anchor as local_frame lifts it, its frame at
    truncation order TRUNCATION_FACTOR * rel, log [center - infinity] once
    disc_zero_count has read it (else None), and the series of _expansion.
    Cached per curve and precision by the lifted coordinates, so a rational
    point that is its disc's center shares the disc's entry; the cache
    holds one curve's entries, and one of another curve empties it.

    A miss at an affine, non-branch center (x, y) whose iota-partner
    (x, -y) is cached reads its frame off the partner's: the same k and
    X(t) = x0 + t, and the one factor 1/(2y(t)) negated.  series_sqrt and
    series_inv are odd in y0, the caps read off valuations alone and each
    unit sum flipping sign, so that is the frame local_frame would build,
    digit for digit."""
    center = lift_anchor(anchor, p, rel)
    ck = _cache_key(C, center, p, rel)
    hit = _DISC_LAMBDA_CACHE.get(ck)
    if hit is None:
        partner = _partner_entry(C, center, p, rel)
        if partner is None:
            frame = local_frame(C, center, p, TRUNCATION_FACTOR * rel, rel)
        else:
            k, xs, (h,) = partner[1]
            frame = k, xs, (PadicPowerSeries(p, [-c for c in h.coeffs],
                                             h.tail_valuation_bound),)
        hit = store_for_curve(_DISC_LAMBDA_CACHE, ck, [center, frame, None, {}])
    return hit


def _disc_entry(C: HyperellipticCurve, label, p: int, rel: int):
    """The cache entry at the canonical center of the residue disc labeled
    label, as reduce_point labels it; stored under the label too, so a
    read by label makes no Hensel lift."""
    key = (C.f_coeffs, p, rel, label)
    return _DISC_LAMBDA_CACHE.get(key) or store_for_curve(
        _DISC_LAMBDA_CACHE, key,
        _anchor_entry(C, disc_center(C, label, p, rel), p, rel))


def _expansion(entry, w: Differential) -> PadicPowerSeries:
    """The expansion of w on the entry's frame, made once per form: keyed
    by the digits of c1 and c2."""
    key = (_field_key(w.c1), _field_key(w.c2))
    series = entry[3].get(key)
    if series is None:
        series = entry[3][key] = expand_on_frame(w, entry[1])
    return series


def _disc_sums(C: HyperellipticCurve, key, terms, p: int, rel: int):
    """The sums of s * lambda(t(P)) over the pairs (P, s) of terms, for the
    integrals lambda of dx/2y and x dx/2y on the cached frame of the
    residue disc labeled key; each P lies in that disc, each s is +1 or -1."""
    entry = _disc_entry(C, key, p, rel)
    ts = [disc_parameter(P, entry[0], p, rel) for P, _ in terms]
    out = []
    for w in (Differential(1, 0, p, rel), Differential(0, 1, p, rel)):
        acc = PadicNumber.exact_zero(p)
        vals = _expansion(entry, w).integrals_at(ts)
        for val, (_, s) in zip(vals, terms):
            acc = acc + val if s > 0 else acc - val
        out.append(acc)
    return tuple(out)


def _base_value(val):
    """val as a Q_p element, raising when it has a certified sqrt(d) part."""
    return val.base_part_checked() if isinstance(val, QuadExtNumber) else val


def log_jacobian(C: HyperellipticCurve, D: MumfordDivisor, p: int,
                 rel: int = DEFAULT_PRECISION) -> LogVector:
    """Logarithm of the class of D: (1/m) * tiny integrals along m*D, where
    m is the order of the reduction of D in J(F_p), walked up to its exponent."""
    if not C.good_reduction(p):
        raise ValueError("the logarithm needs a prime of good reduction")
    exponent = order_and_exponent(C, p)[1]
    m = element_order(C, reduce_divisor(C, D, p, rel), exponent)
    # a rational D keeps the exact ladder: no capped-precision pivots, and
    # a torsion class dies to the exact identity, not an uncertifiable zero
    l1, l2 = _kernel_log(C, scalar_mul(C, m, D), p, rel)
    inv_m = Fraction(1, m)
    return LogVector(l1 * inv_m, l2 * inv_m)


def _kernel_log(C: HyperellipticCurve, delta: MumfordDivisor, p: int, rel: int):
    """Basis tiny integrals for a divisor class in the kernel of reduction.

    The reduction being the canonical class forces the support, as
    divisor_support reads it, into one of: empty, one point, two points or
    a conjugate pair in the disc at infinity, summed there with sign +1,
    or an affine pair P, Q with Q-bar = (iota P)-bar, integrated as the
    path from iota(Q) to P: the disc sum over [(P, +1), (iota Q, -1)].

    A doubled midpoint takes the same shapes.  Off by at least eps from
    each true root, it is capped at eps at infinity, where dt/dx has
    positive valuation, and at eps + v(v1) on an affine disc, where t = y
    and dy = v'(x) dx along the support; a constant v leaves t exact.  The
    basis integrals have integral coefficients in t, so
    |lambda(t + dt) - lambda(t)| <= |dt|.  An affine midpoint must reduce
    to a branch point; anywhere else the zeroish discriminant was precision
    erosion, not a genuine double root, and the class is retried.
    """
    points, eps = divisor_support(delta, p, rel)
    if not points:
        zero = PadicNumber.exact_zero(p)
        return zero, zero
    drops = [valuation_is_negative(P.x) for P in points]
    if all(drops):
        key, terms, cap = FP_INFINITY, [(P, 1) for P in points], eps
    elif any(drops):
        raise DecompositionFailureError(
            "kernel class with mixed affine and infinite support")
    elif len(points) == 1:
        raise DecompositionFailureError(
            "degree-1 kernel class with integral support")
    else:
        P, Q = points
        key = reduce_point(C, P, p)
        if P is Q:
            if key[1] % p != 0 or C.f_eval(key[0]) % p != 0:
                raise PrecisionLossError("eroded kernel data: midpoint does "
                                         "not reduce to a branch point")
        elif reduce_point(C, Q.involution(), p) != key:
            raise DecompositionFailureError(
                "kernel endpoints land in distinct residue discs")
        terms, cap = [(P, 1), (Q.involution(), -1)], None
        if eps is not None and len(delta.v) == 2:
            cap = eps + int(lift(delta.v[1], p, rel).valuation)
    vals = _disc_sums(C, key, terms, p, rel)
    if cap is not None:
        vals = [val.with_abs_cap(cap) for val in vals]
    return tuple(_base_value(val) for val in vals)


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
    precision.

    a0, the constant term of w's expansion on the disc's cached frame, is
    the value of w/dt at the disc center: the paper's transversality
    condition at the disc is a0 != 0.  The expansion stays on the disc's
    entry for its later readers."""
    entry = _disc_entry(C, reduce_point(C, Q, p), p, rel)
    a0 = _expansion(entry, w.normalized()).coeff_of_degree(0)
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
    def resolved(self) -> bool:
        """Every analytic zero is accounted for by a known rational point."""
        return self.zero_count == self.known_count

    def __repr__(self):
        return ("DiscCertificate(center=%r, zeros=%d, known=%d, n=%d, p=%d)"
                % (self.center, self.zero_count, self.known_count,
                   self.n, self.prime))


def disc_zero_count(C: HyperellipticCurve, w, fp_point, p: int, n: int = 1,
                    known_points=(), rel: int = DEFAULT_PRECISION) -> DiscCertificate:
    """Strassmann count of zeros of the integral of w on the depth-n
    sub-disc around the canonical center of an F_p-point's residue disc.

    The series counted is kappa + int(w), kappa the pairing of w with the
    logarithm of [center - infinity], so its zeros are exactly the points
    where the full Coleman function based at infinity vanishes.

    That logarithm is kept on the center's cache entry.  An entry whose
    iota-partner's entry holds one takes it negated: P + iota(P) ~
    2 infinity gives [iota(P) - infinity] = -[P - infinity], and the two
    centers, their frames and the Cantor ladder are odd in y, so the
    negation agrees digit for digit.
    """
    if not C.good_reduction(p):
        raise ValueError("zero counts need a prime of good reduction")
    w = w.normalized()
    entry = _disc_entry(C, fp_point, p, rel)
    center, _, log, _ = entry
    if center.at_infinity or is_branch_point(center):
        # [center - infinity] is trivial or 2-torsion: kappa = 0 exactly
        kappa = PadicNumber.exact_zero(p)
    else:
        if log is None:
            partner = _partner_entry(C, center, p, rel)
            if partner is not None and partner[2] is not None:
                log = -partner[2]
            else:
                log = log_jacobian(C, embed_point(
                    C, center, CurvePoint.infinity(),
                    domain=PadicDomain(p, rel)), p, rel=rel)
            entry[2] = log
        kappa = w.apply(log)
    a = _expansion(entry, w)
    a0 = a.coeff_of_degree(0)
    v_w = None if a0.is_zeroish() else int(a0.valuation)
    series = PadicPowerSeries(p, [kappa]) + a.integral(n)
    count = strassmann_count(series)
    inside = 0
    for Q in known_points:
        if reduce_point(C, Q, p) != fp_point:
            continue
        t = disc_parameter(Q, center, p, rel)
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
    """Integral of w from Q as a series in t/p^n, constant term exactly 0
    (so r = 0 is the zero at Q)."""
    if centers_a_frame(lift_anchor(Q, p, rel)):
        return _expansion(_anchor_entry(C, Q, p, rel), w).integral(n)
    # Q centers no frame (a point above a branch point, or of the disc at
    # infinity): integrate its disc's series from t0 = t(Q)
    entry = _disc_entry(C, reduce_point(C, Q, p), p, rel)
    t0 = disc_parameter(Q, entry[0], p, rel)
    return _expansion(entry, w).integral(n, t0)


def single_point_criterion(v_w, p: int, n: int, series: PadicPowerSeries) -> bool:
    """True when the level-n series provably has exactly the one zero at the
    anchor: p odd, n past v_w, and the linear coefficient dominating every
    other certified coefficient and the truncation tail.  Never raises;
    any uncertainty returns False."""
    if v_w is None or p < 3 or n < v_w + 1:
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
