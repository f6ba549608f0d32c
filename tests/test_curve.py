"""Curve model, reduction, disc centers, expansions, differential data."""

import hashlib
import random
from fractions import Fraction

import pytest

from g2points.curve import (
    FP_INFINITY,
    CurvePoint,
    Differential,
    HyperellipticCurve,
    _expansion_at_infinity,
    _lpolyval,
    _lsub,
    _weierstrass_x_coeffs,
    centers_a_frame,
    count_Fp2_points,
    count_Fp_points,
    disc_center,
    disc_parameter,
    expand_differential,
    fp_curve_points,
    is_branch_point,
    is_on_curve,
    is_prime,
    lift_anchor,
    local_frame,
    reduce_point,
)
from g2points.padic import (
    TRUNCATION_FACTOR,
    PadicNumber,
    PadicPowerSeries,
    NotHenselLiftableError,
    PrecisionLossError,
    QuadExtNumber,
    lift,
    series_inv,
    series_mul,
    smallest_nonresidue,
)

FLYNN = [0, 60, -112, 65, -14, 1]  # x(x-1)(x-2)(x-5)(x-6)
FLYNN_T = tuple(FLYNN)
CURVE2_T = (1, 2, 0, 0, 0, 1)  # x^5 + 2x + 1, a root 5 mod 7^2


@pytest.fixture(scope="module")
def C():
    return HyperellipticCurve(FLYNN)


def curve_eq_residual(C, xs, ys, p, upto, k=0):
    """Nonzero coefficients below the given degree of y(t)^2 - f(x(t)).

    With k = 2 the pair is the pole-free (X, Y) = (t^2 x, t^5 y) at
    infinity, and the residual is Y^2 - sum f_i X^i t^(10 - 2i).
    """
    # homogeneous Horner on -f, so that the residual is a sum
    fc = [PadicNumber.from_int(-c, p, 20) for c in C.f_coeffs]
    zero = PadicNumber.exact_zero(p)
    acc = PadicPowerSeries(p, [fc[5]])
    for i in range(4, -1, -1):
        acc = acc * xs + PadicPowerSeries(p, [zero] * (k * (5 - i)) + [fc[i]])
    d = ys * ys + acc
    return [(deg, str(c)) for deg in range(upto)
            if not (c := d.coeff_of_degree(deg)).is_zeroish()]


def frame_pair(C, center, p, T, rel=20):
    """(x(t), y(t)) read back off the frame at center: x = X and
    y = 1/(2h) on an affine disc, x = X and y = t at a branch point, and at
    infinity the pole-free pair (X, t^5 y) with t^5 y the inverse of the
    second factor."""
    k, X, factors = local_frame(C, center, p, T, rel)
    if k == 2:
        return X, factors[1].inverse()
    if center.y.is_zeroish():
        return X, PadicPowerSeries(p, [PadicNumber.exact_zero(p), lift(1, p, rel)])
    return X, factors[0].inverse() * Fraction(1, 2)


def coefficient_digits(c):
    """(v, unit, rel) of a coefficient, per part over an extension."""
    if isinstance(c, QuadExtNumber):
        return (coefficient_digits(c.a), coefficient_digits(c.b))
    return (c.valuation, c.unit_part(), c.rel_precision)


def t_newton_reference(fc, T, x0=None):
    """The series Newton loops in t that local_frame runs in u = t^2:
    x(t) with f(x(t)) = t^2 from the branch point x0, or, for x0 None, the
    pair (t^2 x, t^5 y) at infinity from xi = 1/x = t^2 g(xi)."""
    one, p = fc[5], fc[5].prime
    zero = PadicNumber.exact_zero(p)
    if x0 is None:
        poly, s, m, n = [one, fc[4], fc[3], fc[2], fc[1], fc[0]], [zero, zero, one], 3, T + 3
    else:
        poly, s, m, n = fc, [x0], 1, T + 1
    dpoly = [poly[i] * i for i in range(1, 6)]
    while m < n:
        m = min(2 * m, n)
        val, dval = _lpolyval(p, poly, s, m), _lpolyval(p, dpoly, s, m)
        if x0 is None:
            res, dF = _lsub(s, val, m, 2), [one, zero] + [-c for c in dval[: m - 2]]
        else:
            res, dF = _lsub(val, [one], m, 2), dval
        s = _lsub(s, series_mul(p, res, series_inv(p, dF, m), m), m)
    if x0 is not None:
        return (s[: T + 1],)
    inv = series_inv(p, s[2: T + 3], T + 1)
    return inv, series_mul(p, inv, inv, T + 1)


class TestCurveBasics:
    def test_discriminant(self, C):
        # prod of squared root differences for roots {0,1,2,5,6}
        assert C.disc == 14400 ** 2

    def test_monic_quintic_enforced(self):
        with pytest.raises(ValueError):
            HyperellipticCurve([0, 60, -112, 65, -14, 2])
        with pytest.raises(ValueError):
            HyperellipticCurve([1, 2, 3, 4, 5])

    def test_singular_rejected(self):
        # x^2 (x-1)(x-2)(x-3) has a double root
        with pytest.raises(ValueError):
            HyperellipticCurve([0, 0, -6, 11, -6, 1])

    def test_good_reduction(self, C):
        assert C.good_reduction(7)
        assert C.good_reduction(11)
        assert not C.good_reduction(2)
        assert not C.good_reduction(5)
        assert not C.good_reduction(3)
        assert not C.good_reduction(9)

    def test_is_prime(self):
        primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
        for n in range(2, 50):
            assert is_prime(n) == (n in primes)
        assert is_prime(2 ** 61 - 1)
        assert not is_prime(2 ** 61 + 1)


class TestPoints:
    def test_on_curve(self, C):
        assert is_on_curve(C, CurvePoint.affine(3, 6))
        assert is_on_curve(C, CurvePoint.infinity())
        assert not is_on_curve(C, CurvePoint.affine(3, 5))
        assert is_on_curve(C, CurvePoint.affine(10, 120))

    def test_on_curve_padic(self, C):
        x = PadicNumber.from_int(3, 7, 20)
        y = PadicNumber.from_int(6, 7, 20)
        assert is_on_curve(C, CurvePoint(x, y, False))
        assert not is_on_curve(C, CurvePoint(x, y + 1, False))

    def test_involution(self, C):
        P = CurvePoint.affine(3, 6)
        assert P.involution().y == -6
        assert CurvePoint.infinity().involution().at_infinity

    def test_reduce_examples(self, C):
        assert reduce_point(C, CurvePoint.affine(10, 120), 7) == (3, 1)
        assert reduce_point(C, CurvePoint.affine(10, -120), 7) == (3, 6)
        assert reduce_point(C, CurvePoint.infinity(), 7) == FP_INFINITY

    def test_reduce_negative_valuation_to_infinity(self, C):
        # any point with v(x) < 0 is in the infinity disc
        x = PadicNumber.from_rational(Fraction(1, 49), 7, 20)
        y2 = C.f_eval(x)
        from g2points.padic import padic_sqrt
        y = padic_sqrt(y2)
        assert isinstance(y, PadicNumber) and y.valuation == -5
        assert reduce_point(C, CurvePoint(x, y, False), 7) == FP_INFINITY

    def test_reduce_commutes_with_involution(self, C):
        rng = random.Random(3)
        pts = [CurvePoint.affine(3, 6), CurvePoint.affine(10, 120),
               CurvePoint.affine(0, 0), CurvePoint.infinity()]
        for P in pts:
            r1 = reduce_point(C, P.involution(), 7)
            r2 = reduce_point(C, P, 7)
            if r2 == FP_INFINITY:
                assert r1 == FP_INFINITY
            else:
                assert r1 == (r2[0], (-r2[1]) % 7)


class TestCounts:
    def test_count_f7(self, C):
        assert count_Fp_points(C, 7) == 8

    def test_parity_structure(self, C):
        # affine count is even except for F_p-rational Weierstrass x-values
        for p in (7, 11, 13, 17, 23):
            n = count_Fp_points(C, p)
            wroots = sum(1 for x in range(p) if C.f_eval(Fraction(x)).numerator % p == 0)
            assert (n - 1 - wroots) % 2 == 0

    def test_list_matches_count(self, C):
        for p in (7, 11):
            pts = fp_curve_points(C, p)
            assert len(pts) == count_Fp_points(C, p)
            assert len(set(pts)) == len(pts)
            assert FP_INFINITY in pts
            for q in pts:
                if q != FP_INFINITY:
                    x, y = q
                    assert (y * y - C.f_eval(Fraction(x)).numerator) % p == 0

    def test_count_fp2_consistency(self, C):
        # F_p-points inject into F_{p^2}-points
        for p in (7, 11):
            assert count_Fp2_points(C, p) >= count_Fp_points(C, p)

    def test_frozen_fp2_value(self, C):
        # frozen from an independent norm-character enumeration
        assert count_Fp2_points(C, 7) == 46


class TestExpansions:
    def test_affine_center_and_a0(self, C):
        ctr = disc_center(C, (3, 6), 7)
        assert (ctr.x - 3).is_zeroish()
        assert (ctr.y - 6).is_zeroish()
        xs, ys = frame_pair(C, ctr, 7, 12)
        assert curve_eq_residual(C, xs, ys, 7, 10) == []
        assert (xs.coeff_of_degree(1) - 1).is_zeroish()
        # y'(0) = f'(3)/12
        fp3 = sum(c * 3 ** i for i, c in enumerate(C.fprime_coeffs()))
        assert (ys.coeff_of_degree(1) - Fraction(fp3, 12)).is_zeroish()

    def test_weierstrass_expansion(self, C):
        ctr = disc_center(C, (0, 0), 7)
        assert ctr.y.is_exact_zero()
        xs, ys = frame_pair(C, ctr, 7, 12)
        assert curve_eq_residual(C, xs, ys, 7, 10) == []
        # x(t) = r + t^2/f'(r) + O(t^4)
        fpr = C.fprime_coeffs()[0]  # f'(0)
        assert (xs.coeff_of_degree(2) - Fraction(1, fpr)).is_zeroish()
        assert xs.coeff_of_degree(1).is_zeroish()
        assert xs.coeff_of_degree(3).is_zeroish()

    def test_infinity_expansion(self, C):
        # the pole-free pair (t^2 x, t^5 y), both with constant term 1
        X, Y = frame_pair(C, CurvePoint.infinity(), 7, 12)
        assert (X.coeffs[0] - 1).is_zeroish()
        assert (Y.coeffs[0] - 1).is_zeroish()
        assert curve_eq_residual(C, X, Y, 7, 11, k=2) == []

    @pytest.mark.parametrize("rel", [4, 40])
    def test_center_reached_without_a_newton_step_keeps_its_precision(
            self, rel):
        # x^2 - 2 divides f mod 3, so x0 = sqrt(2) is a branch point over
        # F_9; at rel 4 Newton stops at x0, whose exact-zero Q_3 part is
        # known only to O(3^4), as the rel-40 center shows
        Cx = HyperellipticCurve([-31, 17, 40, 30, 8, 1])
        label = ("ext", "unramified", 0, 1, 0, 0)
        x = disc_center(Cx, label, 3, rel).x
        assert not x.a.is_exact_zero()
        assert x.a.abs_precision <= rel
        x40 = disc_center(Cx, label, 3, 40).x
        assert (x - x40).is_zeroish()
        assert (x.a.valuation, x40.a.valuation) == (4, 4)

    @pytest.mark.parametrize("p", [7, 11, 13])
    def test_even_series_have_exact_zero_odd_coefficients(self, C, p):
        # x(t) at a branch point and (t^2 x, t^5 y) at infinity are even in t
        fc = [lift(k, p, 20) for k in C.f_coeffs]
        for label in [FP_INFINITY] + [(r % p, 0) for r in (0, 1, 2, 5, 6)]:
            if label == FP_INFINITY:
                series = _expansion_at_infinity(fc, 21)
            else:
                x0 = disc_center(C, label, p, 20).x
                series = (_weierstrass_x_coeffs(fc, x0, 21),)
            for s in series:
                assert len(s) == 22
                assert all(c.is_exact_zero() for c in s[1::2]), label
                assert not s[2].is_zeroish(), label

    @pytest.mark.parametrize("T", [1, 2, 9, 10, 80, 81])
    @pytest.mark.parametrize("rel", [4, 20, 40])
    def test_even_expansions_match_the_t_loops(self, C, T, rel):
        # every coefficient, digit for digit, at Flynn's branch points and
        # infinity for p = 7 and 13, and at a branch point over F_9
        cases = [(C, p, disc_center(C, label, p, rel)) for p in (7, 13)
                 for label in [FP_INFINITY] + [(r % p, 0) for r in (0, 1, 2, 5, 6)]]
        if T < 80:
            Cx = HyperellipticCurve([-31, 17, 40, 30, 8, 1])
            label = ("ext", "unramified", 0, 1, 0, 0)
            cases.append((Cx, 3, disc_center(Cx, label, 3, rel)))
        # x0 = 5 is a root of x^5 + 2x + 1 only mod 7^2: the first Newton
        # step, at one coefficient in u, moves it
        rough = CurvePoint(PadicNumber.from_int(5, 7, rel), PadicNumber.exact_zero(7), False)
        cases.append((HyperellipticCurve([1, 2, 0, 0, 0, 1]), 7, rough))
        for curve, p, ctr in cases:
            fc = [lift(k, p, rel) for k in curve.f_coeffs]
            if ctr.at_infinity:
                got, want = _expansion_at_infinity(fc, T), t_newton_reference(fc, T)
            else:
                x0 = lift_anchor(ctr, p, rel).x
                got = (_weierstrass_x_coeffs(fc, x0, T),)
                want = t_newton_reference(fc, T, x0)
            assert [[coefficient_digits(c) for c in s] for s in got] == \
                [[coefficient_digits(c) for c in s] for s in want], (p, ctr)

    def test_integrality_of_expansions(self, C):
        # the pair and every series of the frame
        for fp_pt in [(3, 6), (0, 0), FP_INFINITY]:
            ctr = disc_center(C, fp_pt, 7)
            _, X, factors = local_frame(C, ctr, 7, 16, 20)
            for s in frame_pair(C, ctr, 7, 16) + (X,) + tuple(
                    h for h in factors if isinstance(h, PadicPowerSeries)):
                for c in s.coeffs:
                    assert c.is_zeroish() or c.valuation >= 0, (fp_pt, str(c))


def fp2_labels(C, p):
    """The disc labels ("ext", "unramified", xa, xb, ya, yb) of the points
    of C over F_{p^2} = F_p(sqrt(c)) whose x lies outside F_p (xb != 0),
    found by squaring every element of F_{p^2}."""
    c = smallest_nonresidue(p)
    roots = {}
    for ya in range(p):
        for yb in range(p):
            square = ((ya * ya + c * yb * yb) % p, 2 * ya * yb % p)
            roots.setdefault(square, []).append((ya, yb))
    labels = []
    for xa in range(p):
        for xb in range(1, p):
            fa, fb = 0, 0
            for k in reversed(C.f_coeffs):
                fa, fb = (fa * xa + fb * xb * c + k) % p, (fa * xb + fb * xa) % p
            labels += [("ext", "unramified", xa, xb, ya, yb)
                       for ya, yb in roots.get((fa, fb), [])]
    return labels


class TestDiscCenters:
    """A disc's center is the Hensel lift of its label."""

    # sha256 over (p, rel, label, x digits, y digits) of every center
    # below, taken while centers were still square roots of f(x0) with a
    # sign picked off the label
    CENTER_DIGEST = ("41f7547870a538e9b242c239193fc446"
                     "614f11d4f384ecbfe08b21201616c00a")

    def test_every_center_reduces_to_its_label(self, C):
        rows = []
        for p in (7, 11, 13):
            labels = fp_curve_points(C, p) + fp2_labels(C, p)
            for rel in (4, 8, 20, 40):
                for label in labels:
                    center = disc_center(C, label, p, rel)
                    assert reduce_point(C, center, p) == label, (p, rel)
                    if label != FP_INFINITY:
                        rows.append((p, rel, label,
                                     coefficient_digits(center.x),
                                     coefficient_digits(center.y)))
        # 43, 115 and 177 affine labels at p = 7, 11 and 13
        assert len(rows) == 4 * (43 + 115 + 177)
        digest = hashlib.sha256(repr(rows).encode()).hexdigest()
        assert digest == self.CENTER_DIGEST

    def test_a_label_off_the_curve_has_no_center(self, C):
        # f(3) = 1 mod 7, so no point of C(F_7) has x = 3 and y = 2
        with pytest.raises(NotHenselLiftableError):
            disc_center(C, (3, 2), 7, 20)
        with pytest.raises(NotHenselLiftableError):
            disc_center(C, ("ext", "unramified", 0, 1, 1, 1), 7, 20)


class TestDiscParameter:
    """disc_parameter reads a point at the t of the frame it lies on, and
    one predicate, is_branch_point, tells both of them when t = y."""

    @pytest.mark.parametrize("label", [(3, 6), (0, 0), FP_INFINITY])
    def test_the_point_at_t_has_parameter_t(self, C, label):
        # the point at t = 21 of an affine disc, a branch point and the
        # disc at infinity, where x = X/t^2 and y = Y/t^5
        center = lift_anchor(disc_center(C, label, 7, 20), 7, 20)
        t = PadicNumber.from_int(21, 7, 20)
        xs, ys = frame_pair(C, center, 7, 40)
        x, y = xs.evaluate(t), ys.evaluate(t)
        if center.at_infinity:
            x, y = x / (t * t), y / (t * t * t * t * t)
        P = CurvePoint(x, y, False)
        assert is_on_curve(C, P)
        assert reduce_point(C, P, 7) == label
        got = disc_parameter(P, center, 7, 20)
        assert got.valuation == 1 and (got - t).is_zeroish()

    def test_a_branch_center_whose_y_has_no_known_digits(self):
        # y = O(7^20) without being an exact zero: the frame is the
        # branch-point frame, even in t, and the disc parameter is t = y
        # on it too, not x - x0
        C2 = HyperellipticCurve(CURVE2_T)
        root = disc_center(C2, (5, 0), 7, 20).x
        center = CurvePoint(root, PadicNumber.zeroish(7, 20), False)
        assert is_branch_point(center) and centers_a_frame(center)
        k, xs, _ = local_frame(C2, center, 7, 40, 20)
        assert k == 0 and all(c.is_exact_zero() for c in xs.coeffs[1::2])
        t = PadicNumber.from_int(21, 7, 20)
        P = CurvePoint(xs.evaluate(t), t, False)
        assert is_on_curve(C2, P)
        got = disc_parameter(P, center, 7, 20)
        assert got.valuation == 1 and (got - t).is_zeroish()

    def test_a_point_above_a_branch_point_centers_no_frame(self):
        # (1, 7) on y^2 = x^5 + 48 lies in the disc of the branch point
        # above x = 1 without being it: t = x - 1 is no parameter there,
        # and the branch point's frame reads the point at t = y = 7
        C2 = HyperellipticCurve([48, 0, 0, 0, 0, 1])
        Q = lift_anchor(CurvePoint.affine(1, 7), 7, 20)
        assert not is_branch_point(Q) and not centers_a_frame(Q)
        with pytest.raises(ValueError, match="branch point"):
            local_frame(C2, Q, 7, 8, 20)
        center = disc_center(C2, reduce_point(C2, Q, 7), 7, 20)
        assert is_branch_point(center) and centers_a_frame(center)
        assert coefficient_digits(disc_parameter(Q, center, 7, 20)) == \
            coefficient_digits(lift(7, 7, 20))


class TestDifferentials:
    def test_a0_at_3_6(self, C):
        w = Differential(1, 0, p=7)
        a = expand_differential(C, w, disc_center(C, (3, 6), 7), 7, 10)
        assert (a.coeff_of_degree(0) - Fraction(1, 12)).is_zeroish()

    def test_a0_vanishes_for_xdx_at_origin(self, C):
        w = Differential(0, 1, p=7)
        a = expand_differential(C, w, disc_center(C, (0, 0), 7), 7, 10)
        assert a.coeff_of_degree(0).is_zeroish()

    def test_a0_unit_for_xdx_at_infinity(self, C):
        w = Differential(0, 1, p=7)
        a = expand_differential(C, w, CurvePoint.infinity(), 7, 10)
        a0 = a.coeff_of_degree(0)
        assert a0.valuation == 0
        assert (a0 + 1).is_zeroish()  # orientation of t = x^2/y gives -1

    # sha256 of the (v, unit, rel) coefficients and the tail bound of
    # dx/2y, x dx/2y and (2 + 3x) dx/2y at T = 2 rel, per disc and precision
    EXPANSION_DIGESTS = {
        (FP_INFINITY, 20): "fa6f134afc1e15a60ff6eab8c97f49cc"
                           "559ba2e4e51ba030db9ae27d559ae258",
        (FP_INFINITY, 40): "7bda8fbbbf2c86c34f91b8a467e8a129"
                           "4ac730111efce5f04a7f3dc9896e5af2",
        ((2, 0), 20): "67a184c05ede1d5e1506d720db9caa9d"
                      "f202721dfe7c48ceeb99a60cba5348ca",
        ((2, 0), 40): "b0735c97560e3e6027fe8e7bc73f2367"
                      "d3be6a5ae4ac3cb0f549a5088c8750b8",
        ((3, 6), 20): "3a960383be1fecf234bf502145eb8438"
                      "e1f0a4939cdba24ad7622684127c5cc3",
        ((3, 6), 40): "c3d29436896bd526b638595aee7a1bf3"
                      "fc97193382527f3d8a0d3081054ba299",
        (("ext", "unramified", 0, 1, 3, 2), 20):
            "4d6d80dfb49a16871ffad369e96fd513c63346c51468c71c8697e6823fc38d15",
        (("ext", "unramified", 0, 1, 3, 2), 40):
            "c692265d89ecc68129d78d4e66b00a4abf6b17cf02258561c8c1f2e109fa3ba1",
    }

    @pytest.mark.parametrize("label, rel", list(EXPANSION_DIGESTS))
    def test_expansion_digits_are_pinned(self, C, label, rel):
        # an infinity disc, a branch point, an affine disc and a disc with
        # no Q_p-rational center, digit for digit
        center = disc_center(C, label, 7, rel)
        rows = []
        for form in ((1, 0), (0, 1), (2, 3)):
            a = expand_differential(C, Differential(*form, 7, rel), center, 7,
                                    2 * rel, rel)
            rows.append(([coefficient_digits(c) for c in a.coeffs],
                         a.tail_valuation_bound))
        digest = hashlib.sha256(repr(rows).encode()).hexdigest()
        assert digest == self.EXPANSION_DIGESTS[label, rel]

    # sha256 of k and, per series of the frame, the (v, unit, rel)
    # coefficients, the tail bound and the log-penalty flag, at the
    # pipeline's truncation order TRUNCATION_FACTOR * rel
    FRAME_DIGESTS = {
        (FLYNN_T, FP_INFINITY, 20):
            "2ee074fcc988c118572f0e2bb4e3e0047d07d40d87781a7bc57b80995af010e0",
        (FLYNN_T, FP_INFINITY, 40):
            "92415b25dba44c63cc6277850196cf6713abf690e500baf7ce38487645d6a742",
        (FLYNN_T, (0, 0), 20):
            "907dd1d2614a84401add3866370c135e947674aede3f7cd37133f7ebe614427d",
        (FLYNN_T, (0, 0), 40):
            "abc6c82018eb93d84f64fa8c76a8824ea572c484aefb304228249aaded623b54",
        (FLYNN_T, (1, 0), 20):
            "c513216f69f0663a6ff3498b2ce9854dbbded8372f248dfc9feed930bf5b56e0",
        (FLYNN_T, (1, 0), 40):
            "f069b2821fb166ffe4b419fcde32ad1ccb660752a3752a5fcfd3181b30cffa26",
        (FLYNN_T, (2, 0), 20):
            "4b17871311d6b24e40d12e52b6bcce012941cc4b5560abf64011795a9f4b326b",
        (FLYNN_T, (2, 0), 40):
            "c5771643c5ea83e09694e8b7bd1c34c6d0e78dce03efeb3401d6c75ed6c3bce1",
        (FLYNN_T, (3, 1), 20):
            "e0108eae86fc0d250517da5b505d1e078efe35fc834f8f3b96c8f72ec26e00ac",
        (FLYNN_T, (3, 1), 40):
            "69563df7183359455055f9e7a124bc4e84d407f11cd01a03eda01dbf34ccc64b",
        (FLYNN_T, (3, 6), 20):
            "45c0a22aa5ba90344b03aa708745679365cec1799308b269bf653cf6720a88e6",
        (FLYNN_T, (3, 6), 40):
            "bc479eccd5e7b5e660a50b18decdb3c24f2d33bad234eb249133931e4b35d608",
        (FLYNN_T, (5, 0), 20):
            "a24bcacef6ce4c56641b35248df7d505224b3affa40b9f8634fd47fd873aab2b",
        (FLYNN_T, (5, 0), 40):
            "fb92c194a5838677a716985358621edd5f5f367311da4e2c24e03df80b1b3f66",
        (FLYNN_T, (6, 0), 20):
            "0016c74a5955b07daa0c8c3c225d1f8d199113ce5d30a16297c39300187d8920",
        (FLYNN_T, (6, 0), 40):
            "002d20ffb6a7c7118661d374277e6464ec2f4c0fd24c24e3fa317c9a96c67b0a",
        (FLYNN_T, ("ext", "unramified", 0, 1, 3, 2), 20):
            "ad6b3701d884a4c6eb933b908bc01b241916a536624280f82426397b67fe1685",
        (FLYNN_T, ("ext", "unramified", 0, 1, 3, 2), 40):
            "ed530dd4d83e593e888dd63ce75d15b325fcd164c10f8dead52ab371b7e1dbac",
        (CURVE2_T, (5, 0), 20):
            "31f05bc1253e70f6bfa8ae033b404b284b8b0dd5810dd2af9fd0bb0a52b03492",
        (CURVE2_T, (5, 0), 40):
            "5e3f879f821f70fd53d9bce4c364b192d26250e82660934289ff72d5d3391626",
    }

    @pytest.mark.parametrize("f_coeffs, label, rel", list(FRAME_DIGESTS))
    def test_frame_digits_are_pinned(self, f_coeffs, label, rel):
        # Flynn's eight discs at p = 7, a disc with no Q_7-rational center,
        # and the branch point of x^5 + 2x + 1 that Hensel lifts off 5
        Cf = HyperellipticCurve(f_coeffs)
        center = disc_center(Cf, label, 7, rel)
        k, xs, factors = local_frame(Cf, center, 7, TRUNCATION_FACTOR * rel, rel)
        rows = [k] + [repr(h) if isinstance(h, Fraction) else
                      ([coefficient_digits(c) for c in h.coeffs],
                       h.tail_valuation_bound, h.tail_log_penalty)
                      for h in (xs,) + tuple(factors)]
        digest = hashlib.sha256(repr(rows).encode()).hexdigest()
        assert digest == self.FRAME_DIGESTS[f_coeffs, label, rel]

    def test_w1_vanishes_to_order_2_at_infinity(self, C):
        w = Differential(1, 0, p=7)
        a = expand_differential(C, w, CurvePoint.infinity(), 7, 10)
        assert a.coeff_of_degree(0).is_zeroish()
        assert a.coeff_of_degree(1).is_zeroish()
        assert not a.coeff_of_degree(2).is_zeroish()

    def test_integral_coefficients_everywhere(self, C):
        # normalized w has a_i in Z_p at every disc center
        rng = random.Random(9)
        for p in (7, 11):
            for fp_pt in fp_curve_points(C, p):
                ctr = disc_center(C, fp_pt, p)
                for (c1, c2) in [(1, 0), (0, 1), (3, 5), (rng.randint(1, 40), rng.randint(1, 40))]:
                    w = Differential(c1, c2, p=p).normalized()
                    a = expand_differential(C, w, ctr, p, 8)
                    for c in a.coeffs:
                        assert c.is_zeroish() or c.valuation >= 0

    def test_normalization(self):
        w = Differential(Fraction(7), Fraction(14), p=7)
        wn = w.normalized()
        assert min(wn.c1.valuation, wn.c2.valuation) == 0

    def test_differential_rejects_zero(self):
        with pytest.raises(ValueError):
            Differential(0, 0, p=7)

    def test_v_of_w_at_every_f7_disc(self, C):
        # the value is a non-negative integer wherever transversality holds
        w = Differential(1, 3, p=7)
        for fp_pt in fp_curve_points(C, 7):
            ctr = disc_center(C, fp_pt, 7)
            a = expand_differential(C, w.normalized(), ctr, 7, 8)
            a0 = a.coeff_of_degree(0)
            if not a0.is_zeroish():
                assert a0.valuation >= 0
