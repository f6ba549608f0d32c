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
    _lpolyval,
    _lsub,
    count_Fp2_points,
    count_Fp_points,
    disc_center,
    expand_differential,
    fp_curve_points,
    is_on_curve,
    is_prime,
    lift_anchor,
    local_expansion,
    reduce_point,
)
from g2points.padic import (
    PadicNumber,
    PadicPowerSeries,
    PrecisionLossError,
    QuadExtNumber,
    lift,
    series_inv,
    series_mul,
)

FLYNN = [0, 60, -112, 65, -14, 1]  # x(x-1)(x-2)(x-5)(x-6)


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


def coefficient_digits(c):
    """(v, unit, rel) of a coefficient, per part over an extension."""
    if isinstance(c, QuadExtNumber):
        return (coefficient_digits(c.a), coefficient_digits(c.b))
    return (c.valuation, c.unit_part(), c.rel_precision)


def t_newton_reference(fc, T, x0=None):
    """The series Newton loops in t that local_expansion runs in u = t^2:
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
        xs, ys = local_expansion(C, ctr, 7, 12, 20)
        assert curve_eq_residual(C, xs, ys, 7, 10) == []
        assert (xs.coeff_of_degree(1) - 1).is_zeroish()
        # y'(0) = f'(3)/12
        fp3 = sum(c * 3 ** i for i, c in enumerate(C.fprime_coeffs()))
        assert (ys.coeff_of_degree(1) - Fraction(fp3, 12)).is_zeroish()

    def test_weierstrass_expansion(self, C):
        ctr = disc_center(C, (0, 0), 7)
        assert ctr.y.is_exact_zero()
        xs, ys = local_expansion(C, ctr, 7, 12, 20)
        assert curve_eq_residual(C, xs, ys, 7, 10) == []
        # x(t) = r + t^2/f'(r) + O(t^4)
        fpr = C.fprime_coeffs()[0]  # f'(0)
        assert (xs.coeff_of_degree(2) - Fraction(1, fpr)).is_zeroish()
        assert xs.coeff_of_degree(1).is_zeroish()
        assert xs.coeff_of_degree(3).is_zeroish()

    def test_infinity_expansion(self, C):
        # the pole-free pair (t^2 x, t^5 y), both with constant term 1
        X, Y = local_expansion(C, CurvePoint.infinity(), 7, 12, 20)
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
        for label in [FP_INFINITY] + [(r % p, 0) for r in (0, 1, 2, 5, 6)]:
            ctr = disc_center(C, label, p, 20)
            xs, ys = local_expansion(C, ctr, p, 21, 20)
            series = (xs, ys) if label == FP_INFINITY else (xs,)
            for s in series:
                assert len(s.coeffs) == 22
                assert all(c.is_exact_zero() for c in s.coeffs[1::2]), label
                assert not s.coeffs[2].is_zeroish(), label

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
            xs, ys = local_expansion(curve, ctr, p, T, rel)
            if ctr.at_infinity:
                got, want = (xs, ys), t_newton_reference(fc, T)
            else:
                got, want = (xs,), t_newton_reference(fc, T, lift_anchor(ctr, p, rel).x)
            assert [[coefficient_digits(c) for c in s.coeffs] for s in got] == \
                [[coefficient_digits(c) for c in s] for s in want], (p, ctr)

    def test_integrality_of_expansions(self, C):
        for fp_pt in [(3, 6), (0, 0), FP_INFINITY]:
            ctr = disc_center(C, fp_pt, 7)
            xs, ys = local_expansion(C, ctr, 7, 16, 20)
            for s in (xs, ys):
                for c in s.coeffs:
                    assert c.is_zeroish() or c.valuation >= 0, (fp_pt, str(c))


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
