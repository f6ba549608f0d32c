"""Capped-precision arithmetic: frozen examples and soundness properties."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2points.curve import (
    CurvePoint,
    HyperellipticCurve,
    _affine_y_coeffs,
)
from g2points.jacobian import embed_point
from g2points.padic import (
    DEFAULT_PRECISION,
    InconclusiveTruncationError,
    NotHenselLiftableError,
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
    log_penalty_tail_cap,
    mahler_bound_holds,
    padic_agree,
    padic_sqrt,
    series_inv,
    series_mul,
    smallest_nonresidue,
    sqrt_mod_p,
    strassmann_count,
    valuation_is_negative,
    vp,
    with_precision_retry,
    _ilog,
)
from g2points.oracle import newton_polygon_zeros
from g2points.polys import PadicDomain


def N(x, p=7, rel=DEFAULT_PRECISION):
    return PadicNumber.from_rational(Fraction(x), p, rel)


def Ns(xs, p=7):
    return [N(x, p) for x in xs]


class TestBasicArithmetic:
    def test_seven_plus_seven(self):
        s = N(7) + N(7)
        assert s.valuation == 1
        assert s.unit_part() == 2

    def test_self_division_is_one(self):
        for x in [3, -14, Fraction(5, 9), 7 ** 4 * 11]:
            q = N(x) / N(x)
            assert q.valuation == 0
            assert q.unit_part() == 1

    def test_catastrophic_cancellation_flags_zeroish(self):
        # (1 + 7^20) - 1 at rel 20: every known digit cancels
        x = N(1 + 7 ** 20, rel=20)
        d = x - N(1, rel=20)
        assert d.is_zeroish()
        assert d.valuation == 20
        with pytest.raises(PrecisionLossError):
            d.inverse()

    def test_add_keeps_known_digits_of_other_summand(self):
        # O(7^5) + unit: digits below 5 survive
        z = PadicNumber.zeroish(7, 5)
        s = z + N(3)
        assert not s.is_zeroish()
        assert s.valuation == 0
        assert s.abs_precision == 5
        assert s.unit_part() == 3

    def test_mul_precision_is_min_rel(self):
        a = N(2, rel=5)
        b = N(21, rel=9)
        c = a * b
        assert c.valuation == 1
        assert c.rel_precision == 5
        assert c.unit_part() % 7 == 6

    def test_valuations_add_under_mul(self):
        a, b = N(Fraction(7, 2)), N(Fraction(4, 49))
        assert (a * b).valuation == -1

    def test_exact_zero_absorbing(self):
        z = PadicNumber.exact_zero(7)
        assert (z * N(12)).is_exact_zero()
        assert (N(12) + z).valuation == 0

    def test_exact_zero_meets_a_rational_scalar(self):
        z = PadicNumber.exact_zero(7)
        for q in (3, -14, 0, Fraction(5, 49)):
            assert (z * q).is_exact_zero() and (q * z).is_exact_zero()
        for q in (3, -14, Fraction(5, 49)):
            assert (z / q).is_exact_zero()
        for q in (0, Fraction(0)):
            with pytest.raises(PrecisionLossError):
                z / q
        ext = QuadExtension(7, QuadExtension.UNRAMIFIED)
        w = QuadExtNumber(ext, N(1), N(2))
        assert isinstance(z * w, QuadExtNumber) and (z * w).is_exact_zero()

    def test_rational_roundtrip(self):
        q = Fraction(-355, 113)
        x = N(q, rel=30)
        assert (x - q).is_zeroish()
        assert (x - q).valuation >= 30

    def test_negation_and_sub(self):
        assert (N(5) - 5).is_zeroish()
        assert (-N(3) + N(3)).is_zeroish()

    def test_digit_string(self):
        assert repr(N(0)) == "PadicNumber(0, p=7)"
        assert repr(N(8)) == "PadicNumber(7^0 * 8 + O(7^20))"

    def test_with_abs_cap(self):
        x = N(1, rel=20)
        y = x.with_abs_cap(3)
        assert y.abs_precision == 3
        assert (y - 1).is_zeroish()
        z = N(49).with_abs_cap(1)
        assert z.is_zeroish() and z.valuation == 1

    def test_mixed_int_fraction_ops(self):
        x = N(3)
        assert ((x + 4) - 7).is_zeroish()
        assert ((2 * x) / 3 - 2).is_zeroish()
        assert ((-x + 1) + 2).is_zeroish()
        assert ((x.inverse() * Fraction(1, 3)) * 9 - 1).is_zeroish()


class TestPrecisionSoundness:
    def test_recompute_at_higher_precision_agrees(self):
        rng = random.Random(11)
        for _ in range(200):
            a = Fraction(rng.randint(-500, 500), rng.randint(1, 60))
            b = Fraction(rng.randint(-500, 500), rng.randint(1, 60))
            if b == 0:
                continue
            for p in (3, 7, 11):
                lo = (N(a, p, 8) + N(b, p, 8)) * N(a, p, 8) / N(b, p, 8)
                hi = (N(a, p, 40) + N(b, p, 40)) * N(a, p, 40) / N(b, p, 40)
                diff = lo - hi
                assert diff.is_zeroish(), (a, b, p)

    def test_zeroish_propagates_through_mul(self):
        z = PadicNumber.zeroish(7, 4)
        y = z * N(49)
        assert y.is_zeroish() and y.valuation == 6


class TestSqrt:
    def test_sqrt_two_in_q7(self):
        # 2 = 3^2 mod 7, so the root stays in the base field
        r = padic_sqrt(N(2))
        assert isinstance(r, PadicNumber)
        assert (r * r - 2).is_zeroish()
        assert r.unit_part() % 7 in (3, 4)

    def test_sqrt_one(self):
        r = padic_sqrt(N(1))
        assert (r - 1).is_zeroish()

    def test_sqrt_seven_is_ramified_uniformizer(self):
        r = padic_sqrt(N(7))
        assert isinstance(r, QuadExtNumber)
        assert r.ext.kind == QuadExtension.RAMIFIED
        assert r.valuation == 1
        sq = r * r
        assert (sq.a - 7).is_zeroish()
        assert sq.b.is_zeroish()

    def test_sqrt_nonresidue_unramified(self):
        c = smallest_nonresidue(7)
        r = padic_sqrt(N(c))
        assert isinstance(r, QuadExtNumber)
        assert r.ext.kind == QuadExtension.UNRAMIFIED
        sq = r * r
        assert (sq.a - c).is_zeroish()

    def test_sqrt_twisted_ramified(self):
        c = smallest_nonresidue(7)
        r = padic_sqrt(N(7 * c))
        assert r.ext.kind == QuadExtension.RAMIFIED_TWIST
        assert r.valuation == 1
        assert (r * r - QuadExtNumber.from_base(r.ext, N(7 * c))).is_zeroish()

    def test_sqrt_squares_back_randomized(self):
        rng = random.Random(5)
        count = 0
        while count < 200:
            p = rng.choice([3, 5, 7, 11, 13])
            q = Fraction(rng.randint(-400, 400), rng.randint(1, 50))
            if q == 0:
                continue
            a = PadicNumber.from_rational(q, p, 16)
            r = padic_sqrt(a)
            sq = r * r
            if isinstance(sq, QuadExtNumber):
                assert (sq.a - a).is_zeroish() and sq.b.is_zeroish(), (q, p)
            else:
                assert (sq - a).is_zeroish(), (q, p)
            count += 1


class TestQuadExtension:
    def test_trace_and_conjugate(self):
        ext = QuadExtension(7, QuadExtension.UNRAMIFIED)
        x = QuadExtNumber(ext, N(3), N(5))
        s = x + x.conjugate()
        assert s.b.is_zeroish()
        assert (s.a - 6).is_zeroish()

    def test_norm_multiplicative(self):
        ext = QuadExtension(7, QuadExtension.RAMIFIED)
        x = QuadExtNumber(ext, N(2), N(3))
        y = QuadExtNumber(ext, N(Fraction(1, 2)), N(-1))
        assert (x.norm() * y.norm() - (x * y).norm()).is_zeroish()

    def test_inverse(self):
        ext = QuadExtension(7, QuadExtension.UNRAMIFIED)
        x = QuadExtNumber(ext, N(2), N(3))
        one = x * x.inverse()
        assert (one.a - 1).is_zeroish() and one.b.is_zeroish()

    def test_qp_operand_first_hands_over_to_the_extension(self):
        # a Q_p value meeting an extension value never answers NotImplemented
        ext = QuadExtension(7, QuadExtension.UNRAMIFIED)
        x, c = QuadExtNumber(ext, N(2), N(3)), N(5)
        def digits(z):
            return [(v.valuation, v.unit_part(), v.rel_precision) for v in (z.a, z.b)]
        for got, want in ((c.__add__(x), x + c), (c.__sub__(x), -x + c),
                          (c.__mul__(x), x * c)):
            assert isinstance(got, QuadExtNumber)
            assert digits(got) == digits(want)

    def test_ramified_valuation_granularity(self):
        ext = QuadExtension(7, QuadExtension.RAMIFIED)
        pi = QuadExtNumber(ext, PadicNumber.exact_zero(7), N(1))
        assert pi.valuation == 1
        assert (pi * pi).valuation == 2
        assert pi.valuation_p() == Fraction(1, 2)
        assert QuadExtNumber.from_base(ext, N(7)).valuation == 2

    def test_mixing_extensions_rejected(self):
        a = QuadExtNumber.from_base(QuadExtension(7, QuadExtension.RAMIFIED), N(1))
        b = QuadExtNumber.from_base(QuadExtension(7, QuadExtension.UNRAMIFIED), N(1))
        with pytest.raises(ValueError):
            a + b


class TestNewtonPolygonAndHensel:
    def test_x2_minus_7x(self):
        # roots 0 and 7: the zero root counts, as does the root of valuation 1
        assert newton_polygon_zeros([0, -7, 1], 7) == 2

    def test_linear(self):
        assert newton_polygon_zeros([-1, 1], 7) == 1

    def test_seven_plus_x_plus_seven_x2(self):
        # one root of valuation 1 and one of valuation -1
        assert newton_polygon_zeros([7, 1, 7], 7) == 1

    def test_hensel_sqrt2(self):
        r = hensel_root(Ns([-2, 0, 1]), N(3))
        assert (r * r - 2).is_zeroish()
        assert r.unit_part() % 7 == 3

    def test_hensel_linear_identity(self):
        assert (hensel_root(Ns([-5, 1]), N(5)) - 5).is_zeroish()

    def test_hensel_precondition_violation(self):
        with pytest.raises(NotHenselLiftableError):
            hensel_root(Ns([-7, 0, 1]), N(0))

    def test_poly_eval_and_derivative(self):
        # 1 + 2x + 3x^2 and its derivative 2 + 6x at x = 2
        assert (_horner([N(1), N(2), N(3)], N(2)) - 17).is_zeroish()
        assert (_horner([N(2), N(6)], N(2)) - 14).is_zeroish()


class TestStrassmann:
    def test_quadratic_with_unit_linear_coefficient(self):
        f = PadicPowerSeries(7, Ns([7, 1, 7]), tail_valuation_bound=1)
        assert strassmann_count(f) == 1

    def test_nonzero_constant(self):
        f = PadicPowerSeries(7, [N(3)], tail_valuation_bound=1)
        assert strassmann_count(f) == 0

    def test_dominant_linear_term_gives_single_zero(self):
        # shape of a disc series centered at a found point: constant term
        # exactly 0, v of the linear coefficient strictly minimal
        coeffs = [PadicNumber.exact_zero(7), N(7), N(3 * 49), N(7 ** 3)]
        f = PadicPowerSeries(7, coeffs, tail_valuation_bound=4)
        assert strassmann_count(f) == 1

    def test_dominant_constant_means_no_zero(self):
        coeffs = [N(7), N(49), N(3 * 49), N(7 ** 3)]
        f = PadicPowerSeries(7, coeffs, tail_valuation_bound=4)
        assert strassmann_count(f) == 0

    def test_tail_cannot_exclude_dominance(self):
        f = PadicPowerSeries(7, Ns([7, 1, 7]), tail_valuation_bound=0)
        with pytest.raises(InconclusiveTruncationError):
            strassmann_count(f)

    def test_zeroish_coefficient_at_minimum_raises(self):
        f = PadicPowerSeries(7, [N(7), N(1), PadicNumber.zeroish(7, 0)],
                             tail_valuation_bound=1)
        with pytest.raises(PrecisionLossError):
            strassmann_count(f)

    def test_zeroish_floor_clears_minimum(self):
        f = PadicPowerSeries(7, [N(7), N(1), PadicNumber.zeroish(7, 1)],
                             tail_valuation_bound=1)
        assert strassmann_count(f) == 1

    def test_matches_newton_polygon_on_random_polys(self):
        rng = random.Random(17)
        for _ in range(300):
            p = rng.choice([3, 5, 7, 11])
            deg = rng.randint(1, 6)
            coeffs = [rng.randint(-p ** 3, p ** 3) for _ in range(deg)] + [
                rng.randint(1, p ** 3)]
            g = PadicPowerSeries(p, Ns(coeffs, p))
            assert strassmann_count(g) == newton_polygon_zeros(coeffs, p), (
                p, coeffs)


class TestPowerSeries:
    def test_add_aligns_polynomial_and_truncated(self):
        # constant + truncated series must keep the full truncation window
        s = PadicPowerSeries(7, Ns([1, 2, 3, 4]), tail_valuation_bound=2)
        c = PadicPowerSeries(7, [N(5)])
        t = s + c
        assert t.truncation_order == 3
        assert (t.coeff_of_degree(0) - 6).is_zeroish()
        assert (t.coeff_of_degree(3) - 4).is_zeroish()
        assert t.tail_valuation_bound == 2

    def test_add_tail_covers_dropped_coefficients(self):
        # the sum stops at the truncated operand's order 0, so t + t^2 of
        # the polynomial joins its tail: the two zeros of 14 + t + t^2 in
        # the unit ball must not be counted as none
        s = PadicPowerSeries(7, Ns([7, 1, 1])) \
            + PadicPowerSeries(7, [N(7)], tail_valuation_bound=5)
        assert s.truncation_order == 0
        assert s.tail_valuation_bound == 0
        with pytest.raises(InconclusiveTruncationError):
            strassmann_count(s)

    def test_mul_respects_completeness_horizon(self):
        s = PadicPowerSeries(7, Ns([1, 1, 1]), tail_valuation_bound=3)
        c = PadicPowerSeries(7, [N(2)])
        prod = c * s
        assert prod.truncation_order == 2
        assert (prod.coeff_of_degree(2) - 2).is_zeroish()
        assert prod.tail_valuation_bound == 3

    def test_mul_tail_covers_dropped_products(self):
        # the product stops at order 1, and its degree-2 coefficient 2
        # comes from known coefficients alone: t * t and 1 * t^2
        a = PadicPowerSeries(7, Ns([1, 1]), tail_valuation_bound=10)
        b = PadicPowerSeries(7, Ns([1, 1, 1]), tail_valuation_bound=10)
        for prod in (a * b, b * a):
            assert prod.truncation_order == 1
            assert prod.tail_valuation_bound == 0

    def test_derivative_antiderivative_roundtrip(self):
        # the integral in t/7 has c_d 7^(d+1) t^d as its derivative
        s = PadicPowerSeries(7, Ns([2, 3, 5, 7]), tail_valuation_bound=1)
        back = s.integral(1).derivative()
        for d in range(4):
            assert (back.coeff_of_degree(d)
                    - s.coeff_of_degree(d) * 7 ** (d + 1)).is_zeroish()

    def test_rescale_discharges_log_penalty(self):
        s = PadicPowerSeries(7, Ns([1] * 10), tail_valuation_bound=0)
        h = s.integral(1)
        assert h.coeffs[0].is_exact_zero()
        # base 0, T = 10: tail = 0 - ilog(7, 11) + 1*11 = 10
        assert h.tail_valuation_bound == 10
        assert s.integral(2).tail_valuation_bound == 21
        with pytest.raises(ValueError, match="level"):
            s.integral(0)

    def test_recentered_integral_matches_values(self):
        # from t0 = 7 the integral read at s/7 is lambda(t0 + s) - lambda(t0)
        s = PadicPowerSeries(7, Ns([3, 1, 4, 1, 5, 9, 2, 6]),
                             tail_valuation_bound=1)
        t0 = N(7)
        h = s.integral(1, t0)
        assert h.coeffs[0].is_exact_zero()
        assert h.tail_valuation_bound == s.integral(1).tail_valuation_bound
        for k in (1, 3, -5, 50):
            r = N(7 * k)
            got = h.evaluate(r)
            want = s.integral_at(t0 + r * 7) - s.integral_at(t0)
            assert padic_agree(got, want), k
        with pytest.raises(ValueError, match="v\\(t0\\) >= 1"):
            s.integral(1, N(3))

    def test_evaluate_caps_by_tail(self):
        s = PadicPowerSeries(7, Ns([1, 1]), tail_valuation_bound=0)
        v = s.evaluate(N(7))
        # truncation error O(7^(0+2)) dominates the cap
        assert v.abs_precision <= 2
        assert (v - 8).is_zeroish()

    def test_evaluate_log_penalty_still_converges(self):
        s = PadicPowerSeries(7, Ns([1] * 8), tail_valuation_bound=0)
        v = s.integral_at(N(7))
        geom = sum(Fraction(7 ** (i + 1), i + 1) for i in range(8))
        assert (v - N(geom, rel=40)).is_zeroish()
        assert v.abs_precision >= 5
        # the cap is log_penalty_tail_cap at v(t) = 1: 9 - floor(log_7 9)
        assert v.abs_precision == log_penalty_tail_cap(7, 8, 0, Fraction(1)) == 8

    def test_evaluate_on_extension_element(self):
        ext = QuadExtension(7, QuadExtension.RAMIFIED)
        pi = QuadExtNumber(ext, PadicNumber.exact_zero(7), N(1))
        s = PadicPowerSeries(7, Ns([1, 1, 1]), tail_valuation_bound=5)
        v = s.evaluate(pi)
        # 1 + pi + pi^2 = (1 + 7) + pi
        assert (v.a - 8).is_zeroish()
        assert (v.b - 1).is_zeroish()

    def test_inverse(self):
        s = PadicPowerSeries(7, Ns([1, 3, 2]), tail_valuation_bound=0)
        inv = s.inverse()
        prod = s * inv
        assert (prod.coeff_of_degree(0) - 1).is_zeroish()
        for d in range(1, prod.truncation_order + 1):
            assert prod.coeff_of_degree(d).is_zeroish()

    def test_inverse_requires_unit_constant(self):
        with pytest.raises(ValueError):
            PadicPowerSeries(7, Ns([7, 1])).inverse()

    def test_int_coefficient_is_refused(self):
        # a constant has no precision of its own; lift it first
        with pytest.raises(TypeError, match="not p-adic"):
            PadicPowerSeries(7, [1, 2])
        with pytest.raises(TypeError, match="not p-adic"):
            PadicPowerSeries(7, [N(1), Fraction(1, 2)])


class TestMahler:
    def test_quadratic_at_zero(self):
        f = PadicPowerSeries(7, Ns([0, -7, 1]))
        assert mahler_bound_holds(f, [1, 1], 1, N(0), 0)

    def test_quadratic_derivative_at_seven(self):
        f = PadicPowerSeries(7, Ns([0, -7, 1]))
        assert mahler_bound_holds(f, [1, 1], 1, N(7), 1)

    def test_pure_power(self):
        f = PadicPowerSeries(7, Ns([0, 0, 0, 1]))
        for x in [N(0), N(7), N(49), N(21)]:
            assert mahler_bound_holds(f, [1, 1, 1], 1, x, 0)

    def test_randomized_products_of_small_roots(self):
        rng = random.Random(23)
        for _ in range(100):
            p = rng.choice([3, 5, 7])
            r_val = 1
            roots = [p * rng.randint(-8, 8) for _ in range(rng.randint(1, 4))]
            coeffs = [Fraction(1)]
            for r in roots:
                coeffs = ([Fraction(0)] + coeffs[:])  # multiply by z
                for i in range(len(coeffs) - 1):
                    coeffs[i] -= r * coeffs[i + 1] if i + 1 < len(coeffs) else 0
            # rebuild cleanly: prod (z - r)
            poly = [Fraction(1)]
            for r in roots:
                poly = [Fraction(0)] + poly
                for i in range(len(poly) - 1):
                    poly[i] = poly[i] - r * poly[i + 1]
            f = PadicPowerSeries(p, [PadicNumber.from_rational(c, p, 24) for c in poly])
            x = PadicNumber.from_rational(p * rng.randint(-8, 8), p, 24)
            for k in (0, 1, 2):
                assert mahler_bound_holds(f, [vp(r, p) if r else 2 for r in roots],
                                          r_val, x, k), (p, roots, k)


class TestHelpers:
    def test_vp_int(self):
        assert vp(56, 7) == 1
        assert vp(-49, 7) == 2
        assert vp(0, 7) == math.inf
        assert vp(Fraction(-98, 15), 7) == 2
        assert vp(Fraction(5, 343), 7) == -3

    def test_legendre_and_sqrt_mod(self):
        assert legendre_symbol(2, 7) == 1
        assert legendre_symbol(3, 7) == -1
        assert sqrt_mod_p(2, 7) in (3, 4)
        assert sqrt_mod_p(3, 7) is None
        for p in (13, 17, 29, 101):
            for a in range(1, p):
                r = sqrt_mod_p(a, p)
                if legendre_symbol(a, p) == 1:
                    assert r * r % p == a
                else:
                    assert r is None

    def test_smallest_nonresidue(self):
        assert smallest_nonresidue(7) == 3
        assert smallest_nonresidue(5) == 2
        assert smallest_nonresidue(17) == 3

    def test_with_precision_retry(self):
        calls = []

        def fn(prec):
            calls.append(prec)
            if prec < 40:
                raise PrecisionLossError("need more")
            return prec

        assert with_precision_retry(fn, 10, 3) == 40
        assert calls == [10, 20, 40]
        with pytest.raises(PrecisionLossError):
            with_precision_retry(fn, 10, 1)

    @pytest.mark.parametrize("escalations", [-1, -3])
    def test_with_precision_retry_refuses_a_negative_budget(self,
                                                            escalations):
        calls = []
        with pytest.raises(ValueError, match="escalations must be at least 0"):
            with_precision_retry(calls.append, 10, escalations)
        assert calls == []

    def test_valuation_is_negative(self):
        assert valuation_is_negative(N(Fraction(3, 49)))
        assert not valuation_is_negative(N(14))
        assert not valuation_is_negative(PadicNumber.exact_zero(7))
        assert not valuation_is_negative(PadicNumber.zeroish(7, 0))
        assert not valuation_is_negative(PadicNumber.zeroish(7, 3))
        with pytest.raises(PrecisionLossError):
            valuation_is_negative(PadicNumber.zeroish(7, -1))

    def test_valuation_is_negative_in_an_extension(self):
        ext = QuadExtension(7, QuadExtension.UNRAMIFIED)
        assert valuation_is_negative(QuadExtNumber(ext, N(Fraction(1, 7)), N(2)))
        assert not valuation_is_negative(QuadExtNumber(ext, N(1), N(7)))
        z = PadicNumber.exact_zero(7)
        assert not valuation_is_negative(QuadExtNumber(ext, z, z))
        assert not valuation_is_negative(
            QuadExtNumber(ext, PadicNumber.zeroish(7, 2), N(1)))
        # the certified sqrt(3) part decides the sign on its own
        assert valuation_is_negative(
            QuadExtNumber(ext, PadicNumber.zeroish(7, 3), N(Fraction(1, 7))))
        with pytest.raises(PrecisionLossError):
            valuation_is_negative(
                QuadExtNumber(ext, PadicNumber.zeroish(7, -2), PadicNumber.zeroish(7, 4)))

    def test_valuation_is_negative_in_a_ramified_extension(self):
        # v(b sqrt(7)) = v(b) + 1/2 in Q_7(sqrt(7))
        ext = QuadExtension(7, QuadExtension.RAMIFIED)
        z = PadicNumber.exact_zero(7)
        assert valuation_is_negative(QuadExtNumber(ext, z, N(Fraction(1, 7))))
        assert not valuation_is_negative(QuadExtNumber(ext, N(1), N(1)))
        assert not valuation_is_negative(
            QuadExtNumber(ext, N(1), PadicNumber.zeroish(7, 0)))
        with pytest.raises(PrecisionLossError):
            valuation_is_negative(
                QuadExtNumber(ext, N(1), PadicNumber.zeroish(7, -1)))


# -- the integer sum-of-products kernel ---------------------------------------

def fold_dot(p, xs, ys):
    """Reference: the left fold of the operators from an exact zero over the
    pairs whose factors are both nonzero.  A pair with an exact-zero factor
    adds no digits, but over an extension its product would make the sum
    an extension element; the fold skips it, as the series kernel must."""
    acc = PadicNumber.exact_zero(p)
    for x, y in zip(xs, ys):
        if not (x.is_exact_zero() or y.is_exact_zero()):
            acc = acc + x * y
    return acc


def fields(x):
    return (x._val, x._unit, x._rel)


def ext_fields(x):
    """The type, and the fields of both parts of a + b sqrt(d); a base
    element x is x + 0 sqrt(d)."""
    if isinstance(x, QuadExtNumber):
        return "ext", x.ext.kind, fields(x.a), fields(x.b)
    return "base", None, fields(x), fields(PadicNumber.exact_zero(x.prime))


@st.composite
def padics(draw, p, min_val=-4, max_val=12):
    kind = draw(st.sampled_from(["exact", "zeroish", "known", "known", "known"]))
    if kind == "exact":
        return PadicNumber.exact_zero(p)
    if kind == "zeroish":
        return PadicNumber.zeroish(p, draw(st.integers(min_val, max_val + 25)))
    rel = draw(st.integers(1, 25))
    unit = draw(st.integers(1, p ** rel - 1))
    # _make moves any p-factor of the unit into the valuation
    return PadicNumber._make(p, draw(st.integers(min_val, max_val)), unit, rel)


@st.composite
def dot_inputs(draw):
    p = draw(st.sampled_from([3, 5, 7]))
    n = draw(st.integers(0, 8))
    xs = draw(st.lists(padics(p), min_size=n, max_size=n))
    ys = draw(st.lists(padics(p), min_size=n, max_size=n))
    if draw(st.booleans()):
        # repeat the products negated, so the sum cancels to O(p^A)
        xs, ys = xs + xs, ys + [-y for y in ys]
    return p, xs, ys


@st.composite
def series_lists(draw, p, max_size=12):
    """Coefficient lists with negative valuations (integrals make
    them), zeroish entries with negative floors and runs of exact zeros;
    some long, with few classes (valuation, absolute precision), some even
    in t, as local expansions are."""
    n = draw(st.integers(1, max_size))
    if draw(st.booleans()):
        cs = draw(st.lists(padics(p), min_size=n, max_size=n))
    else:
        kinds = draw(st.lists(st.tuples(st.integers(-3, 4), st.integers(0, 12)),
                              min_size=1, max_size=3))
        cs = []
        for _ in range(n):
            v, rel = draw(st.sampled_from(kinds))
            if rel == 0:
                cs.append(PadicNumber.zeroish(p, v))
            else:
                u = draw(st.integers(1, p ** rel - 1))
                cs.append(PadicNumber(p, v, u + (u % p == 0), rel))
    zero = PadicNumber.exact_zero(p)
    if draw(st.booleans()):
        i = draw(st.integers(0, n))
        cs[i:i] = [zero] * draw(st.integers(1, 6))
    if draw(st.integers(0, 3)) == 0:
        cs = [c if i % 2 == 0 else zero for i, c in enumerate(cs)]
    return cs


def unit_constant(draw, p, cs):
    rel = draw(st.integers(1, 25))
    cs[0] = PadicNumber._make(p, 0, draw(st.integers(1, p - 1))
                              + p * draw(st.integers(0, p ** rel)), rel)
    return cs


def ref_mul(p, a, b, n):
    out = [PadicNumber.exact_zero(p) for _ in range(n)]
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j < n and not (x.is_exact_zero() or y.is_exact_zero()):
                out[i + j] = out[i + j] + x * y
    return out


def ref_inv(p, a, n):
    inv0 = a[0].inverse()
    out = [inv0]
    for d in range(1, n):
        s = PadicNumber.exact_zero(p)
        for j in range(1, min(d, len(a) - 1) + 1):
            if not (a[j].is_exact_zero() or out[d - j].is_exact_zero()):
                s = s + a[j] * out[d - j]
        out.append(-inv0 * s)
    return out


def ref_affine_y(fc, x0, y0, T):
    """y(t) on y^2 = f(x0 + t) by the operator fold of the coefficient
    recursion 2 y0 y_m = F_m - sum_{0<i<m} y_i y_(m-i)."""
    taylor = _taylor_coeffs(fc, x0)
    inv = (y0 * 2).inverse()
    ys = [y0]
    for m in range(1, T + 1):
        s = fold_dot(fc[5].prime, ys[1: m], ys[m - 1: 0: -1])
        ys.append((taylor[m] - s if m < len(taylor) else -s) * inv)
    return ys


def one_degree(p, xs, ys):
    """sum x_i y_i as the top coefficient of a series product."""
    n = max(len(xs), 1)
    return series_mul(p, xs, ys[::-1], n)[n - 1]


EXTENSION_KINDS = (QuadExtension.UNRAMIFIED, QuadExtension.RAMIFIED,
                   QuadExtension.RAMIFIED_TWIST)


class TestDotKernel:
    @settings(max_examples=400, deadline=None)
    @given(dot_inputs())
    def test_matches_operator_fold(self, args):
        p, xs, ys = args
        assert fields(one_degree(p, xs, ys)) == fields(fold_dot(p, xs, ys))

    def test_full_cancellation_is_zeroish_at_min_abs_precision(self):
        x, y = N(3, rel=10), N(5, rel=4)
        got = one_degree(7, [x, x], [y, -y])
        assert fields(got) == fields(PadicNumber.zeroish(7, 4))
        assert fields(got) == fields(fold_dot(7, [x, x], [y, -y]))

    def test_empty_and_exact_zero_products(self):
        z = PadicNumber.exact_zero(5)
        assert one_degree(5, [], []).is_exact_zero()
        assert one_degree(5, [z, N(1, 5)], [N(2, 5), z]).is_exact_zero()
        assert [c.is_exact_zero() for c in series_mul(5, [N(1, 5), z], [z, N(1, 5)], 4)] \
            == [True, False, True, True]

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_series_products_and_inverses(self, data):
        p = data.draw(st.sampled_from([3, 5, 7]))
        a = unit_constant(data.draw, p, data.draw(series_lists(p, 40)))
        b = data.draw(series_lists(p, 40))
        full = len(a) + len(b) - 1
        want = [fields(c) for c in ref_mul(p, a, b, full + 3)]
        for n in (full + 3, full, data.draw(st.integers(1, full))):
            assert [fields(c) for c in series_mul(p, a, b, n)] == want[:n]
        prod = PadicPowerSeries(p, a) * PadicPowerSeries(p, b)
        assert [fields(c) for c in prod.coeffs] == want[:full]
        if all(c.valuation >= 0 for c in a):
            inv = PadicPowerSeries(p, a, tail_valuation_bound=0).inverse()
            assert [fields(c) for c in inv.coeffs] == \
                [fields(c) for c in ref_inv(p, a, len(a))]
        n = data.draw(st.integers(1, full + 3))
        assert [fields(c) for c in series_inv(p, a, n)] == \
            [fields(c) for c in ref_inv(p, a, n)]

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_series_kernel_over_an_extension(self, data):
        # Q_p(sqrt(d)) lists of each kind, alone or mixed with base
        # elements; the kernel must give the operator fold's digits and
        # type: a base element where no pair of nonzero factors has an
        # extension factor
        p = data.draw(st.sampled_from([3, 5, 7]))
        ext = QuadExtension(p, data.draw(st.sampled_from(EXTENSION_KINDS)))
        mixed = data.draw(st.booleans())

        def lift(cs):
            out = []
            for c in cs:
                if mixed and data.draw(st.booleans()):
                    out.append(c)
                else:
                    out.append(QuadExtNumber(ext, c, data.draw(padics(p))))
            return out

        a = lift(unit_constant(data.draw, p, data.draw(series_lists(p, 30))))
        b = lift(data.draw(series_lists(p, 30)))
        if isinstance(a[0], QuadExtNumber):
            # a sqrt(d) part with no digits hides the norm
            a[0] = QuadExtNumber(ext, a[0].a, data.draw(padics(p, 1, 12)))
            if a[0].norm().is_zeroish():
                a[0] = QuadExtNumber.from_base(ext, a[0].a)
        full = len(a) + len(b) - 1
        n = data.draw(st.sampled_from([full, full + 2, max(1, full // 2)]))
        assert [ext_fields(c) for c in series_mul(p, a, b, n)] == \
            [ext_fields(c) for c in ref_mul(p, a, b, n)]
        assert [ext_fields(c) for c in series_inv(p, a, n)] == \
            [ext_fields(c) for c in ref_inv(p, a, n)]

    def test_a_base_sum_stays_in_the_base_field(self):
        # degree 0 has no pair of nonzero factors, degree 1 only base x base
        # (its extension factor meets an exact zero), degree 2 ext x base
        ext = QuadExtension(7, QuadExtension.UNRAMIFIED)
        z = PadicNumber.exact_zero(7)
        got = series_mul(7, [N(2), QuadExtNumber(ext, N(1), N(3))], [z, N(5)], 3)
        assert [type(c) for c in got] == [PadicNumber, PadicNumber, QuadExtNumber]
        assert got[0].is_exact_zero()
        assert fields(got[1]) == fields(N(10))

    def test_mixing_two_extensions_raises(self):
        u = QuadExtNumber(QuadExtension(7, QuadExtension.UNRAMIFIED), N(1), N(1))
        r = QuadExtNumber(QuadExtension(7, QuadExtension.RAMIFIED), N(1), N(1))
        with pytest.raises(ValueError, match="mixing distinct quadratic extensions"):
            series_mul(7, [u], [r], 1)
        with pytest.raises(ValueError, match="mixing distinct quadratic extensions"):
            series_inv(7, [u, r], 2)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_affine_y_coeffs_matches_operator_fold(self, data):
        p = data.draw(st.sampled_from([3, 5, 7]))
        ext = QuadExtension(p, data.draw(st.sampled_from(EXTENSION_KINDS)))
        fc = [data.draw(padics(p, -2, 6)) for _ in range(5)] + [N(1, p)]
        x0 = data.draw(padics(p, 0, 6))
        y0 = PadicNumber._make(p, 0, data.draw(st.integers(1, p - 1))
                               + p * data.draw(st.integers(0, p ** 12)),
                               data.draw(st.integers(1, 20)))
        if data.draw(st.booleans()):
            # an extension disc: the center and y(0) in Q_p(sqrt(d))
            x0 = QuadExtNumber(ext, x0, data.draw(padics(p, 0, 6)))
            y0 = QuadExtNumber(ext, y0, data.draw(padics(p, 1, 6)))
        T = data.draw(st.integers(1, 40))
        assert [ext_fields(c) for c in _affine_y_coeffs(fc, x0, y0, T)] == \
            [ext_fields(c) for c in ref_affine_y(fc, x0, y0, T)]


# -- tail cap of an integral --------------------------------------------------

def scanned_tail_cap(p, T, base, delta):
    """Reference: the degree-by-degree scan the block minimum replaced."""
    end = T + 2
    while not (end * delta >= 2 * (_ilog(p, end) + 1) and p ** _ilog(p, end) >= 4 * (T + 2)):
        end += max(T, 8)
    best = min(base - _ilog(p, d) + d * delta for d in range(T + 1, end + 1))
    return min(best, base + Fraction(end + 1) * delta / 2)


class TestTailCap:
    def test_block_minimum_matches_scan(self):
        for p in (3, 5, 7, 11):
            for T in (0, 1, 2, 6, 9, 26, 86, 160):
                for base in (-3, 0, 5):
                    for delta in (Fraction(1, 3), Fraction(1, 2), Fraction(1),
                                  Fraction(3, 2), Fraction(2), Fraction(5)):
                        got = log_penalty_tail_cap(p, T, base, delta)
                        want = scanned_tail_cap(p, T, base, delta)
                        assert got == want and type(got) is type(want), \
                            (p, T, base, delta)

    def test_tiny_valuation_raises_instead_of_capping_silently(self):
        with pytest.raises(InconclusiveTruncationError):
            log_penalty_tail_cap(7, 5, 0, Fraction(1, 10 ** 6))


def unram(a, b):
    return QuadExtNumber(QuadExtension(7, QuadExtension.UNRAMIFIED), a, b)


ZEROS = [pytest.param(PadicNumber.exact_zero(7), id="qp"),
         pytest.param(unram(PadicNumber.exact_zero(7), PadicNumber.exact_zero(7)),
                      id="ext")]


class TestLift:
    """padic.lift reads an int or a Fraction at rel digits and returns a
    p-adic value as it is."""

    @pytest.mark.parametrize("rel", [1, 8, 20])
    @pytest.mark.parametrize("c", [1, -3, 49, 12 * 7 ** 5, Fraction(1, 2),
                                   Fraction(-5, 49), Fraction(98, 3)])
    def test_rational_matches_from_rational(self, c, rel):
        fields = lambda x: (x.prime, x.valuation, x.unit_part(), x.rel_precision)
        assert fields(lift(c, 7, rel)) == fields(PadicNumber.from_rational(c, 7, rel))

    @pytest.mark.parametrize("zero", [0, Fraction(0)])
    def test_zero_is_exact(self, zero):
        assert lift(zero, 7, 20).is_exact_zero()

    def test_padic_values_come_back_unchanged(self):
        x = N(Fraction(3, 7), 7, 5)
        z = unram(N(2), N(5, 7, 3))
        assert lift(x, 7, 20) is x
        assert lift(z, 7, 20) is z


class TestOnePrecisionRule:
    """An exact constant takes the precision of the p-adic value it meets."""

    @pytest.mark.parametrize("ext", [False, True])
    @pytest.mark.parametrize("rel", [8, 40])
    def test_series_times_fraction_keeps_digits(self, ext, rel):
        coeffs = [N(k, 7, rel) for k in (3, Fraction(1, 5), 14, -2)]
        if ext:
            coeffs = [unram(c, N(1, 7, rel)) for c in coeffs]
        s = PadicPowerSeries(7, coeffs, tail_valuation_bound=2)
        half = s * Fraction(1, 2)
        for c, h in zip(coeffs, half.coeffs):
            for x, y in ((c, h),) if not ext else ((c.a, h.a), (c.b, h.b)):
                assert y.rel_precision == x.rel_precision == rel
        assert half.tail_valuation_bound == 2
        assert (s * Fraction(7, 2)).tail_valuation_bound == 3
        assert (s * Fraction(2, 49)).tail_valuation_bound == 0

    @pytest.mark.parametrize("zero", ZEROS)
    @pytest.mark.parametrize("op, message", [
        (lambda z: z + 1, "read it with padic.lift"),
        (lambda z: 1 + z, "read it with padic.lift"),
        (lambda z: z - Fraction(1, 2), "read it with padic.lift"),
        # a constant minus a p-adic value has no operator at all
        (lambda z: 3 - z, "unsupported operand")],
        ids=["z+1", "1+z", "z-1/2", "3-z"])
    def test_exact_zero_plus_constant_raises(self, zero, op, message):
        with pytest.raises(TypeError, match=message):
            op(zero)

    @pytest.mark.parametrize("zero", ZEROS)
    def test_exact_zero_plus_zero_stays_exact(self, zero):
        assert (zero + 0).is_exact_zero() and (zero - Fraction(0)).is_exact_zero()

    @pytest.mark.parametrize("zero", ZEROS)
    @pytest.mark.parametrize("q", [Fraction(1, 2), Fraction(7, 3), 5])
    def test_exact_zero_times_constant_is_exact_zero(self, zero, q):
        assert (zero * q).is_exact_zero()
        assert (q * zero).is_exact_zero()
        assert (zero / q).is_exact_zero()

    def test_exact_zero_compares_exactly(self):
        z = PadicNumber.exact_zero(7)
        assert z == 0 and z == Fraction(0)
        assert not z == 1 and z != Fraction(1, 7)

    @pytest.mark.parametrize("rel", [8, 40])
    def test_embed_point_keeps_point_digits(self, rel):
        C = HyperellipticCurve([0, 60, -112, 65, -14, 1])
        Q = CurvePoint(N(3, 7, rel), N(6, 7, rel), False)
        D = embed_point(C, Q, CurvePoint.infinity(), domain=PadicDomain(7, rel))
        assert [c.rel_precision for c in D.u + D.v] == [rel] * 3

    def test_embed_point_without_digits_needs_a_domain(self):
        # the default domain is Q, which refuses a p-adic point
        C = HyperellipticCurve([0, 60, -112, 65, -14, 1])
        z = PadicNumber.exact_zero(7)
        with pytest.raises(TypeError):
            embed_point(C, CurvePoint(z, z, False), CurvePoint.infinity())
        D = embed_point(C, CurvePoint(z, z, False), CurvePoint.infinity(),
                        domain=PadicDomain(7, 20))
        assert D.u[1].rel_precision == 20


@st.composite
def int_scalar_operands(draw):
    """(x, n): x an exact zero, a zeroish value, or a value of negative or
    positive valuation over p in {3, 7, 37}; n a nonzero int, some
    multiples of p, some negative."""
    p = draw(st.sampled_from([3, 7, 37]))
    kind = draw(st.sampled_from(["exact", "zeroish", "negative", "positive"]))
    if kind == "exact":
        x = PadicNumber.exact_zero(p)
    elif kind == "zeroish":
        x = PadicNumber.zeroish(p, draw(st.integers(-6, 30)))
    else:
        rel = draw(st.integers(1, 30))
        unit = draw(st.integers(1, p ** rel - 1))
        val = draw(st.integers(-8, -1) if kind == "negative" else st.integers(1, 8))
        x = PadicNumber._make(p, val, unit, rel)
    m = draw(st.integers(1, 10 ** 6).filter(lambda m: m % p))
    n = m * p ** draw(st.integers(0, 4)) * draw(st.sampled_from([1, -1]))
    return x, n


class TestIntScalars:
    """A nonzero int operand is read as p^v u directly: x * n and x / n give
    the triples of lifting n at x's relative precision, inverting it for a
    quotient, then multiplying, which the oracle below still does."""

    @settings(max_examples=500, deadline=None)
    @given(int_scalar_operands())
    def test_matches_the_lifted_operand(self, args):
        x, n = args
        b = PadicNumber.from_rational(n, x.prime, max(x.rel_precision, 1))
        assert fields(x * n) == fields(x * b)
        assert fields(n * x) == fields(x * b)
        assert fields(x / n) == fields(x * b.inverse())

    @pytest.mark.parametrize("x", [PadicNumber.exact_zero(7),
                                   PadicNumber.zeroish(7, 3), N(Fraction(2, 49)),
                                   N(14)], ids=["exact", "zeroish", "neg", "pos"])
    def test_division_by_zero_raises(self, x):
        with pytest.raises(PrecisionLossError, match="indistinguishable from 0"):
            x / 0

    def test_no_lift_for_an_int(self, monkeypatch):
        x = N(Fraction(3, 7), 7, 12)
        s = PadicPowerSeries(7, [N(k, 7, 12) for k in (1, 6, 49, -3)],
                             tail_valuation_bound=1)

        def lifted(c, n):
            return PadicNumber.from_rational(n, 7, max(c.rel_precision, 1))

        want = (fields(x * lifted(x, 5)), fields(x * lifted(x, 5).inverse()),
                [fields((c * lifted(c, i + 1).inverse()).pshift(i + 1))
                 for i, c in enumerate(s.coeffs)],
                [fields(c * lifted(c, i)) for i, c in enumerate(s.coeffs) if i])

        def no_lift(*args, **kwargs):
            raise AssertionError("an int operand went through from_rational")

        monkeypatch.setattr(PadicNumber, "from_rational", no_lift)
        got = (fields(x * 5), fields(x / 5),
               [fields(c) for c in s.integral(1).coeffs[1:]],
               [fields(c) for c in s.derivative().coeffs])
        assert got == want


@st.composite
def fraction_scalar_operands(draw):
    """(x, q): x as in int_scalar_operands, q a nonzero Fraction whose
    numerator and denominator may each carry powers of p, the
    denominator sometimes 1."""
    x, n = draw(int_scalar_operands())
    p = x.prime
    d = draw(st.integers(1, 10 ** 6).filter(lambda m: m % p))
    return x, Fraction(n, d * p ** draw(st.integers(0, 4)))


class TestFractionScalars:
    """A nonzero Fraction operand num/den is read as p^v times
    num' * den'^-1 mod p^rel directly: x * q and x / q give the triples
    of lifting q at x's relative precision, inverting it for a quotient,
    then multiplying, which the oracle below still does."""

    @settings(max_examples=500, deadline=None)
    @given(fraction_scalar_operands())
    def test_matches_the_lifted_operand(self, args):
        x, q = args
        b = PadicNumber.from_rational(q, x.prime, max(x.rel_precision, 1))
        assert fields(x * q) == fields(x * b)
        assert fields(q * x) == fields(x * b)
        assert fields(x / q) == fields(x * b.inverse())

    def test_zero_fraction(self):
        x = N(Fraction(3, 7), 7, 12)
        assert (x * Fraction(0)).is_exact_zero()
        with pytest.raises(PrecisionLossError, match="indistinguishable from 0"):
            x / Fraction(0)

    def test_no_lift_for_a_fraction(self, monkeypatch):
        x = N(Fraction(3, 7), 7, 12)
        s = PadicPowerSeries(7, [N(k, 7, 12) for k in (1, 6, 49, -3)],
                             tail_valuation_bound=1)
        half, q = Fraction(1, 2), Fraction(-14, 9)

        def lifted(c, r):
            return PadicNumber.from_rational(r, 7, max(c.rel_precision, 1))

        want = (fields(x * lifted(x, q)), fields(x * lifted(x, q).inverse()),
                [fields(c * lifted(c, half)) for c in s.coeffs])

        def no_lift(*args, **kwargs):
            raise AssertionError("a Fraction operand went through from_rational")

        monkeypatch.setattr(PadicNumber, "from_rational", no_lift)
        got = (fields(x * q), fields(x / q),
               [fields(c) for c in (s * half).coeffs])
        assert got == want


@st.composite
def extension_scalar_operands(draw):
    """(z, q): z = a + b sqrt(d) over one of the three quadratic extensions
    of Q_p, p in {3, 5, 7, 11, 37}, each part an exact zero, zeroish or
    known; q a nonzero int or Fraction whose numerator or denominator may
    carry powers of p."""
    p = draw(st.sampled_from([3, 5, 7, 11, 37]))
    ext = QuadExtension(p, draw(st.sampled_from(
        [QuadExtension.UNRAMIFIED, QuadExtension.RAMIFIED,
         QuadExtension.RAMIFIED_TWIST])))
    z = QuadExtNumber(ext, draw(padics(p)), draw(padics(p)))
    num = (draw(st.integers(1, 10 ** 6).filter(lambda m: m % p))
           * p ** draw(st.integers(0, 4)) * draw(st.sampled_from([1, -1])))
    den = (draw(st.integers(1, 10 ** 6).filter(lambda m: m % p))
           * p ** draw(st.integers(0, 4)))
    return z, draw(st.sampled_from([num, Fraction(num, den)]))


class TestExtensionScalars:
    """A rational times or over a + b sqrt(d) scales each part through the
    base field's scalar path: the triples of lifting it at the larger
    relative precision of the two parts, inverting it for a quotient, then
    multiplying, which the oracle below still does."""

    @staticmethod
    def lifted(z, q):
        rel = max(z.a.rel_precision, z.b.rel_precision, 1)
        return QuadExtNumber.from_base(
            z.ext, PadicNumber.from_rational(q, z.prime, rel))

    @settings(max_examples=500, deadline=None)
    @given(extension_scalar_operands())
    def test_matches_the_lifted_operand(self, args):
        z, q = args
        w = self.lifted(z, q)
        assert ext_fields(z * q) == ext_fields(z * w)
        assert ext_fields(q * z) == ext_fields(z * w)
        assert ext_fields(z / q) == ext_fields(z * w.inverse())

    def test_zero_scalar(self):
        ext = QuadExtension(7, QuadExtension.UNRAMIFIED)
        z = QuadExtNumber(ext, N(3), N(Fraction(1, 7)))
        assert (z * 0).is_exact_zero() and (z * Fraction(0)).is_exact_zero()
        with pytest.raises(PrecisionLossError):
            z / 0

    def test_no_lift_for_a_rational(self, monkeypatch):
        ext = QuadExtension(7, QuadExtension.RAMIFIED)
        z = QuadExtNumber(ext, N(Fraction(3, 7), 7, 12), N(5, 7, 9))
        want = [ext_fields(z * self.lifted(z, q)) for q in (5, Fraction(-14, 9))]
        want.append(ext_fields(z * self.lifted(z, 49).inverse()))

        def no_lift(*args, **kwargs):
            raise AssertionError("a rational operand went through from_rational")

        monkeypatch.setattr(PadicNumber, "from_rational", no_lift)
        got = [ext_fields(z * 5), ext_fields(Fraction(-14, 9) * z),
               ext_fields(z / 49)]
        assert got == want
