"""Tiny integrals, Jacobian logarithms, annihilating forms, zero counts.

Digit values frozen here were derived once at high precision and
triangulated before freezing: the explicit hand-checkable integral
between two rational points of one disc, the homomorphism property over
many scalar multiples and torsion twists, and the global consistency of
the per-disc Strassmann counts with the full set of known rational
points.
"""

import hashlib
import os
import random
from fractions import Fraction

import pytest

from g2points import coleman, curve
from g2points.coleman import (DecompositionFailureError, LogVector,
                              _kernel_log, annihilating_form, disc_zero_count,
                              log_jacobian, point_anchored_series,
                              single_point_criterion, tiny_integral,
                              transversality_certificate)
from g2points.curve import (CurvePoint, Differential, HyperellipticCurve,
                            disc_center, disc_parameter, expand_differential,
                            fp_curve_points, local_frame, reduce_point)
from g2points.jacobian import (MumfordDivisor, cantor_add, divisor_support,
                               embed_point, reduce_divisor, scalar_mul)
from g2points.padic import (TRUNCATION_FACTOR, PadicNumber,
                            PadicPowerSeries, PrecisionLossError,
                            QuadExtension, QuadExtNumber, hensel_root,
                            legendre_symbol, lift, padic_agree, padic_sqrt,
                            strassmann_count, with_precision_retry)
from g2points.polys import PadicDomain, RationalDomain
from g2points import jacobian
from g2points.cli import parse_config, run_job
from g2points.sieve import _log_floor

from test_curve import fp2_labels

FLYNN = [0, 60, -112, 65, -14, 1]
FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "flynn.json")
CURVE2 = [1, 2, 0, 0, 0, 1]  # good reduction at 3, 5, 7, 11

INF = CurvePoint.infinity()


def aff(x, y):
    return CurvePoint.affine(Fraction(x), Fraction(y))


KNOWN = [INF, aff(0, 0), aff(1, 0), aff(2, 0), aff(5, 0), aff(6, 0),
         aff(3, 6), aff(3, -6), aff(10, 120), aff(10, -120)]


def retry_log(C, D, p):
    return with_precision_retry(lambda r: log_jacobian(C, D, p, rel=r), 20, 3)


def vec_agree(A, B, k=1):
    """A agrees with k * B, component by component."""
    return padic_agree(A.l1, B.l1 * k) and padic_agree(A.l2, B.l2 * k)


def frame_point(C, label, p, t, rel=20):
    """The point at parameter t of the disc labeled label, read off its
    frame: x = X(t), and y = t at a branch point, y = 1/(2 h(t)) on an
    affine disc."""
    center = disc_center(C, label, p, rel)
    _, X, (h,) = local_frame(C, center, p, 2 * rel, rel)
    y = t if center.y.is_zeroish() else (h.evaluate(t) * 2).inverse()
    return CurvePoint(X.evaluate(t), y, False)


def ext_sqrt(z, rel):
    """A square root of a unit z of Q_p(sqrt(c)): the Hensel lift of the
    first root of its residue in F_{p^2}, searched over all of F_{p^2}."""
    ext, p = z.ext, z.prime
    za, zb = z.residue_pair()
    ya, yb = next((a, b) for a in range(p) for b in range(p)
                  if ((a * a + ext.d * b * b) % p, 2 * a * b % p) == (za, zb))
    y0 = QuadExtNumber(ext, lift(ya, p, rel), lift(yb, p, rel))
    return hensel_root([-z, PadicNumber.exact_zero(p), lift(1, p, rel)], y0, rel)


def infinity_disc_point(C, xval, p):
    # v_p(x) < 0 puts the point in the disc at infinity; the caller picks
    # x so that f(x) is a square in Q_p
    x = PadicNumber.from_rational(Fraction(xval), p, 30)
    y = padic_sqrt(C.f_eval(x))
    assert isinstance(y, PadicNumber)
    return CurvePoint(x, y, False)


@pytest.fixture(scope="module")
def C():
    return HyperellipticCurve(FLYNN)


@pytest.fixture(scope="module")
def gamma(C):
    return embed_point(C, aff(3, 6), INF)


@pytest.fixture(scope="module")
def L7(C, gamma):
    return log_jacobian(C, gamma, 7)


@pytest.fixture(scope="module")
def form7(L7):
    return annihilating_form(L7)


class TestTinyIntegral:
    def test_explicit_value_between_rational_points(self, C):
        # (3,6) and (10,-120) share a disc at 7; for dx/2y the degree-0
        # term of 1/2y gives 7/12 + O(7^2), checkable by hand
        w = Differential(1, 0, 7)
        val = tiny_integral(C, w, aff(3, 6), aff(10, -120), 7)
        diff = val - PadicNumber.from_rational(Fraction(7, 12), 7)
        assert diff.is_zeroish() or diff.valuation >= 2

    def test_same_endpoint_is_zero(self, C):
        w = Differential(1, 0, 7)
        val = tiny_integral(C, w, aff(3, 6), aff(3, 6), 7)
        assert val.is_zeroish() and val.valuation >= 19

    def test_reversal_antisymmetry(self, C):
        w = Differential(2, 3, 7)
        a = tiny_integral(C, w, aff(3, 6), aff(10, -120), 7)
        b = tiny_integral(C, w, aff(10, -120), aff(3, 6), 7)
        assert padic_agree(a, -b)

    def test_path_additivity_on_random_triples(self, C):
        # p-adic points of the (3,6) disc built from the local series
        rng = random.Random(11)
        w = Differential(1, 5, 7)
        for _ in range(5):
            pts = []
            for _ in range(3):
                t = PadicNumber.from_int(7 * rng.randrange(1, 7 ** 6), 7)
                pts.append(frame_point(C, (3, 6), 7, t))
            a01 = tiny_integral(C, w, pts[0], pts[1], 7)
            a12 = tiny_integral(C, w, pts[1], pts[2], 7)
            a02 = tiny_integral(C, w, pts[0], pts[2], 7)
            assert padic_agree(a01 + a12, a02)

    def test_infinity_disc_leading_terms(self, C):
        # with t = x^2/y the branch at infinity is forced: x = t^-2 (1+...),
        # y = t^-5 (1+...), so x dx/2y = (-1 + O(t)) dt and
        # dx/2y = (-t^2 + O(t^3)) dt
        P = infinity_disc_point(C, Fraction(1, 49), 7)
        t = P.x * P.x / P.y
        assert t.valuation == 1
        v1 = tiny_integral(C, Differential(0, 1, 7), INF, P, 7)
        assert (v1 + t).valuation >= 2
        v0 = tiny_integral(C, Differential(1, 0, 7), INF, P, 7)
        assert (v0 + t * t * t / 3).valuation >= 4

    def test_infinity_disc_additivity(self, C):
        P1 = infinity_disc_point(C, Fraction(1, 49), 7)
        P2 = infinity_disc_point(C, Fraction(4, 49), 7)
        w = Differential(3, 2, 7)
        a = tiny_integral(C, w, INF, P1, 7)
        b = tiny_integral(C, w, P1, P2, 7)
        c = tiny_integral(C, w, INF, P2, 7)
        assert padic_agree(a + b, c)

    def test_different_discs_rejected(self, C):
        w = Differential(1, 0, 7)
        with pytest.raises(ValueError):
            tiny_integral(C, w, aff(3, 6), aff(3, -6), 7)

    def test_bad_prime_rejected(self, C):
        w = Differential(1, 0, 5)
        with pytest.raises(ValueError):
            tiny_integral(C, w, aff(3, 6), aff(3, 6), 2)

    def test_accepts_annihilating_form(self, C, form7):
        val = tiny_integral(C, form7, aff(3, 6), aff(10, -120), 7)
        assert isinstance(val, PadicNumber)


class TestLogJacobian:
    def test_frozen_generator_log_at_7(self, L7):
        assert L7.l1.valuation == 1 and L7.l2.valuation == 1
        assert L7.l1.unit_part() % 7 ** 10 == 228833331
        assert L7.l2.unit_part() % 7 ** 10 == 245190432

    def test_frozen_generator_log_at_11(self, C, gamma):
        # 11 divides the order of the reduced class, so dividing back out
        # leaves coordinates of valuation 0: still a kernel-of-reduction log
        L = retry_log(C, gamma, 11)
        assert (L.l1.valuation, L.l2.valuation) == (0, 0)
        assert L.l1.unit_part() % 11 ** 8 == 140478186
        assert L.l2.unit_part() % 11 ** 8 == 59481858

    def test_identity_log_is_exact_zero(self, C):
        L = log_jacobian(C, MumfordDivisor.identity(RationalDomain()), 7)
        assert L.l1.is_exact_zero() and L.l2.is_exact_zero()

    def test_two_torsion_log_is_exact_zero(self, C):
        T = embed_point(C, aff(0, 0), INF)
        L = log_jacobian(C, T, 7)
        assert L.l1.is_exact_zero() and L.l2.is_exact_zero()

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_scalar_homomorphism(self, C, gamma, L7, k):
        Lk = retry_log(C, scalar_mul(C, k, gamma), 7)
        assert vec_agree(Lk, L7, k)

    def test_additive_on_random_pairs(self, C, gamma, L7):
        rng = random.Random(23)
        T = embed_point(C, aff(1, 0), INF)
        for _ in range(8):
            a = rng.randint(-6, 6)
            b = rng.randint(1, 6)
            D = cantor_add(C, scalar_mul(C, a, gamma),
                           cantor_add(C, scalar_mul(C, b, gamma), T))
            if rng.random() < 0.5:
                D = cantor_add(C, D, T)
            L = retry_log(C, D, 7)
            assert vec_agree(L, L7, a + b)

    def test_padic_domain_input(self, C, gamma, L7):
        dom = PadicDomain(7, 20)
        Dp = MumfordDivisor(
            dom,
            [PadicNumber.from_rational(c, 7, 20) for c in gamma.u],
            [PadicNumber.from_rational(c, 7, 20) for c in gamma.v])
        assert vec_agree(log_jacobian(C, Dp, 7), L7)

    def test_wrong_prime_domain_rejected(self, C, gamma):
        dom = PadicDomain(11, 20)
        Dp = MumfordDivisor(
            dom,
            [PadicNumber.from_rational(c, 11, 20) for c in gamma.u],
            [PadicNumber.from_rational(c, 11, 20) for c in gamma.v])
        with pytest.raises(ValueError):
            log_jacobian(C, Dp, 7)

    def test_curve2_at_3(self):
        C3 = HyperellipticCurve(CURVE2)
        g3 = embed_point(C3, aff(0, 1), INF)
        L = retry_log(C3, g3, 3)
        assert (L.l1.valuation, L.l2.valuation) == (1, 2)
        assert L.l1.unit_part() % 9 == 4 and L.l2.unit_part() % 9 == 7
        for k in (2, 3):
            Lk = retry_log(C3, scalar_mul(C3, k, g3), 3)
            assert vec_agree(Lk, L, k)

    def test_degree_one_integral_support_fails_decomposition(self, C):
        # a degree-1 class with affine integral support cannot lie in the
        # kernel of reduction; the decomposition must refuse it
        D = embed_point(C, aff(3, 6), INF, domain=PadicDomain(7, 20))
        with pytest.raises(DecompositionFailureError):
            _kernel_log(C, D, 7, 20)


class TestExtensionSupport:
    """Kernel classes whose support needs a quadratic extension of Q_7."""

    def _yext_divisor(self, C, rel=20):
        # conjugate pair over Q_7(sqrt(c)) reducing to x = 4, where
        # f(4) = 6 mod 7 is a nonsquare: no Q_7 point sits over that disc
        ext = QuadExtension(7, QuadExtension.UNRAMIFIED)
        x1 = QuadExtNumber(ext, PadicNumber.from_rational(4, 7, rel),
                           PadicNumber.from_rational(7, 7, rel))
        y1 = ext_sqrt(C.f_eval(x1), rel)
        b = y1.b / x1.b
        a = y1.a - b * x1.a
        u = [x1.norm(), -(x1.a * 2), PadicNumber.from_rational(1, 7, rel)]
        D = MumfordDivisor(PadicDomain(7, rel), u, [a, b])
        P = CurvePoint(x1, y1, False)
        Pfrm = CurvePoint(x1.conjugate(), -(y1.conjugate()), False)
        return D, P, Pfrm

    def test_yext_kernel_log(self, C):
        D, _, _ = self._yext_divisor(C)
        D.validate(C)
        assert reduce_divisor(C, D, 7).is_identity()
        L = log_jacobian(C, D, 7)
        assert vec_agree(log_jacobian(C, D.neg(), 7), L, -1)
        assert vec_agree(log_jacobian(C, cantor_add(C, D, D), 7), L, 2)

    def test_yext_tiny_integral_matches_log(self, C):
        D, P, Pfrm = self._yext_divisor(C)
        L = log_jacobian(C, D, 7)
        t1 = tiny_integral(C, Differential(1, 0, 7), Pfrm, P, 7)
        t2 = tiny_integral(C, Differential(0, 1, 7), Pfrm, P, 7)
        assert isinstance(t1, PadicNumber) and isinstance(t2, PadicNumber)
        assert padic_agree(t1, L.l1) and padic_agree(t2, L.l2)

    def test_ramified_kernel_log(self, C):
        # support x = r + 7 sqrt(d) near the branch point above x = 0, with
        # r one step off the exact root so f(r) has valuation exactly 1;
        # the twist is picked so that f(x) is a square in the extension
        rel = 20
        f = [PadicNumber.from_rational(k, 7, rel) for k in C.f_coeffs]
        rho = hensel_root(f, PadicNumber.from_rational(0, 7, rel))
        r = rho + PadicNumber.from_rational(7, 7, rel)
        w_unit = C.f_eval(r).pshift(-1)
        kind = (QuadExtension.RAMIFIED
                if legendre_symbol(w_unit.residue(), 7) == 1
                else QuadExtension.RAMIFIED_TWIST)
        ext = QuadExtension(7, kind)
        g1 = QuadExtNumber(ext, PadicNumber.exact_zero(7),
                           PadicNumber.from_rational(1, 7, rel))
        x1 = QuadExtNumber.from_base(ext, r) + g1 * 7
        fx1 = QuadExtNumber.from_base(ext, PadicNumber.from_rational(1, 7, rel))
        for k in reversed(C.f_coeffs[:-1]):
            fx1 = fx1 * x1 + k
        y = g1 * padic_sqrt(
            w_unit * PadicNumber.from_rational(Fraction(7, ext.d), 7, rel))
        for _ in range(64):
            if (y * y - fx1).is_zeroish():
                break
            y = (y + fx1 / y) * Fraction(1, 2)
        b = y.b / PadicNumber.from_rational(7, 7, rel)
        a = y.a - b * r
        u = [r * r - PadicNumber.from_rational(49 * ext.d, 7, rel),
             -(r * 2), PadicNumber.from_rational(1, 7, rel)]
        D = MumfordDivisor(PadicDomain(7, rel), u, [a, b])
        D.validate(C)
        assert reduce_divisor(C, D, 7).is_identity()
        L = log_jacobian(C, D, 7)
        assert vec_agree(log_jacobian(C, D.neg(), 7), L, -1)
        assert vec_agree(log_jacobian(C, cantor_add(C, D, D), 7), L, 2)

    @pytest.mark.parametrize("fp_point", [(3, 6), (2, 0)])
    def test_lifted_center_expands_like_qp(self, C, fp_point):
        # the same center written over Q_7(sqrt(3)) must give the Q_7
        # coefficients digit for digit, with exactly zero sqrt(3) parts
        ext = QuadExtension(7, QuadExtension.UNRAMIFIED)
        center = disc_center(C, fp_point, 7)
        lifted = CurvePoint(QuadExtNumber.from_base(ext, center.x),
                            QuadExtNumber.from_base(ext, center.y), False)
        w = Differential(2, 3, 7)
        a = expand_differential(C, w, center, 7, 40)
        b = expand_differential(C, w, lifted, 7, 40)
        assert a.tail_valuation_bound == b.tail_valuation_bound
        assert len(a.coeffs) == len(b.coeffs)
        fields = lambda c: (c.valuation, c.unit_part(), c.rel_precision)
        for x, y in zip(a.coeffs, b.coeffs):
            if isinstance(y, PadicNumber):
                y = QuadExtNumber.from_base(ext, y)
            assert y.b.is_exact_zero()
            assert fields(y.a) == fields(x)

    @pytest.mark.parametrize("f_coeffs, label, w", [
        # f(x-bar) = 5 sqrt(3) is a square in F_49 but x-bar is not in F_7
        (FLYNN, ("ext", "unramified", 0, 1, 3, 2), Differential(1, 5, 7)),
        # x^2 - 3 divides f: a branch point over F_49 (t = y)
        ([0, -6, 9, -1, -3, 1], ("ext", "unramified", 0, 1, 0, 0),
         Differential(2, 3, 7)),
    ])
    def test_tiny_integral_on_extension_disc(self, f_coeffs, label, w):
        Cx = HyperellipticCurve(f_coeffs)
        ext = QuadExtension(7, QuadExtension.UNRAMIFIED)
        rng = random.Random(5)
        pts = []
        for _ in range(3):
            t = QuadExtNumber(
                ext, PadicNumber.from_int(7 * rng.randrange(1, 7 ** 5), 7),
                PadicNumber.from_int(7 * rng.randrange(1, 7 ** 5), 7))
            pts.append(frame_point(Cx, label, 7, t))
        a01 = tiny_integral(Cx, w, pts[0], pts[1], 7, rel=10)
        a12 = tiny_integral(Cx, w, pts[1], pts[2], 7, rel=10)
        a02 = tiny_integral(Cx, w, pts[0], pts[2], 7, rel=10)
        assert isinstance(a01, QuadExtNumber) and not a01.b.is_zeroish()
        assert (a01 + a12 - a02).is_zeroish()
        assert (a01 + tiny_integral(Cx, w, pts[1], pts[0], 7, rel=10)
                ).is_zeroish()
        # w is defined over Q_7, so conjugating both endpoints conjugates
        # the integral; the conjugate disc has a different center
        conj = [CurvePoint(P.x.conjugate(), P.y.conjugate(), False)
                for P in pts[:2]]
        assert (tiny_integral(Cx, w, conj[0], conj[1], 7, rel=10)
                - a01.conjugate()).is_zeroish()


class TestKernelSupportShapes:
    """Each support shape of a kernel class: one point, two points or a
    conjugate pair at infinity, and a doubled support in either kind of
    disc, checked against tiny integrals and the group law."""

    def _padic_class(self, C, P):
        return embed_point(C, P, INF, domain=PadicDomain(7, 20))

    def _points(self, C):
        # P and Q lie in the disc at infinity, A in the disc of (0, 0)
        pts = []
        for x in (Fraction(1, 49), Fraction(2, 49), Fraction(49)):
            x = PadicNumber.from_rational(x, 7, 30)
            y = padic_sqrt(C.f_eval(x))
            assert isinstance(y, PadicNumber)
            pts.append(CurvePoint(x, y, False))
        return pts

    def test_degree_one_at_infinity_is_a_tiny_integral(self, C):
        P, _, _ = self._points(C)
        L = log_jacobian(C, self._padic_class(C, P), 7)
        t1 = tiny_integral(C, Differential(1, 0, 7), INF, P, 7)
        t2 = tiny_integral(C, Differential(0, 1, 7), INF, P, 7)
        assert padic_agree(L.l1, t1) and padic_agree(L.l2, t2)

    def test_two_points_at_infinity(self, C):
        P, Q, _ = self._points(C)
        DP, DQ = self._padic_class(C, P), self._padic_class(C, Q)
        L = log_jacobian(C, cantor_add(C, DP, DQ), 7)
        LP, LQ = log_jacobian(C, DP, 7), log_jacobian(C, DQ, 7)
        assert padic_agree(L.l1, LP.l1 + LQ.l1)
        assert padic_agree(L.l2, LP.l2 + LQ.l2)

    def test_near_double_at_infinity(self, C):
        P, _, _ = self._points(C)
        D = self._padic_class(C, P)
        L2 = log_jacobian(C, cantor_add(C, D, D), 7)
        assert vec_agree(L2, log_jacobian(C, D, 7), 2)

    def test_near_double_is_capped_at_its_distance_from_the_roots(self, C):
        # the doubled midpoint is off each true root by v >= eps: t = x^2/y
        # by as much at infinity, t = y by eps + v(v1) in a Weierstrass disc
        P, _, A = self._points(C)
        for Q in (P, A):
            D = self._padic_class(C, Q)
            D2 = cantor_add(C, D, D)
            (mid, again), eps = divisor_support(D2, 7, 20)
            assert mid is again and eps is not None
            if Q is A:
                eps += int(D2.v[1].valuation)
            for val in _kernel_log(C, D2, 7, 20):
                assert not val.is_zeroish()
                assert val.abs_precision <= eps

    @pytest.mark.parametrize("x, y", [(3, 6), (4, 0)])
    def test_eroded_midpoint_off_the_branch_locus_is_retried(
            self, C, monkeypatch, x, y):
        # a zeroish disc(u) whose midpoint reduces to (3, 6), off the branch
        # locus, or to (4, 0), off the curve, was precision erosion: the
        # class is retried at more digits, not refused
        mid = CurvePoint(lift(x, 7, 20), lift(y, 7, 20), False)
        monkeypatch.setattr(coleman, "divisor_support",
                            lambda D, p, rel: ([mid, mid], 3))
        D = self._padic_class(C, aff(3, 6))
        with pytest.raises(PrecisionLossError, match="branch point"):
            _kernel_log(C, D, 7, 20)

    def test_near_double_in_a_weierstrass_disc(self, C):
        _, _, A = self._points(C)
        D = self._padic_class(C, A)
        D2 = cantor_add(C, D, D)
        assert reduce_divisor(C, D2, 7).is_identity()
        l1, l2 = _kernel_log(C, D2, 7, 20)
        t1 = tiny_integral(C, Differential(1, 0, 7), A.involution(), A, 7)
        t2 = tiny_integral(C, Differential(0, 1, 7), A.involution(), A, 7)
        assert padic_agree(l1, t1) and padic_agree(l2, t2)

    def _conjugate_pair(self, C, xa, xb):
        """The class of the pair x = xa +- xb sqrt(3) over Q_7(sqrt(3))."""
        rel = 20
        ext = QuadExtension(7, QuadExtension.UNRAMIFIED)
        x1 = QuadExtNumber(ext, lift(xa, 7, rel), lift(xb, 7, rel))
        y1 = ext_sqrt(C.f_eval(x1) * 7 ** 10, rel) * Fraction(1, 7 ** 5)
        b = y1.b / x1.b
        a = y1.a - b * x1.a
        u = [x1.norm(), -(x1.a * 2), PadicNumber.from_rational(1, 7, rel)]
        D = MumfordDivisor(PadicDomain(7, rel), u, [a, b])
        D.validate(C)
        return D

    def test_conjugate_pair_at_infinity(self, C):
        # x = (4 + 2 sqrt(3))/49 over Q_7(sqrt(3)); f(x)/x^5 is 1 mod 7 and
        # 4 + 2 sqrt(3) has square norm, so f(x) is a square there
        D = self._conjugate_pair(C, Fraction(4, 49), Fraction(2, 49))
        assert reduce_divisor(C, D, 7).is_identity()
        L = retry_log(C, D, 7)
        assert vec_agree(retry_log(C, cantor_add(C, D, D), 7), L, 2)
        assert vec_agree(retry_log(C, D.neg(), 7), L, -1)

    def test_trace_zero_pair_at_infinity(self, C):
        # x = +-2 sqrt(3)/49: the Q_7 part of x is an exact zero, so only
        # the certified sqrt(3) part can put the pair in the disc at infinity
        D = self._conjugate_pair(C, 0, Fraction(2, 49))
        assert reduce_divisor(C, D, 7).is_identity()
        L = log_jacobian(C, D, 7)
        assert vec_agree(log_jacobian(C, D.neg(), 7), L, -1)


@pytest.mark.parametrize("rel", [4, 20, 40])
def test_infinity_parameter_of_a_rational_point(rel):
    # (2/49, w/7^5) lies on y^2 = x^5 + c, c = (w^2 - 32)/7^10, in the disc
    # at infinity; t = x^2/y read in Q_7 has the digits of the exact value
    w = 344441197
    Cx = HyperellipticCurve([(w * w - 32) // 7 ** 10, 0, 0, 0, 0, 1])
    P = aff(Fraction(2, 49), Fraction(w, 7 ** 5))
    assert curve.is_on_curve(Cx, P)
    assert reduce_point(Cx, P, 7) == curve.FP_INFINITY
    t = disc_parameter(P, INF, 7, rel)
    want = PadicNumber.from_rational(P.x ** 2 / P.y, 7, rel)
    assert ((t.valuation, t.unit_part(), t.rel_precision)
            == (want.valuation, want.unit_part(), want.rel_precision))


class TestAnnihilatingForm:
    def test_unit_vector_maps_to_negated_swap(self):
        one = PadicNumber.from_rational(1, 7)
        zero = PadicNumber.exact_zero(7)
        w = annihilating_form(LogVector(one, zero))
        assert w.c1.is_zeroish()
        assert padic_agree(w.c2, -one)

    def test_torsion_generator_rejected(self):
        zero = PadicNumber.exact_zero(7)
        with pytest.raises(ValueError, match="torsion-generator"):
            annihilating_form(LogVector(zero, zero))

    def test_pairs_to_zero_with_own_vector(self, L7, form7):
        assert form7.apply(L7).is_zeroish()

    def test_scaling_invariance(self, C, gamma, L7, form7):
        # the form built from any nonzero multiple kills the same line
        L3 = retry_log(C, scalar_mul(C, 3, gamma), 7)
        w3 = annihilating_form(L3)
        assert w3.apply(L7).is_zeroish()
        assert form7.apply(L3).is_zeroish()

    def test_annihilates_multiples_plus_torsion(self, C, gamma, form7):
        rng = random.Random(7)
        T = embed_point(C, aff(2, 0), INF)
        for _ in range(10):
            s = rng.randint(-10, 10)
            D = scalar_mul(C, s, gamma)
            if rng.random() < 0.5:
                D = cantor_add(C, D, T)
            L = retry_log(C, D, 7)
            assert form7.apply(L).is_zeroish()

    def test_normalized_coefficients(self, form7):
        vs = [c.valuation for c in (form7.c1, form7.c2) if not c.is_zeroish()]
        assert min(vs) == 0


def digits(c):
    return c.valuation, c.unit_part(), c.rel_precision


def head_product(w, frame):
    """a0 by the PadicNumber operators: c1 (when k = 0) + c2 X(0), times
    the constant term of each factor in turn."""
    k, xs, factors = frame
    a0 = w.c2 * xs.coeffs[0]
    if k == 0:
        a0 = w.c1 + a0
    for h in factors:
        a0 = a0 * (h.coeffs[0] if isinstance(h, PadicPowerSeries) else h)
    return a0


class TestTransversality:
    def test_certified_at_all_known_points(self, C, form7):
        # Weierstrass and infinity discs carry v_w = 0; the two discs
        # holding a pair of rational points each carry v_w = 1
        expected = {(3, 1): 1, (3, 6): 1}
        for Q in KNOWN:
            ok, v = transversality_certificate(C, form7, Q, 7)
            assert ok
            assert v == expected.get(reduce_point(C, Q, 7), 0)

    def test_negative_control(self, C):
        # a form vanishing at the disc center is flagged, not certified
        c00 = disc_center(C, (0, 0), 7)
        wbad = Differential(-c00.x, PadicNumber.from_rational(1, 7))
        assert transversality_certificate(C, wbad, aff(0, 0), 7) == (False, None)

    def test_precision_invariance(self, C, form7):
        for Q in (aff(0, 0), aff(3, 6), INF):
            _, v20 = transversality_certificate(C, form7, Q, 7, rel=20)
            _, v40 = transversality_certificate(C, form7, Q, 7, rel=40)
            assert v20 == v40

    def test_examples(self, C):
        w = Differential(1, 0, p=7)
        assert transversality_certificate(C, w, aff(3, 6), 7) == (True, 0)
        assert transversality_certificate(C, w, INF, 7) == (False, None)

    def test_scaling_invariant(self, C):
        w = Differential(7, 7 * 3, p=7)  # content p stripped by normalization
        assert transversality_certificate(C, w, aff(3, 6), 7) == \
            transversality_certificate(C, Differential(1, 3, p=7), aff(3, 6), 7)

    @pytest.mark.parametrize("f_coeffs", [FLYNN, CURVE2])
    @pytest.mark.parametrize("p", [7, 11])
    def test_agrees_with_a_short_expansion(self, f_coeffs, p):
        # v(a0) read off the shared frame at T = TRUNCATION_FACTOR * rel is
        # the v(a0) of a direct expansion at T = 8
        Cx = HyperellipticCurve(f_coeffs)
        forms = [(1, 0), (0, 1), (3, 5), (7, 21)]
        for fp_pt in fp_curve_points(Cx, p):
            center = disc_center(Cx, fp_pt, p)
            for c1, c2 in forms:
                w = Differential(c1, c2, p=p)
                a0 = expand_differential(Cx, w.normalized(), center, p, 8, 20
                                         ).coeff_of_degree(0)
                want = (False, None) if a0.is_zeroish() \
                    else (True, int(a0.valuation))
                assert transversality_certificate(Cx, w, center, p) == want, \
                    (fp_pt, c1, c2)

    @pytest.mark.parametrize("rel", [20, 40])
    @pytest.mark.parametrize("p", [7, 11, 37])
    def test_a0_is_the_product_of_the_frames_constant_terms(self, C, gamma,
                                                            p, rel):
        # every disc of C(F_p) with four forms: gamma's annihilating form,
        # dx/2y (at infinity c2 = 0 takes the lead path), x dx/2y, and a
        # form with c1 exactly 0 and c2 that of the annihilating form
        wg = annihilating_form(with_precision_retry(
            lambda r: log_jacobian(C, gamma, p, rel=r), rel, 3))
        forms = [wg, Differential(1, 0, p, rel), Differential(0, 1, p, rel),
                 Differential(0, wg.c2, p, rel)]
        for key in fp_curve_points(C, p):
            center, frame = coleman._disc_frame(C, key, p, rel)
            for w in forms:
                w = w.normalized()
                a0 = curve.expand_on_frame(w, frame).coeff_of_degree(0)
                want = (False, None) if a0.is_zeroish() \
                    else (True, int(a0.valuation))
                assert transversality_certificate(C, w, center, p, rel) == want
                assert digits(head_product(w, frame)) == digits(a0), (key, w)


@pytest.fixture
def expansions(monkeypatch):
    """The centers of the frames local_frame builds from an empty cache."""
    calls = []
    real = coleman.local_frame

    def counted(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(coleman, "local_frame", counted)
    monkeypatch.setattr(coleman, "_DISC_LAMBDA_CACHE", {})
    return calls


class TestSharedFrame:
    """Every consumer at an anchor reads the one cached local frame."""

    def test_two_forms_and_transversality_at_one_anchor(self, C, expansions):
        w1, w2 = Differential(1, 0, 7), Differential(2, 3, 7)
        point_anchored_series(C, w1, aff(3, 6), 7)
        point_anchored_series(C, w2, aff(3, 6), 7)
        assert transversality_certificate(C, w1, aff(3, 6), 7) == (True, 0)
        assert len(expansions) == 1

    def test_disc_count_and_point_share_a_branch_point_frame(self, C, expansions):
        w1, w2 = Differential(1, 0, 7), Differential(2, 3, 7)
        disc_zero_count(C, w1, (0, 0), 7)
        point_anchored_series(C, w2, aff(0, 0), 7)
        transversality_certificate(C, w2, aff(0, 0), 7)
        assert len(expansions) == 1

    def test_work_of_a_cold_golden_job(self, expansions, monkeypatch):
        # 10 frames, of which (3, 6) and (10, 120) are read off their
        # iota-partners, and no expansion for the 10 transversality checks
        expanded = []
        real = coleman.expand_on_frame

        def counted(w, frame):
            expanded.append(frame)
            return real(w, frame)

        monkeypatch.setattr(coleman, "expand_on_frame", counted)
        monkeypatch.setattr(jacobian, "_enumeration_cache", {})
        with open(FIXTURE, encoding="utf-8") as fh:
            run_job(parse_config(fh.read()))
        assert len(expansions) == 8
        assert len(expanded) == 22


def frame_digits(frame):
    """k, then the digits of every coefficient of each series, of a frame."""
    k, xs, factors = frame
    return k, [[coleman._field_key(c) for c in s.coeffs]
               for s in (xs,) + tuple(f for f in factors
                                      if isinstance(f, PadicPowerSeries))]


class TestPartnerFrames:
    """The frame the cache hands (x, -y) off its cached iota-partner (x, y)
    is the frame local_frame builds at (x, -y)."""

    @pytest.mark.parametrize("rel", [20, 40])
    @pytest.mark.parametrize("p", [7, 11, 13, 37])
    def test_handed_frame_is_the_built_frame(self, C, p, rel, expansions):
        # one label of each pair: negating digits is an involution, so the
        # handed frame at one side is built iff the other side's is too
        labels = [P for P in fp_curve_points(C, p)
                  if P != curve.FP_INFINITY and P[1] != 0]
        if p == 13:
            labels += fp2_labels(C, p)
        ys = lambda label: label[-2:] if label[0] == "ext" else (label[1], 0)
        anchors = [disc_center(C, label, p, rel) for label in labels
                   if ys(label) < tuple(-c % p for c in ys(label))]
        anchors.append(aff(10, 120))
        for P in anchors:
            coleman._DISC_LAMBDA_CACHE.clear()
            coleman._anchor_frame(C, P, p, rel)
            center, handed = coleman._anchor_frame(C, P.involution(), p, rel)
            built = local_frame(C, center, p, TRUNCATION_FACTOR * rel, rel)
            assert frame_digits(handed) == frame_digits(built), (P, p, rel)
        assert len(expansions) == len(anchors)


class TestFrameCacheLimit:
    def test_three_times_the_limit_and_a_rebuilt_frame(self, C, monkeypatch):
        # frames at low precision over every disc of a few primes: 3x the
        # limit of distinct keys leaves the newest, and the first frame,
        # evicted, is rebuilt digit for digit
        monkeypatch.setattr(coleman, "_DISC_LAMBDA_CACHE", {})
        limit = coleman.DISC_LAMBDA_CACHE_LIMIT
        keys = [(key, p, rel) for rel in (2, 3, 4) for p in (7, 11, 13, 29, 31, 37)
                for key in fp_curve_points(C, p)][: 3 * limit]
        assert len(keys) == 3 * limit
        first = frame_digits(coleman._disc_frame(C, *keys[0])[1])
        for key, p, rel in keys:
            coleman._disc_frame(C, key, p, rel)
            assert len(coleman._DISC_LAMBDA_CACHE) <= limit
        assert len(coleman._DISC_LAMBDA_CACHE) == limit
        assert frame_digits(coleman._disc_frame(C, *keys[0])[1]) == first


def min_digits(s):
    return min(c.rel_precision for c in s.coeffs if not c.is_zeroish())


class TestRequestedPrecision:
    """Disc centers, local frames, point certificates and the generator's
    logarithm carry the requested digits."""

    @pytest.mark.parametrize("rel", [30, 40, 60])
    def test_affine_centers_and_log(self, C, gamma, rel):
        for label in [(3, 6), (3, 1), ("ext", "unramified", 0, 1, 3, 2)]:
            y = disc_center(C, label, 7, rel).y
            parts = (y.a, y.b) if isinstance(y, QuadExtNumber) else (y,)
            for c in parts:
                assert c.valuation == 0 and c.rel_precision == rel, (label, c)
        L = log_jacobian(C, gamma, 7, rel=rel)
        for c in (L.l1, L.l2):
            assert c.rel_precision >= rel - 1

    @pytest.mark.parametrize("rel", [30, 40])
    def test_center_at_exact_zero(self, rel):
        # Flynn's model under x -> x + 3: the disc (0, 6) is affine and its
        # center's x is the exact 0, which carries no precision of its own
        Cs = HyperellipticCurve([36, 36, -13, -13, 1, 1])
        y = disc_center(Cs, (0, 6), 7, rel).y
        assert y.valuation == 0 and y.rel_precision == rel
        L = log_jacobian(Cs, embed_point(Cs, aff(0, 6), INF), 7, rel=rel)
        for c in (L.l1, L.l2):
            assert c.rel_precision >= rel - 1

    @pytest.mark.parametrize("rel", [30, 40, 60])
    def test_frame_at_infinity(self, C, rel):
        # the leading 1 of g(xi) and the 1/2 factor are exact constants,
        # read at the precision of the series they meet
        k, xs, hs = curve.local_frame(C, INF, 7, TRUNCATION_FACTOR * rel, rel)
        assert k == 2
        a = curve.expand_on_frame(Differential(2, 3, 7, rel), (k, xs, hs))
        for s in [xs, a] + [h for h in hs if isinstance(h, PadicPowerSeries)]:
            assert min_digits(s) >= rel - 3

    @pytest.mark.parametrize("rel", [30, 40, 60])
    def test_point_certificate_at_infinity(self, C, rel):
        s = point_anchored_series(C, Differential(2, 3, 7, rel), INF, 7, 1, rel)
        assert min_digits(s) >= rel - 2

    @pytest.mark.parametrize("rel", [30, 40, 60])
    def test_weierstrass_centers(self, C, rel):
        # an exact rational root and a Hensel-lifted one
        for crv, label in ((C, (2, 0)), (HyperellipticCurve(CURVE2), (5, 0))):
            center = disc_center(crv, label, 7, rel)
            assert center.x.rel_precision == rel
            k, xs, hs = curve.local_frame(crv, center, 7, TRUNCATION_FACTOR * rel, rel)
            assert k == 0
            a = curve.expand_on_frame(Differential(2, 3, 7, rel), (k, xs, hs))
            for s in (xs, hs[0], a):
                assert min_digits(s) >= rel - 4, label


class TestDiscZeroCounts:
    # frozen from the resolved run: every residue disc of the curve at 7
    # carries exactly as many zeros as it has known rational points
    EXPECTED = {
        "infinity": 1, (0, 0): 1, (1, 0): 1, (2, 0): 1,
        (5, 0): 1, (6, 0): 1, (3, 1): 2, (3, 6): 2,
    }

    def test_counts_match_known_points_on_every_disc(self, C, form7):
        total = 0
        for disc in fp_curve_points(C, 7):
            cert = disc_zero_count(C, form7, disc, 7, n=1, known_points=KNOWN)
            assert cert.zero_count == self.EXPECTED[disc]
            assert cert.known_count == self.EXPECTED[disc]
            assert cert.resolved
            total += cert.zero_count
        assert total == len(KNOWN)

    def test_count_without_known_points(self, C, form7):
        cert = disc_zero_count(C, form7, (3, 1), 7)
        assert cert.zero_count == 2
        assert cert.known_count == 0
        assert not cert.resolved

    def test_certificate_replay_fields(self, C, form7):
        cert = disc_zero_count(C, form7, (0, 0), 7, known_points=KNOWN)
        assert cert.prime == 7 and cert.n == 1 and cert.precision == 20
        assert cert.v_w == 0
        assert len(cert.lambda_coefficients) == cert.truncation_order + 1
        # the constant is the pairing against a 2-torsion class: exactly 0
        assert cert.lambda_coefficients[0].is_exact_zero()

    def test_a_center_whose_y_has_no_known_digits_pairs_to_zero(
            self, C, form7, monkeypatch):
        # the branch point of (0, 0) with y = O(7^20) in place of an exact
        # zero: kappa is the same exact 0, and the count and its known
        # points are read on the same t = y
        want = disc_zero_count(C, form7, (0, 0), 7, known_points=KNOWN)
        real = coleman.disc_center

        def zeroish_y(curve, label, p, rel):
            center = real(curve, label, p, rel)
            return CurvePoint(center.x, PadicNumber.zeroish(p, rel), False)

        monkeypatch.setattr(coleman, "disc_center", zeroish_y)
        monkeypatch.setattr(coleman, "_DISC_LAMBDA_CACHE", {})
        got = disc_zero_count(C, form7, (0, 0), 7, known_points=KNOWN)
        assert got.lambda_coefficients[0].is_exact_zero()
        assert [coleman._field_key(c) for c in got.lambda_coefficients] == \
            [coleman._field_key(c) for c in want.lambda_coefficients]
        assert (got.zero_count, got.known_count) == (1, 1)

    def test_deeper_level_separates_paired_disc(self, C, form7):
        # at level 2 the sub-disc around the center of (3,6) keeps only the
        # center itself; (10,-120) sits at parameter valuation 1
        cert = disc_zero_count(C, form7, (3, 6), 7, n=2, known_points=KNOWN)
        assert cert.zero_count == 1 and cert.known_count == 1


class TestIotaPairs:
    """The discs (x, y) and (x, -y) have iota-image centers, so the log of
    one center is the negated log of the other, which the cache hands the
    second disc of each pair off its partner's entry."""

    @staticmethod
    def _setup(C, gamma, p, rel, monkeypatch):
        """The sieve's form at p, iota-pairs of F_p discs, the real
        log_jacobian, and the list of divisors the counted one sees."""
        real = coleman.log_jacobian
        w = annihilating_form(with_precision_retry(
            lambda r: real(C, gamma, p, rel=r), rel, 3))
        pairs = [(P, (P[0], p - P[1])) for P in fp_curve_points(C, p)
                 if P != curve.FP_INFINITY and 0 < P[1] < p - P[1]]
        assert pairs
        calls = []

        def counted(C, D, p, rel):
            calls.append(D)
            return real(C, D, p, rel=rel)

        monkeypatch.setattr(coleman, "log_jacobian", counted)
        monkeypatch.setattr(coleman, "_DISC_LAMBDA_CACHE", {})
        return w, pairs, real, calls

    @staticmethod
    def _assert_direct_log(C, Q, p, rel, real):
        # the log on the entry of Q's center is the log computed there
        center = disc_center(C, Q, p, rel)
        got = coleman._anchor_entry(C, center, p, rel)[2]
        want = real(C, embed_point(C, center, INF, domain=PadicDomain(p, rel)),
                    p, rel=rel)
        assert digits(got.l1) == digits(want.l1), (Q, rel)
        assert digits(got.l2) == digits(want.l2), (Q, rel)

    @pytest.mark.parametrize("rel", [20, 40])
    @pytest.mark.parametrize("p", [7, 11, 13])
    def test_partner_log_is_the_negated_log(self, C, gamma, p, rel,
                                            monkeypatch):
        # each pair from an empty cache: the first count computes its
        # center's log, the second reads it off the first's entry, negated
        w, pairs, real, calls = self._setup(C, gamma, p, rel, monkeypatch)
        for P, Q in pairs:
            coleman._DISC_LAMBDA_CACHE.clear()
            calls.clear()
            for disc in (P, Q):
                assert disc_zero_count(C, w, disc, p, rel=rel).precision == rel
            assert len(calls) == 1, (P, rel)
            self._assert_direct_log(C, Q, p, rel, real)

    @pytest.mark.parametrize("p", [7, 11])
    def test_absent_partner_log_is_computed(self, C, gamma, p, monkeypatch):
        # a partner entry holding no log yet, or dropped from the cache as
        # an evicted one is: the second center computes its own log, with
        # the same digits
        rel = 20
        w, pairs, real, calls = self._setup(C, gamma, p, rel, monkeypatch)
        for P, Q in pairs:
            coleman._DISC_LAMBDA_CACHE.clear()
            calls.clear()
            coleman._anchor_entry(C, disc_center(C, P, p, rel), p, rel)
            disc_zero_count(C, w, Q, p, rel=rel)
            assert len(calls) == 1, (P, rel)
            self._assert_direct_log(C, Q, p, rel, real)
        for P, Q in pairs:
            coleman._DISC_LAMBDA_CACHE.clear()
            calls.clear()
            disc_zero_count(C, w, P, p, rel=rel)
            center = coleman.lift_anchor(disc_center(C, P, p, rel), p, rel)
            del coleman._DISC_LAMBDA_CACHE[coleman._cache_key(C, center, p,
                                                              rel)]
            disc_zero_count(C, w, Q, p, rel=rel)
            assert len(calls) == 2, (P, rel)
            self._assert_direct_log(C, Q, p, rel, real)

    def test_log_outlives_its_entrys_eviction(self, C, gamma, monkeypatch):
        # with room for one entry, the kernel logs of log_jacobian evict
        # the center's entry; the log still lands on the cached entry, so
        # a second count of the disc computes no log
        rel = 20
        w, _, real, calls = self._setup(C, gamma, 7, rel, monkeypatch)
        monkeypatch.setattr(coleman, "DISC_LAMBDA_CACHE_LIMIT", 1)
        counts = []
        for _ in range(2):
            calls.clear()
            disc_zero_count(C, w, (3, 1), 7, rel=rel)
            counts.append(len(calls))
        assert counts == [1, 0]
        self._assert_direct_log(C, (3, 1), 7, rel, real)


class TestAnchoredSeries:
    def test_single_point_criterion_at_each_known_point(self, C, form7):
        # n = v_w + 1 certifies a single zero at every known point's anchor
        for Q in KNOWN:
            s1 = point_anchored_series(C, form7, Q, 7, n=1)
            b1 = s1.coeff_of_degree(1)
            assert not b1.is_zeroish()
            v_w = int(b1.valuation) - 1
            n = v_w + 1
            s = s1 if n == 1 else point_anchored_series(C, form7, Q, 7, n=n)
            assert single_point_criterion(v_w, 7, n, s)
            assert strassmann_count(s) == 1

    def test_criterion_false_below_level(self, C, form7):
        # the (3,6) disc carries v_w = 1, so level 1 cannot certify
        s = point_anchored_series(C, form7, aff(3, 6), 7, n=1)
        assert not single_point_criterion(1, 7, 1, s)

    def test_criterion_rejects_p2_and_unknown_vw(self, C, form7):
        s = point_anchored_series(C, form7, aff(0, 0), 7, n=1)
        assert not single_point_criterion(0, 2, 1, s)
        assert not single_point_criterion(None, 7, 1, s)

    def test_anchored_value_matches_tiny_integral(self, C, form7):
        # evaluate the series anchored at (3,6) at the point x = 52 of the
        # same disc (parameter t = 49, so r = 7 at level 1)
        P = frame_point(C, (3, 6), 7, PadicNumber.from_int(49, 7))
        s = point_anchored_series(C, form7, aff(3, 6), 7, n=1)
        got = s.evaluate(PadicNumber.from_int(7, 7))
        want = tiny_integral(C, form7, aff(3, 6), P, 7)
        assert padic_agree(got, want)

    def test_constant_term_is_exact_zero(self, C, form7):
        for Q in (INF, aff(0, 0), aff(10, 120)):
            s = point_anchored_series(C, form7, Q, 7, n=1)
            assert s.coeffs[0].is_exact_zero()

    def test_recentered_anchor_above_branch_point(self):
        # (1, 7) on y^2 = x^5 + 48 sits inside the Weierstrass disc above
        # x = 1 without being the branch point, so the disc series in t = y
        # is integrated from t0 = 7; at r = s/7 it reads the integral from
        # (1, 7) to the disc's point at t = 7 + s, for v(s) >= 2
        C2 = HyperellipticCurve([48, 0, 0, 0, 0, 1])
        w = Differential(1, 0, 7)
        label = reduce_point(C2, aff(1, 7), 7)
        center = disc_center(C2, label, 7)
        a = expand_differential(C2, w, center, 7, 80)
        t0 = PadicNumber.from_int(7, 7)
        rc = a.integral(1, t0)
        for s in (49, -98, 3 * 7 ** 3):
            r = PadicNumber.from_int(s // 7, 7)
            got = rc.evaluate(r)
            t = PadicNumber.from_int(7 + s, 7)
            assert padic_agree(got, a.integral_at(t) - a.integral_at(t0))
            want = tiny_integral(C2, w, aff(1, 7), frame_point(C2, label, 7, t), 7)
            assert padic_agree(got, want)
            assert not got.is_zeroish()
        s = point_anchored_series(C2, w, aff(1, 7), 7, n=1)
        assert s.coeffs[0].is_exact_zero()
        assert not s.coeff_of_degree(1).is_zeroish()

    def test_recentered_anchor_in_the_disc_at_infinity(self):
        # P = (4/7^4, (32 + 7^20)/7^10) on y^2 = x^5 + 64 + 7^20 lies in
        # the disc at infinity without being infinity, so it centers no
        # frame: the disc series in t = x^2/y is recentered at t0 = t(P),
        # and at s = -t0 it reads the integral from P to infinity
        Cx = HyperellipticCurve([64 + 7 ** 20, 0, 0, 0, 0, 1])
        P = aff(Fraction(4, 7 ** 4), Fraction(32 + 7 ** 20, 7 ** 10))
        assert curve.is_on_curve(Cx, P)
        form = Differential(2, 3, 7)
        s = point_anchored_series(Cx, form, P, 7, n=1)
        assert s.coeffs[0].is_exact_zero()
        t0 = disc_parameter(P, INF, 7, 20)
        assert t0.valuation == 2
        got = s.evaluate(t0 * Fraction(-1, 7))
        assert padic_agree(got, tiny_integral(Cx, form, P, INF, 7))
        assert not got.is_zeroish()


def pinned_digest(rows):
    return hashlib.sha256(repr(rows).encode()).hexdigest()


BRANCH_48 = [48, 0, 0, 0, 0, 1]
INFINITY_DISC = [64 + 7 ** 20, 0, 0, 0, 0, 1]
P_INFINITY_DISC = aff(Fraction(4, 7 ** 4), Fraction(32 + 7 ** 20, 7 ** 10))
PIN_FORMS = ((1, 0), (0, 1), (2, 3))


class TestRecenteringPins:
    """The digits of the series of anchors that center no frame, which no
    golden report reaches: (1, +-7) above the branch point x = 1 of
    y^2 = x^5 + 48, and a point of the disc at infinity of
    y^2 = x^5 + 64 + 7^20, for dx/2y, x dx/2y and (2 + 3x) dx/2y at
    levels 1, 2 and 3; with the tiny integrals between the endpoints the
    tests above integrate over."""

    ANCHOR_DIGESTS = {
        ("(1, 7)", 8):
            "51b3fb697216a1caf92deee2f9f34c6080d46b09c41fdc82d9af5f82e8f770c1",
        ("(1, 7)", 20):
            "d6b185dec5be063d79271d324bc25e08f2cec9bf055c9c2ef8c9118f46d93a87",
        ("(1, 7)", 40):
            "945ff292ec66e72357fccd8b0a7575866226a230b8db68116da30fdb70da0595",
        ("(1, -7)", 8):
            "225b136a9e7b6c2103cc1c93296550f634e4b603594eb2446b8939dfa47ea4cc",
        ("(1, -7)", 20):
            "d153e95376f5f64a71903be1f00d6cbf519080d7f62e2e463459f349d49eed95",
        ("(1, -7)", 40):
            "94022ce4139407c219b997cebe04729b782f417c639aaeb506769341cfb579da",
        ("P", 8):
            "3c7de037f6bfc9058b7b6526e2305f744745eed7b1fef7bcb9b1161d07aceb47",
        ("P", 20):
            "cd2d8082a4a2789a0cde0df57b6bcd73e846611804b1240a2898211b468a2914",
        ("P", 40):
            "e43bb43fd9aba52e2ea54ca5fa4dd085ec34aa422ecf08229500e67ea34863a0",
    }

    TINY_DIGESTS = {
        8: "3ff89cfa18bb042922ef7a4608b95e009de225bb6d25465a667ac100d1f9fa52",
        20: "f8549a3262a3639a53bffce8254c40405c67d081247077932a2b602e599eb38b",
        40: "3407591ed58f25dc67223e36647cb9153496890dddbbde65b5d1cc04f8e82e63",
    }

    @pytest.mark.parametrize("anchor, rel", list(ANCHOR_DIGESTS))
    def test_recentered_series_digits_are_pinned(self, anchor, rel):
        fc, Q = {"(1, 7)": (BRANCH_48, aff(1, 7)),
                 "(1, -7)": (BRANCH_48, aff(1, -7)),
                 "P": (INFINITY_DISC, P_INFINITY_DISC)}[anchor]
        Cq = HyperellipticCurve(fc)
        rows = []
        for n in (1, 2, 3):
            for c1, c2 in PIN_FORMS:
                s = point_anchored_series(Cq, Differential(c1, c2, 7, rel), Q,
                                          7, n=n, rel=rel)
                rows.append(([digits(c) for c in s.coeffs],
                             s.tail_valuation_bound))
        assert pinned_digest(rows) == self.ANCHOR_DIGESTS[anchor, rel]

    @pytest.mark.parametrize("rel", list(TINY_DIGESTS))
    def test_tiny_integral_digits_are_pinned(self, C, rel):
        C2, Cx = HyperellipticCurve(BRANCH_48), HyperellipticCurve(INFINITY_DISC)
        P1 = infinity_disc_point(C, Fraction(1, 49), 7)
        P2 = infinity_disc_point(C, Fraction(4, 49), 7)
        endpoints = [(C, aff(3, 6), aff(10, -120)), (C, aff(3, 6), aff(3, 6)),
                     (C, INF, P1), (C, P1, P2), (C2, aff(1, 7), aff(1, -7)),
                     (Cx, P_INFINITY_DISC, INF)]
        rows = [digits(tiny_integral(Cq, Differential(c1, c2, 7, rel), frm, to,
                                     7, rel=rel))
                for Cq, frm, to in endpoints for c1, c2 in PIN_FORMS]
        assert pinned_digest(rows) == self.TINY_DIGESTS[rel]


class TestFiltrationLevel:
    """The log-valuation floor the sieve excises classes with."""

    def test_generator_multiples(self, C, gamma):
        assert _log_floor(log_jacobian(C, scalar_mul(C, 6, gamma), 7)) == 1
        lv = with_precision_retry(
            lambda r: _log_floor(
                log_jacobian(C, scalar_mul(C, 42, gamma), 7, rel=r)),
            20, 3)
        assert lv == 2

    def test_identity_has_no_floor(self, C):
        L = log_jacobian(C, MumfordDivisor.identity(RationalDomain()), 7)
        assert _log_floor(L) is None
