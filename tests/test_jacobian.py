"""Jacobian group law, enumeration, and reduction tests.

Group orders and exponents asserted here were computed by the independent
pair-counting oracle (exhaustive_jacobian) and frozen; the enumeration
path must reproduce them, and the zeta identity is checked inside
enumerate_Fp_jacobian itself.
"""

import itertools
import random
from fractions import Fraction

import pytest

from g2points.curve import CurvePoint, HyperellipticCurve, fp_curve_points
from g2points.jacobian import (MumfordDivisor, cantor_add, curve_preimage,
                               element_order, embed_point,
                               enumerate_Fp_jacobian, fp_point_class,
                               jacobian_order, reduce_divisor, scalar_mul,
                               torsion_multiple_bound)
from g2points.oracle import (_mini_add, exhaustive_jacobian,
                             naive_rational_points)
from g2points.polys import (PadicDomain, PrimeFieldDomain, RationalDomain,
                            poly_lift, poly_mod, poly_mul, poly_neg, poly_add,
                            poly_trim)

FLYNN = [0, 60, -112, 65, -14, 1]
CURVE2 = [1, 2, 0, 0, 0, 1]  # good reduction at 3, 5, 7, 11

QDOM = RationalDomain()


@pytest.fixture(scope="module")
def C():
    return HyperellipticCurve(FLYNN)


@pytest.fixture(scope="module")
def gamma(C):
    return embed_point(C, CurvePoint.affine(Fraction(3), Fraction(6)),
                       CurvePoint.infinity())


def rational_pool(C):
    """Small rational divisor classes: m*gamma plus torsion pieces."""
    inf = CurvePoint.infinity()
    g = embed_point(C, CurvePoint.affine(Fraction(3), Fraction(6)), inf)
    torsion = [embed_point(C, CurvePoint.affine(Fraction(x), Fraction(0)), inf)
               for x in (0, 1, 2, 5)]
    pool = [MumfordDivisor.identity(QDOM)]
    for m in (-2, -1, 1, 2, 3):
        pool.append(scalar_mul(C, m, g))
    for T in torsion:
        pool.append(T)
        pool.append(cantor_add(C, T, scalar_mul(C, 2, g)))
    pool.append(cantor_add(C, torsion[0], torsion[1]))
    pool.append(cantor_add(C, torsion[2], torsion[3]))
    return pool


class TestMumfordForm:
    def test_identity_form(self):
        e = MumfordDivisor.identity(QDOM)
        assert e.u == [Fraction(1)] and e.v == []
        assert e.is_identity()

    def test_validate_accepts_point_classes(self, C):
        for P in naive_rational_points(C, 12):
            D = embed_point(C, P, CurvePoint.infinity())
            D.validate(C)

    def test_validate_rejects_bad_pairs(self, C):
        with pytest.raises(ValueError):
            MumfordDivisor(QDOM, [Fraction(1), Fraction(2)], []).validate(C)
        with pytest.raises(ValueError):
            MumfordDivisor(QDOM, [Fraction(-3), Fraction(1)],
                           [Fraction(5)]).validate(C)

    def test_degree_three_rejected(self, C):
        D = MumfordDivisor(QDOM, poly_lift(QDOM, [0, 0, 0, 1]), [])
        with pytest.raises(ValueError):
            D.validate(C)


class TestGroupLaw:
    def test_add_identity(self, C, gamma):
        e = MumfordDivisor.identity(QDOM)
        assert cantor_add(C, gamma, e) == gamma
        assert cantor_add(C, e, gamma) == gamma

    def test_weierstrass_two_torsion(self, C):
        D = embed_point(C, CurvePoint.affine(Fraction(0), Fraction(0)),
                        CurvePoint.infinity())
        assert cantor_add(C, D, D).is_identity()

    def test_involution_gives_inverse(self, C, gamma):
        D = embed_point(C, CurvePoint.affine(Fraction(3), Fraction(-6)),
                        CurvePoint.infinity())
        assert cantor_add(C, gamma, D).is_identity()

    def test_scalar_mul_small_cases(self, C, gamma):
        assert scalar_mul(C, 1, gamma) == gamma
        assert scalar_mul(C, 0, gamma).is_identity()
        assert scalar_mul(C, -1, gamma) == gamma.neg()
        g3 = cantor_add(C, cantor_add(C, gamma, gamma), gamma)
        assert scalar_mul(C, 3, gamma) == g3

    def test_neg_is_v_negation(self, C, gamma):
        D = scalar_mul(C, 2, gamma)
        N = D.neg()
        assert N.u == D.u
        assert N.v == poly_neg(QDOM, D.v)
        assert cantor_add(C, D, N).is_identity()

    def test_commutativity_full_scan_F7(self, C):
        J = enumerate_Fp_jacobian(C, 7)
        for a in J.elements:
            for b in J.elements:
                assert cantor_add(C, a, b) == cantor_add(C, b, a)

    def test_associativity_full_scan_F3(self):
        D = HyperellipticCurve(CURVE2)
        J = enumerate_Fp_jacobian(D, 3)
        els = J.elements
        for a in els:
            for b in els:
                ab = cantor_add(D, a, b)
                for c in els:
                    assert (cantor_add(D, ab, c)
                            == cantor_add(D, a, cantor_add(D, b, c)))

    def test_associativity_random_F7(self, C):
        J = enumerate_Fp_jacobian(C, 7)
        rng = random.Random(5)
        for _ in range(500):
            a, b, c = (rng.choice(J.elements) for _ in range(3))
            assert (cantor_add(C, cantor_add(C, a, b), c)
                    == cantor_add(C, a, cantor_add(C, b, c)))

    def test_inverses_full_scan_F7(self, C):
        J = enumerate_Fp_jacobian(C, 7)
        for a in J.elements:
            assert cantor_add(C, a, a.neg()).is_identity()


class TestEmbedAndPreimage:
    def test_embed_basepoint_is_identity(self, C):
        inf = CurvePoint.infinity()
        assert embed_point(C, inf, inf).is_identity()
        P = CurvePoint.affine(Fraction(3), Fraction(6))
        assert embed_point(C, P, P).is_identity()

    def test_embed_affine_form(self, C):
        D = embed_point(C, CurvePoint.affine(Fraction(3), Fraction(6)),
                        CurvePoint.infinity())
        assert D.u == [Fraction(-3), Fraction(1)]
        assert D.v == [Fraction(6)]

    def test_embed_antisymmetry(self, C):
        pts = naive_rational_points(C, 12)
        for Q in pts[:5]:
            for P0 in pts[5:]:
                s = cantor_add(C, embed_point(C, Q, P0),
                               embed_point(C, P0, Q))
                assert s.is_identity()

    def test_preimage_of_degree_one(self, C):
        D = MumfordDivisor(QDOM, [Fraction(-3), Fraction(1)], [Fraction(6)])
        Q = curve_preimage(C, D, CurvePoint.infinity())
        assert Q == CurvePoint.affine(Fraction(3), Fraction(6))

    def test_preimage_of_identity(self, C):
        Q = curve_preimage(C, MumfordDivisor.identity(QDOM),
                           CurvePoint.infinity())
        assert Q is not None and Q.at_infinity

    def test_generic_degree_two_has_no_preimage(self, C, gamma):
        D = scalar_mul(C, 3, gamma)
        assert D.degree() == 2
        assert curve_preimage(C, D, CurvePoint.infinity()) is None

    def test_round_trip_all_points(self, C):
        pts = naive_rational_points(C, 1000)
        inf = CurvePoint.infinity()
        for P0 in (inf, CurvePoint.affine(Fraction(3), Fraction(6))):
            for Q in pts:
                D = embed_point(C, Q, P0)
                assert curve_preimage(C, D, P0) == Q


class TestEnumeration:
    def test_flynn_orders_and_exponents(self, C):
        for p, order, exponent in ((7, 48, 6), (11, 176, 22), (13, 240, 30)):
            J = enumerate_Fp_jacobian(C, p)
            assert J.order == order
            assert J.exponent == exponent
            assert len(J.elements) == order

    def test_second_curve_orders(self):
        D = HyperellipticCurve(CURVE2)
        for p, order in ((3, 29), (5, 26), (7, 66)):
            J = enumerate_Fp_jacobian(D, p)
            assert J.order == order
            assert J.exponent == order  # cyclic

    def test_identity_exactly_once(self, C):
        J = enumerate_Fp_jacobian(C, 7)
        assert sum(1 for el in J.elements if el.is_identity()) == 1

    def test_lagrange_full_scan(self, C):
        J = enumerate_Fp_jacobian(C, 7)
        for el in J.elements:
            assert scalar_mul(C, J.order, el).is_identity()

    def test_exponent_kills_everything(self, C):
        J = enumerate_Fp_jacobian(C, 7)
        for el in J.elements:
            assert scalar_mul(C, J.exponent, el).is_identity()

    def test_sampled_element_orders_divide(self, C):
        J = enumerate_Fp_jacobian(C, 11)
        rng = random.Random(11)
        for _ in range(25):
            el = rng.choice(J.elements)
            assert J.order % element_order(C, el, J.order) == 0

    @pytest.mark.parametrize("f_coeffs, p", [(FLYNN, 7), (CURVE2, 3)])
    def test_element_order_is_least_killing_multiple(self, f_coeffs, p):
        # against the smallest k >= 1 with k.D = 0, by repeated addition
        D = HyperellipticCurve(f_coeffs)
        J = enumerate_Fp_jacobian(D, p)
        for el in J.elements:
            k, acc = 1, el
            while not acc.is_identity():
                k, acc = k + 1, cantor_add(D, acc, el)
            assert element_order(D, el, J.order) == k

    def test_element_order_rejects_a_non_multiple(self, C, gamma):
        gbar = reduce_divisor(C, gamma, 7)
        with pytest.raises(ValueError, match="not a multiple"):
            element_order(C, gbar, 4)

    def test_bad_prime_rejected(self, C):
        with pytest.raises(ValueError, match="bad reduction at 5"):
            enumerate_Fp_jacobian(C, 5)
        with pytest.raises(ValueError):
            jacobian_order(C, 5)

    @pytest.mark.parametrize("q", [7, 11, 13, 17, 23])
    def test_point_classes_are_the_small_degree_elements(self, C, q):
        # [P - infinity] for every P in C(F_q), infinity giving the
        # identity: exactly the listed classes of degree <= 1
        fdom = PrimeFieldDomain(q)
        classes = [fp_point_class(fdom, P) for P in fp_curve_points(C, q)]
        for D in classes:
            D.validate(C)
        keys = {D.key() for D in classes}
        assert len(keys) == len(classes)
        J = enumerate_Fp_jacobian(C, q)
        assert keys == {el.key() for el in J.elements if el.degree() <= 1}

    def test_matches_pair_counting_oracle(self, C):
        for p in (7, 11):
            J = enumerate_Fp_jacobian(C, p)
            assert (J.order, J.exponent) == exhaustive_jacobian(C, p)
            assert jacobian_order(C, p) == J.order
        D = HyperellipticCurve(CURVE2)
        J3 = enumerate_Fp_jacobian(D, 3)
        assert (J3.order, J3.exponent) == exhaustive_jacobian(D, 3)
        assert jacobian_order(D, 3) == J3.order


class TestReduction:
    def test_identity_to_identity(self, C):
        r = reduce_divisor(C, MumfordDivisor.identity(QDOM), 7)
        assert r.is_identity()

    def test_gamma_reduces_to_its_residue_class(self, C, gamma):
        r = reduce_divisor(C, gamma, 7)
        expected = embed_point(
            C, CurvePoint.affine(Fraction(3), Fraction(6)),
            CurvePoint.infinity(), domain=PrimeFieldDomain(7))
        assert r == expected

    def test_kernel_element_reduces_to_identity(self, C, gamma):
        # order of the reduced generator mod 7 is 6
        D = scalar_mul(C, 6, gamma)
        assert reduce_divisor(C, D, 7).is_identity()

    def test_reduced_generator_order(self, C, gamma):
        J = enumerate_Fp_jacobian(C, 7)
        assert element_order(C, reduce_divisor(C, gamma, 7), J.order) == 6

    def test_homomorphism_random_pairs(self, C):
        pool = rational_pool(C)
        reduced = [reduce_divisor(C, D, 7) for D in pool]
        rng = random.Random(7)
        for _ in range(500):
            i = rng.randrange(len(pool))
            j = rng.randrange(len(pool))
            lhs = reduce_divisor(C, cantor_add(C, pool[i], pool[j]), 7)
            rhs = cantor_add(C, reduced[i], reduced[j])
            assert lhs == rhs

    def test_coefficient_route_agrees_when_integral(self, C):
        # direct mod-p coefficient reduction, where valid, matches the
        # pointwise route
        fdom = PrimeFieldDomain(7)
        pool = rational_pool(C)
        compared = 0
        for D in pool:
            if any(c.denominator % 7 == 0 for c in D.u + D.v):
                continue
            u_bar = poly_trim(fdom, poly_lift(fdom, D.u))
            v_bar = poly_trim(fdom, poly_lift(fdom, D.v))
            if len(u_bar) != len(D.u):
                continue
            f_bar = poly_lift(fdom, C.f_coeffs)
            resid = poly_mod(fdom, poly_add(
                fdom, poly_mul(fdom, v_bar, v_bar),
                poly_neg(fdom, f_bar)), u_bar)
            if any(c % 7 for c in resid):
                continue
            direct = MumfordDivisor(fdom, u_bar, v_bar)
            pointwise = reduce_divisor(C, D, 7)
            if direct.degree() == len(D.u) - 1:
                assert pointwise == direct
                compared += 1
        assert compared >= 5

    def test_rational_and_padic_inputs_agree(self, C):
        # a rational class and its image over Q_q reduce to the same class
        base = rational_pool(C)
        pool = base + [cantor_add(C, D, E) for D in base for E in base[:6]]
        assert len(pool) == 112
        for q in (7, 11, 13, 17, 23):
            dom = PadicDomain(q, 20)
            for D in pool:
                Dq = MumfordDivisor(dom, poly_lift(dom, D.u),
                                    poly_lift(dom, D.v))
                assert reduce_divisor(C, Dq, q) == reduce_divisor(C, D, q)

    def test_point_pairs_match_the_oracle_group_law(self, C):
        # [P + Q - 2 inf] for every pair of rational points, reduced, against
        # the oracle's sum of the reduced [P - inf] and [Q - inf]; mod 7
        # this meets chords, tangents, involution pairs and doubled
        # Weierstrass points
        pts = naive_rational_points(C, 12)
        assert len(pts) == 10
        classes = [embed_point(C, P, CurvePoint.infinity()) for P in pts]
        for p in (7, 11, 13):
            f = [c % p for c in FLYNN]
            single = [reduce_divisor(C, D, p) for D in classes]
            for i, j in itertools.combinations_with_replacement(
                    range(len(pts)), 2):
                got = reduce_divisor(C, cantor_add(C, classes[i],
                                                   classes[j]), p)
                want = _mini_add((single[i].u, single[i].v),
                                 (single[j].u, single[j].v), f, p)
                assert (got.u, got.v) == want, (pts[i], pts[j], p)

    def test_bad_prime_rejected(self, C, gamma):
        with pytest.raises(ValueError):
            reduce_divisor(C, gamma, 5)

    def test_reduction_lands_in_group(self, C):
        keys = {el.key() for el in enumerate_Fp_jacobian(C, 7).elements}
        for D in rational_pool(C):
            assert reduce_divisor(C, D, 7).key() in keys


class TestTorsionBound:
    def test_flynn_bound_is_sixteen(self, C):
        assert torsion_multiple_bound(C, [7, 11]) == 16

    def test_single_prime_gives_that_order(self, C):
        assert torsion_multiple_bound(C, [7]) == 48

    def test_two_torsion_divides_bound(self, C):
        bound = torsion_multiple_bound(C, [7, 11])
        inf = CurvePoint.infinity()
        for x in (0, 1, 2, 5):
            T = embed_point(C, CurvePoint.affine(Fraction(x), Fraction(0)), inf)
            assert scalar_mul(C, bound, T).is_identity()

    def test_generator_certified_non_torsion(self, C, gamma):
        bound = torsion_multiple_bound(C, [7, 11])
        assert not scalar_mul(C, bound, gamma).is_identity()

    def test_empty_prime_list_rejected(self, C):
        with pytest.raises(ValueError):
            torsion_multiple_bound(C, [])
