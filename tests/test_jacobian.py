"""Jacobian group law, enumeration, and reduction tests.

Group orders and exponents asserted here were computed by the independent
pair-counting oracle (exhaustive_jacobian) and frozen; the enumeration
path must reproduce them, and the zeta identity is checked inside
enumerate_Fp_jacobian itself.  The exponent the sieve reads is certified
one Sylow subgroup at a time without listing J(F_q); it is checked against
the oracle and against the lcm of walk lengths over the listed group.
"""

import itertools
import math
import os
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2points import cli, coleman, jacobian, sieve
from g2points.curve import (CurvePoint, HyperellipticCurve, fp_curve_points,
                            reduce_point)
from g2points.jacobian import (MumfordDivisor, cantor_add, curve_preimage,
                               cyclic_walk, element_order, embed_point,
                               enumerate_Fp_jacobian, fp_point_class,
                               jacobian_order, order_and_exponent,
                               reduce_divisor, scalar_mul,
                               torsion_multiple_bound)
from g2points.oracle import (_mini_add, _mini_enumerate, exhaustive_jacobian,
                             naive_rational_points)
from g2points.polys import (PadicDomain, PrimeFieldDomain, RationalDomain,
                            poly_lift, poly_mod, poly_mul, poly_neg, poly_add,
                            poly_trim, poly_xgcd)

FLYNN = [0, 60, -112, 65, -14, 1]
CURVE2 = [1, 2, 0, 0, 0, 1]  # good reduction at 3, 5, 7, 11
X5_PLUS_4 = [4, 0, 0, 0, 0, 1]  # good reduction at 3, 7

QDOM = RationalDomain()
FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")


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


def _fq_shape(a, b, p):
    """The case of the F_q group law that the pair a, b meets."""
    da, db = a.degree(), b.degree()
    if not da or not db:
        return "identity operand"
    dom, same = PrimeFieldDomain(p), a.key() == b.key()
    if same and da == 1 and not a.v:
        return "doubling a Weierstrass point"
    if a.u == b.u and not poly_add(dom, a.v, b.v):
        return "P + (-P)"
    if same:
        if da == 1:
            return "1+1 doubling"
        shared = len(poly_xgcd(dom, a.u, a.v)[0]) > 1
        return "2+2 doubling, Res(u, v) %s 0" % ("=" if shared else "!=")
    if len(poly_xgcd(dom, a.u, b.u)[0]) > 1:
        return "shared root"
    return {(1, 1): "1+1", (1, 2): "1+2", (2, 1): "2+1",
            (2, 2): "coprime 2+2"}[da, db]


FQ_SHAPES = {"identity operand", "P + (-P)", "doubling a Weierstrass point",
             "1+1", "1+1 doubling", "1+2", "2+1", "coprime 2+2",
             "shared root", "2+2 doubling, Res(u, v) != 0",
             "2+2 doubling, Res(u, v) = 0"}
# the shapes the F_q fast path leaves to the generic composition
FQ_FALLBACK_SHAPES = {"shared root", "2+2 doubling, Res(u, v) = 0"}


def _oracle_elements(f_coeffs, q):
    """J(F_q) listed by the oracle, independently of cantor_add."""
    dom = PrimeFieldDomain(q)
    return [MumfordDivisor(dom, u, v)
            for u, v in _mini_enumerate(HyperellipticCurve(f_coeffs), q)]


def _check_fq_pair(C, a, b, p):
    """cantor_add over F_p against the oracle's Cantor law; the fast
    path, when it takes the pair, must agree and give a valid class.
    Returns whether it took the pair."""
    want = _mini_add((a.u, a.v), (b.u, b.v), [c % p for c in C.f_coeffs], p)
    fast = jacobian._fq_add(C, a.domain, a, b)
    got = cantor_add(C, a, b) if fast is None else fast
    assert (got.u, got.v) == want, (a, b)
    if fast is not None:
        fast.validate(C)
    return fast is not None


class TestFqGroupLaw:
    def test_every_pair_matches_the_oracle(self):
        taken = {True: set(), False: set()}
        for f_coeffs, q in ((FLYNN, 7), (FLYNN, 11), (CURVE2, 3), (CURVE2, 5),
                            (CURVE2, 7), (X5_PLUS_4, 3), (X5_PLUS_4, 7)):
            D = HyperellipticCurve(f_coeffs)
            els = _oracle_elements(f_coeffs, q)
            for a in els:
                for b in els:
                    fast = _check_fq_pair(D, a, b, q)
                    taken[fast].add(_fq_shape(a, b, q))
        # the fast path takes every shape but the degenerate ones, and
        # only those reach the generic composition
        assert taken[True] == FQ_SHAPES - FQ_FALLBACK_SHAPES
        assert taken[False] == FQ_FALLBACK_SHAPES

    @pytest.fixture(scope="class")
    def flynn_groups(self):
        return {q: _oracle_elements(FLYNN, q) for q in (13, 17, 23, 47)}

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_random_pairs_match_the_oracle(self, flynn_groups, data):
        q = data.draw(st.sampled_from(sorted(flynn_groups)))
        els = flynn_groups[q]
        a = data.draw(st.sampled_from(els))
        b = a if data.draw(st.booleans()) else data.draw(st.sampled_from(els))
        _check_fq_pair(HyperellipticCurve(FLYNN), a, b, q)


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

    def test_preimage_at_infinity_reads_the_class(self, C, gamma, monkeypatch):
        # [Q - infinity] = D is read off D itself: adding the identity
        # would be one Cantor step that returns D
        calls = []
        add = jacobian.cantor_add

        def counting_add(*args):
            calls.append(args)
            return add(*args)

        monkeypatch.setattr(jacobian, "cantor_add", counting_add)
        Q = curve_preimage(C, gamma, CurvePoint.infinity())
        assert Q == CurvePoint.affine(Fraction(3), Fraction(6))
        assert calls == []

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
        # by scalar_mul, independent of the spans that found the exponent:
        # it kills every element, and no prime can be taken out of it
        D = HyperellipticCurve(CURVE2)
        for curve, q in ([(C, q) for q in (7, 11, 13, 17, 23)]
                         + [(D, q) for q in (3, 5, 7)]):
            J = enumerate_Fp_jacobian(curve, q)
            for el in J.elements:
                assert scalar_mul(curve, J.exponent, el).is_identity()
            for ell in range(2, J.exponent + 1):
                if J.exponent % ell or any(ell % d == 0
                                           for d in range(2, ell)):
                    continue
                assert any(not scalar_mul(curve, J.exponent // ell,
                                          el).is_identity()
                           for el in J.elements), (q, ell)

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
        # gbar has order 6: 4 stops the walk at its cap, 9 lets it close
        # at 6, which does not divide 9
        for n in (4, 9):
            with pytest.raises(ValueError, match="not a multiple"):
                element_order(C, gbar, n)
        assert element_order(C, gbar, 48) == 6

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


def _good_primes(C, top):
    return [q for q in range(3, top + 1) if C.good_reduction(q)]


@pytest.fixture
def fresh_cache(monkeypatch):
    # every order_and_exponent call in the test certifies afresh, and no
    # sieve context recalls the images that read it
    monkeypatch.setattr(jacobian, "_enumeration_cache", {})
    monkeypatch.setattr(sieve, "_CONTEXT_CACHE", {})


class TestSylowExponent:
    @pytest.mark.parametrize("f_coeffs", [FLYNN, CURVE2, X5_PLUS_4])
    def test_matches_the_pair_counting_oracle(self, f_coeffs, fresh_cache):
        D = HyperellipticCurve(f_coeffs)
        for q in _good_primes(D, 23):
            assert order_and_exponent(D, q) == exhaustive_jacobian(D, q), q

    def test_flynn_matches_walk_lengths_up_to_47(self, C, fresh_cache):
        # every listed class lies on the walk of one that no earlier walk
        # visited, so the exponent is the lcm of those walks' lengths
        for q in _good_primes(C, 47):
            J = enumerate_Fp_jacobian(C, q)
            lcm, visited = 1, set()
            for el in J.elements:
                if el.key() not in visited:
                    walk = cyclic_walk(C, el, J.order)
                    visited.update(walk)
                    lcm = math.lcm(lcm, len(walk))
            assert order_and_exponent(C, q) == (J.order, lcm), q
            assert J.exponent == lcm, q

    @pytest.mark.parametrize("q", [7, 19, 23])
    def test_a_doubled_order_raises_after_one_pass(self, C, q, monkeypatch,
                                                   fresh_cache):
        # 2.|J| claims a 2-part twice the real one, which no span reaches:
        # the classes run out after one pass over J(F_q), and no loop
        # draws more than that
        order = jacobian_order(C, q)
        drawn = []
        classes = jacobian._fq_classes

        def counted(curve, p):
            for D in classes(curve, p):
                drawn.append(D)
                yield D

        monkeypatch.setattr(jacobian, "_fq_classes", counted)
        monkeypatch.setattr(jacobian, "jacobian_order",
                            lambda curve, p: 2 * order)
        with pytest.raises(ArithmeticError, match="ran out before its 2-part"):
            order_and_exponent(C, q)
        assert len(drawn) == order
        assert jacobian._enumeration_cache == {}

    def test_listing_cross_checks_the_zeta_order(self, C, monkeypatch,
                                                 fresh_cache):
        # |J(F_7)| = 48 with a 2-part of exponent 2: a claimed 24 passes
        # the Sylow spans (8 classes of order 2), not the count of the list
        monkeypatch.setattr(jacobian, "jacobian_order", lambda curve, p: 24)
        with pytest.raises(ArithmeticError, match="found 48 elements"):
            enumerate_Fp_jacobian(C, 7)

    @pytest.mark.parametrize("q, claimed, message", [
        # |J(F_7)| = 48: the classes of order 3 are not killed by 16
        (7, 16, "16 does not kill the 2-part"),
        # |J(F_19)| = 2^7.3: the 2-part of a claimed 48 is 16 classes
        (19, 48, "2-part of J\\(F_19\\) has more than 16 classes")])
    def test_a_wrong_order_meets_a_cap(self, C, q, claimed, message,
                                       monkeypatch, fresh_cache):
        monkeypatch.setattr(jacobian, "jacobian_order",
                            lambda curve, p: claimed)
        with pytest.raises(ArithmeticError, match=message):
            order_and_exponent(C, q)

    def test_warm_call_recomputes_nothing(self, C, monkeypatch, fresh_cache):
        first = order_and_exponent(C, 23)
        monkeypatch.setattr(jacobian, "_fq_classes", None)
        monkeypatch.setattr(jacobian, "jacobian_order", None)
        assert order_and_exponent(C, 23) == first == (528, 66)

    def test_a_golden_job_scans_each_q_squared_field_once(self, monkeypatch,
                                                          fresh_cache):
        # the torsion bound, the sieve modulus and the logarithms all read
        # the one (order, exponent) record per prime: a cold job counts
        # C(F_{q^2}) once for each of its 5 primes, and a rerun not at all
        monkeypatch.setattr(coleman, "_DISC_LAMBDA_CACHE", {})
        monkeypatch.setattr(sieve, "_CONTEXT_CACHE", {})
        scans = []
        count = jacobian.count_Fp2_points

        def counted(curve, q):
            scans.append(q)
            return count(curve, q)

        monkeypatch.setattr(jacobian, "count_Fp2_points", counted)
        with open(os.path.join(FIXTURES, "flynn.json"), encoding="utf-8") as fh:
            cfg = cli.parse_config(fh.read())
        assert cli.run_job(cfg).status == "complete"
        assert sorted(scans) == [7, 11, 13, 17, 23]
        assert cli.run_job(cfg).status == "complete"
        assert len(scans) == 5

    def test_the_cache_keeps_one_curves_records(self, C, monkeypatch,
                                                fresh_cache):
        # every record of one curve stays: the first 40 good primes of
        # Flynn, each read twice, compute 40 orders, and a record of
        # another curve empties the cache first
        calls = []
        real = jacobian.jacobian_order

        def counted(curve, q):
            calls.append(q)
            return real(curve, q)

        monkeypatch.setattr(jacobian, "jacobian_order", counted)
        primes = _good_primes(C, 191)
        assert len(primes) == 40
        for q in primes + primes:
            order_and_exponent(C, q)
        assert calls == primes
        assert list(jacobian._enumeration_cache) == \
            [(C.f_coeffs, q) for q in primes]
        D = HyperellipticCurve(X5_PLUS_4)
        order_and_exponent(D, 7)
        assert list(jacobian._enumeration_cache) == [(D.f_coeffs, 7)]


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

    def test_conjugate_pairs_leaving_fq_reduce_homomorphically(self, C,
                                                                gamma):
        # s*gamma + t over the 16 rational 2-torsion classes t, at every
        # good q <= 47: a support that is a conjugate pair with x-bar off
        # F_q reduces through u and v mod q, and must land on the sum of
        # the reductions of s*gamma and t
        inf = CurvePoint.infinity()
        halves = [embed_point(C, CurvePoint.affine(Fraction(x), Fraction(0)),
                              inf) for x in (0, 1, 2, 5)]
        torsion = []
        for picks in itertools.product((0, 1), repeat=4):
            t = MumfordDivisor.identity(QDOM)
            for T, pick in zip(halves, picks):
                if pick:
                    t = cantor_add(C, t, T)
            torsion.append(t)
        multiples = [scalar_mul(C, s, gamma) for s in range(-6, 7)]
        pairs = 0
        for q in (7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
            g = reduce_divisor(C, gamma, q)
            for s, sg in zip(range(-6, 7), multiples):
                for t in torsion:
                    D = cantor_add(C, sg, t)
                    points, _ = jacobian.divisor_support(D, q, 20)
                    label = reduce_point(C, points[0], q) if points else None
                    if not (label and label[0] == "ext" and label[3]):
                        continue
                    want = cantor_add(C, scalar_mul(C, s, g),
                                      reduce_divisor(C, t, q))
                    assert reduce_divisor(C, D, q) == want, (s, t, q)
                    pairs += 1
        assert pairs == 940

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
