"""Mordell-Weil sieve: images, passes, point search, deepening, full runs."""

from fractions import Fraction

import pytest

from g2points.cli import _disc_cert_json
from g2points.coleman import single_point_criterion
from g2points.curve import CurvePoint, HyperellipticCurve, fp_curve_points
from g2points.jacobian import (MumfordDivisor, cantor_add, reduce_divisor,
                               scalar_mul)
from g2points import sieve
from g2points.padic import PrecisionLossError, strassmann_count
from g2points.polys import PrimeFieldDomain, RationalDomain
from g2points.sieve import (HYPOTHESES, SieveContext, SieveState,
                            _certify_transversality, _with_budget,
                            build_images, deepen, initial_state, run,
                            search_points, sieve_pass)

from contract import assert_lists_naive_points, point_keys

F_COEFFS = [0, 60, -112, 65, -14, 1]
AUX = (11, 13, 17, 23)

# s*gamma + torsion sum, frozen from the search over the post-pass survivors
DECOMPOSITIONS = {
    "infinity": (0, (0, 0, 0, 0)),
    (Fraction(0), Fraction(0)): (0, (1, 0, 0, 0)),
    (Fraction(1), Fraction(0)): (0, (0, 1, 0, 0)),
    (Fraction(2), Fraction(0)): (0, (0, 0, 1, 0)),
    (Fraction(5), Fraction(0)): (0, (0, 0, 0, 1)),
    (Fraction(6), Fraction(0)): (0, (1, 1, 1, 1)),
    (Fraction(3), Fraction(6)): (1, (0, 0, 0, 0)),
    (Fraction(3), Fraction(-6)): (-1, (0, 0, 0, 0)),
    (Fraction(10), Fraction(120)): (2, (0, 0, 1, 1)),
    (Fraction(10), Fraction(-120)): (-2, (0, 0, 1, 1)),
}


def _gamma():
    return MumfordDivisor(RationalDomain(), [Fraction(-3), Fraction(1)],
                          [Fraction(6)])


def _torsion():
    dom = RationalDomain()
    return tuple((MumfordDivisor(dom, [Fraction(-x), Fraction(1)], []), 2)
                 for x in (0, 1, 2, 5))


def _point_key(P: CurvePoint):
    return "infinity" if P.at_infinity else (P.x, P.y)


@pytest.fixture(scope="module")
def curve():
    return HyperellipticCurve(F_COEFFS)


@pytest.fixture(scope="module")
def ctx(curve):
    return SieveContext(curve, _gamma(), torsion=_torsion(), prime=7,
                        aux_primes=AUX)


@pytest.fixture(scope="module")
def sieved(ctx):
    """State after one round of passes over all five primes."""
    state = initial_state(ctx)
    for q in (7,) + AUX:
        sieve_pass(ctx, state, q)
    return state


@pytest.fixture(scope="module")
def result(ctx):
    return run(ctx)


class TestContext:
    def test_modulus_is_lcm_of_exponents(self, ctx):
        assert ctx.N == 6270

    def test_torsion_generator_rejected(self, curve):
        T0 = MumfordDivisor(RationalDomain(), [Fraction(0), Fraction(1)], [])
        with pytest.raises(ValueError, match="torsion"):
            SieveContext(curve, T0, prime=7, aux_primes=(11,))

    def test_wrong_claimed_order_rejected(self, curve):
        dom = RationalDomain()
        T0 = (MumfordDivisor(dom, [Fraction(0), Fraction(1)], []), 3)
        with pytest.raises(ValueError, match="claimed order"):
            SieveContext(curve, _gamma(), torsion=(T0,), prime=7)

    def test_non_minimal_order_rejected(self, curve):
        dom = RationalDomain()
        T0 = (MumfordDivisor(dom, [Fraction(0), Fraction(1)], []), 4)
        with pytest.raises(ValueError, match="not minimal"):
            SieveContext(curve, _gamma(), torsion=(T0,), prime=7)

    def test_order_off_the_torsion_bound_rejected(self, curve):
        # 2 * (2^61 - 1) is 14 mod the bound 16, so it is refused before
        # any walk of up to that many steps
        dom = RationalDomain()
        T0 = (MumfordDivisor(dom, [Fraction(0), Fraction(1)], []),
              2 * (2 ** 61 - 1))
        with pytest.raises(ValueError,
                           match="does not divide the torsion bound"):
            SieveContext(curve, _gamma(), torsion=(T0,), prime=7,
                         aux_primes=AUX)

    def test_bad_reduction_prime_rejected(self, curve):
        with pytest.raises(ValueError, match="good reduction"):
            SieveContext(curve, _gamma(), prime=5)

    def test_bad_aux_primes_dropped(self, curve):
        c = SieveContext(curve, _gamma(), torsion=_torsion(), prime=7,
                         aux_primes=(5, 7, 11))
        assert c.aux_primes == (11,)

    @pytest.mark.parametrize("name, value", (
        ("bound", -3), ("rel", 0), ("max_iterations", -1),
        ("max_escalations", -1)))
    def test_out_of_range_parameter_rejected(self, curve, name, value):
        with pytest.raises(ValueError, match="^%s must be at least" % name):
            SieveContext(curve, _gamma(), torsion=_torsion(), prime=7,
                         aux_primes=AUX, **{name: value})

    def test_images_are_built_with_the_context(self, curve, monkeypatch):
        c = SieveContext(curve, _gamma(), torsion=_torsion(), prime=7,
                         aux_primes=AUX)

        def refuse(ctx, q):
            raise AssertionError("images rebuilt at %d" % q)

        monkeypatch.setattr(sieve, "build_images", refuse)
        r = run(c)
        assert r.status == "complete"
        assert {_point_key(rec.point) for rec in r.points} == \
            set(DECOMPOSITIONS)
        assert list(c.images) == [7, 11, 13, 17, 23]

    def test_sixteen_torsion_labels(self, ctx):
        labels = ctx.torsion_labels()
        assert len(labels) == 16
        assert (0, 0, 0, 0) in labels and (1, 1, 1, 1) in labels


class TestRationalTwoTorsion:
    """The context refuses supplied torsion that misses a class
    [(r, 0) - infinity] of an integer root r of f, before any pass."""

    def test_no_torsion_is_refused(self, curve):
        # with none of J(Q)[2] supplied, the run used to end complete with
        # infinity and (3, +-6) only
        with pytest.raises(ValueError, match=r"2-torsion point \(0, 0\)"):
            SieveContext(curve, _gamma(), prime=11, aux_primes=(7, 13))

    def test_three_of_four_generators_are_refused(self, curve):
        with pytest.raises(ValueError, match=r"2-torsion point \(5, 0\)"):
            SieveContext(curve, _gamma(), torsion=_torsion()[:3], prime=7,
                         aux_primes=AUX)

    def test_a_budget_zero_job_is_checked(self, curve):
        with pytest.raises(ValueError, match=r"\(0, 0\)"):
            SieveContext(curve, _gamma(), prime=7, aux_primes=AUX,
                         max_iterations=0)

    def test_a_negative_root_is_read_in_the_symmetric_range(self):
        # X = x - 1: the roots are -1, 0, 1, 4 and 5, and (-1, 0) is the
        # one the torsion below misses
        C = HyperellipticCurve([0, -20, 9, 19, -9, 1])
        dom = RationalDomain()
        gamma = MumfordDivisor(dom, [Fraction(-2), Fraction(1)], [Fraction(6)])
        torsion = tuple((MumfordDivisor(dom, [Fraction(-x), Fraction(1)], []), 2)
                        for x in (0, 1, 4))
        with pytest.raises(ValueError, match=r"2-torsion point \(-1, 0\)"):
            SieveContext(C, gamma, torsion=torsion, prime=7, aux_primes=AUX)


class TestImages:
    EXPECTED = {7: (48, 6, 8, 6), 11: (176, 22, 16, 22),
                13: (240, 30, 18, 30), 17: (304, 38, 18, 38),
                23: (528, 66, 24, 22)}

    def test_group_data_and_image_sizes(self, ctx):
        for q, (order, exp, image, gorder) in self.EXPECTED.items():
            img = ctx.images[q]
            assert img.order == order
            assert img.exponent == exp
            assert img.image_size == image
            assert img.gamma_order == gorder

    def test_identity_class_holds_infinity(self, ctx):
        for q in (7,) + AUX:
            assert 0 in ctx.images[q].residues[(0, 0, 0, 0)]

    def test_rebuild_matches(self, ctx):
        img = build_images(ctx, 7)
        assert img.gamma_order == ctx.images[7].gamma_order
        assert img.residues == ctx.images[7].residues

    @staticmethod
    def _check_residues(ctx):
        # each class s*gamma + t formed on its own by scalar_mul, tested
        # against the points of C(F_q) read off the Mumford pair
        curve = ctx.curve
        for q in (ctx.prime,) + ctx.aux_primes:
            img = build_images(ctx, q)
            points = set(fp_curve_points(curve, q)[1:])
            gbar = reduce_divisor(curve, ctx.gamma, q)
            tbars = [reduce_divisor(curve, T, q) for T, _ in ctx.torsion]
            for label in ctx.torsion_labels():
                t = MumfordDivisor.identity(PrimeFieldDomain(q))
                for tbar, k in zip(tbars, label):
                    t = cantor_add(curve, t, scalar_mul(curve, k, tbar))
                expected = set()
                for s in range(img.gamma_order):
                    E = cantor_add(curve, scalar_mul(curve, s, gbar), t)
                    if E.is_identity() or (
                            E.degree() == 1
                            and ((-E.u[0]) % q, E.v[0] if E.v else 0)
                            in points):
                        expected.add(s)
                assert img.residues[label] == expected, (q, label)

    def test_residues_are_the_curve_image(self, ctx):
        self._check_residues(ctx)

    def test_residues_see_the_sign_of_the_torsion_label(self):
        # every Flynn torsion class has order 2, so t = -t there; on
        # y^2 = x^5 + 4 the class (x, 2) has order 5, and t and -t give
        # different residue sets at every aux prime
        dom = RationalDomain()
        curve = HyperellipticCurve([4, 0, 0, 0, 0, 1])
        T = MumfordDivisor(dom, [Fraction(0), Fraction(1)], [Fraction(2)])
        gamma = MumfordDivisor(dom, [Fraction(-2), Fraction(1)],
                               [Fraction(6)])
        ctx5 = SieveContext(curve, gamma, torsion=((T, 5),), prime=3,
                            aux_primes=(7, 11, 13))
        assert ctx5.N == 51850
        for q in ctx5.aux_primes:
            res = build_images(ctx5, q).residues
            assert any(res[(t,)] != res[(-t % 5,)] for t in range(1, 5))
        self._check_residues(ctx5)


class TestPasses:
    COUNTS = [16720, 1900, 323, 30, 24]

    def test_counts_frozen(self, ctx):
        state = initial_state(ctx)
        assert state.survivor_count == 16 * 6270
        seen = []
        for q in (7,) + AUX:
            sieve_pass(ctx, state, q)
            seen.append(state.survivor_count)
        assert seen == self.COUNTS

    def test_passes_shrink_monotonically(self):
        pairs = zip([16 * 6270] + self.COUNTS, self.COUNTS)
        assert all(b <= a for a, b in pairs)

    def test_pass_idempotent(self, ctx, sieved):
        before = {lab: set(s) for lab, s in sieved.survivors.items()}
        sieve_pass(ctx, sieved, 7)
        assert sieved.survivors == before

    def test_known_decompositions_survive(self, ctx, sieved):
        # the sieve must never excise a class holding a rational point
        for s, label in DECOMPOSITIONS.values():
            assert (s % sieved.M) in sieved.survivors[label]


class TestClassSet:
    """Survivors held as residues mod M | N read as the full sets mod N."""

    def test_passes_match_the_full_class_set(self, ctx):
        # the reference keeps every class mod N and filters it by each
        # pass's residues, as a sieve without a period would
        state = initial_state(ctx)
        N = ctx.N
        ref = {label: set(range(N)) for label in ctx.torsion_labels()}
        for q in (7,) + AUX:
            sieve_pass(ctx, state, q)
            img = ctx.images[q]
            m = img.gamma_order
            for label, sset in ref.items():
                ref[label] = {s for s in sset if s % m in img.residues[label]}
            assert N % state.M == 0
            assert state.survivor_count == sum(map(len, ref.values()))
            sample = [(s, label) for label in sorted(ref)
                      for s in sorted(ref[label])][:20]
            assert state.survivors_sample == sample
            for label, sset in ref.items():
                res = state.survivors[label]
                assert {s for s in range(N) if s % state.M in res} == sset

    def test_refine_counts_classes_mod_N(self, ctx):
        state = SieveState(ctx.N, ctx.torsion_labels())
        assert state.survivor_count == 16 * ctx.N
        dropped = state.refine(6, lambda label, s: s % 3 == 0)
        assert (state.M, dropped) == (6, 16 * ctx.N * 2 // 3)
        assert state.survivors[(0, 0, 0, 0)] == {0, 3}

    def test_refine_off_the_modulus_raises(self, ctx):
        state = SieveState(ctx.N, ctx.torsion_labels())
        with pytest.raises(ArithmeticError, match="does not divide"):
            state.refine(4, lambda label, s: True)
        assert state.M == 1
        assert state.survivor_count == 16 * ctx.N


def _full_walk_search(ctx, state):
    """The reference search: every s in [-bound, bound] from
    (-bound)*gamma, one step at a time, and every label at each s."""
    C = ctx.curve
    D = scalar_mul(C, -ctx.bound, ctx.gamma)
    for s in range(-ctx.bound, ctx.bound + 1):
        for label in ctx.torsion_labels():
            if s % state.M not in state.survivors[label]:
                continue
            E = cantor_add(C, D, ctx.torsion_sums[label])
            Q = sieve.curve_preimage(C, E, CurvePoint.infinity())
            if Q is None or _point_key(Q) in state.found_keys:
                continue
            state.found_keys.add(_point_key(Q))
            state.points.append(sieve.PointRecord(
                Q, s, label, sieve.reduce_point(C, Q, ctx.prime)))
        D = cantor_add(C, D, ctx.gamma)


def _fresh_copy(state, M=None, survivors=None):
    """A state with nothing found, holding state's residues or the given
    ones mod M."""
    copy = SieveState(state.N, list(state.survivors))
    copy.M = state.M if M is None else M
    copy.survivors = {label: set(res) for label, res in
                      (survivors or state.survivors).items()}
    return copy


def _records(state):
    return ([(_point_key(r.point), r.s, r.label, r.disc)
             for r in state.points], state.found_keys)


class TestSearch:
    def test_finds_exactly_the_known_points(self, ctx, sieved):
        state = _fresh_copy(sieved)
        search_points(ctx, state)
        found = {_point_key(r.point): (r.s, r.label) for r in state.points}
        assert found == DECOMPOSITIONS
        # the module-scoped fixture is still the state after the passes
        assert not sieved.points
        assert all(e["step"] != "search" for e in sieved.trace)

    def test_zero_bound_finds_torsion_coset_points(self, curve):
        c = SieveContext(curve, _gamma(), torsion=_torsion(), prime=7,
                         aux_primes=AUX, bound=0)
        state = initial_state(c)
        for q in (7,) + AUX:
            sieve_pass(c, state, q)
        search_points(c, state)
        keys = {_point_key(r.point) for r in state.points}
        assert keys == {"infinity"} | {(Fraction(x), Fraction(0))
                                       for x in (0, 1, 2, 5, 6)}
        assert all(r.s == 0 for r in state.points)

    def _states(self, ctx, sieved):
        base = initial_state(ctx)
        only = {label: set() for label in base.survivors}
        # 6 mod 9 meets [-5, 5] only at s = -3
        only[(0, 0, 0, 0)] = {6}
        return {"sieved": (ctx, sieved),
                "before passes": (SieveContext(
                    ctx.curve, ctx.gamma, torsion=ctx.torsion,
                    prime=7, aux_primes=AUX, bound=4), base),
                "only -3": (SieveContext(
                    ctx.curve, ctx.gamma, torsion=ctx.torsion,
                    prime=7, aux_primes=AUX, bound=5),
                    _fresh_copy(base, M=9, survivors=only))}

    @staticmethod
    def _rational_adds(monkeypatch):
        calls = []

        def counted(C, a, b):
            if isinstance(a.domain, RationalDomain):
                calls.append(a)
            return cantor_add(C, a, b)

        monkeypatch.setattr(sieve, "cantor_add", counted)
        return calls

    @staticmethod
    def _candidates(ctx, state):
        return [(s, label) for s in range(-ctx.bound, ctx.bound + 1)
                for label in ctx.torsion_labels()
                if s % state.M in state.survivors[label]]

    def test_same_records_as_the_full_walk(self, ctx, sieved):
        for name, (c, state) in self._states(ctx, sieved).items():
            expected, got = _fresh_copy(state), _fresh_copy(state)
            _full_walk_search(c, expected)
            search_points(c, got)
            assert _records(got) == _records(expected), name
            assert got.trace == [{"step": "search", "bound": c.bound,
                                  "found": len(expected.points),
                                  "total": len(expected.points)}], name

    def test_walk_to_largest_surviving_s_plus_one_add_each(
            self, ctx, sieved, monkeypatch):
        # (candidates, largest |s|) of each state
        sizes = {"sieved": (10, 2), "before passes": (144, 4),
                 "only -3": (1, 3)}
        states = self._states(ctx, sieved)
        calls = self._rational_adds(monkeypatch)
        for name, (c, state) in states.items():
            cands = self._candidates(c, state)
            top = max(abs(s) for s, _ in cands)
            assert (len(cands), top) == sizes[name]
            del calls[:]
            search_points(c, _fresh_copy(state))
            assert len(calls) == top + len(cands), name

    def test_cost_does_not_follow_the_bound(self, ctx, sieved, monkeypatch):
        calls = self._rational_adds(monkeypatch)
        counts = []
        for bound in (20, 200):
            c = SieveContext(ctx.curve, ctx.gamma, torsion=ctx.torsion,
                             prime=7, aux_primes=AUX, bound=bound)
            del calls[:]
            got = _fresh_copy(sieved)
            search_points(c, got)
            counts.append(len(calls))
            assert _point_key(got.points[-1].point) == (Fraction(10),
                                                      Fraction(120))
        assert counts == [2 + 10, 2 + 10]


class TestDeepen:
    def test_noop_without_found_points(self, ctx):
        state = initial_state(ctx)
        before = state.survivor_count
        deepen(ctx, state)
        assert state.survivor_count == before
        assert {"step": "deepen", "skipped": "nothing found"} in state.trace

    def test_depth_covers_every_vanishing_order(self, result):
        vmax = max(rec.v_w for rec in result.points)
        assert result.level == vmax + 1

    def test_modulus_refined_for_depth(self, result):
        # lcm(6270, exp(J(F_7)) * 7^(n-1)) at n = 2
        assert result.N == 43890
        assert result.N % 6270 == 0 and result.N % (6 * 7) == 0


class TestPrecisionBudget:
    """Every precision escalation of a run goes through _with_budget."""

    @staticmethod
    def _failing(times, rels):
        def fn(rel):
            rels.append(rel)
            if len(rels) <= times:
                raise PrecisionLossError("need more digits")
            return rel
        return fn

    def test_each_retry_counts_one_escalation(self, ctx):
        state = SieveState(1, {})
        rels = []
        assert _with_budget(ctx, state, self._failing(2, rels)) == 4 * ctx.rel
        assert rels == [ctx.rel, 2 * ctx.rel, 4 * ctx.rel]
        assert state.escalations == 2

    def test_spent_budget_raises(self, ctx):
        state = SieveState(1, {})
        rels = []
        with pytest.raises(PrecisionLossError):
            _with_budget(ctx, state,
                         self._failing(ctx.max_escalations + 1, rels))
        assert len(rels) == ctx.max_escalations + 1
        assert state.escalations == ctx.max_escalations

    def test_unresolved_transversality_gives_none(self, ctx, monkeypatch):
        rels = []

        def never(C, w, Q, p, rel):
            rels.append(rel)
            return False, None

        monkeypatch.setattr(sieve, "transversality_certificate", never)
        state = SieveState(1, {})
        assert _certify_transversality(ctx, state, None, CurvePoint.infinity()) \
            is None
        assert rels == [ctx.rel * 2 ** k
                        for k in range(ctx.max_escalations + 1)]
        assert state.escalations == ctx.max_escalations

    def test_transversality_certified_after_one_escalation(self, ctx,
                                                           monkeypatch):
        def late(C, w, Q, p, rel):
            return (True, 1) if rel > ctx.rel else (False, None)

        monkeypatch.setattr(sieve, "transversality_certificate", late)
        state = SieveState(1, {})
        assert _certify_transversality(ctx, state, None, CurvePoint.infinity()) == 1
        assert state.escalations == 1


class TestCertificates:
    def test_vanishing_orders(self, result):
        for rec in result.points:
            expected = 1 if rec.disc in ((3, 1), (3, 6)) else 0
            assert rec.v_w == expected, rec

    def test_every_point_certified_alone_in_its_subdisc(self, result):
        for rec in result.points:
            assert rec.criterion is True
            assert rec.zero_count == 1
            assert rec.n == 2

    def test_series_replay(self, result):
        for rec in result.points:
            assert strassmann_count(rec.series) == rec.zero_count
            assert single_point_criterion(rec.v_w, 7, rec.n,
                                          rec.series) is rec.criterion

    def test_disc_certificates_cover_the_fiber(self, result):
        certs = result.disc_certificates
        assert len(certs) == 8
        assert all(c.resolved for c in certs.values())
        assert sum(c.known_count for c in certs.values()) == 10
        assert sum(c.zero_count for c in certs.values()) == 10
        two_point_discs = {k for k, c in certs.items() if c.known_count == 2}
        assert two_point_discs == {(3, 1), (3, 6)}


class TestRun:
    def test_complete_with_empty_class_set(self, result):
        assert result.complete
        assert result.status == "complete"
        assert result.survivor_count == 0
        assert result.survivors_sample == []
        assert result.iterations == 1

    def test_points_are_the_known_ten(self, result):
        found = {_point_key(r.point) for r in result.points}
        assert found == set(DECOMPOSITIONS)

    def test_resolution_note_recorded(self, result):
        assert any("residue discs resolved" in note for note in result.notes)

    def test_hypotheses_reported_verbatim(self, result):
        assert result.hypotheses == HYPOTHESES
        assert any("rank 1" in h for h in result.hypotheses)
        assert any("simple" in h for h in result.hypotheses)

    def test_trace_covers_every_stage(self, result):
        steps = [e["step"] for e in result.trace]
        for step in ("images", "sieve_pass", "search", "deepen"):
            assert step in steps

    def test_zero_iteration_budget_is_inconclusive(self, curve):
        c = SieveContext(curve, _gamma(), torsion=_torsion(), prime=7,
                         aux_primes=AUX, max_iterations=0)
        r = run(c)
        assert r.status == "inconclusive"
        assert r.closing == "iteration budget is zero"
        assert not r.complete


def _round_state(state):
    """Everything a further round could change, copied out of state."""
    return ({label: frozenset(res) for label, res in state.survivors.items()},
            state.M, state.N, state.level,
            [(_point_key(r.point), r.s, r.label, r.v_w, r.n, r.zero_count,
              r.criterion) for r in state.points],
            {disc: _disc_cert_json(cert)
             for disc, cert in state.disc_certificates.items()})


class TestOneRound:
    """A run is one round: passes, search, deepening.  Should a change make
    a second round productive, these tests fail and the run needs its
    loop back, with a real progress test."""

    @pytest.mark.parametrize("bound", (0, 1))
    def test_a_second_round_changes_nothing(self, curve, monkeypatch, bound):
        # search bound 0 or 1 hides points, so classes outlive the round
        states = []

        def capture(c):
            states.append(initial_state(c))
            return states[-1]

        monkeypatch.setattr(sieve, "initial_state", capture)
        c = SieveContext(curve, _gamma(), torsion=_torsion(), prime=7,
                         aux_primes=AUX, bound=bound)
        result = run(c)
        state, = states
        assert result.status == "inconclusive" and result.iterations == 1
        before = _round_state(state)
        for q in (7,) + AUX:
            sieve_pass(c, state, q)
        search_points(c, state)
        deepen(c, state)
        assert _round_state(state) == before

    @pytest.mark.parametrize("prime, bound, left", (
        (7, 0, 16), (7, 1, 152), (11, 0, 16), (11, 1, 8), (13, 0, 16),
        (13, 1, 8)))
    def test_hidden_point_jobs_stay_inconclusive(self, curve, prime, bound,
                                                 left):
        aux = [q for q in (7, 11, 13, 17, 23) if q != prime]
        c = SieveContext(curve, _gamma(), torsion=_torsion(), prime=prime,
                         aux_primes=aux, bound=bound)
        result = run(c)
        # a job that turned complete here would have to list the points
        # its search bound hides
        assert_lists_naive_points(F_COEFFS, result.status, point_keys(
            rec.point for rec in result.points))
        assert result.status == "inconclusive"
        assert result.closing == ("no further progress within the "
                                  "configured data")
        assert result.survivor_count == left
        assert result.iterations == 1


class TestNonSaturatedGenerator:
    """Flynn's curve in the x -> 1/x model, scaled by 60:
    y^2 = x(x - 10)(x - 12)(x - 30)(x - 60), with the image points
    (6, 432) of (10, 120) and (20, 800) of (3, 6).  [(6, 432) - infinity]
    is 2*gamma + t there, so it does not generate the free quotient
    modulo the 2-torsion."""

    F = [0, 216000, -50400, 3900, -112, 1]

    def _run(self, x, y):
        dom = RationalDomain()
        torsion = tuple((MumfordDivisor(dom, [Fraction(-r), Fraction(1)],
                                        []), 2) for r in (0, 10, 12, 30))
        gamma = MumfordDivisor(dom, [Fraction(-x), Fraction(1)], [Fraction(y)])
        return run(SieveContext(HyperellipticCurve(self.F), gamma,
                                torsion=torsion, prime=11,
                                aux_primes=(7, 13, 17, 19, 23)))

    def test_a_generator_ends_complete(self):
        r = self._run(20, 800)
        assert r.status == "complete" and len(r.points) == 10
        assert_lists_naive_points(self.F, r.status, point_keys(
            rec.point for rec in r.points))

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP item 2: the sieve closes without "
                       "certifying 2-saturation, and misses (20, +-800)")
    def test_twice_a_generator_is_not_complete(self):
        r = self._run(6, 432)
        assert_lists_naive_points(self.F, r.status, point_keys(
            rec.point for rec in r.points))
