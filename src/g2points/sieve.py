"""Residue-class sieving of a rank-1 Jacobian against curve images.

The driver that turns one certified generator into a finite statement
about the rational points: classes of the Mordell-Weil group modulo N
are matched against the curve's images inside J(F_q) for several primes
q, the survivors are searched for actual rational points, and the
p-adic machinery excises the class of every found point once its
residue disc is certified to hold no further zeros.  A success is
always conditional on the stated hypotheses; an exhausted budget
reports inconclusive rather than guessing.
"""

from __future__ import annotations

import itertools
import math

from .coleman import (annihilating_form, disc_zero_count, log_jacobian,
                      point_anchored_series, single_point_criterion,
                      transversality_certificate)
from .curve import (CurvePoint, HyperellipticCurve, fp_curve_points,
                    is_on_curve, reduce_point)
from .jacobian import (MumfordDivisor, cantor_add, curve_preimage,
                       element_order, enumerate_Fp_jacobian, fp_point_class,
                       reduce_divisor, scalar_mul, torsion_multiple_bound)
from .padic import (DEFAULT_PRECISION, InconclusiveTruncationError,
                    PrecisionLossError, strassmann_count, vp,
                    with_precision_retry)
from .polys import PrimeFieldDomain, RationalDomain

HYPOTHESES = (
    "the Jacobian has Mordell-Weil rank 1 and the supplied element "
    "generates the free quotient",
    "the Jacobian is simple",
    "the supplied torsion elements and orders describe the full rational "
    "torsion subgroup",
    "sieve sufficiency: the configured primes separate every class that "
    "holds no rational point (conjectural in general)",
)


class SieveContext:
    """Validated inputs of one run.

    The generator is certified non-torsion (a torsion multiple bound
    from the configured primes must not kill it); every torsion element
    must be on the Jacobian with exactly its claimed order, which must
    divide that bound.  Primes of
    bad reduction are silently dropped from the auxiliary list.
    """

    __slots__ = ("curve", "gamma", "torsion", "prime", "aux_primes", "N",
                 "bound", "rel", "max_iterations", "max_escalations")

    def __init__(self, curve: HyperellipticCurve, gamma: MumfordDivisor,
                 torsion=(), prime: int = 7, aux_primes=(), bound: int = 20,
                 rel: int = DEFAULT_PRECISION, max_iterations: int = 10,
                 max_escalations: int = 2):
        if not curve.good_reduction(prime):
            raise ValueError("need an odd prime of good reduction")
        gamma.validate(curve)
        self.curve = curve
        self.prime = prime
        self.aux_primes = tuple(q for q in sorted(set(aux_primes))
                                if q != prime and curve.good_reduction(q))
        bnd = torsion_multiple_bound(curve, (prime,) + self.aux_primes)
        tor = []
        for D, order in torsion:
            D.validate(curve)
            # a rational torsion order divides bnd; checking that first
            # keeps a huge claimed order from being factored
            if order < 1 or bnd % order:
                raise ValueError("claimed torsion order %d does not divide "
                                 "the torsion bound %d" % (order, bnd))
            try:
                o = element_order(curve, D, order)
            except ValueError:
                raise ValueError("torsion element misses its claimed "
                                 "order") from None
            if o != order:
                raise ValueError("claimed torsion order is not minimal")
            tor.append((D, order))
        self.torsion = tuple(tor)
        if scalar_mul(curve, bnd, gamma).is_identity():
            raise ValueError("generator is torsion: killed by the bound %d"
                             % bnd)
        self.gamma = gamma
        self.N = math.lcm(*(enumerate_Fp_jacobian(curve, q).exponent
                            for q in (prime,) + self.aux_primes))
        self.bound = bound
        self.rel = rel
        self.max_iterations = max_iterations
        self.max_escalations = max_escalations

    def torsion_labels(self):
        return list(itertools.product(*(range(o) for _, o in self.torsion)))


class PointRecord:
    """A found rational point with its per-point analytic certificate."""

    __slots__ = ("point", "s", "label", "disc", "v_w", "n", "criterion",
                 "zero_count", "series")

    def __init__(self, point, s, label, disc):
        self.point = point
        self.s = s
        self.label = label
        self.disc = disc
        self.v_w = None
        self.n = None
        self.criterion = None
        self.zero_count = None
        self.series = None

    def __repr__(self):
        return "PointRecord(%r = %d*gamma + %r)" % (self.point, self.s,
                                                    self.label)


class ImageData:
    """What the sieve reads from J(F_q): its order and exponent, the size
    of the curve image, the order m of the reduced generator, and per
    torsion label t the residues s < m with s*gamma + t on the image."""

    __slots__ = ("order", "exponent", "image_size", "gamma_order", "residues")

    def __init__(self, order, exponent, image_size, gamma_order, residues):
        self.order = order
        self.exponent = exponent
        self.image_size = image_size
        self.gamma_order = gamma_order
        self.residues = residues


def _torsion_sum(C, divisors, label, domain) -> MumfordDivisor:
    """The class sum of t * T over the torsion divisors T and the entries t
    of a torsion label, over domain."""
    D = MumfordDivisor.identity(domain)
    for T, t in zip(divisors, label):
        if t:
            D = cantor_add(C, D, scalar_mul(C, t, T))
    return D


def build_images(ctx: SieveContext, q: int) -> ImageData:
    """The image of C(F_q) in J(F_q), and per torsion label the residues
    s mod the reduced generator's order that land on it."""
    C = ctx.curve
    jac = enumerate_Fp_jacobian(C, q)
    fdom = PrimeFieldDomain(q)
    image = {fp_point_class(fdom, c).key() for c in fp_curve_points(C, q)}
    gbar = reduce_divisor(C, ctx.gamma, q)
    m = element_order(C, gbar, jac.order)
    tbars = [reduce_divisor(C, T, q) for T, _ in ctx.torsion]
    residues = {}
    for label in ctx.torsion_labels():
        e = _torsion_sum(C, tbars, label, fdom)
        hits = set()
        for s in range(m):
            if e.key() in image:
                hits.add(s)
            e = cantor_add(C, e, gbar)
        residues[label] = frozenset(hits)
    return ImageData(jac.order, jac.exponent, len(image), m, residues)


class SieveState:
    """Mutable bookkeeping of one run."""

    __slots__ = ("N", "survivors", "found", "found_keys", "disc_certs",
                 "level", "iterations", "escalations", "images",
                 "torsion_sums", "gamma_log", "form", "trace", "notes")

    def __init__(self, N, survivors, images, torsion_sums):
        self.N = N
        self.survivors = survivors
        self.found = []
        self.found_keys = set()
        self.disc_certs = {}
        self.level = 1
        self.iterations = 0
        self.escalations = 0
        self.images = images
        self.torsion_sums = torsion_sums
        self.gamma_log = None
        self.form = None
        self.trace = []
        self.notes = []

    def survivor_count(self) -> int:
        return sum(len(s) for s in self.survivors.values())

    def survivor_sample(self, limit: int = 20):
        out = []
        for label in sorted(self.survivors):
            for s in sorted(self.survivors[label]):
                out.append((s, label))
                if len(out) >= limit:
                    return out
        return out


def initial_state(ctx: SieveContext) -> SieveState:
    """Step-1 state: full class set mod N and image data at every prime."""
    C = ctx.curve
    images = {}
    for q in (ctx.prime,) + ctx.aux_primes:
        images[q] = build_images(ctx, q)
    labels = ctx.torsion_labels()
    survivors = {label: set(range(ctx.N)) for label in labels}
    torsion = [T for T, _ in ctx.torsion]
    sums = {label: _torsion_sum(C, torsion, label, RationalDomain())
            for label in labels}
    state = SieveState(ctx.N, survivors, images, sums)
    for q in (ctx.prime,) + ctx.aux_primes:
        img = images[q]
        state.trace.append({"step": "images", "prime": q,
                            "order": img.order,
                            "exponent": img.exponent,
                            "curve_image_size": img.image_size})
    return state


def sieve_pass(ctx: SieveContext, state: SieveState, q: int) -> SieveState:
    """Keep exactly the classes whose image at q lands on the curve."""
    img = state.images[q]
    m = img.gamma_order
    for label, sset in state.survivors.items():
        res = img.residues[label]
        state.survivors[label] = {s for s in sset if s % m in res}
    state.trace.append({"step": "sieve_pass", "prime": q,
                        "survivors": state.survivor_count()})
    return state


def search_points(ctx: SieveContext, state: SieveState) -> SieveState:
    """Scan representatives s*gamma + t, |s| <= bound, of surviving
    classes for actual rational points."""
    C = ctx.curve
    labels = ctx.torsion_labels()
    D = scalar_mul(C, -ctx.bound, ctx.gamma)
    found_before = len(state.found)
    for s in range(-ctx.bound, ctx.bound + 1):
        for label in labels:
            if (s % state.N) not in state.survivors[label]:
                continue
            E = cantor_add(C, D, state.torsion_sums[label])
            Q = curve_preimage(C, E, CurvePoint.infinity())
            if Q is None:
                continue
            key = "infinity" if Q.at_infinity else (Q.x, Q.y)
            if key in state.found_keys:
                continue
            if not is_on_curve(C, Q):
                raise ArithmeticError("preimage %r fails the curve equation"
                                      % (Q,))
            state.found_keys.add(key)
            state.found.append(PointRecord(Q, s, label,
                                           reduce_point(C, Q, ctx.prime)))
        D = cantor_add(C, D, ctx.gamma)
    state.trace.append({"step": "search", "bound": ctx.bound,
                        "found": len(state.found) - found_before,
                        "total": len(state.found)})
    return state


def _with_budget(ctx: SieveContext, state: SieveState, fn):
    # escalate the working precision on retryable failures, within budget;
    # every attempt above the configured precision is one escalation
    def attempt(rel):
        if rel > ctx.rel:
            state.escalations += 1
        return fn(rel)
    return with_precision_retry(attempt, ctx.rel, ctx.max_escalations)


def _ensure_form(ctx: SieveContext, state: SieveState) -> None:
    if state.form is not None:
        return
    state.gamma_log = _with_budget(
        ctx, state,
        lambda r: log_jacobian(ctx.curve, ctx.gamma, ctx.prime, rel=r))
    state.form = annihilating_form(state.gamma_log)


def _certify_transversality(ctx, state, Q):
    def attempt(rel):
        ok, v = transversality_certificate(ctx.curve, state.form, Q,
                                           ctx.prime, rel)
        if not ok:
            raise PrecisionLossError("form vanishes at the disc center at "
                                     "precision %d" % rel)
        return v

    try:
        return _with_budget(ctx, state, attempt)
    except (PrecisionLossError, InconclusiveTruncationError):
        return None


def _certify_point(ctx, state, rec, n):
    def attempt(rel):
        series = point_anchored_series(ctx.curve, state.form, rec.point,
                                       ctx.prime, n=n, rel=rel)
        return series, strassmann_count(series)

    rec.n = n
    try:
        rec.series, rec.zero_count = _with_budget(ctx, state, attempt)
    except (PrecisionLossError, InconclusiveTruncationError):
        rec.series = None
        rec.zero_count = None
        rec.criterion = False
        state.notes.append("level-%d certificate unresolved at %r"
                           % (n, rec.point))
        return
    rec.criterion = single_point_criterion(rec.v_w, ctx.prime, n, rec.series)


def _certify_disc(ctx, state, disc, pts):
    try:
        return _with_budget(
            ctx, state,
            lambda r: disc_zero_count(ctx.curve, state.form, disc, ctx.prime,
                                      n=1, known_points=pts, rel=r))
    except (PrecisionLossError, InconclusiveTruncationError):
        state.notes.append("zero count unresolved on disc %r" % (disc,))
        return None


def _log_floor(L):
    # certified lower bound for min coordinate valuation of a log vector
    vals = [c.valuation for c in (L.l1, L.l2) if not c.is_exact_zero()]
    return min(vals) if vals else None


def _excise_found_classes(ctx, state, n):
    # a class matching a found point Q at level n contains no other
    # rational point: its members differ from [Q - inf] by an element of
    # the level-n kernel, and Q's certificate says that sub-disc holds a
    # single zero.  N is already a multiple of exp(J(Q_p)/J^n), so the
    # test is representative-independent.  Two classes of one label match
    # at p exactly when their s agree mod the reduced generator's order.
    m = state.images[ctx.prime].gamma_order
    vg = _log_floor(state.gamma_log)
    if vg is None:
        return 0
    excised = 0
    for rec in state.found:
        if not (rec.criterion or rec.zero_count == 1):
            continue
        kept = set()
        for s in state.survivors[rec.label]:
            if (s - rec.s) % m == 0 and vp(s - rec.s, ctx.prime) + vg >= n:
                excised += 1
            else:
                kept.add(s)
        state.survivors[rec.label] = kept
    return excised


def deepen(ctx: SieveContext, state: SieveState) -> SieveState:
    """Raise the working level past every found point's v_w, certify the
    discs, refresh N, and excise the classes of the found points."""
    if not state.found:
        state.trace.append({"step": "deepen", "skipped": "nothing found"})
        return state
    C, p = ctx.curve, ctx.prime
    _ensure_form(ctx, state)
    vmax = 0
    for rec in state.found:
        if rec.v_w is None:
            rec.v_w = _certify_transversality(ctx, state, rec.point)
            if rec.v_w is None:
                state.notes.append("transversality unresolved at %r within "
                                   "the precision budget" % (rec.point,))
                state.trace.append({"step": "deepen",
                                    "skipped": "transversality"})
                return state
        vmax = max(vmax, rec.v_w)
    n = max(state.level, vmax + 1)
    state.level = n
    for rec in state.found:
        if rec.n != n or rec.zero_count is None:
            _certify_point(ctx, state, rec, n)
    pts = [rec.point for rec in state.found]
    unresolved = []
    for disc in fp_curve_points(C, p):
        cert = _certify_disc(ctx, state, disc, pts)
        state.disc_certs[disc] = cert
        if cert is None or not cert.resolved:
            unresolved.append(disc)
    newN = math.lcm(state.N, state.images[p].exponent * p ** (n - 1))
    if newN != state.N:
        step = state.N
        for label, sset in state.survivors.items():
            state.survivors[label] = {s + k * step for s in sset
                                      for k in range(newN // step)}
        state.N = newN
    excised = _excise_found_classes(ctx, state, n)
    if not unresolved:
        # every residue disc carries exactly its known points, so the
        # found set already is all of C(Q): clear the remaining classes
        for label in state.survivors:
            state.survivors[label] = set()
        state.notes.append("all %d residue discs resolved at level 1"
                           % len(state.disc_certs))
    state.trace.append({"step": "deepen", "n": n, "N": state.N,
                        "excised": excised,
                        "unresolved_discs": list(unresolved),
                        "survivors": state.survivor_count()})
    return state


class SieveResult:
    """Certificate bundle of a finished run."""

    __slots__ = ("status", "closing", "points", "disc_certificates",
                 "survivor_count", "survivors_sample", "hypotheses", "trace",
                 "notes", "N", "level", "iterations", "escalations")

    def __init__(self, status, closing, points, disc_certificates,
                 survivor_count, survivors_sample, trace, notes, N, level,
                 iterations, escalations):
        self.status = status
        self.closing = closing
        self.points = points
        self.disc_certificates = disc_certificates
        self.survivor_count = survivor_count
        self.survivors_sample = survivors_sample
        self.hypotheses = HYPOTHESES
        self.trace = trace
        self.notes = notes
        self.N = N
        self.level = level
        self.iterations = iterations
        self.escalations = escalations

    @property
    def complete(self) -> bool:
        return self.status == "complete"


def _snapshot(state: SieveState):
    return (state.survivor_count(), len(state.found), state.level, state.N,
            len(state.notes))


def run(ctx: SieveContext) -> SieveResult:
    """The full loop: sieve passes, point search, deepening; repeats
    until the class set empties (complete) or budgets run out."""
    state = initial_state(ctx)
    status, closing = "inconclusive", "iteration budget exhausted"
    if ctx.max_iterations <= 0:
        closing = "iteration budget is zero"
    for _ in range(ctx.max_iterations):
        state.iterations += 1
        before = _snapshot(state)
        for q in (ctx.prime,) + ctx.aux_primes:
            sieve_pass(ctx, state, q)
        if state.survivor_count() == 0:
            status, closing = "complete", "surviving class set is empty"
            break
        search_points(ctx, state)
        deepen(ctx, state)
        if state.survivor_count() == 0:
            status, closing = "complete", "surviving class set is empty"
            break
        if _snapshot(state) == before:
            closing = "no further progress within the configured data"
            break
    return SieveResult(
        status=status, closing=closing, points=list(state.found),
        disc_certificates=dict(state.disc_certs),
        survivor_count=state.survivor_count(),
        survivors_sample=state.survivor_sample(),
        trace=state.trace, notes=state.notes, N=state.N, level=state.level,
        iterations=state.iterations, escalations=state.escalations)
