"""Residue-class sieving of a rank-1 Jacobian against curve images.

The driver that turns one certified generator into a finite statement
about the rational points: classes of the Mordell-Weil group modulo N
are matched against the curve's images inside J(F_q) for several primes
q, the survivors are searched for actual rational points, and the
p-adic machinery excises the class of every found point once its
residue disc is certified to hold no further zeros.  A run is one such
round: each disc certificate depends only on the annihilating form and
the found points, so a second round would repeat the first.  A success
is always conditional on the stated hypotheses; classes left after the
round are reported inconclusive rather than guessed at.
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
                       cyclic_walk, element_order, fp_point_class,
                       order_and_exponent, reduce_divisor, scalar_mul,
                       torsion_multiple_bound)
from .padic import (DEFAULT_PRECISION, InconclusiveTruncationError,
                    PadicNumber, PrecisionLossError, hensel_root,
                    strassmann_count, with_precision_retry)
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
            # keeps the walk below from running to a huge claimed order
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
        self.N = math.lcm(*(order_and_exponent(curve, q)[1]
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


def _torsion_sums(C, divisors, labels, domain):
    """Per torsion label, the class sum of t * T over the torsion divisors
    T and the label's entries t, over domain.  Labels come in product
    order, so a label's sum is the sum of the label with its last nonzero
    entry decremented, which comes earlier, plus that entry's divisor."""
    sums = {}
    for label in labels:
        nonzero = [i for i, t in enumerate(label) if t]
        if not nonzero:
            sums[label] = MumfordDivisor.identity(domain)
            continue
        i = nonzero[-1]
        prev = label[:i] + (label[i] - 1,) + label[i + 1:]
        sums[label] = (cantor_add(C, sums[prev], divisors[i]) if any(prev)
                       else divisors[i])
    return sums


def build_images(ctx: SieveContext, q: int) -> ImageData:
    """The image of C(F_q) in J(F_q), and per torsion label the residues
    s mod the reduced generator's order that land on it."""
    C = ctx.curve
    order, exponent = order_and_exponent(C, q)
    fdom = PrimeFieldDomain(q)
    image = [fp_point_class(fdom, c) for c in fp_curve_points(C, q)]
    # one walk of <gamma-bar>: s*gamma + t = P exactly when P - t is the
    # s-th step
    walk = cyclic_walk(C, reduce_divisor(C, ctx.gamma, q), order)
    index = {key: s for s, key in enumerate(walk)}
    tbars = [reduce_divisor(C, T, q) for T, _ in ctx.torsion]
    residues = {}
    sums = _torsion_sums(C, tbars, ctx.torsion_labels(), fdom)
    for label, t in sums.items():
        neg_t = t.neg()
        keys = (cantor_add(C, P, neg_t).key() for P in image)
        residues[label] = frozenset(index[k] for k in keys if k in index)
    return ImageData(order, exponent, len(image), len(walk), residues)


class SieveState:
    """Mutable bookkeeping of one run.  `survivors[label]` holds residues
    s mod M, a divisor of N; each stands for the classes s + k*M mod N."""

    __slots__ = ("N", "M", "survivors", "found", "found_keys", "disc_certs",
                 "level", "iterations", "escalations", "images",
                 "torsion_sums", "gamma_log", "form", "trace", "notes")

    def __init__(self, N, labels, images, torsion_sums):
        self.N = N
        self.M = 1
        self.survivors = {label: {0} for label in labels}
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

    def refine(self, m, keep) -> int:
        """Lift the residues to mod lcm(M, m), keep the s with
        keep(label, s), and return how many classes mod N were dropped."""
        M = math.lcm(self.M, m)
        if self.N % M:
            raise ArithmeticError("modulus %d does not divide N = %d"
                                  % (M, self.N))
        before = self.survivor_count()
        for label, res in self.survivors.items():
            self.survivors[label] = {s for r in res
                                     for s in range(r, M, self.M)
                                     if keep(label, s)}
        self.M = M
        return before - self.survivor_count()

    def survivor_count(self) -> int:
        return self.N // self.M * sum(map(len, self.survivors.values()))

    def survivor_sample(self, limit: int = 20):
        # classes mod N in (label, s) order; an empty label is skipped,
        # not walked N/M times
        sv, M = self.survivors, self.M
        classes = ((k + r, label) for label in sorted(sv) if sv[label]
                   for k in range(0, self.N, M) for r in sorted(sv[label]))
        return list(itertools.islice(classes, limit))


def _check_rational_two_torsion(ctx: SieveContext, sums) -> None:
    """Raise ValueError unless [(r, 0) - infinity] is among the torsion
    sums for every integer root r of f.  This checks only the part of
    J(Q)[2] that f's rational roots give, not the whole torsion group.
    A root is an integer of size at most 1 + max |c_i|, so each root of f
    mod the Chabauty prime is Hensel-lifted past twice that, read in the
    symmetric range, and kept when f vanishes at it exactly."""
    C, p = ctx.curve, ctx.prime
    bound = 2 * (1 + max(map(abs, C.f_coeffs)))
    k = next(k for k in itertools.count(1) if p ** k > bound)
    f = [PadicNumber.from_int(c, p, k) for c in C.f_coeffs]
    roots = []
    for r0 in range(p):
        if C.f_eval(r0) % p == 0:
            x = hensel_root(f, PadicNumber.from_int(r0, p, k), k)
            r = 0 if x.is_zeroish() else x.unit_part() * p ** x.valuation % p ** k
            roots.append(r - p ** k if 2 * r > p ** k else r)
    keys = {D.key() for D in sums.values()}
    for r in sorted(roots):
        if C.f_eval(r) == 0 and ((-r, 1), ()) not in keys:
            raise ValueError("the supplied torsion misses the rational "
                             "2-torsion point (%d, 0)" % r)


def initial_state(ctx: SieveContext) -> SieveState:
    """Step-1 state: image data at every prime, and every class mod N
    held as the one residue 0 mod M = 1.  Each pass and each excision
    lifts M only to the modulus its own test reads.  The supplied
    torsion must hold the rational 2-torsion of f's integer roots
    (_check_rational_two_torsion), which is checked first."""
    C = ctx.curve
    labels = ctx.torsion_labels()
    sums = _torsion_sums(C, [T for T, _ in ctx.torsion], labels,
                         RationalDomain())
    _check_rational_two_torsion(ctx, sums)
    images = {q: build_images(ctx, q) for q in (ctx.prime,) + ctx.aux_primes}
    state = SieveState(ctx.N, labels, images, sums)
    for q, img in images.items():
        state.trace.append({"step": "images", "prime": q, "order": img.order,
                            "exponent": img.exponent,
                            "curve_image_size": img.image_size})
    return state


def sieve_pass(ctx: SieveContext, state: SieveState, q: int) -> SieveState:
    """Keep exactly the classes whose image at q lands on the curve."""
    img = state.images[q]
    m = img.gamma_order
    state.refine(m, lambda label, s: s % m in img.residues[label])
    state.trace.append({"step": "sieve_pass", "prime": q,
                        "survivors": state.survivor_count()})
    return state


def search_points(ctx: SieveContext, state: SieveState) -> SieveState:
    """Test the representatives s*gamma + t, |s| <= bound, of surviving
    classes for actual rational points, in (s, label) order.

    s*gamma is walked from the identity only up to the largest surviving
    |s|, and (-s)*gamma is its involution inverse, so the search costs
    that |s| plus one rational group operation per candidate, whatever
    the bound.  Mumford representatives are canonical, so these are the
    classes a walk over all of [-bound, bound] builds."""
    C, M, bound = ctx.curve, state.M, ctx.bound
    # each residue r mod M from the first s >= -bound with s = r mod M
    candidates = sorted((s, label)
                        for label, res in state.survivors.items()
                        for r in res
                        for s in range(-bound + (r + bound) % M, bound + 1, M))
    multiples = [MumfordDivisor.identity(ctx.gamma.domain)]
    for _ in range(max((abs(s) for s, _ in candidates), default=0)):
        multiples.append(cantor_add(C, multiples[-1], ctx.gamma))
    found_before = len(state.found)
    for s, label in candidates:
        D = multiples[s] if s >= 0 else multiples[-s].neg()
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


def _certify_disc(ctx, state, disc, pts, partner=None):
    # partner: the certificate of the disc's iota-partner, whose center's
    # log, negated, is this center's at the partner's precision
    def attempt(rel):
        log = (-partner.center_log
               if partner is not None and partner.precision == rel else None)
        return disc_zero_count(ctx.curve, state.form, disc, ctx.prime, n=1,
                               known_points=pts, rel=rel, center_log=log)

    try:
        return _with_budget(ctx, state, attempt)
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
    # single zero.  Two classes of one label match at p when their s agree
    # mod the reduced generator's order m_p, and differ by a kernel element
    # when v(s - rec.s) + v(log gamma) >= n: the test reads s only mod
    # lcm(m_p, p^max(n - v(log gamma), 0)), which refine checks divides N.
    m = state.images[ctx.prime].gamma_order
    vg = _log_floor(state.gamma_log)
    if vg is None:
        return 0
    mod = math.lcm(m, ctx.prime ** max(n - vg, 0))
    excised = 0
    for rec in state.found:
        if rec.criterion or rec.zero_count == 1:
            excised += state.refine(mod, lambda label, s: (
                label != rec.label or (s - rec.s) % mod != 0))
    return excised


def deepen(ctx: SieveContext, state: SieveState) -> SieveState:
    """Raise the working level past every found point's v_w, certify the
    discs, refresh N, and excise the classes of the found points.

    fp_curve_points lists each disc (x, y) right before its iota-partner
    (x, -y).  The partner's count reads the log of [center - infinity] as
    the negation of the log the first disc used, when it runs at that
    disc's precision: P + iota(P) ~ 2 infinity, and the frames and the
    Cantor ladder are odd in y, so the negation is the log it would
    compute, digit for digit.  A disc that escalates on its own computes
    its log at its new precision."""
    if not state.found:
        state.trace.append({"step": "deepen", "skipped": "nothing found"})
        return state
    C, p = ctx.curve, ctx.prime
    state.gamma_log = _with_budget(
        ctx, state, lambda r: log_jacobian(C, ctx.gamma, p, rel=r))
    state.form = annihilating_form(state.gamma_log)
    vmax = 0
    for rec in state.found:
        rec.v_w = _certify_transversality(ctx, state, rec.point)
        if rec.v_w is None:
            state.notes.append("transversality unresolved at %r within "
                               "the precision budget" % (rec.point,))
            state.trace.append({"step": "deepen",
                                "skipped": "transversality"})
            return state
        vmax = max(vmax, rec.v_w)
    n = state.level = vmax + 1
    for rec in state.found:
        _certify_point(ctx, state, rec, n)
    pts = [rec.point for rec in state.found]
    unresolved = []
    cert = None
    for disc in fp_curve_points(C, p):
        partner = cert if cert is not None and cert.center == (
            disc[0], -disc[1] % p) else None
        # an unresolved disc gets no certificate; the trace and the notes
        # name it
        cert = _certify_disc(ctx, state, disc, pts, partner)
        if cert is not None:
            state.disc_certs[disc] = cert
        if cert is None or not cert.resolved:
            unresolved.append(disc)
    state.N = math.lcm(state.N, state.images[p].exponent * p ** (n - 1))
    excised = _excise_found_classes(ctx, state, n)
    if not unresolved:
        # every residue disc carries exactly its known points, so the
        # found set already is all of C(Q): clear the remaining classes
        state.refine(1, lambda label, s: False)
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


def run(ctx: SieveContext) -> SieveResult:
    """One round: sieve passes at every prime, then, if classes survive,
    the point search and one deepening.  A second round could change
    nothing: every pass's modulus already divides M, the search would
    read a subset of the classes it read, and deepening would meet the
    same form and found points.  A zero iteration budget runs no
    round."""
    state = initial_state(ctx)
    status, closing = "inconclusive", "iteration budget is zero"
    if ctx.max_iterations > 0:
        state.iterations = 1
        for q in (ctx.prime,) + ctx.aux_primes:
            sieve_pass(ctx, state, q)
        if state.survivor_count():
            search_points(ctx, state)
            deepen(ctx, state)
        if state.survivor_count():
            closing = "no further progress within the configured data"
        else:
            status, closing = "complete", "surviving class set is empty"
    return SieveResult(
        status=status, closing=closing, points=list(state.found),
        disc_certificates=dict(state.disc_certs),
        survivor_count=state.survivor_count(),
        survivors_sample=state.survivor_sample(),
        trace=state.trace, notes=state.notes, N=state.N, level=state.level,
        iterations=state.iterations, escalations=state.escalations)
