"""Kernel micro-timings at a workload's own curve, precision and T.

Each timing is the median over a few sweeps of a fixed, seeded operand
set, so the figure is per operation and does not depend on how long
the sweep is.  Run with the tracer uninstalled.
"""

import random
import statistics
import time

from g2points import jacobian, padic
from g2points.curve import (Differential, disc_center, expand_differential,
                             fp_curve_points)
from g2points.jacobian import MumfordDivisor, cantor_add, scalar_mul
from g2points.padic import PadicNumber, PadicPowerSeries
from g2points.polys import PadicDomain

# every prime any workload uses, so each run reports the same metric names
ENUMERATION_PRIMES = (7, 11, 13, 17, 23, 29, 31, 37)

_SWEEPS = 5


def _per_call(fn, operands, min_sweep_s=0.02):
    """Median seconds per fn(*args) over sweeps of the operand list."""
    reps = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(reps):
            for args in operands:
                fn(*args)
        if time.perf_counter() - t0 >= min_sweep_s:
            break
        reps *= 2
    samples = []
    for _ in range(_SWEEPS):
        t0 = time.perf_counter()
        for _ in range(reps):
            for args in operands:
                fn(*args)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples) / (reps * len(operands))


def _once(fn, *args):
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def _random_padic(rng, p, rel):
    return PadicNumber.from_int(rng.randrange(1, p ** rel), p, rel)


def _padic_divisor(D, p, rel):
    dom = PadicDomain(p, rel)
    conv = lambda c: PadicNumber.from_rational(c, p, rel)
    return MumfordDivisor(dom, [conv(c) for c in D.u], [conv(c) for c in D.v])


def measure(cfg):
    C, p, precision = cfg.curve, cfg.chabauty_prime, cfg.precision
    T = padic.TRUNCATION_FACTOR * precision
    rng = random.Random(precision)
    out = {}

    nums = [_random_padic(rng, p, precision) for _ in range(64)]
    pairs = list(zip(nums, nums[1:] + nums[:1]))
    out["padic.add_us"] = _per_call(PadicNumber.__add__, pairs) * 1e6
    out["padic.mul_us"] = _per_call(PadicNumber.__mul__, pairs) * 1e6
    a = PadicPowerSeries(p, [_random_padic(rng, p, precision)
                             for _ in range(T + 1)], 0)
    b = PadicPowerSeries(p, [_random_padic(rng, p, precision)
                             for _ in range(T + 1)], 0)
    out["padic.series_mul_ms"] = statistics.median(
        _once(a.__mul__, b) for _ in range(3)) * 1e3

    for q in ENUMERATION_PRIMES:
        jacobian._enumeration_cache.clear()
        out["jacobian.enumerate_s.q%d" % q] = _once(
            jacobian.enumerate_Fp_jacobian, C, q)
    qmax = max((p,) + tuple(cfg.aux_primes))
    els = jacobian.enumerate_Fp_jacobian(C, qmax).elements
    fq_pairs = [(C, rng.choice(els), rng.choice(els)) for _ in range(64)]
    out["jacobian.cantor_add_fq_us"] = _per_call(cantor_add, fq_pairs) * 1e6

    # small multiples of the generator plus each torsion point: the
    # supports are distinct, so over Q_p no gcd pivots on a p-adic zero
    tors = [D for D, _ in cfg.torsion]
    mults = [scalar_mul(C, s, cfg.generator) for s in (1, 2)]
    q_pairs = [(C, D, E) for D in mults for E in tors]
    out["jacobian.cantor_add_q_us"] = _per_call(cantor_add, q_pairs) * 1e6
    qp_pairs = [(C, _padic_divisor(D, p, precision),
                 _padic_divisor(E, p, precision)) for _, D, E in q_pairs]
    out["jacobian.cantor_add_qp_us"] = _per_call(cantor_add, qp_pairs) * 1e6

    w = Differential(1, 0, p, precision)
    points = fp_curve_points(C, p)
    keys = {"infinity": "infinity",
            "weierstrass": next(k for k in points[1:] if k[1] == 0),
            "affine": next(k for k in points[1:] if k[1] != 0)}
    for kind, key in keys.items():
        center = disc_center(C, key, p, precision)
        out["curve.expand_differential_ms." + kind] = statistics.median(
            _once(expand_differential, C, w, center, p, T, precision)
            for _ in range(3)) * 1e3
    return out
