"""Metamorphic runs: the same certified point set from transformed jobs.

Each job below describes the Flynn curve in a way the program cannot tell
from a fresh input.  A correct certificate must come out `complete` with
the same ten rational points, mapped back to the original model.
"""

import json
import os
from fractions import Fraction

from g2points.cli import parse_config, run_job

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "flynn.json")
with open(FIXTURE, encoding="utf-8") as fh:
    FLYNN_JOB = json.load(fh)

# every rational point of the Flynn curve (naive search to height 1000)
FLYNN_POINTS = frozenset(
    ["infinity"]
    + [(Fraction(x), Fraction(0)) for x in (0, 1, 2, 5, 6)]
    + [(Fraction(3), Fraction(s * 6)) for s in (1, -1)]
    + [(Fraction(10), Fraction(s * 120)) for s in (1, -1)])


def _translate(coeffs, k):
    """Ascending coefficients of c(X + k) by Horner in X + k."""
    out = []
    for c in reversed(coeffs):
        out = [Fraction(0)] + out
        for i in range(len(out) - 1):
            out[i] += k * out[i + 1]
        out[0] += Fraction(c)
    return [int(c) if c.denominator == 1 else str(c) for c in out]


def _translated_divisor(div, k, negate=False):
    v = _translate(div["v_coeffs"], k) if div["v_coeffs"] else []
    return dict(div, u_coeffs=_translate(div["u_coeffs"], k),
                v_coeffs=[-c for c in v] if negate else v)


def _points(job, shift=0):
    rep = run_job(parse_config(json.dumps(job)))
    assert rep.status == "complete", rep.closing
    out = set()
    for rec in rep.result.points:
        P = rec.point
        out.add("infinity" if P.at_infinity else (P.x + shift, P.y))
    assert len(rep.result.points) == len(out)
    return out


def test_other_chabauty_prime():
    job = dict(FLYNN_JOB, chabauty_prime=11, aux_primes=[7, 13, 17, 23])
    assert _points(job) == FLYNN_POINTS


def test_translated_model_and_negated_generator():
    # X = x - 1: the model y^2 = f(X + 1) with generator -gamma; a point
    # (X, y) of the new model is (X + 1, y) on the original one
    job = dict(FLYNN_JOB,
               f_coeffs=_translate(FLYNN_JOB["f_coeffs"], 1),
               generator=_translated_divisor(FLYNN_JOB["generator"], 1,
                                             negate=True),
               torsion=[_translated_divisor(t, 1)
                        for t in FLYNN_JOB["torsion"]])
    assert job["f_coeffs"] == [0, -20, 9, 19, -9, 1]
    assert _points(job, shift=1) == FLYNN_POINTS
