"""Workload jobs, seeded metamorphic variants and the output checks.

Every workload is the Flynn curve y^2 = x(x-1)(x-2)(x-5)(x-6) with the
generator (x - 3, 6), the four 2-torsion points and Chabauty prime 7;
they differ in precision and auxiliary primes, which moves the load
between the p-adic layers and J(F_q) enumeration.

A seed picks a variant the program cannot tell from a fresh user job:
the model translated by x -> x + k (applied to f, the generator and the
torsion data) and the sign of the generator.  Translation keeps the
discriminant, so squarefreeness and good reduction are unchanged, and
the certified point set maps back exactly.  Seed 0 is the literal job.

Standard library only: the job process imports g2points, this module
does not.
"""

import json
import os
import random
from fractions import Fraction

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
JOB_FIXTURE = os.path.join(REPO, "tests", "fixtures", "flynn.json")
GOLDEN_REPORT = os.path.join(REPO, "tests", "fixtures", "flynn_report.json")

# name -> (precision, aux primes or None for the fixture's own)
WORKLOADS = {
    "flynn-golden": (20, None),
    "flynn-prec40": (40, None),
    "flynn-wide-aux": (20, (29, 31, 37)),
}

SHIFTS = (-1, 0, 1, 2, 3)

# every rational point of the Flynn curve (naive search to height 1000)
GOLDEN_POINTS = frozenset(
    [("infinity",)]
    + [(Fraction(x), Fraction(0)) for x in (0, 1, 2, 5, 6)]
    + [(Fraction(3), Fraction(s * 6)) for s in (1, -1)]
    + [(Fraction(10), Fraction(s * 120)) for s in (1, -1)])


class Variant:
    """Translation x -> x + shift and the sign of the generator."""

    __slots__ = ("seed", "shift", "negate")

    def __init__(self, seed, shift, negate):
        self.seed = seed
        self.shift = shift
        self.negate = negate

    def as_dict(self):
        return {"seed": self.seed, "shift": self.shift,
                "negate_generator": self.negate}


def variant_for(seed: int) -> Variant:
    if seed == 0:
        return Variant(0, 0, False)
    rng = random.Random(seed)
    return Variant(seed, rng.choice(SHIFTS), rng.random() < 0.5)


def base_job(workload: str) -> dict:
    precision, aux = WORKLOADS[workload]
    with open(JOB_FIXTURE, encoding="utf-8") as fh:
        job = json.load(fh)
    job["precision"] = precision
    if aux is not None:
        job["aux_primes"] = list(aux)
    return job


def _taylor_shift(coeffs, k):
    """Ascending coefficients of c(X + k)."""
    out = [Fraction(0)] * len(coeffs)
    for c in reversed([Fraction(c) for c in coeffs]):
        # out <- out * (X + k) + c, truncated to the original length
        nxt = [Fraction(0)] * len(coeffs)
        for i, a in enumerate(out):
            nxt[i] += a * k
            if i + 1 < len(nxt):
                nxt[i + 1] += a
        nxt[0] += c
        out = nxt
    return out


def _encode(q: Fraction):
    return q.numerator if q.denominator == 1 else str(q)


def _shift_divisor(div, k, negate=False):
    out = dict(div)
    out["u_coeffs"] = [_encode(c) for c in _taylor_shift(div["u_coeffs"], k)]
    v = _taylor_shift(div["v_coeffs"], k) if div["v_coeffs"] else []
    out["v_coeffs"] = [_encode(-c if negate else c) for c in v]
    return out


def make_job(workload: str, variant: Variant) -> dict:
    """The job dict the program sees for this workload and variant."""
    job = base_job(workload)
    k = variant.shift
    job["f_coeffs"] = [int(c) for c in _taylor_shift(job["f_coeffs"], k)]
    job["generator"] = _shift_divisor(job["generator"], k, variant.negate)
    job["torsion"] = [_shift_divisor(t, k) for t in job["torsion"]]
    return job


def map_back(point_json, variant: Variant):
    """A report point in the variant's model, as a point of the original."""
    if point_json == "infinity":
        return ("infinity",)
    return (Fraction(point_json["x"]) + variant.shift,
            Fraction(point_json["y"]))


# -- output checks ------------------------------------------------------------

def canonical_text(report: dict) -> str:
    """The machine report as emitted, without its telemetry block."""
    out = dict(report)
    out.pop("telemetry", None)
    return json.dumps(out, sort_keys=True, indent=2)


def check_report(report: dict, variant: Variant, golden_text=None):
    """Problems with one machine report; an empty list means it passed."""
    problems = []
    if report.get("status") != "complete":
        problems.append("status %r, not complete" % report.get("status"))
    points = set()
    for rec in report.get("points", []):
        points.add(map_back(rec["point"], variant))
    if points != GOLDEN_POINTS:
        problems.append("mapped-back point set differs from the golden 10: "
                        "%d points" % len(points))
    for cert in report.get("disc_certificates", []):
        if cert["zero_count"] != cert["known_count"]:
            problems.append("disc %r: zero_count %d != known_count %d"
                            % (cert["center"], cert["zero_count"],
                               cert["known_count"]))
    if golden_text is not None and canonical_text(report) != golden_text:
        problems.append("report differs from the golden fixture")
    return problems


def golden_text_for(workload: str, variant: Variant):
    """The golden report text when this run must reproduce it, else None."""
    if workload != "flynn-golden" or variant.seed != 0:
        return None
    with open(GOLDEN_REPORT, encoding="utf-8") as fh:
        return fh.read().rstrip("\n")


def cert_digits(report: dict):
    """rel of every nonzero coefficient in point and disc certificates."""
    rels = []
    for rec in report.get("points", []):
        series = rec["certificate"]["series"]
        if series is not None:
            rels.extend(c["rel"] for c in series["coefficients"] if "rel" in c)
    for cert in report.get("disc_certificates", []):
        rels.extend(c["rel"] for c in cert["lambda_coefficients"]
                    if "rel" in c)
    return rels
