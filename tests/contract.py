"""The soundness contract: a `complete` run lists every small point.

A `complete` status claims that the reported points are all of C(Q).
`oracle.naive_rational_points` finds the points of height at most
HEIGHT by exact integer arithmetic, apart from the sieve and the p-adic
certificates, so a `complete` run that misses one of them is unsound.
A wrong excision shows only on a job whose points are hidden from its
search, so the contract is checked on inconclusive runs too: if such a
run ever turns `complete`, it must still list every naive point.
"""

from fractions import Fraction

from g2points.curve import HyperellipticCurve
from g2points.oracle import naive_rational_points

HEIGHT = 150

_NAIVE = {}


def naive_points(f_coeffs):
    """The naive points of y^2 = f(x) up to HEIGHT, as "infinity" or
    (x, y); searched once per curve."""
    key = tuple(f_coeffs)
    if key not in _NAIVE:
        C = HyperellipticCurve(list(key))
        _NAIVE[key] = frozenset(point_keys(naive_rational_points(C, HEIGHT)))
    return _NAIVE[key]


def point_keys(points, shift=0):
    """"infinity" or (x + shift, y) for each CurvePoint: a point of the
    model y^2 = f(X + shift) read back on y^2 = f(x)."""
    return {"infinity" if P.at_infinity else (P.x + shift, P.y)
            for P in points}


def report_point_keys(report):
    """The point keys of a machine report's "points" list."""
    return {"infinity" if e["point"] == "infinity"
            else (Fraction(e["point"]["x"]), Fraction(e["point"]["y"]))
            for e in report["points"]}


def assert_lists_naive_points(f_coeffs, status, keys):
    """A `complete` status lists every naive point of y^2 = f(x); keys are
    the reported points on that model."""
    if status != "complete":
        return
    missing = naive_points(f_coeffs) - set(keys)
    assert not missing, "complete, but missing %s" % sorted(map(str, missing))
