"""Job-file driver: validate a curve/generator description, run the sieve,
and emit a replayable certificate report.

The machine report is stable JSON (sorted keys, fixed schema name) so that
two runs of the same job differ at most in the telemetry block.  Every
p-adic coefficient is serialized with its exact known digits; the decoders
at the bottom rebuild the counted series bit for bit.
"""

import argparse
import json
import math
import sys
import time
from fractions import Fraction

from .curve import FP_INFINITY, HyperellipticCurve, is_prime
from .jacobian import MumfordDivisor
from .padic import DEFAULT_PRECISION, PadicNumber, PadicPowerSeries
from .polys import RationalDomain
from .sieve import HYPOTHESES, SieveContext, run as run_sieve

REPORT_SCHEMA = "g2points-report/1"

_HYPOTHESIS_NOTE = ("a complete status asserts the rational point list only "
                    "conditionally on the statements above")


class ConfigError(ValueError):
    """A config rejection that names the offending field."""

    def __init__(self, field: str, problem: str):
        self.field = field
        super().__init__("%s: %s" % (field, problem))


class JobConfig:
    """Validated job inputs; see parse_config for the JSON schema."""

    __slots__ = ("curve", "chabauty_prime", "aux_primes", "generator",
                 "torsion", "search_bound", "precision", "iterations",
                 "precision_escalations")

    def __init__(self, curve, chabauty_prime, aux_primes, generator, torsion,
                 search_bound, precision, iterations, precision_escalations):
        self.curve = curve
        self.chabauty_prime = chabauty_prime
        self.aux_primes = aux_primes
        self.generator = generator
        self.torsion = torsion
        self.search_bound = search_bound
        self.precision = precision
        self.iterations = iterations
        self.precision_escalations = precision_escalations


# -- config parsing -----------------------------------------------------------

_TOP_KEYS = {"f_coeffs", "chabauty_prime", "aux_primes", "generator",
             "torsion", "search_bound", "precision", "budgets", "hypotheses"}


def _strict_int(value, field: str, minimum=None) -> int:
    # bool is an int subclass; keep it out of numeric fields
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(field, "expected an integer")
    if minimum is not None and value < minimum:
        raise ConfigError(field, "must be at least %d" % minimum)
    return value


def _rational(value, field: str) -> Fraction:
    if isinstance(value, bool):
        raise ConfigError(field, 'expected a rational (integer or "a/b")')
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise ConfigError(field, "malformed rational %r" % value)
    raise ConfigError(field, 'expected a rational (integer or "a/b")')


def _rational_list(value, field: str):
    if not isinstance(value, list):
        raise ConfigError(field, "expected a list")
    return [_rational(c, "%s[%d]" % (field, i)) for i, c in enumerate(value)]


def _prime_at_least_3(value, field: str) -> int:
    q = _strict_int(value, field, minimum=2)
    if q == 2:
        raise ConfigError(field, "p = 2 is not supported; use an odd prime")
    if not is_prime(q):
        raise ConfigError(field, "%d is not prime" % q)
    return q


def _divisor(obj, field: str, curve, extra_keys=frozenset()) -> MumfordDivisor:
    if not isinstance(obj, dict):
        raise ConfigError(field, "expected an object with u_coeffs, v_coeffs")
    unknown = set(obj) - {"u_coeffs", "v_coeffs"} - extra_keys
    if unknown:
        raise ConfigError(field, "unknown key %r" % sorted(unknown)[0])
    for key in ("u_coeffs", "v_coeffs"):
        if key not in obj:
            raise ConfigError(field, "missing %s" % key)
    u = _rational_list(obj["u_coeffs"], field + ".u_coeffs")
    v = _rational_list(obj["v_coeffs"], field + ".v_coeffs")
    if not u:
        raise ConfigError(field + ".u_coeffs", "must be nonempty")
    D = MumfordDivisor(RationalDomain(), u, v)
    try:
        D.validate(curve)
    except ValueError as e:
        raise ConfigError(field, str(e))
    return D


def parse_config(text: str, *, precision=None, iterations=None) -> JobConfig:
    """Parse and validate a JSON job description.

    Required keys: f_coeffs (6 integers, ascending, monic quintic),
    chabauty_prime, generator {u_coeffs, v_coeffs}.  Optional:
    aux_primes, torsion [{u_coeffs, v_coeffs, order}], search_bound,
    precision, budgets {iterations, precision_escalations},
    hypotheses {rank_one, simple_jacobian}.  Rational coefficients are
    integers or "a/b" strings.  Every violation names its field.
    precision and iterations, when given, replace the job's precision and
    budgets.iterations and are checked by the same rules.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError("config", "not valid JSON: %s" % e)
    if not isinstance(raw, dict):
        raise ConfigError("config", "top level must be an object")
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise ConfigError("config", "unknown key %r" % sorted(unknown)[0])
    for key in ("f_coeffs", "chabauty_prime", "generator"):
        if key not in raw:
            raise ConfigError("config", "missing required key %r" % key)

    fc = raw["f_coeffs"]
    if not isinstance(fc, list) or len(fc) != 6:
        raise ConfigError("f_coeffs", "expected a list of 6 integers")
    coeffs = [_strict_int(c, "f_coeffs[%d]" % i) for i, c in enumerate(fc)]
    try:
        curve = HyperellipticCurve(coeffs)
    except ValueError as e:
        raise ConfigError("f_coeffs", str(e))

    p = _prime_at_least_3(raw["chabauty_prime"], "chabauty_prime")
    if not curve.good_reduction(p):
        raise ConfigError("chabauty_prime", "curve has bad reduction at %d" % p)

    aux = raw.get("aux_primes", [])
    if not isinstance(aux, list):
        raise ConfigError("aux_primes", "expected a list")
    aux_primes = tuple(_prime_at_least_3(q, "aux_primes[%d]" % i)
                       for i, q in enumerate(aux))

    generator = _divisor(raw["generator"], "generator", curve)

    torsion = []
    tor = raw.get("torsion", [])
    if not isinstance(tor, list):
        raise ConfigError("torsion", "expected a list")
    for i, entry in enumerate(tor):
        field = "torsion[%d]" % i
        D = _divisor(entry, field, curve, extra_keys={"order"})
        if "order" not in entry:
            raise ConfigError(field, "missing order")
        order = _strict_int(entry["order"], field + ".order", minimum=1)
        torsion.append((D, order))

    bound = _strict_int(raw.get("search_bound", 20), "search_bound", minimum=0)
    if precision is None:
        precision = raw.get("precision", DEFAULT_PRECISION)
    precision = _strict_int(precision, "precision", minimum=1)

    budgets = raw.get("budgets", {})
    if not isinstance(budgets, dict):
        raise ConfigError("budgets", "expected an object")
    unknown = set(budgets) - {"iterations", "precision_escalations"}
    if unknown:
        raise ConfigError("budgets", "unknown key %r" % sorted(unknown)[0])
    if iterations is None:
        iterations = budgets.get("iterations", 10)
    iterations = _strict_int(iterations, "budgets.iterations", minimum=0)
    escalations = _strict_int(budgets.get("precision_escalations", 2),
                              "budgets.precision_escalations", minimum=0)

    hyp = raw.get("hypotheses", {})
    if not isinstance(hyp, dict):
        raise ConfigError("hypotheses", "expected an object")
    unknown = set(hyp) - {"rank_one", "simple_jacobian"}
    if unknown:
        raise ConfigError("hypotheses", "unknown key %r" % sorted(unknown)[0])
    for key in ("rank_one", "simple_jacobian"):
        val = hyp.get(key, True)
        if not isinstance(val, bool):
            raise ConfigError("hypotheses." + key, "expected a boolean")
        if not val:
            raise ConfigError(
                "hypotheses." + key,
                "the method applies only under this hypothesis; "
                "declare it true to assert it")

    return JobConfig(curve=curve, chabauty_prime=p, aux_primes=aux_primes,
                     generator=generator, torsion=tuple(torsion),
                     search_bound=bound, precision=precision,
                     iterations=iterations, precision_escalations=escalations)


# -- orchestration ------------------------------------------------------------

class RunReport:
    """Outcome of one job: a sieve result plus config echo and telemetry."""

    __slots__ = ("config", "result", "status", "closing", "diagnostics",
                 "seconds", "aux_primes")

    def __init__(self, config, result, status, closing, diagnostics, seconds,
                 aux_primes):
        self.config = config
        self.result = result
        self.status = status
        self.closing = closing
        self.diagnostics = diagnostics
        self.seconds = seconds
        self.aux_primes = aux_primes


def run_job(cfg: JobConfig) -> RunReport:
    """Run the sieve described by cfg; failures become status "error"
    with diagnostics, never a silent partial answer."""
    t0 = time.monotonic()
    try:
        ctx = SieveContext(cfg.curve, cfg.generator, torsion=cfg.torsion,
                           prime=cfg.chabauty_prime,
                           aux_primes=cfg.aux_primes, bound=cfg.search_bound,
                           rel=cfg.precision, max_iterations=cfg.iterations,
                           max_escalations=cfg.precision_escalations)
        result = run_sieve(ctx)
    except Exception as e:
        return RunReport(cfg, None, "error",
                         "aborted: %s" % (str(e) or type(e).__name__),
                         ["%s: %s" % (type(e).__name__, e)],
                         time.monotonic() - t0, cfg.aux_primes)
    return RunReport(cfg, result, result.status, result.closing, [],
                     time.monotonic() - t0, ctx.aux_primes)


# -- report serialization -----------------------------------------------------

def _coeff_json(c: PadicNumber):
    if c.is_exact_zero():
        return {"zero": "exact"}
    if c.is_zeroish():
        return {"zero_floor": int(c.valuation)}
    return {"v": int(c.valuation), "unit": c.unit_part(),
            "rel": c.rel_precision}


def _tail_json(bound):
    if bound is None:
        return None
    return "inf" if bound == math.inf else int(bound)


def _center_json(center):
    return "infinity" if center == FP_INFINITY else [center[0], center[1]]


def _center_sort_key(center):
    if center == FP_INFINITY:
        return (0, 0, 0)
    return (1, center[0], center[1])


def _series_json(s: PadicPowerSeries) -> dict:
    return {"prime": s.prime,
            "tail_valuation_bound": _tail_json(s.tail_valuation_bound),
            "coefficients": [_coeff_json(c) for c in s.coeffs]}


def _point_json(rec) -> dict:
    P = rec.point
    pt = "infinity" if P.at_infinity else {"x": str(P.x), "y": str(P.y)}
    cert = {"v_w": rec.v_w, "n": rec.n, "zero_count": rec.zero_count,
            "single_point_criterion": rec.criterion,
            "series": None if rec.series is None else _series_json(rec.series)}
    return {"point": pt, "s": rec.s, "torsion_label": list(rec.label),
            "disc": _center_json(rec.disc), "certificate": cert}


def _disc_cert_json(cert) -> dict:
    return {"center": _center_json(cert.center),
            "zero_count": cert.zero_count, "known_count": cert.known_count,
            "n": cert.n, "v_w": cert.v_w, "prime": cert.prime,
            "precision": cert.precision,
            "truncation_order": cert.truncation_order,
            "tail_valuation_bound": _tail_json(cert.tail_valuation_bound),
            "lambda_coefficients": [_coeff_json(c)
                                    for c in cert.lambda_coefficients]}


def _machine_dict(rep: RunReport) -> dict:
    cfg = rep.config
    out = {"schema": REPORT_SCHEMA,
           "status": rep.status,
           "closing": rep.closing,
           "curve": {"f_coeffs": list(cfg.curve.f_coeffs),
                     "discriminant": cfg.curve.disc},
           "chabauty_prime": cfg.chabauty_prime,
           "aux_primes": list(rep.aux_primes),
           # parse_config accepts a job only when both are declared true
           "hypotheses": {"rank_one": True, "simple_jacobian": True,
                          "statements": list(HYPOTHESES),
                          "note": _HYPOTHESIS_NOTE},
           "diagnostics": list(rep.diagnostics),
           "telemetry": {"seconds": round(rep.seconds, 3),
                         "precision": cfg.precision,
                         "escalations":
                             rep.result.escalations if rep.result else 0}}
    r = rep.result
    if r is None:
        out.update({"modulus": None, "level": None, "iterations": 0,
                    "points": [], "disc_certificates": [],
                    "surviving_classes": {"count": None, "sample": []},
                    "sieve_trace": [], "notes": []})
        return out
    certs = sorted(r.disc_certificates.items(),
                   key=lambda kv: _center_sort_key(kv[0]))
    out.update({"modulus": r.N, "level": r.level, "iterations": r.iterations,
                "points": [_point_json(rec) for rec in r.points],
                "disc_certificates": [_disc_cert_json(c) for _, c in certs],
                "surviving_classes": {
                    "count": r.survivor_count,
                    "sample": [[s, list(lab)]
                               for s, lab in r.survivors_sample]},
                "sieve_trace": list(r.trace),
                "notes": list(r.notes)})
    return out


def _poly_str(coeffs) -> str:
    terms = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        mag = abs(c)
        if k == 0:
            body = str(mag)
        elif k == 1:
            body = "x" if mag == 1 else "%d*x" % mag
        else:
            body = "x^%d" % k if mag == 1 else "%d*x^%d" % (mag, k)
        terms.append(("- " if c < 0 else "+ ") + body)
    if not terms:
        return "0"
    head = terms[0][2:] if terms[0].startswith("+ ") else "-" + terms[0][2:]
    return " ".join([head] + terms[1:])


def _disc_str(disc) -> str:
    return "infinity" if disc == FP_INFINITY else "(%d,%d)" % disc


def _human_text(rep: RunReport) -> str:
    cfg = rep.config
    lines = ["status: %s (%s)" % (rep.status, rep.closing),
             "curve: y^2 = %s" % _poly_str(cfg.curve.f_coeffs),
             "chabauty prime %d, auxiliary primes %s"
             % (cfg.chabauty_prime,
                ", ".join(str(q) for q in rep.aux_primes) or "none")]
    for d in rep.diagnostics:
        lines.append("diagnostic: %s" % d)
    r = rep.result
    if r is not None:
        lines.append("modulus %d, depth level %d, %d iteration%s"
                     % (r.N, r.level, r.iterations,
                        "" if r.iterations == 1 else "s"))
        lines.append("points (%d):" % len(r.points))
        lines.append("  %-14s %4s  %-9s %-9s %4s %2s %5s %4s"
                     % ("point", "s", "label", "disc", "v(w)", "n",
                        "zeros", "spc"))
        for rec in r.points:
            P = rec.point
            pt = "infinity" if P.at_infinity else "(%s, %s)" % (P.x, P.y)
            disc = _disc_str(rec.disc)
            label = ",".join(str(t) for t in rec.label)
            spc = {True: "yes", False: "no", None: "-"}[rec.criterion]
            lines.append("  %-14s %4d  %-9s %-9s %4s %2s %5s %4s"
                         % (pt, rec.s, label, disc,
                            "-" if rec.v_w is None else rec.v_w,
                            "-" if rec.n is None else rec.n,
                            "-" if rec.zero_count is None else rec.zero_count,
                            spc))
        resolved = sum(1 for c in r.disc_certificates.values() if c.resolved)
        discs = "residue discs: %d certified, %d resolved" % (
            len(r.disc_certificates), resolved)
        # the deepening names the discs it left without a resolved
        # certificate; a run that never deepened names none
        unresolved = [d for e in r.trace if e["step"] == "deepen"
                      for d in e.get("unresolved_discs", ())]
        if unresolved:
            discs += "; unresolved: %s" % ", ".join(map(_disc_str,
                                                        unresolved))
        lines.append(discs)
        lines.append("surviving classes: %d" % r.survivor_count)
        for s, lab in r.survivors_sample:
            lines.append("  class %d mod %d, torsion label %s"
                         % (s, r.N, ",".join(str(t) for t in lab)))
        for note in r.notes:
            lines.append("note: %s" % note)
    lines.append("hypotheses (a complete status is conditional on these):")
    for h in HYPOTHESES:
        lines.append("  - %s" % h)
    lines.append("time %.3fs at precision %d" % (rep.seconds, cfg.precision))
    return "\n".join(lines)


def emit_report(rep: RunReport, format: str = "human") -> str:
    """Render a report: "machine" is stable sorted-key JSON, "human" a
    summary table.  Identical runs differ only in the telemetry/time."""
    if format == "machine":
        return json.dumps(_machine_dict(rep), sort_keys=True, indent=2)
    if format == "human":
        return _human_text(rep)
    raise ValueError("unknown format %r" % format)


# -- certificate decoding (for replay) ----------------------------------------

def decode_coefficient(obj: dict, p: int) -> PadicNumber:
    """Inverse of the coefficient serialization; exact digits preserved."""
    if "zero" in obj:
        return PadicNumber.exact_zero(p)
    if "zero_floor" in obj:
        return PadicNumber.zeroish(p, int(obj["zero_floor"]))
    c = PadicNumber.from_int(int(obj["unit"]), p, int(obj["rel"]))
    return c.pshift(int(obj["v"]))


def decode_series(obj: dict, coefficients_key: str = "coefficients"
                  ) -> PadicPowerSeries:
    """Rebuild a reported series (a point certificate's "series" block, or a
    disc certificate with coefficients_key="lambda_coefficients")."""
    tail = obj["tail_valuation_bound"]
    if tail is None:
        raise ValueError("certificate series lacks a tail bound")
    p = int(obj["prime"])
    coeffs = [decode_coefficient(c, p) for c in obj[coefficients_key]]
    return PadicPowerSeries(p, coeffs,
                            math.inf if tail == "inf" else int(tail))


# -- entry point ---------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="g2points",
        description="rational points on rank-1 genus-2 curves, with "
                    "certificates")
    sub = ap.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run a JSON job file")
    runp.add_argument("config", help="path to the job file")
    runp.add_argument("--format", choices=("human", "machine"),
                      default="human", help="report format")
    runp.add_argument("--precision", type=int, metavar="N",
                      help="override the working precision")
    runp.add_argument("--max-iter", type=int, metavar="K",
                      help="override the iteration budget")
    args = ap.parse_args(argv)

    try:
        with open(args.config, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        print("cannot read %s: %s" % (args.config, e), file=sys.stderr)
        return 1
    try:
        cfg = parse_config(text, precision=args.precision,
                           iterations=args.max_iter)
    except ConfigError as e:
        print("bad config: %s" % e, file=sys.stderr)
        return 1

    rep = run_job(cfg)
    print(emit_report(rep, args.format))
    for d in rep.diagnostics:
        print(d, file=sys.stderr)
    return {"complete": 0, "inconclusive": 2}.get(rep.status, 1)


if __name__ == "__main__":
    sys.exit(main())
