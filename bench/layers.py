"""The traced pass: which g2points functions get spans and counters, and
the per-layer metrics read from them.

Stage spans (cli.*, sieve.*) report inclusive time; they must cover the
job.  The spans of lower-layer functions (jacobian.*, coleman.*,
curve.*, padic.*) report self time: their span minus the traced spans
beneath it, so that layers do not count each other's work twice.
"""

import json
import math

import g2points
from g2points import cli, coleman, curve, jacobian, oracle, padic, polys, sieve

import kernels
from tracer import Tracer, totals

MODULES = (g2points, cli, coleman, curve, jacobian, oracle, padic, polys,
           sieve)

STAGES = (
    (cli, "parse_config", "cli.parse_config"),
    (cli, "run_job", "cli.run_job"),
    (cli, "emit_report", "cli.emit_report"),
    (sieve, "initial_state", "sieve.initial_state"),
    (sieve, "build_images", "sieve.build_images"),
    (sieve, "sieve_pass", "sieve.pass"),
    (sieve, "search_points", "sieve.search"),
    (sieve, "deepen", "sieve.deepen"),
)

LAYER_FUNCTIONS = (
    (jacobian, "enumerate_Fp_jacobian", "jacobian.enumerate"),
    (jacobian, "scalar_mul", "jacobian.scalar_mul"),
    (jacobian, "reduce_divisor", "jacobian.reduce_divisor"),
    (coleman, "log_jacobian", "coleman.log_jacobian"),
    (coleman, "disc_zero_count", "coleman.disc_zero_count"),
    (coleman, "point_anchored_series", "coleman.point_anchored_series"),
    (coleman, "transversality_certificate", "coleman.transversality"),
    (curve, "expand_differential", "curve.expand_differential"),
    (curve, "disc_center", "curve.disc_center"),
    (padic, "strassmann_count", "padic.strassmann_count"),
)

COUNTED_FUNCTIONS = (
    (jacobian, "cantor_add", "jacobian.cantor_add_calls"),
)

COUNTED_METHODS = (
    (padic.PadicNumber, ("__add__", "__radd__"), "padic.number_add_calls"),
    (padic.PadicNumber, ("__mul__", "__rmul__"), "padic.number_mul_calls"),
    (polys.PrimeFieldDomain, ("mul",), "polys.fq_mul_calls"),
    (polys.PrimeFieldDomain, ("add",), "polys.fq_add_calls"),
    (polys.RationalDomain, ("mul",), "polys.q_mul_calls"),
    (polys.PadicDomain, ("mul",), "polys.qp_mul_calls"),
)

# the sieve stages that make up a job; their spans must cover it
JOB_STAGES = ("sieve.context", "sieve.initial_state", "sieve.pass",
              "sieve.search", "sieve.deepen")


def install() -> Tracer:
    tr = Tracer()
    for mod, attr, name in STAGES + LAYER_FUNCTIONS:
        fn = getattr(mod, attr)
        tr.patch(MODULES, fn, tr.span(name, fn))
    # run_job builds the context through its own module's name
    tr.patch_attr(cli, "SieveContext",
                  tr.span("sieve.context", cli.SieveContext))
    for mod, attr, name in COUNTED_FUNCTIONS:
        fn = getattr(mod, attr)
        tr.patch(MODULES, fn, tr.counter(name, fn))
    for cls, attrs, name in COUNTED_METHODS:
        for attr in attrs:
            tr.patch_attr(cls, attr, tr.counter(name, getattr(cls, attr)))
    return tr


def _sieve_counts(report, job_torsion_orders):
    trace = report["sieve_trace"]
    n0 = math.lcm(*(e["exponent"] for e in trace if e["step"] == "images"))
    classes = n0 * math.prod(job_torsion_orders)
    after = classes
    for e in trace:
        if e["step"] == "search":
            break
        if e["step"] == "sieve_pass":
            after = e["survivors"]
    return {"sieve.classes_initial": classes,
            "sieve.survivors_after_passes": after,
            "sieve.pass_keep_ratio": after / classes,
            "sieve.iterations": report["iterations"],
            "sieve.escalations": report["telemetry"]["escalations"],
            "sieve.modulus_N": report["modulus"]}


def measure(tracer, cfg, timed_job):
    """Traced job, traced rerun, then kernel timings with tracing off.
    Returns the metrics and the two machine reports."""
    mark = len(tracer.spans)
    before = dict(tracer.counts)
    enum_cache = jacobian._enumeration_cache
    n0 = len(enum_cache)
    job_s, _, text = timed_job(cli, cfg)
    misses = len(enum_cache) - n0
    lambda_entries = len(coleman._DISC_LAMBDA_CACHE)
    stop = len(tracer.spans)
    counts = {k: v - before.get(k, 0) for k, v in tracer.counts.items()}
    parse = totals(tracer.spans, 0, mark).get("cli.parse_config", (0.0, 0.0))
    n1 = len(enum_cache)
    rerun_s, _, rerun_text = timed_job(cli, cfg)
    rerun_misses = len(enum_cache) - n1
    tracer.uninstall()

    spans = totals(tracer.spans, mark, stop)
    inc = {k: v[0] for k, v in spans.items()}
    own = {k: v[1] for k, v in spans.items()}
    stage_s = sum(inc.get(k, 0.0) for k in JOB_STAGES)
    report = json.loads(text)
    out = {
        "cli.parse_config_s": parse[0],
        "cli.emit_report_s": inc["cli.emit_report"],
        "cli.report_bytes": len(text.encode()),
        "trace.job_s": job_s,
        "trace.rerun_s": rerun_s,
        "trace.stage_coverage": stage_s / job_s,
        "jacobian.enumerate_misses": misses,
        "jacobian.enumerate_misses_rerun": rerun_misses,
        "coleman.lambda_cache_entries": lambda_entries,
    }
    for name in ("sieve.context", "sieve.initial_state", "sieve.build_images",
                 "sieve.pass", "sieve.search", "sieve.deepen"):
        out[name + "_s"] = inc.get(name, 0.0)
    for _, _, name in LAYER_FUNCTIONS:
        out[name + "_s"] = own.get(name, 0.0)
        out[name + "_calls"] = counts.get(name + "_calls", 0)
    for _, _, name in COUNTED_FUNCTIONS + COUNTED_METHODS:
        out[name] = counts.get(name, 0)
    out.update(_sieve_counts(report, [o for _, o in cfg.torsion]))
    out.update(kernels.measure(cfg))
    return out, text, rerun_text
