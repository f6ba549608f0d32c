"""The g2points names that the benchmark's trace mode reads.

bench/layers.py wraps stage and layer functions, methods and caches by
name, and bench/kernels.py times the kernels it names; only the traced
benchmark run imports either.  This runs that mode's measurement in
process on the golden job, so a change to src/ that drops or renames one
of those names fails here.
"""

import json
import os

import pytest

from g2points import cli, coleman, jacobian

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = os.path.join(ROOT, "tests", "fixtures")


# work counts of the traced golden job from cold caches, which are
# deterministic; a change that raises one does more work, whatever the
# timings on a noisy machine say
WORK_CEILINGS = {
    "jacobian.cantor_add_calls": 1889,
    "polys.fq_mul_calls": 6689,
    "polys.q_mul_calls": 2091,
    "polys.qp_mul_calls": 393,
    "padic.number_mul_calls": 4730,
    "padic.number_add_calls": 2106,
    "jacobian.scalar_mul_calls": 55,
    "coleman.log_jacobian_calls": 2,
    "curve.disc_center_calls": 20,
}


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "bench"))
    import child
    import layers
    return child, layers


def test_traced_measurement_of_the_golden_job(bench, monkeypatch):
    child, layers = bench
    # a cold job, whatever ran before in this process
    monkeypatch.setattr(jacobian, "_enumeration_cache", {})
    monkeypatch.setattr(coleman, "_DISC_LAMBDA_CACHE", {})
    with open(os.path.join(FIXTURES, "flynn.json"), encoding="utf-8") as fh:
        cfg = cli.parse_config(fh.read())
    tracer = layers.install()
    try:
        metrics, text, rerun_text = layers.measure(tracer, cfg,
                                                   child._timed_job)
    finally:
        tracer.uninstall()
    with open(os.path.join(FIXTURES, "flynn_report.json"),
              encoding="utf-8") as fh:
        golden = fh.read()
    for out in (text, rerun_text):
        report = json.loads(out)
        report.pop("telemetry")
        assert json.dumps(report, sort_keys=True, indent=2) + "\n" == golden
    assert metrics["jacobian.cantor_add_calls"] > 0
    assert metrics["padic.series_mul_ms"] > 0
    for name, ceiling in WORK_CEILINGS.items():
        assert metrics[name] <= ceiling, (name, metrics[name])
