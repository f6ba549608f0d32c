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

from g2points import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = os.path.join(ROOT, "tests", "fixtures")


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "bench"))
    import child
    import layers
    return child, layers


def test_traced_measurement_of_the_golden_job(bench):
    child, layers = bench
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
