"""Self-tests of the benchmark: span arithmetic, metric names, the speed
calibration, the seeded variants and a fast smoke run through the output
checks.

    python3 -m unittest discover -s bench -p 'test_*.py'
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, self_times, totals  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
SPEC = os.path.join(workloads.REPO, "BENCHMARK.json")


def _load_spec():
    with open(SPEC, encoding="utf-8") as fh:
        return json.load(fh)


class SpanArithmetic(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        spans = [["root", 0.0, 10.0, -1],
                 ["a", 1.0, 4.0, 0],
                 ["b", 5.0, 9.0, 0],
                 ["c", 6.0, 7.0, 2]]
        self.assertEqual(self_times(spans), [3.0, 3.0, 3.0, 1.0])

    def test_overlapping_children_counted_once(self):
        spans = [["root", 0.0, 10.0, -1],
                 ["a", 1.0, 5.0, 0],
                 ["b", 4.0, 6.0, 0]]
        self.assertEqual(self_times(spans)[0], 5.0)

    def test_totals_sum_by_name_over_a_slice(self):
        spans = [["x", 0.0, 1.0, -1],
                 ["root", 2.0, 10.0, -1],
                 ["leaf", 3.0, 4.0, 1],
                 ["leaf", 5.0, 7.0, 1]]
        got = totals(spans, 1)
        self.assertEqual(got["leaf"], (3.0, 3.0))
        self.assertEqual(got["root"], (8.0, 5.0))
        self.assertNotIn("x", got)

    def test_wrappers_nest_and_skip_recursion(self):
        tr = Tracer()

        def inner(n):
            return n if n == 0 else traced_inner(n - 1)

        traced_inner = tr.span("inner", inner)
        traced_outer = tr.span("outer", lambda: traced_inner(3))
        traced_outer()
        self.assertEqual([s[0] for s in tr.spans], ["outer", "inner"])
        self.assertEqual(tr.spans[1][3], 0)
        self.assertEqual(tr.counts["inner_calls"], 4)
        own = self_times(tr.spans)
        whole = tr.spans[0][2] - tr.spans[0][1]
        self.assertAlmostEqual(sum(own), whole, places=9)


class MetricNames(unittest.TestCase):
    def test_spec_names_and_units(self):
        spec = _load_spec()
        seen = set()
        for kind in ("end_to_end", "per_layer"):
            for m in spec[kind]:
                self.assertRegex(m["name"], NAME)
                self.assertRegex(m["unit"], UNIT)
                self.assertEqual(m["unit"], run.unit_of(m["name"]), m["name"])
                self.assertNotIn(m["name"], seen)
                seen.add(m["name"])
        for w in spec["workloads"]:
            self.assertIn(w["name"], workloads.WORKLOADS)


def _poly_mod_gcd_is_one(f, q):
    """gcd(f mod q, f' mod q) == 1 over F_q (f monic, ascending ints)."""
    def trim(a):
        a = [c % q for c in a]
        while a and a[-1] == 0:
            a.pop()
        return a

    a = trim(f)
    b = trim([i * c for i, c in enumerate(f)][1:])
    while b:
        inv = pow(b[-1], -1, q)
        while len(a) >= len(b):
            k = a[-1] * inv % q
            shift = len(a) - len(b)
            for i, c in enumerate(b):
                a[i + shift] = (a[i + shift] - k * c) % q
            a = trim(a)
        a, b = b, a
    return len(a) == 1


def _poly_eval(coeffs, x):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + Fraction(c)
    return acc


class Variants(unittest.TestCase):
    def test_seed_zero_is_the_literal_job(self):
        for name in workloads.WORKLOADS:
            job = workloads.make_job(name, workloads.variant_for(0))
            self.assertEqual(job, workloads.base_job(name))

    def test_seed_is_deterministic(self):
        a, b = workloads.variant_for(7), workloads.variant_for(7)
        self.assertEqual(a.as_dict(), b.as_dict())

    def test_every_variant_is_a_valid_job(self):
        for name in workloads.WORKLOADS:
            for shift in workloads.SHIFTS:
                for negate in (False, True):
                    v = workloads.Variant(1, shift, negate)
                    self._check_variant(workloads.make_job(name, v), v)

    def _check_variant(self, job, v):
        f = job["f_coeffs"]
        self.assertEqual(f[5], 1, "monic")
        # f monic and squarefree mod q implies f squarefree over Q
        for q in [job["chabauty_prime"]] + job["aux_primes"]:
            self.assertTrue(_poly_mod_gcd_is_one(f, q), "good at %d" % q)
        divisors = [job["generator"]] + job["torsion"]
        for d in divisors:
            u = [Fraction(c) for c in d["u_coeffs"]]
            root = -u[0]  # every divisor here is (x - a, b)
            self.assertEqual(len(u), 2)
            y = Fraction(d["v_coeffs"][0]) if d["v_coeffs"] else Fraction(0)
            self.assertEqual(y * y, _poly_eval(f, root))
        for pt in workloads.GOLDEN_POINTS:
            if pt == ("infinity",):
                continue
            x, y = pt[0] - v.shift, pt[1]
            self.assertEqual(y * y, _poly_eval(f, x))
            mapped = workloads.map_back({"x": str(x), "y": str(y)}, v)
            self.assertEqual(mapped, pt)


class OutputChecks(unittest.TestCase):
    def setUp(self):
        with open(workloads.GOLDEN_REPORT, encoding="utf-8") as fh:
            self.report = json.load(fh)
        self.v0 = workloads.variant_for(0)
        self.golden = workloads.golden_text_for("flynn-golden", self.v0)

    def test_golden_report_passes(self):
        self.assertEqual(
            workloads.check_report(self.report, self.v0, self.golden), [])

    def test_tampered_reports_fail(self):
        r = json.loads(json.dumps(self.report))
        r["points"].pop()
        self.assertTrue(workloads.check_report(r, self.v0, None))
        r = json.loads(json.dumps(self.report))
        r["disc_certificates"][0]["zero_count"] += 1
        self.assertTrue(workloads.check_report(r, self.v0, None))
        r = json.loads(json.dumps(self.report))
        r["status"] = "inconclusive"
        self.assertTrue(workloads.check_report(r, self.v0, None))
        r = json.loads(json.dumps(self.report))
        r["disc_certificates"][0]["lambda_coefficients"][1]["rel"] -= 1
        self.assertEqual(workloads.check_report(r, self.v0, None), [])
        self.assertTrue(workloads.check_report(r, self.v0, self.golden))

    def test_shifted_points_map_back(self):
        v = workloads.Variant(1, 2, True)
        r = json.loads(json.dumps(self.report))
        for rec in r["points"]:
            if rec["point"] != "infinity":
                rec["point"]["x"] = str(Fraction(rec["point"]["x"]) - 2)
        self.assertEqual(workloads.check_report(r, v, None), [])
        self.assertTrue(workloads.check_report(r, self.v0, None))

    def test_cert_digits_read_every_nonzero_coefficient(self):
        digits = workloads.cert_digits(self.report)
        self.assertTrue(digits)
        self.assertTrue(all(1 <= d <= 20 for d in digits))


class Calibration(unittest.TestCase):
    def test_speed_trims_preempted_samples(self):
        cal = calibrate.Calibration()
        cal.samples = [calibrate.REFERENCE_S * 2] * 8 + [1.0, 1e-9]
        self.assertAlmostEqual(cal.speed(), 0.5)

    def test_probes_run_while_a_job_runs(self):
        cal = calibrate.Calibration()
        cal.start()
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 4 * calibrate.INTERVAL_S:
            pass
        cal.stop()
        self.assertGreaterEqual(len(cal.samples), 2)
        self.assertAlmostEqual(cal.wall_s, sum(cal.samples), places=9)
        self.assertGreater(cal.speed(), 0)

    def test_short_job_gets_one_probe_after_it(self):
        cal = calibrate.Calibration()
        cal.start()
        cal.stop()
        self.assertEqual((len(cal.samples), cal.wall_s), (1, 0.0))


class SmokeRun(unittest.TestCase):
    def _run(self, cwd, *extra):
        return subprocess.run(
            [sys.executable, os.path.join("bench", "run.py"),
             "--workload", "flynn-golden", "--seed", "0", "--seconds", "0",
             "--trace", "0"] + list(extra),
            cwd=cwd, capture_output=True, text=True, timeout=170)

    def test_one_repetition_passes_every_check(self):
        proc = self._run(workloads.REPO)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual((result["attempted"], result["failed"]), (1, 0))
        expected = {m["name"] for m in _load_spec()["end_to_end"]}
        self.assertEqual(set(result["metrics"]), expected)
        for value in result["metrics"].values():
            self.assertGreater(value["value"], 0)

    def test_refuses_to_run_without_the_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(HERE, os.path.join(tmp, "bench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(SPEC, tmp)
            proc = self._run(tmp)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
