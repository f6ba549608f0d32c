"""Time-to-certificate benchmark for g2points.

    python3 bench/run.py --workload flynn-golden --seed 0 --seconds 50 \
        --trace 0

Closed loop, one client: each job runs in a fresh interpreter, so module
caches start cold as they do for a `g2points run` user, and the next job
starts only when the previous one has ended.  The job text goes through
cli.parse_config -> cli.run_job -> cli.emit_report(..., "machine").

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of one traced job process,
plus the tracing overhead against one untraced job.  Every report is
checked; a failed check counts the repetition as failed.

Timings are reported in reference seconds, corrected for the speed of
the shared machine while each job ran and each set-up was timed
(bench/calibrate.py); the line before the result line records the raw
wall times and speeds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import calibrate
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
PACKAGE = os.path.join(workloads.REPO, "src", "g2points")

# set-up is short and noisy: time it in this many extra processes per
# run, each next to one reference process
SETUP_SAMPLES = 15
# every process this run starts must end before this many seconds
RUN_DEADLINE_S = 170.0


class SetupError(RuntimeError):
    """The program could not be imported or the job did not parse."""


def unit_of(name: str) -> str:
    # "layer.metric_unit[.qualifier]": the unit rides on the middle part
    stem = name.split(".")[1] if "." in name else name
    for suffix, unit in (("_s", "s"), ("_ms", "ms"), ("_us", "us"),
                         ("_mb", "MB"), ("_bytes", "bytes"),
                         ("_frac", "ratio"), ("_ratio", "ratio"),
                         ("_coverage", "ratio")):
        if stem.endswith(suffix):
            return unit
    if stem.startswith("cert_digits"):
        return "digits"
    return "count"


def launch(argv, deadline):
    """Run a process to its end.

    (seconds until its first line, first line, rest of stdout, stderr,
    exit code), or None if it was killed at the deadline.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, cwd=workloads.REPO,
                            text=True)
    try:
        first = proc.stdout.readline()
        ready_s = time.perf_counter() - t0
        rest, err = proc.communicate(
            timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return ready_s, first, rest, err, proc.returncode


def spawn(mode, job, deadline):
    """Run one job process; (setup seconds, result dict or None, stderr)."""
    out = launch([sys.executable, CHILD,
                  json.dumps({"mode": mode, "job": job})], deadline)
    if out is None:
        return None, None, "job process killed at the run deadline"
    setup_s, first, rest, err, code = out
    if first.strip() != "ready":
        raise SetupError(err.strip() or "job process ended before set-up")
    if code != 0 or not rest.strip():
        return setup_s, None, err.strip()
    return setup_s, json.loads(rest.strip().splitlines()[-1]), err


def reference_process_s(deadline):
    """Seconds from spawn to "ready" of calibrate.REFERENCE_PROCESS."""
    out = launch([sys.executable, "-c", calibrate.REFERENCE_PROCESS],
                 deadline)
    if out is None or out[1].strip() != "ready":
        raise SetupError("the reference process failed")
    return out[0]


def check(result, variant, golden_text):
    if result is None:
        return ["no result"]
    first = json.loads(result["report"])
    problems = workloads.check_report(first, variant, golden_text)
    if workloads.canonical_text(json.loads(result["rerun_report"])) \
            != workloads.canonical_text(first):
        problems.append("rerun report differs from the first report")
    return problems


def end_to_end(args, variant, job, golden_text):
    start = time.perf_counter()
    deadline = start + RUN_DEADLINE_S
    setups, references = [], []
    for _ in range(SETUP_SAMPLES):
        setups.append(spawn("setup", job, deadline)[0])
        references.append(reference_process_s(deadline))
    results, failed, durations = [], 0, []
    # start another repetition while at least half of one still fits in
    # the window; a repetition that has started runs to its end
    while not durations or (time.perf_counter() - start
                            + statistics.median(durations) / 2
                            <= args.seconds):
        t0 = time.perf_counter()
        _, result, err = spawn("job", job, deadline)
        durations.append(time.perf_counter() - t0)
        attempted = len(durations)
        problems = check(result, variant, golden_text)
        if problems:
            failed += 1
            print("repetition %d failed: %s %s"
                  % (attempted, "; ".join(problems), err), file=sys.stderr)
        if result is not None:
            results.append(result)
    med = lambda key: statistics.median(r[key] for r in results) \
        if results else 0.0
    digits = workloads.cert_digits(json.loads(results[0]["report"])) \
        if results else [0]
    raw = {key: med(key) for key in ("job_wall_s", "job_speed",
                                      "rerun_wall_s", "rerun_speed")}
    raw["setup_wall_s"] = statistics.median(setups)
    raw["reference_process_s"] = statistics.median(references)
    metrics = {
        "setup_s": raw["setup_wall_s"] * calibrate.REFERENCE_PROCESS_S
        / raw["reference_process_s"],
        "job_s": med("job_s"),
        "job_cpu_s": med("job_cpu_s"),
        "rerun_s": med("rerun_s"),
        "peak_rss_mb": med("peak_rss_mb"),
        "cert_digits_min": min(digits),
        "cert_digits_median": statistics.median(digits),
        "pass_frac": (attempted - failed) / attempted,
    }
    return attempted, failed, metrics, raw


def traced(args, variant, job, golden_text):
    deadline = time.perf_counter() + RUN_DEADLINE_S
    failed = 0
    runs = {}
    for mode in ("job", "trace"):
        _, result, err = spawn(mode, job, deadline)
        problems = check(result, variant, golden_text)
        if problems:
            failed += 1
            print("%s process failed: %s %s"
                  % (mode, "; ".join(problems), err), file=sys.stderr)
        runs[mode] = result
    if runs["trace"] is None or runs["job"] is None:
        return 2, failed, {}, {}
    metrics = dict(runs["trace"]["layers"])
    metrics["trace.peak_rss_mb"] = runs["trace"]["peak_rss_mb"]
    metrics["trace.overhead_frac"] = (metrics["trace.job_s"]
                                      / runs["job"]["job_wall_s"] - 1.0)
    return 2, failed, metrics, {}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isdir(PACKAGE) or not os.path.isfile(workloads.JOB_FIXTURE):
        print("g2points sources or the Flynn job fixture are missing; run "
              "from a checkout of the repository", file=sys.stderr)
        return 2
    variant = workloads.variant_for(args.seed)
    job = workloads.make_job(args.workload, variant)
    golden_text = workloads.golden_text_for(args.workload, variant)
    measure = traced if args.trace else end_to_end
    try:
        attempted, failed, values, raw = measure(args, variant, job,
                                                 golden_text)
    except SetupError as e:
        print("set-up failed: %s" % e, file=sys.stderr)
        return 2
    print(json.dumps({"workload": args.workload,
                      "variant": variant.as_dict(), "job": job,
                      "raw_medians": raw}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in sorted(values.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
