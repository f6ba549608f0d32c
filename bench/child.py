"""One job process: cold set-up, the job, and the same job again.

Takes a request {"mode", "job"} as its one argument.
Prints "ready" once g2points is imported and the job parsed, so the
parent can time set-up from the moment it spawned this interpreter,
then one JSON line with the measurements and the machine reports.

Modes: "setup" stops after "ready"; "job" runs the job untraced and
calibrated (bench/calibrate.py); "trace" runs it under the tracer,
uncalibrated, and then takes kernel micro-timings.
"""

import gc
import json
import os
import resource
import sys
import time

import calibrate

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))


def _timed_job(cli, cfg, cal=None):
    """(wall seconds, CPU seconds, machine report) of one job.

    With a calibrate.Calibration, the probes run during the job and
    their time is left in the returned seconds.
    """
    # start each timed job from a collected heap, so the rerun does not
    # pay for the first job's garbage
    gc.collect()
    if cal is not None:
        cal.start()
    t0, c0 = time.perf_counter(), time.process_time()
    rep = cli.run_job(cfg)
    text = cli.emit_report(rep, "machine")
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    if cal is not None:
        cal.stop()
    return wall, cpu, text


def _calibrated_job(cli, cfg):
    """(wall s, CPU s, speed, report): probe time taken out, see calibrate."""
    cal = calibrate.Calibration()
    wall, cpu, text = _timed_job(cli, cfg, cal)
    return wall - cal.wall_s, cpu - cal.cpu_s, cal.speed(), text


def main():
    request = json.loads(sys.argv[1])
    mode = request["mode"]
    from g2points import cli
    tracer = None
    if mode == "trace":
        import layers
        tracer = layers.install()
    cfg = cli.parse_config(json.dumps(request["job"]))
    print("ready", flush=True)
    if mode == "setup":
        return

    out = {}
    if tracer is not None:
        out["layers"], out["report"], out["rerun_report"] = layers.measure(
            tracer, cfg, _timed_job)
    else:
        wall, cpu, speed, out["report"] = _calibrated_job(cli, cfg)
        out["job_wall_s"], out["job_speed"] = wall, speed
        out["job_s"], out["job_cpu_s"] = wall * speed, cpu * speed
        wall, _, speed, out["rerun_report"] = _calibrated_job(cli, cfg)
        out["rerun_wall_s"], out["rerun_speed"] = wall, speed
        out["rerun_s"] = wall * speed
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out), flush=True)


if __name__ == "__main__":
    main()
