"""Run one benchmark workload in this process and print its result.

Started by run.py with numpy's BLAS pinned to one thread and PYTHONPATH
set to the checkout's src/.  The last line of standard output is the JSON
result object; the lines before it are a human-readable summary.
"""

import time

T_START = time.perf_counter()   # set-up time counts from here, imports included

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import numpy  # noqa: E402,F401

import oracle  # noqa: E402
import tracer  # noqa: E402
import visnav  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 3
IMU_RATE = 200.0
TICK_PERIOD = 0.2       # s of wall time between samples of the host speed
TICK_NOMINAL = 0.005    # s the sampling kernel takes at nominal speed
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


class HostSpeed:
    """Times operations in seconds of a host running at nominal speed.

    The speed of the shared host drifts by up to a third within tens of
    seconds, and wall time moves with it.  While an operation runs, a
    SIGALRM timer interrupts it every TICK_PERIOD s of wall time to run a
    fixed kernel: 100 Magnus steps of the benchmark's own attitude
    integration, the same mix of Python calls and 3x3 numpy work as the
    program's inner loops.  The kernel's time is taken out of the
    operation's wall time, and the rest is scaled by the mean relative
    speed TICK_NOMINAL / (kernel time) of the samples, one more of which is
    taken just before and just after the operation.
    """

    def __init__(self):
        self.samples = []

    def tick(self, *_):
        t0 = time.perf_counter()
        oracle.attitude([0.05], h_max=1.0 / 2000.0)
        self.samples.append(time.perf_counter() - t0)

    def time(self, fn):
        """(fn(), scaled seconds, wall seconds, relative host speed)."""
        self.samples = []
        self.tick()
        old = signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_PERIOD, TICK_PERIOD)
        t0 = time.perf_counter()
        try:
            out = fn()
        finally:
            t1 = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, old)
        wall = t1 - t0 - sum(self.samples[1:])
        self.tick()
        speed = statistics.fmean(TICK_NOMINAL / s for s in self.samples)
        return out, wall * speed, wall, speed


def run_round(wl, clock):
    """All timed operations of one round, then their output checks.

    Returns (attempted, failed, problems, scaled seconds, simulated
    seconds, wall seconds).
    """
    attempted = failed = 0
    scaled = wall = sim_s = 0.0
    results = []
    for mode, op in wl.ops():
        attempted += 1
        try:
            out, op_scaled, op_wall, _ = clock.time(op)
        except Exception:   # a failed operation is counted, not fatal
            failed += 1
            traceback.print_exc()
            continue
        scaled += op_scaled
        wall += op_wall
        sim_s += wl.duration
        results.append((mode, out))
    problems = []
    for mode, out in results:
        try:
            wl.check(mode, out)
        except workloads.CheckFailed as exc:
            problems.append(f"{wl.name}/{mode}: {exc}")
    return attempted, failed, problems, scaled, sim_s, wall


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", required=True, help="directory for run outputs")
    args = ap.parse_args()
    import_s = time.perf_counter() - T_START

    if not os.path.realpath(visnav.__file__).startswith(
            os.path.realpath(SRC) + os.sep):
        sys.exit(f"visnav imported from {visnav.__file__}, not from {SRC}")

    workdir = os.path.join(args.out, f"{args.workload}-{args.seed}-"
                                     f"{os.getpid()}")
    os.makedirs(workdir)
    try:
        result = measure(args, workdir, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    m = result["metrics"]
    print(f"{args.workload} seed {args.seed}: " + ", ".join(
        f"{k} {v['value']:.6g} {v['unit']}" for k, v in m.items()))
    print(f"attempted {result['attempted']}, failed {result['failed']}, "
          f"checks {'passed' if result['correct'] else 'FAILED'}")
    print(json.dumps(result))


def measure(args, workdir, import_s):
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    clock = HostSpeed()
    clock.tick()        # warm-up: the first call pays one-time numpy costs
    setups, speeds = [], []
    for _ in range(SETUP_REPEATS):
        _, scaled, _, speed = clock.time(wl.setup)
        setups.append(scaled)
        speeds.append(speed)
    setup_s = import_s * statistics.fmean(speeds) + statistics.median(setups)

    attempted = failed = 0
    problems = []
    rtfs, wall_rtfs = [], []
    t_begin = time.perf_counter()
    while True:
        a, f, p, scaled, sim_s, wall = run_round(wl, clock)
        attempted, failed = attempted + a, failed + f
        problems += p
        if scaled > 0.0:
            rtfs.append(sim_s / scaled)
            wall_rtfs.append(sim_s / wall)
        if args.trace or time.perf_counter() - t_begin >= args.seconds:
            break
    rtf = statistics.median(rtfs) if rtfs else 0.0
    if wall_rtfs:
        print(f"unscaled: rtf {statistics.median(wall_rtfs):.6g} s/s over "
              f"{len(wall_rtfs)} rounds; host speed during set-up "
              f"{min(speeds):.3f}-{max(speeds):.3f} of nominal")

    if args.trace:
        tr = tracer.Tracer()
        tracer.install(tr)
        try:
            wl.setup()
            a, f, p, scaled, sim_s, _ = run_round(wl, clock)
        finally:
            tr.restore()
        attempted, failed = attempted + a, failed + f
        problems += p
        metrics = tracer.layer_metrics(tr, n_imu_steps=round(sim_s * IMU_RATE),
                                       n_windows=wl.n_windows)
        rtf_traced = sim_s / scaled if scaled > 0.0 else 0.0
        metrics["trace.rtf_untraced"] = {"value": rtf, "unit": "s/s"}
        metrics["trace.rtf_traced"] = {"value": rtf_traced, "unit": "s/s"}
        metrics["trace.overhead_pct"] = {
            "value": 100.0 * (rtf / rtf_traced - 1.0) if rtf_traced else 0.0,
            "unit": "%"}
        path = os.path.join(args.out, f"trace-{args.workload}-"
                                      f"seed{args.seed}.csv.gz")
        tr.write(path)
        print(f"{len(tr.spans)} spans written to {path}")
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "rtf": {"value": rtf, "unit": "s/s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
        }
    for line in problems:
        print("check failed:", line)
    return {"correct": not problems, "attempted": attempted,
            "failed": failed, "metrics": metrics}


if __name__ == "__main__":
    main()
