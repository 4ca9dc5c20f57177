"""Real-time-factor benchmark of visnav.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S]
                             [--trace 0|1]

Runs each selected workload (all four when --workload is omitted) in its
own single-threaded Python process with numpy's BLAS pinned to one thread,
and prints every metric by name and unit, the operations attempted and
failed, and whether the output checks passed.  The last line of standard
output is the JSON result of the last workload.  With --trace 1 the
process runs one traced round and reports the per-layer metrics instead of
the end-to-end ones.  See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, "perfbench-out")
WORKLOADS = ("sim-continuous", "dataset-continuous", "dataset-hybrid",
             "analyze")
CHILD_TIMEOUT_S = 170
ONE_THREAD = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                     "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                                     "VECLIB_MAXIMUM_THREADS")}


def run_workload(name, args):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               PYTHONHASHSEED="0", **ONE_THREAD)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", name, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", OUT]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {name} did not finish in {CHILD_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        sys.exit(f"perfbench: {name} exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, default=None,
                    help="run one workload (default: all four in turn)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="minimum measured time per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "visnav", "__init__.py")):
        sys.exit(f"perfbench: no visnav sources under {ROOT}/src")
    os.makedirs(OUT, exist_ok=True)
    names = WORKLOADS if args.workload is None else (args.workload,)
    results = [run_workload(name, args) for name in names]
    for result in results:
        print(json.dumps(result))


if __name__ == "__main__":
    main()
