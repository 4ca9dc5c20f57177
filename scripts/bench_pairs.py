"""Run the benchmark of two checkouts in alternating pairs and compare.

    python3 scripts/bench_pairs.py OLD_ROOT NEW_ROOT --out BENCH.json
        [--workload NAME ...] [--pairs N] [--seed S]

OLD_ROOT and NEW_ROOT are checkouts of the repository.  For each workload
(all four of BENCHMARK.json when --workload is omitted) the script runs
each checkout's own `perfbench/run.py --workload NAME` N times, one run of
each per pair, the old one first in even pairs and the new one first in
odd ones, so that a drift of the host's speed falls on both sides alike;
the run length is the benchmark's own default.
It reads the JSON result line each run prints last, and records in
--out, under "<workload> seed <S>", per end-to-end metric each side's
values, median and quartiles, and the number of pairs the new side won
(by the metric's "better" direction in NEW_ROOT's BENCHMARK.json),
together with the operations attempted and failed and whether the checks
passed.  Entries already in --out for other workloads or seeds are kept.

Each metric also gets a verdict by the claim rule of the benchmark's
guide: "gain" when the new side wins at least nine tenths of the pairs
(ties count for neither) and its median is better than the old one's by
more than the old side's quartile spread, "loss" for the same the other
way round, "unresolved" when that spread is at least as wide as the
difference of the medians, and "no claim" otherwise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run(root, workload, seed):
    """The JSON result of one `perfbench/run.py` run of the checkout."""
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed)],
        cwd=root, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"values": values, "median": med, "q1": q1, "q3": q3}


def verdict(old, new, wins, losses, sign):
    """The claim rule's verdict on a metric (see the module docstring)."""
    delta = sign * (new["median"] - old["median"])
    if old["q3"] - old["q1"] >= abs(delta):
        return "unresolved"
    pairs = len(old["values"])
    if delta > 0 and 10 * wins >= 9 * pairs:
        return "gain"
    if delta < 0 and 10 * losses >= 9 * pairs:
        return "loss"
    return "no claim"


def compare(runs, better):
    """Per metric: both sides' summaries, the new side's wins and the
    verdict."""
    out = {}
    for name, direction in better.items():
        old = [r["metrics"][name]["value"] for r in runs["old"]]
        new = [r["metrics"][name]["value"] for r in runs["new"]]
        sign = 1.0 if direction == "higher" else -1.0
        wins = sum(sign * (b - a) > 0 for a, b in zip(old, new))
        losses = sum(sign * (b - a) < 0 for a, b in zip(old, new))
        out[name] = {"better": direction, "old": summary(old),
                     "new": summary(new), "new_wins": wins}
        out[name]["verdict"] = verdict(out[name]["old"], out[name]["new"],
                                       wins, losses, sign)
    for side in ("old", "new"):
        out[f"{side}_operations"] = {
            "attempted": sum(r["attempted"] for r in runs[side]),
            "failed": sum(r["failed"] for r in runs[side]),
            "checks_passed": all(r["correct"] for r in runs[side])}
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old_root")
    ap.add_argument("new_root")
    ap.add_argument("--out", required=True, help="JSON file to write")
    ap.add_argument("--workload", action="append", default=None)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    if args.pairs < 2:
        ap.error("--pairs must be at least 2 for quartiles")
    with open(os.path.join(args.new_root, "BENCHMARK.json"),
              encoding="utf-8") as fh:
        bench = json.load(fh)
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    roots = {"old": args.old_root, "new": args.new_root}
    report = {}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            report = json.load(fh)
    keys = []
    for workload in workloads:
        runs = {"old": [], "new": []}
        for i in range(args.pairs):
            for side in ("old", "new") if i % 2 == 0 else ("new", "old"):
                result = run(roots[side], workload, args.seed)
                runs[side].append(result)
                print(f"{workload} pair {i + 1} {side}: " + ", ".join(
                    f"{k} {v['value']:.6g}"
                    for k, v in result["metrics"].items()), flush=True)
        keys.append(f"{workload} seed {args.seed}")
        report[keys[-1]] = {"pairs": args.pairs, **compare(runs, better)}
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    for key in keys:
        for name in better:
            m = report[key][name]
            print(f"{key:28s} {name:12s} old {m['old']['median']:.6g} "
                  f"[{m['old']['q1']:.6g}, {m['old']['q3']:.6g}]  new "
                  f"{m['new']['median']:.6g} [{m['new']['q1']:.6g}, "
                  f"{m['new']['q3']:.6g}]  new wins {m['new_wins']}/"
                  f"{args.pairs}  {m['verdict']}")


if __name__ == "__main__":
    main()
