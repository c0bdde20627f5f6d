#!/usr/bin/env python3
"""Steadiness report: runs workloads repeatedly and prints, for every
end-to-end metric, the median, the quartiles and the relative spread
(inter-quartile range over the median), flagging any spread above the
metric's bound in BENCHMARK.json.

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1 | --seed N]
        [--workload NAME ...] [--json OUT] [--compare OLD.json]

Each run uses another seed (first-seed, first-seed + 1, ...), or, with
--seed, the same seed every time. Running the script twice on the same
code and comparing the medians shows whether two sets of runs agree; pass
--compare OLD.json to print the shift of each median against a saved
report and flag a shift for the worse beyond the bound. Exits 1 when a
run fails, a spread exceeds its bound, or a median shifts beyond it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d failed (exit %d)" %
                           (workload, seed, proc.returncode))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        raise RuntimeError("%s seed %d: incorrect output or failures" %
                           (workload, seed))
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seed", type=int,
                        help="run every repetition with this seed")
    parser.add_argument("--workload", action="append")
    parser.add_argument("--json", help="write medians and spreads here")
    parser.add_argument("--compare", help="earlier --json report")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    lower_better = {m["name"]: m["better"] == "lower"
                    for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    previous = {}
    if args.compare:
        with open(args.compare) as f:
            previous = json.load(f)

    report = {}
    ok = True
    for wl in workloads:
        samples = {}
        seeds = ([args.seed] * args.runs if args.seed is not None else
                 list(range(args.first_seed, args.first_seed + args.runs)))
        for seed in seeds:
            values = run_once(wl, seed, bench["run_seconds"])
            for k, v in values.items():
                samples.setdefault(k, []).append(v)
        print("%s (%d runs, seeds %s)" %
              (wl, args.runs, seeds[0] if args.seed is not None else
               "%d..%d" % (seeds[0], seeds[-1])))
        print("  %-14s %12s %12s %12s %8s %6s" %
              ("metric", "q1", "median", "q3", "spread", "bound"))
        report[wl] = {}
        for name, values in samples.items():
            q1, med, q3, rel = spread(values)
            bound = bounds.get(name)
            flag = ""
            if bound is not None and rel > bound:
                flag = "  SPREAD > BOUND"
                ok = False
            elif bound is not None and rel > bound / 3:
                flag = "  spread > bound/3"
            shift = ""
            old = previous.get(wl, {}).get(name)
            if old:
                rel_shift = (med - old["median"]) / old["median"]
                shift = "  median shift %+.1f%%" % (100 * rel_shift)
                worse = rel_shift if lower_better.get(name) else -rel_shift
                if bound is not None and worse > bound:
                    shift += " > BOUND"
                    ok = False
            print("  %-14s %12.6g %12.6g %12.6g %7.1f%% %5.0f%%%s%s" %
                  (name, q1, med, q3, 100 * rel, 100 * (bound or 0), flag,
                   shift))
            report[wl][name] = {"median": med, "q1": q1, "q3": q3,
                                "spread": rel, "values": values}
    if args.json:
        with open(args.json, "w") as f:
            json.dump(report, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
