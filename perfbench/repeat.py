#!/usr/bin/env python3
"""Repeat mode: run one commit's benchmark several times and report spread.

    python3 perfbench/repeat.py --runs 10 [--workload sample ...] [--sets 2]

For each workload, runs run.py once per seed (1, 2, ..., runs) for
BENCHMARK.json's run_seconds, one process at a time, and reports for every
end-to-end metric the median, the quartiles (statistics.quantiles, n=4) and
their distance as a share of the median, against the metric's bound from
BENCHMARK.json: "steady" below a third of the bound, "within" below the
bound, "WIDE" otherwise. With --sets 2 the same seeds run a second time and
the second median is compared with the first: "WORSE" when it is worse by
more than the bound. Exits 1 if any run fails, is incorrect or any check is not met.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 180


def load_benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        return None
    return json.loads(lines[-1])


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def verdict(share, bound):
    if share < bound / 3:
        return "steady", True
    if share <= bound:
        return "within", True
    return "WIDE", False


def report(metrics, sets):
    """Print each set's spread per metric and, for two sets, the drift of
    the second median; True when every check is met."""
    ok = True
    print(f"{'set':3} {'metric':16} {'median':>11} {'q1':>11} {'q3':>11} "
          f"{'spread':>7} {'bound':>6}  verdict")
    for metric in metrics:
        name, bound = metric["name"], metric["bound"]
        medians = []
        for s, values in enumerate(sets, 1):
            if len(values.get(name, ())) < 2:
                print(f"{s:<3} {name:16} (too few values)")
                ok = False
                continue
            median, q1, q3, share = spread(values[name])
            medians.append(median)
            word, met = verdict(share, bound)
            ok = ok and met
            print(f"{s:<3} {name:16} {median:11.5g} {q1:11.5g} {q3:11.5g} "
                  f"{share:7.2%} {bound:6.2f}  {word}")
        if len(medians) == 2:
            worse = (medians[1] - medians[0]) / medians[0]
            if metric["better"] == "higher":
                worse = -worse
            met = worse <= bound
            ok = ok and met
            print(f"{'':3} {name:16} set 2 median is {worse:+.1%} worse than "
                  f"set 1: {'ok' if met else 'WORSE than the bound'}")
    return ok


def main(argv=None):
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", nargs="+", choices=names, default=names)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--sets", type=int, choices=(1, 2), default=1)
    args = p.parse_args(argv)
    if args.runs < 2:
        p.error("--runs must be at least 2")

    seconds = bench["run_seconds"]
    ok = True
    for workload in args.workload:
        sets = []
        for s in range(args.sets):
            values = {}
            for r in range(args.runs):
                seed = r + 1
                out = run_once(workload, seed, seconds)
                if out is None or not out["correct"] or out["failed"]:
                    print(f"{workload} seed {seed}: run failed or incorrect: {out}")
                    ok = False
                    continue
                for name, m in out["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
                print(f"{workload} set {s + 1} seed {seed}: " + ", ".join(
                    f"{k}={m['value']:.5g}" for k, m in out["metrics"].items()),
                    flush=True)
            sets.append(values)

        print(f"\n{workload}: {args.runs} runs x {args.sets} set(s), "
              f"{seconds} s each")
        ok = report(bench["end_to_end"], sets) and ok
        print()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
