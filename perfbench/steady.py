#!/usr/bin/env python3
"""Steadiness check for the PTLDB benchmark (see README.md).

Runs each workload once per seed through run.py (untraced) and prints, for
every end-to-end metric of BENCHMARK.json, the median, the quartiles and
the spread (Q3 - Q1) / median next to the metric's bound. With --sets 2 the
whole series runs twice and each metric's second median is compared with
the first: it may not be worse by more than the bound. The share of failed
operations must be the same in every run.

    python3 perfbench/steady.py --seeds 1-10 --sets 2 --json out.json
    python3 perfbench/steady.py --workloads served_raw --seeds 1-5

Exits 1 when a spread (setup_s excepted) exceeds its bound, a second
median is worse than the first by more than its bound, a run fails, or the
failed shares differ; 0 otherwise.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default="")
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--sets", type=int, choices=(1, 2), default=1)
    p.add_argument("--seconds", type=int, default=0,
                   help="run length (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--json", default="", help="write every run's result here")
    args = p.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in spec["workloads"]])
    metrics = spec["end_to_end"]
    seeds = parse_seeds(args.seeds)

    ok = True
    record = {}
    for w in workloads:
        sets = []
        for s in range(args.sets):
            runs = []
            for seed in seeds:
                try:
                    r = run_once(w, seed, seconds)
                except RuntimeError as e:
                    print(f"FAIL {e}")
                    ok = False
                    continue
                runs.append({"seed": seed, **r})
                print(f"{w} set {s + 1} seed {seed}: correct={r['correct']} "
                      f"attempted={r['attempted']} failed={r['failed']}",
                      file=sys.stderr)
            sets.append(runs)
        record[w] = sets
        print(f"\n## {w} ({len(seeds)} seeds x {args.sets} set(s), "
              f"{seconds} s runs)")
        print("| metric | set | median | Q1 | Q3 | spread | bound | ok |")
        print("|---|---|---|---|---|---|---|---|")
        shares = set()
        for runs in sets:
            for r in runs:
                ok &= bool(r["correct"])
                shares.add(r["failed"] / r["attempted"])
        if len(shares) > 1:
            print(f"FAIL failed shares differ: {sorted(shares)}")
            ok = False
        for m in metrics:
            name, bound = m["name"], m["bound"]
            meds = []
            for s, runs in enumerate(sets):
                vals = [r["metrics"][name]["value"] for r in runs]
                if len(vals) < 2:
                    ok = False
                    continue
                med, q1, q3, spread = summarize(vals)
                meds.append(med)
                good = name == "setup_s" or spread <= bound
                ok &= good
                print(f"| {name} | {s + 1} | {med:.6g} | {q1:.6g} | "
                      f"{q3:.6g} | {spread:.3f} | {bound} | "
                      f"{'yes' if good else 'NO'} |")
            if len(meds) == 2:
                worse = ((meds[1] - meds[0]) / meds[0]
                         if m["better"] == "lower"
                         else (meds[0] - meds[1]) / meds[0])
                good = worse <= bound
                ok &= good
                print(f"| {name} | 2 vs 1 | worse by {worse:+.3f} | | | | "
                      f"{bound} | {'yes' if good else 'NO'} |")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(record, f, indent=1)
    print("\nsteady" if ok else "\nNOT steady")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
