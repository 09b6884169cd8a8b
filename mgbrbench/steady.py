#!/usr/bin/env python3
"""Steadiness check: run workloads k times and print, for each metric, its
median, quartiles and relative spread beside the bound in BENCHMARK.json.

    python3 mgbrbench/steady.py --workloads serve --runs 5
    python3 mgbrbench/steady.py --runs 10 --sets 2 --first-seed 401

Run from the repository root. With no --workloads, every workload of
BENCHMARK.json runs. Runs are interleaved: round k runs every set's k-th
run of every workload before round k + 1 starts, so the sets sample the
same stretches of the machine. Set s, run k gets seed
first-seed + s * runs + k.

The spread is (q3 - q1) / median with the quartiles of
statistics.quantiles(values, n=4). A metric is "ok" when its spread is below
a third of its bound, "wide" when below the bound, and "OVER" otherwise;
setup_s is judged like every other bounded metric. With two or more sets,
each later set's median is compared with the first set's: the gap is the
share of the first median by which it is worse, and it is "OVER" when it
exceeds the bound.

Exits with 1 if any run fails or reports incorrect output, if the share of
failed operations differs between runs of a workload, or if any spread or
gap is over its bound.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
import time


def run_once(cmd, workload, seed, seconds, trace):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(args, stdout=subprocess.PIPE, text=True)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{workload} seed {seed}: exit {proc.returncode}", file=sys.stderr)
        print("\n".join(l for l in lines if "FAIL" in l), file=sys.stderr)
        return None
    res = json.loads(lines[-1])
    res["wall_s"] = wall
    # "# stage shares of the 40.1 s run: setup 2.50 s (6%), train ..."
    shares = next((l for l in lines if l.startswith("# stage shares")), "")
    total = re.search(r"of the ([\d.]+) s run", shares)
    res["stages"] = {
        name.strip(): float(sec) / float(total.group(1))
        for name, sec in re.findall(r"([a-z ]+?) ([\d.]+) s \(", shares.split(":", 1)[-1])
    } if total else {}
    return res


def spread_of(vals):
    med = statistics.median(vals)
    if len(vals) >= 2:
        q1, _, q3 = statistics.quantiles(vals, n=4)
    else:
        q1 = q3 = med
    return med, q1, q3, ((q3 - q1) / med if med else float("inf"))


def verdict(spread, bound):
    if bound is None:
        return ""
    if spread < bound / 3:
        return "ok"
    if spread <= bound:
        return "wide"
    return "OVER"


def report(workload, set_no, results, declared):
    """Prints one set's table; returns (medians by metric, any OVER)."""
    walls = [r["wall_s"] for r in results]
    print(f"\n== {workload}, set {set_no + 1}: {len(results)} runs, wall "
          f"{statistics.median(walls):.1f} s ({min(walls):.1f}-{max(walls):.1f})")
    stages = dict.fromkeys(n for r in results for n in r["stages"])
    print("median share of the run: " + ", ".join(
        f"{n} {100 * statistics.median(r['stages'].get(n, 0.0) for r in results):.0f}%"
        for n in stages))
    print(f"{'metric':<34} {'unit':>8} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}  verdict")
    medians, over = {}, False
    for m in declared:
        name = m["name"]
        vals = [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
        if len(vals) != len(results):
            print(f"{name:<34} missing from {len(results) - len(vals)} run(s)")
            over = True
            continue
        med, q1, q3, spread = spread_of(vals)
        medians[name] = med
        bound = m.get("bound")
        v = verdict(spread, bound)
        over |= v == "OVER"
        print(f"{name:<34} {m['unit']:>8} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
              f"{spread:>8.3f} {bound if bound is not None else '-':>6}  {v}")
    return medians, over


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=None,
                    help="comma-separated; default: every workload")
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    a = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    seconds = a.seconds or bench["run_seconds"]
    declared = bench["per_layer"] if a.trace else bench["end_to_end"]
    workloads = (a.workloads.split(",") if a.workloads
                 else [w["name"] for w in bench["workloads"]])
    results = {(w, s): [] for w in workloads for s in range(a.sets)}
    bad = False
    for k in range(a.runs):
        for s in range(a.sets):
            for w in workloads:
                seed = a.first_seed + s * a.runs + k
                res = run_once(bench["command"], w, seed, seconds, a.trace)
                if res is None or not res["correct"]:
                    bad = True
                    continue
                results[(w, s)].append(res)
                print(f"round {k + 1}/{a.runs} set {s + 1} {w} seed {seed}: "
                      f"attempted {res['attempted']}, failed {res['failed']}, "
                      f"{res['wall_s']:.1f} s", flush=True)

    for w in workloads:
        runs = [r for s in range(a.sets) for r in results[(w, s)]]
        shares = {r["failed"] / r["attempted"] for r in runs}
        if len(shares) > 1:
            print(f"\n{w}: failed share differs between runs: {sorted(shares)}")
            bad = True
        medians = []
        for s in range(a.sets):
            if not results[(w, s)]:
                bad = True
                medians.append({})
                continue
            med, over = report(w, s, results[(w, s)], declared)
            medians.append(med)
            bad |= over
        for s in range(1, a.sets):
            print(f"\n-- {w}: set {s + 1} median against set 1")
            for m in declared:
                name, bound = m["name"], m.get("bound")
                if name not in medians[0] or name not in medians[s]:
                    continue
                first, later = medians[0][name], medians[s][name]
                rel = (later - first) / first if first else float("inf")
                worse = rel if m["better"] == "lower" else -rel
                v = "" if bound is None else ("OVER" if worse > bound else "ok")
                bad |= v == "OVER"
                print(f"{name:<34} {first:>12.6g} {later:>12.6g} "
                      f"worse by {worse:>+8.3f} {bound if bound is not None else '-':>6}  {v}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
