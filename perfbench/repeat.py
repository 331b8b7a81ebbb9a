#!/usr/bin/env python3
"""Runs one workload N times in fresh processes and summarises every metric.

    python3 perfbench/repeat.py --workload query_mix --runs 10 [--seed0 1]
        [--seconds 10] [--trace 0] [--out set_a.json]
    python3 perfbench/repeat.py --compare set_a.json set_b.json

The first form runs perfbench/run.py once per seed (seed0, seed0+1, ...),
prints each metric's median, first and third quartile
(statistics.quantiles(values, n=4)) and the spread (q3 - q1) / median next to
the metric's bound from BENCHMARK.json, and can save the raw results. The
second form checks that two saved sets agree: every spread except setup_s's
is within its bound, the second set's median is not worse than the first's
by more than the bound, and the share of failed operations is identical.
Exits 1 when a check fails.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spec():
    with open(ROOT / "BENCHMARK.json") as f:
        b = json.load(f)
    return {m["name"]: m for m in b["end_to_end"] + b["per_layer"]}, b


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=900)
    if p.returncode != 0:
        sys.exit(f"run failed (seed {seed}):\n{p.stderr[-2000:]}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def summarise(results, metrics):
    rows = {}
    for name in results[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        rows[name] = {"median": statistics.median(vals), "q1": q1, "q3": q3,
                      "spread": spread, "values": vals}
    return rows


def failed_share(results):
    att = sum(r["attempted"] for r in results)
    return sum(r["failed"] for r in results) / att


def print_table(rows, metrics):
    print(f"{'metric':38} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8} {'bound':>6}")
    for name, r in rows.items():
        bound = metrics.get(name, {}).get("bound")
        flag = ""
        if bound is not None and name != "setup_s" and r["spread"] > bound:
            flag = "  OVER BOUND"
        elif bound is not None and r["spread"] > bound / 3:
            flag = "  over bound/3"
        print(f"{name:38} {r['median']:14.6g} {r['q1']:14.6g} "
              f"{r['q3']:14.6g} {r['spread']:8.3f} "
              f"{'' if bound is None else bound:>6}{flag}")


def compare(path_a, path_b, metrics):
    a, b = (json.load(open(p)) for p in (path_a, path_b))
    ok = True
    for name in a["rows"]:
        m = metrics.get(name)
        if m is None or "bound" not in m:
            continue
        bound, ra, rb = m["bound"], a["rows"][name], b["rows"][name]
        for label, r in (("first", ra), ("second", rb)):
            if name != "setup_s" and r["spread"] > bound:
                print(f"{name}: {label} set spread {r['spread']:.3f} > {bound}")
                ok = False
        worse = (rb["median"] - ra["median"]) / ra["median"]
        if m["better"] == "higher":
            worse = -worse
        if worse > bound:
            print(f"{name}: second median worse by {worse:.3f} > {bound}")
            ok = False
    if a["failed_share"] != b["failed_share"]:
        print(f"failed share differs: {a['failed_share']} vs "
              f"{b['failed_share']}")
        ok = False
    print("sets agree" if ok else "sets DISAGREE")
    return ok


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out")
    ap.add_argument("--compare", nargs=2)
    args = ap.parse_args()
    metrics, bench = spec()
    if args.compare:
        return 0 if compare(*args.compare, metrics) else 1
    if not args.workload:
        ap.error("--workload or --compare is required")
    seconds = args.seconds or bench["run_seconds"]
    results = []
    for i in range(args.runs):
        r = run_once(args.workload, args.seed0 + i, seconds, args.trace)
        print(f"seed {args.seed0 + i}: attempted {r['attempted']} failed "
              f"{r['failed']} correct {r['correct']}", flush=True)
        results.append(r)
    rows = summarise(results, metrics)
    print_table(rows, metrics)
    share = failed_share(results)
    print(f"failed share: {share!r}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"workload": args.workload, "rows": rows,
                       "failed_share": share, "results": results}, f,
                      indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
