#!/usr/bin/env python3
"""Check that the benchmark is steady: two interleaved sets of runs agree.

Run from the root of a checkout:

    python3 perfbench/steady.py                 # every workload, 5 runs per set
    python3 perfbench/steady.py --runs 3 --workloads pigmix-warm

For each workload it makes two sets of runs, A and B, interleaved (A, B,
B, A, ...), every run of BENCHMARK.json's run_seconds with its own --seed,
counting up from FIRST_SEED. For every end-to-end metric in
BENCHMARK.json it prints each set's median and quartiles, the spread (the
distance between the quartiles as a share of the median) of each set and
of all runs together, and how much worse B's median is than A's, next to
the metric's bound. A metric is steady when the pooled spread is within a
third of its bound (setup_s excepted) and the two medians differ by no
more than the bound, in either direction.
It also checks that failed operations are the same share of attempted
ones in both sets. Raw results are saved under .bench_build/steady/.
Exits non-zero when a check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FIRST_SEED = 101


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.time()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit("steady.py: %s seed %d exited %d" % (workload, seed, proc.returncode))
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    res["wall_s"] = time.time() - t0
    return res


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=5, help="runs per set, at least 2 (default 5)")
    ap.add_argument("--workloads", default="", help="comma list (default: all in BENCHMARK.json)")
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2: a set's quartiles need two values")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    metrics = spec["end_to_end"]

    results = {w: {"A": [], "B": []} for w in names}
    seed = FIRST_SEED
    for i in range(args.runs):
        order = ("A", "B") if i % 2 == 0 else ("B", "A")
        for w in names:
            for s in order:
                r = run_once(w, seed, seconds)
                r["seed"] = seed
                results[w][s].append(r)
                print("%s set %s seed %d: correct=%s attempted=%d failed=%d (%.1fs)" % (
                    w, s, seed, r["correct"], r["attempted"], r["failed"], r["wall_s"]), file=sys.stderr)
                seed += 1

    out_dir = os.path.join(ROOT, ".bench_build", "steady")
    os.makedirs(out_dir, exist_ok=True)
    out = os.path.join(out_dir, "steady-%d.json" % int(time.time()))
    with open(out, "w") as f:
        json.dump(results, f, indent=1)

    ok = True
    print("| workload | metric | bound | A median [q1, q3] | B median [q1, q3] | spread A / B / all | B worse than A | steady |")
    print("|---|---|---|---|---|---|---|---|")
    for w in names:
        sets = results[w]
        for s in ("A", "B"):
            for r in sets[s]:
                if not r["correct"]:
                    ok = False
                    print("%s: set %s seed %d reported correct=false" % (w, s, r["seed"]), file=sys.stderr)
        shares = {s: sorted({r["failed"] / r["attempted"] for r in sets[s]}) for s in ("A", "B")}
        if shares["A"] != shares["B"] or len(shares["A"]) != 1:
            ok = False
            print("%s: failed share differs between runs: %s" % (w, shares), file=sys.stderr)
        for m in metrics:
            name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
            a = [r["metrics"][name]["value"] for r in sets["A"]]
            b = [r["metrics"][name]["value"] for r in sets["B"]]
            ma, qa1, qa3, sa = spread(a)
            mb, qb1, qb3, sb = spread(b)
            _, _, _, sall = spread(a + b)
            worse = (mb - ma) / ma if lower else (ma - mb) / ma
            steady = abs(worse) <= bound and (name == "setup_s" or sall <= bound / 3)
            ok = ok and abs(worse) <= bound and (name == "setup_s" or sall <= bound)
            print("| %s | %s | %.2f | %.6g [%.6g, %.6g] | %.6g [%.6g, %.6g] | %.1f%% / %.1f%% / %.1f%% | %+.1f%% | %s |" % (
                w, name, bound, ma, qa1, qa3, mb, qb1, qb3, 100 * sa, 100 * sb, 100 * sall, 100 * worse,
                "yes" if steady else "NO"))
    print("raw results: %s" % os.path.relpath(out, ROOT), file=sys.stderr)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
