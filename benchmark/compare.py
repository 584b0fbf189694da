#!/usr/bin/env python3
"""Compares two benchmark result sets against the bounds in BENCHMARK.json.

    benchmark/compare.py BASE NEW            regression check
    benchmark/compare.py --paired BASE NEW   gain check for a claimed change

BASE and NEW are result directories written by benchmark/run.sh --out (or
single .jsonl files); only end-to-end runs (trace 0, not --quick) count.

Regression check, per (workload, metric): each side's median and
quartiles. The verdict is
  agree       NEW's median is not worse than BASE's by more than the bound;
  regressed   it is worse by more than the bound;
  unresolved  either side's spread (quartile distance over median) is wider
              than the bound, unless every NEW run is better than every
              BASE run;
  unresolved-worse
              as unresolved, but NEW's median is worse than BASE's by more
              than the bound.
Exit status 1 when anything regressed or is unresolved-worse.

Paired check: runs are paired by (workload, seed). A metric shows a gain
when there are at least 10 pairs, NEW wins at least 9 in 10 of them (ties
count for neither side), and the medians differ by more than BASE's own
quartile distance. Exit status 0 (2 when no seed is in both sets); the
table is the answer.
"""

import argparse
import collections
import json
import os
import statistics
import sys


def load(path):
    """{workload: [(seed, {metric: value})]} of the end-to-end runs."""
    files = [path]
    if os.path.isdir(path):
        files = sorted(
            os.path.join(path, f) for f in os.listdir(path)
            if f.endswith(".jsonl") and not f.endswith(".traced.jsonl"))
    runs = collections.defaultdict(list)
    for name in files:
        with open(name) as f:
            for line in f:
                if not line.strip():
                    continue
                run = json.loads(line)
                if run.get("trace") or run.get("quick"):
                    continue
                runs[run["workload"]].append((run["seed"], {
                    k: m["value"] for k, m in run["metrics"].items()}))
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def better(a, b, direction):
    """True when value a is better than value b."""
    return a < b if direction == "lower" else a > b


def regression_check(base, new, metrics):
    rows, regressed = [], False
    for workload in sorted(set(base) & set(new)):
        for m in metrics:
            name, bound, direction = m["name"], m["bound"], m["better"]
            b = [r[name] for _, r in base[workload] if name in r]
            n = [r[name] for _, r in new[workload] if name in r]
            if not b or not n:
                continue
            b_med, n_med = statistics.median(b), statistics.median(n)
            worse = (n_med - b_med) if direction == "lower" else (b_med - n_med)
            worse = worse / abs(b_med) if b_med else 0.0
            wide = max(spread(b), spread(n)) > bound
            if wide and not all(better(x, y, direction) for x in n for y in b):
                verdict = "unresolved-worse" if worse > bound else "unresolved"
            elif worse > bound:
                verdict = "regressed"
            else:
                verdict = "agree"
            regressed |= verdict in ("regressed", "unresolved-worse")
            rows.append((workload, name, m["unit"], b, n, worse, bound,
                         verdict))
    print(f"{'workload':9} {'metric':12} {'base median [q1, q3]':34} "
          f"{'new median [q1, q3]':34} {'worse':>8} {'bound':>7}  verdict")
    for workload, name, unit, b, n, worse, bound, verdict in rows:
        print(f"{workload:9} {name:12} {fmt(b, unit):34} {fmt(n, unit):34} "
              f"{worse * 100:7.2f}% {bound * 100:6.2f}%  {verdict}")
    return 1 if regressed else 0


def paired_check(base, new, metrics):
    if not any(set(dict(base[w])) & set(dict(new[w]))
               for w in set(base) & set(new)):
        print("compare.py: no (workload, seed) pair appears in both sets",
              file=sys.stderr)
        return 2
    print(f"{'workload':9} {'metric':12} {'pairs':>5} {'wins':>5} "
          f"{'base median':>12} {'new median':>12} {'base iqr':>10}  verdict")
    for workload in sorted(set(base) & set(new)):
        b_runs, n_runs = dict(base[workload]), dict(new[workload])
        seeds = sorted(set(b_runs) & set(n_runs))
        for m in metrics:
            name, direction = m["name"], m["better"]
            pairs = [(b_runs[s][name], n_runs[s][name]) for s in seeds
                     if name in b_runs[s] and name in n_runs[s]]
            if not pairs:
                continue
            wins = sum(1 for b, n in pairs if better(n, b, direction))
            b_vals = [b for b, _ in pairs]
            b_med = statistics.median(b_vals)
            n_med = statistics.median([n for _, n in pairs])
            q1, _, q3 = quartiles(b_vals)
            if len(pairs) < 10:
                verdict = "too-few-pairs"
            elif wins >= 0.9 * len(pairs) and abs(n_med - b_med) > q3 - q1:
                verdict = "gain"
            else:
                verdict = "no-gain"
            print(f"{workload:9} {name:12} {len(pairs):5d} {wins:5d} "
                  f"{b_med:12.6g} {n_med:12.6g} {q3 - q1:10.4g}  {verdict}")
    return 0


def fmt(values, unit):
    q1, q2, q3 = quartiles(values)
    return f"{q2:.6g} [{q1:.6g}, {q3:.6g}] {unit} n={len(values)}"


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--paired", action="store_true")
    args = parser.parse_args()
    bench_json = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "..", "BENCHMARK.json")
    with open(bench_json) as f:
        bench = json.load(f)
    metrics = bench["end_to_end"]
    declared = {w["name"] for w in bench["workloads"]}
    base, new = load(args.base), load(args.new)
    base = {w: runs for w, runs in base.items() if w in declared}
    new = {w: runs for w, runs in new.items() if w in declared}
    if not set(base) & set(new):
        print("compare.py: no workload appears in both result sets",
              file=sys.stderr)
        return 2
    if args.paired:
        return paired_check(base, new, metrics)
    return regression_check(base, new, metrics)


if __name__ == "__main__":
    sys.exit(main())
