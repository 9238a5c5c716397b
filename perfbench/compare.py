#!/usr/bin/env python3
"""Compare two sets of benchmark runs, per workload and metric.

    python3 perfbench/compare.py OLD.jsonl NEW.jsonl

Each file holds full records appended by `run.py --out FILE`, any
number of runs per workload; run the two sides alternately so that the
i-th old and i-th new run of a workload form a pair.  Every end-to-end
metric of BENCHMARK.json measured on both sides gets one label:

  worse       the new median is worse than the old by more than the
              metric's bound;
  better      over at least ten pairs, the new run wins at least 9 in
              10 and the medians differ by more than the old runs' own
              spread (the distance between their quartiles);
  unchanged   neither, and the old spread (over at least two runs) is
              within the bound;
  unresolved  neither, and the old spread exceeds the bound or cannot
              be measured, so "no change" cannot be told from noise.

Exits 1 when any metric is worse, else 0.
"""
import argparse
import json
import statistics
import sys


MIN_PAIRS = 10


def load(path):
    runs = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            if rec.get("trace"):
                continue
            runs.setdefault(rec["workload"], []).append(rec)
    return runs


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def label(old, new, better_dir, bound):
    sign = 1.0 if better_dir == "higher" else -1.0
    m_old, m_new = statistics.median(old), statistics.median(new)
    q1, q3 = quartiles(old)
    spread = (q3 - q1) / abs(m_old) if m_old else float("inf")
    change = sign * (m_new - m_old) / abs(m_old) if m_old else 0.0
    pairs = list(zip(old, new))
    wins = sum(1 for o, n in pairs if sign * (n - o) > 0)
    every_run_better = min(sign * n for n in new) > max(sign * o for o in old)
    if change < -bound:
        verdict = "worse"
    elif (len(pairs) >= MIN_PAIRS and wins >= 0.9 * len(pairs)
          and abs(m_new - m_old) > (q3 - q1) and change > 0):
        verdict = "better"
    elif (len(old) < 2 or spread > bound) and not every_run_better:
        verdict = "unresolved"
    else:
        verdict = "unchanged"
    return {
        "old_median": m_old, "new_median": m_new, "change": change,
        "old_spread": spread, "bound": bound, "pairs": len(pairs),
        "new_wins": wins, "verdict": verdict,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old")
    ap.add_argument("new")
    ap.add_argument("--benchmark", default="BENCHMARK.json")
    args = ap.parse_args()
    with open(args.benchmark) as f:
        metrics = json.load(f)["end_to_end"]
    old, new = load(args.old), load(args.new)
    rows = []
    for wl in sorted(set(old) & set(new)):
        for m in metrics:
            name = m["name"]
            o = [r["metrics"][name]["value"] for r in old[wl] if name in r["metrics"]]
            n = [r["metrics"][name]["value"] for r in new[wl] if name in r["metrics"]]
            if o and n:
                row = label(o, n, m["better"], m["bound"])
                row.update(workload=wl, metric=name, unit=m["unit"])
                rows.append(row)
    print("%-18s %-30s %14s %14s %8s %8s %6s  %s" % (
        "workload", "metric", "old median", "new median", "change",
        "spread", "bound", "verdict"))
    for r in rows:
        print("%-18s %-30s %14.6g %14.6g %+7.1f%% %7.1f%% %5.0f%%  %s" % (
            r["workload"], r["metric"], r["old_median"], r["new_median"],
            100 * r["change"], 100 * r["old_spread"], 100 * r["bound"],
            r["verdict"]))
    sys.exit(1 if any(r["verdict"] == "worse" for r in rows) else 0)


if __name__ == "__main__":
    main()
