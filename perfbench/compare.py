"""Compare a parent and a change with the benchmark's own rule.

Collect alternating pairs (same seed on both sides, the side that runs first
alternating), with this benchmark's code run against each checkout's src:

    python3 perfbench/compare.py collect --parent ../parent --change . \\
        --pairs 10 --out runs/

Then judge them, one row per workload:

    python3 perfbench/compare.py report runs/parent.jsonl runs/change.jsonl

A metric is a gain on a workload when there are at least 10 pairs, the
change wins at least 9 of every 10 (ties count for neither side) and the
gap between the medians exceeds the parent's interquartile range.  Every
other metric must stay within its BENCHMARK.json bound of the parent's
median; where a side's own spread exceeds the bound the metric is
unresolved, unless every change run beats every parent run.  A gain does
not count when more ops failed than at the parent.  The exit code is 1 when
any metric regressed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
MIN_PAIRS = 10
WIN_SHARE = 0.9


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def judge(parent, change, better, bound):
    """Verdict for one metric on one workload from paired values."""
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    pairs = len(parent)
    improved = sign * (cm - pm) > 0
    if (pairs >= MIN_PAIRS and wins >= WIN_SHARE * pairs and improved
            and abs(cm - pm) > p3 - p1):
        verdict = "gain"
    else:
        worse = -sign * (cm - pm) / abs(pm) if pm else 0.0
        spread = max((p3 - p1) / abs(pm) if pm else 0.0, (c3 - c1) / abs(cm) if cm else 0.0)
        all_better = all(sign * (c - p) > 0 for c in change for p in parent)
        if spread > bound and not all_better:
            verdict = "unresolved"
        elif worse > bound:
            verdict = "REGRESSION"
        else:
            verdict = "ok"
    return {"verdict": verdict, "pairs": pairs, "wins": wins,
            "parent": [p1, pm, p3], "change": [c1, cm, c3]}


def load(path):
    runs = {}
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            if not rec["trace"]:
                runs.setdefault(rec["workload"], {})[rec["seed"]] = rec
    return runs


def report(parent_path, change_path, spec):
    parent, change = load(parent_path), load(change_path)
    regressed = False
    for workload in [w["name"] for w in spec["workloads"]]:
        seeds = sorted(set(parent.get(workload, {})) & set(change.get(workload, {})))
        if not seeds:
            print("%-14s no paired runs" % workload)
            continue
        failed = [sum(side[workload][s]["failed"] for s in seeds) for side in (parent, change)]
        cells = ["failed %d->%d" % tuple(failed)]
        for m in spec["end_to_end"]:
            pv = [parent[workload][s]["end_to_end"][m["name"]] for s in seeds]
            cv = [change[workload][s]["end_to_end"][m["name"]] for s in seeds]
            j = judge(pv, cv, m["better"], m["bound"])
            if j["verdict"] == "gain" and failed[1] > failed[0]:
                j["verdict"] = "void gain (more failures)"
            regressed = regressed or j["verdict"] == "REGRESSION"
            cells.append("%s %s %.4g->%.4g (%d/%d)" % (
                m["name"], j["verdict"], j["parent"][1], j["change"][1], j["wins"], j["pairs"]))
        print("%-14s %s" % (workload, " | ".join(cells)))
    return 1 if regressed else 0


def collect(args, spec):
    os.makedirs(args.out, exist_ok=True)
    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    workloads = [w["name"] for w in spec["workloads"]]
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for workload in workloads:
            for side in order:
                cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                       "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                       "--root", sides[side],
                       "--save", os.path.join(os.path.abspath(args.out), side + ".jsonl")]
                subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    return 0


def main(argv=None):
    with open(SPEC) as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description="parent/change comparison")
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("--parent", required=True, help="root of the parent checkout")
    c.add_argument("--change", required=True, help="root of the change checkout")
    c.add_argument("--pairs", type=int, default=MIN_PAIRS)
    c.add_argument("--first-seed", type=int, default=1,
                   help="pair i runs seed first-seed + i; use seeds the change was not tuned on")
    c.add_argument("--out", required=True)
    r = sub.add_parser("report")
    r.add_argument("parent")
    r.add_argument("change")
    args = ap.parse_args(argv)
    if args.cmd == "collect":
        return collect(args, spec)
    return report(args.parent, args.change, spec)


if __name__ == "__main__":
    sys.exit(main())
