"""The isocap benchmark: one workload per run, measured from outside.

    python3 perfbench/run.py --workload cli_campaign --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

Run it from the root of a checkout; it imports isocap from ./src (or from
--root's src, to measure another checkout with this benchmark).  Each run
sets the workload up several times in fresh processes (setup_s is their
median), then measures one more process: a single caller runs the seeded op
list in whole rounds, back to back, until --seconds of op time have passed.
An op's latency is its fastest run over the rounds, scaled to a reference
host speed by calibration probes that run between the ops; ops_per_s,
op_p50_ms and op_p90_ms are taken over those per-op latencies (one sample
per op of the list).
The last line of output is one JSON object: with --trace 0 the end-to-end
metrics of BENCHMARK.json, with --trace 1 its per-layer metrics.
`--workload all` prints a table of every workload instead: the end-to-end
metrics with fail_ratio, or with --trace 1 the per-layer metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from worker import Calibration, best_of_rounds  # noqa: E402  (stdlib imports only)

SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
SETUPS = 3  # set-up repeats per run; setup_s is their median
BLAS_THREADS = "1"  # pinned before numpy loads; on 2 cores, 1 was faster and steadier
RUN_TIMEOUT_S = 170.0
# Best-of-rounds cost of the calibration probes (worker.Calibration) on a
# quiet 2-core x86-64 host with numpy 2.4 / OpenBLAS 0.3.31; latencies are
# reported at that host speed (see speed_factor).
CAL_REFERENCE_MS = 40.0


def speed_factor(probes):
    """How much faster than the reference host this run's host ran.

    Op latencies are multiplied by it.  The probes run between the ops, so a
    stretch in which the host is shared slows both alike and cancels.
    """
    return CAL_REFERENCE_MS / sum(best_of_rounds(probes, Calibration.PROBES))


def _git_commit(root):
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        path = os.path.join(root, ".git", ref[5:])
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(ref[5:]):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def child_env(root):
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn(root, workdir, args, extra, timeout):
    t0 = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir, "--t0", repr(t0)] + extra
    proc = subprocess.run(cmd, cwd=root, env=child_env(root), capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError("worker exited %d:\n%s" % (proc.returncode, proc.stderr[-3000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _quantile(values, q):
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[q - 1]


def measure(root, args):
    """Run one workload; returns the run record (metrics and facts)."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    scratch = os.path.join(root, ".perfbench_work")
    workdir = os.path.join(scratch, "%d-%s" % (os.getpid(), args.workload))
    os.makedirs(workdir)
    try:
        setups = []
        for i in range(SETUPS - 1):
            sub = os.path.join(workdir, "setup%d" % i)
            os.makedirs(sub)
            setups.append(_spawn(root, sub, args, ["--setup-only"],
                                 deadline - time.monotonic())["setup_s"])
        main = _spawn(root, workdir, args, [], deadline - time.monotonic())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass  # another run still uses it
    setups.append(main["setup_s"])
    raw = best_of_rounds(main["latencies"], main["ops_per_round"])
    speed = speed_factor(main["calibration"]) if not args.trace else 1.0
    best = [x * speed for x in raw]
    p90 = _quantile(best, 90)
    e2e = {
        "ops_per_s": len(best) / (sum(best) / 1000.0),
        "op_p50_ms": statistics.median(best),
        "op_p90_ms": p90,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": main["peak_rss_mb"],
        "fail_ratio": main["failures"] / len(main["latencies"]),
    }
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "attempted": len(main["latencies"]),
        "failed": main["failures"],
        "failures": main["messages"],
        "rounds": main["rounds"],
        "ops_per_round": main["ops_per_round"],
        "beyond_p90": sum(1 for x in best if x > p90),
        "setups_s": setups,
        "speed_factor": speed,
        "raw_ops_per_s": len(raw) / (sum(raw) / 1000.0),
        "end_to_end": e2e,
        "layers": main.get("layers"),
        "env": dict(main["env"], git_commit=_git_commit(root)),
    }


def result_line(record, spec):
    """The last output line: the BENCHMARK.json metrics of this run."""
    table = spec["per_layer"] if record["trace"] else spec["end_to_end"]
    values = record["layers"] if record["trace"] else record["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in table}
    return json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                       "failed": record["failed"], "metrics": metrics})


def print_layer_table(records, spec):
    print("%-38s%8s" % ("layer metric", "unit") + "".join("%15s" % r["workload"] for r in records))
    for m in spec["per_layer"]:
        print("%-38s%8s" % (m["name"], m["unit"])
              + "".join("%15.6g" % r["layers"][m["name"]] for r in records))


def print_table(records, spec):
    if records[0]["trace"]:
        return print_layer_table(records, spec)
    units = dict({m["name"]: m["unit"] for m in spec["end_to_end"]}, fail_ratio="1")
    names = list(records[0]["end_to_end"])
    print("%-14s" % "workload" + "".join("%16s" % n for n in names) + "%8s%8s" % ("ops", ">p90"))
    print("%-14s" % "" + "".join("%16s" % units[n] for n in names))
    for r in records:
        print("%-14s" % r["workload"]
              + "".join("%16.6g" % r["end_to_end"][n] for n in names)
              + "%8d%8d" % (r["attempted"], r["beyond_p90"]))


def main(argv=None):
    with open(SPEC) as fh:
        spec = json.load(fh)
    names = tuple(w["name"] for w in spec["workloads"])
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=names + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--save", help="append each run record to this JSON-lines file")
    ap.add_argument("--root", default=os.getcwd(),
                    help="checkout whose src/isocap is measured (default: here)")
    args = ap.parse_args(argv)
    root = os.path.abspath(args.root)

    if not os.path.isfile(os.path.join(root, "src", "isocap", "__init__.py")):
        print("no isocap sources under %s/src; run from the root of a checkout" % root,
              file=sys.stderr)
        return 2
    workloads = names if args.workload == "all" else (args.workload,)
    records = []
    for name in workloads:
        run_args = argparse.Namespace(**dict(vars(args), workload=name))
        try:
            record = measure(root, run_args)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            print("%s: benchmark run failed: %s" % (name, exc), file=sys.stderr)
            return 1
        records.append(record)
        if args.save:
            with open(args.save, "a") as fh:
                fh.write(json.dumps(record) + "\n")
        e2e = record["end_to_end"]
        print("%s seed=%d: %d ops in %d rounds, %d beyond p90, fail_ratio %.6g (%d/%d),"
              " speed factor %.4f (raw ops_per_s %.6g)"
              % (name, args.seed, record["attempted"], record["rounds"],
                 record["beyond_p90"], e2e["fail_ratio"], record["failed"],
                 record["attempted"], record["speed_factor"], record["raw_ops_per_s"]))
        for message in record["failures"]:
            print("  failure: " + message)
        print("env " + json.dumps(record["env"], sort_keys=True))
    if args.workload == "all":
        print_table(records, spec)
    else:
        print(result_line(records[0], spec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
