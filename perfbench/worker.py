"""One workload process: set up, warm up, then run ops in a closed loop.

Started by run.py with the BLAS thread pools already pinned in its
environment and `src` on PYTHONPATH.  Prints one JSON line.
"""

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)


def best_of_rounds(latencies, ops_per_round):
    """Each op's fastest time over the rounds, in ms.

    Every round runs the same ops, so each op has one sample per round.  On
    a shared host other tenants can slow stretches of several seconds by up
    to 2x; the fastest of an op's runs is its cost with the least of that
    noise.
    """
    rounds = len(latencies) // ops_per_round
    return [1000.0 * min(latencies[r * ops_per_round + i] for r in range(rounds))
            for i in range(ops_per_round)]


class Calibration:
    """A fixed reference kernel that shares no code with isocap.

    It mixes Python dict work with small dense numpy solves, eigensolves and
    einsum, the two kinds of work the workloads do.  Probes run between ops
    in every round and are timed like ops, so a run's slow stretches slow
    the probes as much as the ops around them.
    """

    PROBES = 10  # per round, spread evenly over the op list

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        a = rng.random((80, 80))
        self.sym = a + a.T
        spd = self.sym @ self.sym.T + 80.0 * np.eye(80)
        self.batch = np.stack([spd[:40, :40]] * 64)
        self.rhs = rng.random((64, 40, 1))
        self.np = np

    def probe(self):
        np = self.np
        counts = {}
        for i in range(12000):
            key = (i % 97, i % 13)
            counts[key] = counts.get(key, 0.0) + 1.0
        np.linalg.eigh(self.sym)
        np.linalg.solve(self.batch, self.rhs)
        np.einsum("ij,ij->i", self.sym, self.sym)


def run_phase(ops, seconds, tracer=None, calibration=None):
    """Whole rounds over `ops` until `seconds` of op time have passed.

    Only the calls into isocap are timed; output checks run between them.
    With a tracer, rounds alternate untraced and traced (the wrappers are
    installed for traced rounds only), and the phase ends after a traced
    round.  Returns (latencies in s, failures, first failure messages,
    rounds, calibration probe times in s).
    """
    from workloads import Mismatch, check

    latencies, failures, messages, probes = [], 0, [], []
    stride = max(1, len(ops) // Calibration.PROBES)
    busy = 0.0
    rounds = 0
    while busy < seconds or rounds == 0 or (tracer is not None and rounds % 2):
        rounds += 1
        traced = tracer is not None and rounds % 2 == 0
        if traced:
            tracer.install()
        for i, op in enumerate(ops):
            if calibration is not None and i % stride == 0 and i // stride < Calibration.PROBES:
                calibration.probe()  # untimed: refills the caches the last op used
                start = time.perf_counter()
                calibration.probe()
                probes.append(time.perf_counter() - start)
            error = None
            if traced:
                tracer.op = (rounds, i)
                tracer.enabled = True
            start = time.perf_counter()
            try:
                result = op.run()
            except Exception as exc:  # any escape from the program is a failure
                error = "%s: %s: %s" % (op.label, type(exc).__name__, exc)
            elapsed = time.perf_counter() - start
            if traced:
                tracer.enabled = False
            latencies.append(elapsed)
            busy += elapsed
            if error is None:
                try:
                    check(op, result)
                except (Mismatch, KeyError, TypeError, ValueError) as exc:
                    error = "%s: %s" % (op.label, exc)
            if error is not None:
                failures += 1
                if len(messages) < 5:
                    messages.append(error)
        if traced:
            tracer.uninstall()
    return latencies, failures, messages, rounds, probes


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "ISOCAP_THREADS": os.environ.get("ISOCAP_THREADS"),
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() of the parent just before the spawn")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import isocap
    import workloads

    root = os.path.realpath(os.getcwd())
    if not os.path.realpath(isocap.__file__).startswith(root + os.sep):
        raise SystemExit("isocap was imported from outside the checkout: %s" % isocap.__file__)
    ops = workloads.build_ops(isocap, args.workload, args.seed, args.workdir)
    calibration = Calibration()
    calibration.probe()
    seen = set()
    for op in ops:  # warm-up: lazy imports and first-call costs, one op per kind
        kind = op.label.rsplit("|", 1)[0]  # family labels end in their steps
        if kind not in seen:
            seen.add(kind)
            try:
                op.run()
            except Exception:  # counted when the timed loop meets it
                pass
    setup_s = time.monotonic() - args.t0
    out = {"setup_s": setup_s, "ops_per_round": len(ops), "env": environment()}
    if args.setup_only:
        print(json.dumps(out))
        return

    if args.trace:
        from tracer import Tracer, layer_metrics

        tracer = Tracer()
        lat, failures, messages, rounds, _ = run_phase(ops, args.seconds, tracer)
        n = len(ops)
        by_round = [lat[r * n:(r + 1) * n] for r in range(rounds)]
        plain = [x for chunk in by_round[0::2] for x in chunk]
        traced = [x for chunk in by_round[1::2] for x in chunk]
        metrics = layer_metrics(tracer.spans, sum(traced), rounds // 2)
        metrics["trace.overhead_ratio"] = (sum(best_of_rounds(plain, n))
                                           / sum(best_of_rounds(traced, n)))
        out["layers"] = metrics
    else:
        lat, failures, messages, rounds, probes = run_phase(ops, args.seconds,
                                                            calibration=calibration)
        out["calibration"] = probes
    out.update({
        "latencies": lat,
        "failures": failures,
        "messages": messages,
        "rounds": rounds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    print(json.dumps(out))


if __name__ == "__main__":
    main()
