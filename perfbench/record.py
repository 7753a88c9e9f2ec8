"""Record pool.json: the input pools and the reference values of every op.

Run from the repository root at the commit whose outputs are the reference:

    python3 perfbench/record.py

Pool instances come from fixed generator seeds (the CLI domains from
isocap.verify.random_domain), so the file changes only when the program's
outputs do.  Every reference is the program's own output on the unscaled,
unrenamed instance.
"""

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.getcwd(), "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import isocap  # noqa: E402
import workloads as wl  # noqa: E402


def instance_from_domain(domain):
    g = domain.graph
    return wl.Instance(list(g.vertices), [g.mass[v] for v in g.vertices],
                       [list(e) for e in g.edges], list(domain.interior))


def log_uniform_weights(inst, rng):
    """The same shape with weights and masses log-uniform in [0.1, 10]."""
    lu = lambda: float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
    return wl.Instance(inst.vertices, [lu() for _ in inst.mass],
                       [[u, v, lu()] for u, v, _ in inst.edges], inst.interior)


def _as_list(inst):
    return [list(inst.vertices), list(inst.mass), [list(e) for e in inst.edges],
            list(inst.interior)]


def _library_ref(inst, kind, status=None):
    op = wl.library_op(isocap, kind, kind, inst, None, status=status)
    return [float(x) for x in op.extract(op.run())]


def cli_pool(count=96):
    entries = []
    with tempfile.TemporaryDirectory(dir=os.getcwd()) as tmp:
        seed = 0
        while len(entries) < count:
            seed += 1
            domain = isocap.random_domain(np.random.default_rng([7, seed]), max_closure=10)
            inst = instance_from_domain(domain)
            path = os.path.join(tmp, "g.graph")
            with open(path, "w") as fh:
                fh.write(wl.graph_text(inst))
            refs = []
            try:
                for words, _ in wl.CLI_COMMANDS:
                    argv = list(words)
                    if words[0] == "cap":
                        argv.append(str(inst.interior[0]))
                    refs.append([float(x) for x in
                                 wl._cli_values(wl.cli_runner(isocap, argv + [path])())])
            except wl.Mismatch:
                continue  # a domain some command rejects is left out
            entries.append({"instance": _as_list(inst), "ref": refs})
    return entries


def weighted_pool(shape, kinds, count, seed, status=None):
    rng = np.random.default_rng(seed)
    entries = []
    for _ in range(count):
        inst = log_uniform_weights(shape, rng)
        entries.append({"instance": _as_list(inst),
                        "ref": {k: _library_ref(inst, k, status) for k in kinds}})
    return entries


def closure_pool(size, count, seed):
    """Random domains whose closure is the whole graph of `size` vertices."""
    rng = np.random.default_rng(seed)
    entries = []
    while len(entries) < count:
        domain = isocap.random_domain(rng, max_closure=size)
        if len(domain.graph.vertices) != size or len(domain.closure) != size:
            continue
        inst = instance_from_domain(domain)
        entries.append({"instance": _as_list(inst),
                        "ref": {k: _library_ref(inst, k) for k in ("kappa1", "hm_higher1")}})
    return entries


def unit_tree_pool(sizes, seed):
    """Random unit-weight trees of the given sizes; leaves are the boundary."""
    rng = np.random.default_rng(seed)
    entries = []
    for size in sizes:
        interior = range(size)
        while size - len(interior) < 3:  # at least three leaves
            edges = [[int(rng.integers(0, v)), v, 1.0] for v in range(1, size)]
            degree = np.bincount(np.array([e[:2] for e in edges]).ravel(), minlength=size)
            interior = [v for v in range(size) if degree[v] > 1]
        inst = wl.Instance(list(range(size)), [1.0] * size, edges, interior)
        entries.append({"instance": _as_list(inst),
                        "ref": {"kappa1": _library_ref(inst, "kappa1")}})
    return entries


def family_refs():
    refs = {}
    for kind, spec, last, count in wl.FAMILY_OPS:
        if wl.family_closed_form(kind, spec, last, count) is None:
            op = wl.family_op(isocap, kind, spec, last, count, None)
            refs[op.label] = [float(x) for x in op.extract(op.run())]
    return refs


def main():
    # entry counts are the copies one round runs
    pool = {
        "cli": cli_pool(),
        "unit_trees": unit_tree_pool((7, 7, 7, 8, 8, 8, 9, 9, 9, 9), 11),
        "stars": {str(p): weighted_pool(wl.star(p), ("alpha_s",), n, 100 + p)
                  for p, n in ((8, 11), (9, 10), (10, 10), (11, 10), (12, 6), (13, 3))},
        "trees": {"%dx%d" % s: weighted_pool(wl.two_level_tree(*s), ("equality",), 5,
                                             200 + 10 * s[0] + s[1], status="strict")
                  for s in wl.TREE_SHAPES},
        "closures": {str(n): closure_pool(n, c, 300 + n)
                     for n, c in ((7, 3), (8, 3), (9, 2), (10, 2))},
        "family": family_refs(),
    }
    with open(wl.POOL_FILE, "w") as fh:
        json.dump(pool, fh, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
