"""Seeded inputs, op lists and output checks for the four workloads.

An op is one call into isocap.  Its inputs are made in set-up from the
workload seed; the program sees only those inputs (graph files for the CLI,
vertex/edge lists for the library).  Every op knows the values it must
return: a closed form from the paper, or a reference recorded from the
program at the commit that defined this benchmark (`pool.json`).

Seeds vary the inputs without losing the references: a seed renames every
vertex, shuffles declaration order, scales all weights by 2**a and all
masses by 2**b, and orders the op list.  Power-of-two scaling is exact in
floating point, and the maths fixes how each value moves: eigenvalues and
isocapacitary constants by 2**(a-b), capacities by 2**a.
"""

import contextlib
import dataclasses
import io
import json
import os
from collections import namedtuple

import numpy as np

# Relative tolerance against a recorded reference, taken relative to the
# largest magnitude in the compared vector (Neumann/Steklov spectra start
# with a zero eigenvalue).
REL_TOL = 1e-8

WORKLOADS = ("cli_campaign", "family_sweep", "enum_ties", "enum_generic")

POOL_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pool.json")

Op = namedtuple("Op", "label run extract expected")


class Mismatch(Exception):
    """An output that is wrong for a reason other than a value."""


def check(op, result):
    """Raise Mismatch unless `result` is what `op` must return."""
    got = [float(x) for x in op.extract(result)]
    want = [float(x) for x in op.expected]
    if len(got) != len(want):
        raise Mismatch("%s: %d values, expected %d" % (op.label, len(got), len(want)))
    scale = max([abs(x) for x in want] + [1e-300])
    for g, w in zip(got, want):
        if not abs(g - w) <= REL_TOL * scale:
            raise Mismatch("%s: got %r, expected %r" % (op.label, g, w))


# ---------------------------------------------------------------------------
# instances: raw vertex/edge lists, renamed and scaled per seed

Instance = namedtuple("Instance", "vertices mass edges interior")


def star(p):
    """Unit star: interior centre 0, boundary leaves 1..p."""
    return Instance(list(range(p + 1)), [1.0] * (p + 1),
                    [[0, i, 1.0] for i in range(1, p + 1)], [0])


def two_level_tree(c, leaves):
    """Root 0 with c children, each with `leaves` leaves; leaves are the
    boundary, root and children the interior; unit weights and masses."""
    vertices, edges, interior = [0], [], [0]
    for _ in range(c):
        child = len(vertices)
        vertices.append(child)
        interior.append(child)
        edges.append([0, child, 1.0])
        for _ in range(leaves):
            edges.append([child, len(vertices), 1.0])
            vertices.append(len(vertices))
    return Instance(vertices, [1.0] * len(vertices), edges, interior)


def transform(inst, rng, spread=3):
    """Rename, reorder and scale an instance; returns it with a, b and the
    renaming."""
    n = len(inst.vertices)
    names = ["x%d" % i for i in rng.permutation(n)]
    rename = dict(zip(inst.vertices, names))
    a, b = (int(x) for x in rng.integers(-spread, spread + 1, size=2))
    order = rng.permutation(n)
    vertices = [rename[inst.vertices[i]] for i in order]
    mass = [inst.mass[i] * 2.0 ** b for i in order]
    edges = []
    for i in rng.permutation(len(inst.edges)):
        u, v, w = inst.edges[i]
        if rng.random() < 0.5:
            u, v = v, u
        edges.append([rename[u], rename[v], w * 2.0 ** a])
    interior = sorted((rename[v] for v in inst.interior),
                      key=lambda x: int(x[1:]))
    return Instance(vertices, mass, edges, interior), a, b, rename


def graph_text(inst):
    lines = ["v %s %r" % (v, m) for v, m in zip(inst.vertices, inst.mass)]
    lines += ["e %s %s %r" % (u, v, w) for u, v, w in inst.edges]
    lines.append("omega " + " ".join(str(v) for v in inst.interior))
    return "\n".join(lines) + "\n"


def make_domain(isocap, inst):
    graph = isocap.WeightedGraph(inst.vertices, dict(zip(inst.vertices, inst.mass)),
                                 [tuple(e) for e in inst.edges])
    return isocap.make_domain(graph, inst.interior)


# ---------------------------------------------------------------------------
# what each kind of op runs and which values it is judged by

def _json_doc(result):
    code, text = result
    if code != 0:
        raise Mismatch("exit code %d" % code)
    return json.loads(text)["results"][0]


def _cli_values(result):
    doc = _json_doc(result)
    if doc["type"] == "bound":
        if not (doc["upper_ok"] and doc["lower_ok"] is not False):
            raise Mismatch("bound check failed")
        return [doc["eigenvalue"], doc["constant"]]
    if doc["type"] == "spectrum":
        return doc["eigenvalues"]
    return [doc["value"]]


# CLI commands of the campaign: argv before the file, the scaling of values
CLI_COMMANDS = (
    [(("verify", t), "ratio") for t in ("dirichlet_1", "neumann_1", "steklov_1",
                                       "hm_steklov_1")]
    + [(("spectrum", m), "ratio") for m in ("dirichlet", "neumann", "steklov", "hm")]
    + [(("cap", "-A"), "cap")]
    + [(("alpha", w), "ratio") for w in ("d", "n", "s")]
)


def cli_runner(isocap, argv):
    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = isocap.run_command(argv)
        return code, out.getvalue()
    return run


def _passed(report):
    if not report.passed():
        raise Mismatch("bound check failed")
    return report


LIBRARY_KINDS = {
    # kind: (call on a domain, values it is judged by)
    "alpha_s": (lambda iso, d: iso.alpha_steklov(d), lambda r: [r.value]),
    "kappa1": (lambda iso, d: iso.kappa_steklov(d, 1), lambda r: [r.value]),
    "verify_s1": (lambda iso, d: iso.check("steklov_1", d),
                  lambda r: [_passed(r).eigenvalue, r.constant]),
    "hm_higher1": (lambda iso, d: iso.check("hm_higher", d, k=1),
                   lambda r: [_passed(r).eigenvalue, r.constant]),
    "equality": (lambda iso, d: iso.check_equality_case(d),
                 lambda r: [r.sigma1, r.alpha_s]),
}


def _status(want, values):
    def extract(report):
        if report.status != want:
            raise Mismatch("equality status %r, expected %r" % (report.status, want))
        return values(report)
    return extract


def library_op(isocap, label, kind, inst, expected, status=None, values=None):
    call, default = LIBRARY_KINDS[kind]
    values = values or default
    if status is not None:
        values = _status(status, values)
    return Op(label, lambda: call(isocap, make_domain(isocap, inst)), values, expected)


# Family ops: what each kind calls on a spec and its generated steps
def _family_kinds(isocap):
    return {
        "adl": lambda spec, steps: isocap.alpha_dirichlet_limit(steps, heuristic=True),
        "cap": lambda spec, steps: isocap.cap_exhaustion(steps,
                                                         isocap.default_source(spec)),
        "gdtn": lambda spec, steps: isocap.grounded_dtn_spectrum(
            steps[-1].domain, steps[-1].W, count=1),
        "dir": lambda spec, steps: isocap.dirichlet_spectrum(
            steps[-1].graph, steps[-1].W, count=1),
        "alpha_s": lambda spec, steps: isocap.alpha_steklov(steps[-1].domain),
    }


def family_values(kind, result):
    if kind in ("adl", "cap"):
        return result.values
    if kind in ("gdtn", "dir"):
        return [result.eigenvalues[0]]
    return [result.value]


# family_sweep: (kind, spec, last step, steps per op), all run every round.
# The alpha_D steps all exceed the single-set budget, so they take the
# heuristic path and no subset enumeration runs.
FAMILY_OPS = (
    [("adl", "path_segment", n, 1) for n in range(30, 101, 10)]
    + [("adl", "lattice_box:3:quotient", r, 2) for r in range(5, 8)]
    + [("cap", "binary_tree", i, 2) for i in range(3, 10)]
    + [("cap", "binary_tree:quotient", i, 2) for i in range(3, 15)]
    + [("gdtn", "binary_tree", i, 1) for i in range(3, 10)]
    + [("gdtn", "binary_tree:quotient", i, 1) for i in range(3, 15)]
    + [("dir", "lattice_box:2", r, 1) for r in range(2, 11)]
    + [("cap", "lattice_box:2", r, 2) for r in range(3, 11)]
    + [("dir", "lattice_box:3", r, 1) for r in range(1, 5)]  # r=4: 1,331 vertices
    + [("cap", "lattice_box:3", r, 2) for r in range(2, 5)]
    + [("gdtn", "half_space:3", r, 1) for r in range(1, 6)]
    + [("alpha_s", "path_segment", n, 1) for n in range(10, 116, 5)]
)


def family_key(kind, spec, last, count):
    return "%s|%s|%s" % (kind, spec, ",".join(str(i) for i in
                                              range(last - count + 1, last + 1)))


def family_closed_form(kind, spec, last, count):
    """Values the paper fixes at unit weights and masses, or None."""
    if kind == "cap" and spec.startswith("binary_tree"):
        # Cap of the root against generation i of the binary tree
        return [2.0 ** i / (2.0 ** (i + 1) - 1.0) for i in range(last - count + 1, last + 1)]
    if kind == "alpha_s" and spec == "path_segment":
        return [1.0 / last]  # alpha_S of the segment with n edges
    return None


def family_op(isocap, kind, spec_text, last, count, expected, a=0, b=0):
    """One call on the steps ending at `last`, weights 2**a and masses 2**b."""
    spec = dataclasses.replace(isocap.cli_io.parse_family_spec(spec_text),
                               weight_rule=lambda u, v: 2.0 ** a,
                               mass_rule=lambda v: 2.0 ** b)
    indices = list(range(last - count + 1, last + 1))
    call = _family_kinds(isocap)[kind]
    return Op(family_key(kind, spec_text, last, count),
              lambda: call(spec, isocap.generate_steps(spec, indices)),
              lambda r: family_values(kind, r), expected)


# ---------------------------------------------------------------------------
# op lists: every round runs the same ops, so a round's cost does not depend
# on the seed; the seed renames, reorders and scales the inputs.

def _scale(a, b, kind="ratio"):
    return 2.0 ** a if kind == "cap" else 2.0 ** (a - b)


def _pool_ops(isocap, rng, entries, kind, label, status=None):
    """One op per recorded pool entry, each on a renamed, scaled copy."""
    ops = []
    for entry in entries:
        inst, a, b, _ = transform(Instance(*entry["instance"]), rng)
        expected = [x * _scale(a, b) for x in entry["ref"][kind]]
        ops.append(library_op(isocap, label, kind, inst, expected, status))
    return ops


def cli_ops(isocap, rng, pool, workdir):
    ops = []
    for n, entry in enumerate(pool["cli"]):
        inst, a, b, rename = transform(Instance(*entry["instance"]), rng)
        path = os.path.join(workdir, "d%03d.graph" % n)
        with open(path, "w") as fh:
            fh.write(graph_text(inst))
        for (words, scaling), ref in zip(CLI_COMMANDS, entry["ref"]):
            argv = list(words)
            if words[0] == "cap":
                argv.append(rename[entry["instance"][3][0]])
            argv.append(path)
            ops.append(Op(" ".join(words), cli_runner(isocap, argv), _cli_values,
                          [x * _scale(a, b, scaling) for x in ref]))
    return ops


def family_ops(isocap, rng, pool):
    ops = []
    for kind, spec, last, count in FAMILY_OPS:
        a, b = (int(x) for x in rng.integers(-3, 4, size=2))
        ref = family_closed_form(kind, spec, last, count)
        if ref is None:
            ref = pool["family"][family_key(kind, spec, last, count)]
        scale = _scale(a, b, "cap" if kind == "cap" else "ratio")
        ops.append(family_op(isocap, kind, spec, last, count,
                             [x * scale for x in ref], a, b))
    return ops


def _equal_sides(report):
    """sigma_1 = 2 alpha_S within REL_TOL of sigma_1; judged as one zero."""
    sigma, alpha = report.sigma1, report.alpha_s
    if not abs(sigma - 2.0 * alpha) <= REL_TOL * abs(sigma):
        raise Mismatch("sigma_1 %r != 2 alpha_S %r" % (sigma, 2.0 * alpha))
    return [0.0]


# Unit-weight shapes of enum_ties and how many renamed copies a round runs.
# Unit stars have alpha_S = 1/2 and sigma_1 = 1; the two-level trees have
# sigma_1 = 2 alpha_S with multiplicity at most 3.
TIE_STARS = ((6, 10), (7, 10), (8, 10), (9, 8), (10, 4), (11, 2))
TIE_VERIFY_STARS = ((6, 4), (7, 4), (8, 4), (9, 4))
TIE_TREES = (((2, 3), 6), ((3, 2), 6), ((2, 4), 6), ((4, 2), 6), ((3, 3), 4), ((2, 5), 2))
TREE_SHAPES = tuple(shape for shape, _ in TIE_TREES)


def enum_ties_ops(isocap, rng, pool):
    ops = []
    for p, copies in TIE_STARS:
        for _ in range(copies):
            inst, a, b, _ = transform(star(p), rng)
            ops.append(library_op(isocap, "alpha_s star%d unit" % p, "alpha_s", inst,
                                  [0.5 * _scale(a, b)]))
    for p, copies in TIE_VERIFY_STARS:
        for _ in range(copies):
            inst, a, b, _ = transform(star(p), rng)
            ops.append(library_op(isocap, "verify_s1 star%d unit" % p, "verify_s1", inst,
                                  [1.0 * _scale(a, b), 0.5 * _scale(a, b)]))
    for (c, leaves), copies in TIE_TREES:
        for _ in range(copies):
            inst, _, _, _ = transform(two_level_tree(c, leaves), rng)
            ops.append(library_op(isocap, "equality tree%dx%d unit" % (c, leaves),
                                  "equality", inst, [0.0], status="equal",
                                  values=_equal_sides))
    ops += _pool_ops(isocap, rng, pool["unit_trees"], "kappa1", "kappa1 unit tree")
    return ops


def enum_generic_ops(isocap, rng, pool):
    ops = []
    for p, entries in sorted(pool["stars"].items(), key=lambda kv: int(kv[0])):
        ops += _pool_ops(isocap, rng, entries, "alpha_s", "alpha_s star%s random" % p)
    for shape, entries in pool["trees"].items():
        ops += _pool_ops(isocap, rng, entries, "equality", "equality tree%s random" % shape,
                         status="strict")
    for size, entries in pool["closures"].items():
        for kind in ("kappa1", "hm_higher1"):
            ops += _pool_ops(isocap, rng, entries, kind, "%s closure%s random" % (kind, size))
    return ops


def build_ops(isocap, workload, seed, workdir, pool=None):
    """The op list of one round of `workload`, in its seeded order."""
    if pool is None:
        with open(POOL_FILE) as fh:
            pool = json.load(fh)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "cli_campaign":
        ops = cli_ops(isocap, rng, pool, workdir)
    elif workload == "family_sweep":
        ops = family_ops(isocap, rng, pool)
    elif workload == "enum_ties":
        ops = enum_ties_ops(isocap, rng, pool)
    elif workload == "enum_generic":
        ops = enum_generic_ops(isocap, rng, pool)
    else:
        raise ValueError("unknown workload %r" % workload)
    return [ops[i] for i in rng.permutation(len(ops))]
