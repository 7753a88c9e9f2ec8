"""Parameterized graph families and their nested truncations.

Each family produces a sequence of finite snapshots: an ambient graph that
extends one layer beyond the window W, a Steklov marking of that graph, the
window itself, and the sink ring that separates the window from everything
that was cut off.  Capacities and grounded spectra evaluated on a snapshot
agree exactly with the values in the full infinite graph, because all the
relevant potentials are supported inside the window's closure.

Where a family has enough symmetry, a reduced model is available: the binary
tree collapses to a weighted path indexed by generation, and lattice boxes
collapse to orbits of coordinate permutations and sign flips.  The reduced
models carry aggregated masses and edge multiplicities, so capacities of
symmetric sets and bottom eigenvalues transfer exactly.

A spec's mass and weight rules are called once per vertex and once per edge
of the full (unreduced) snapshot.  A reduced model's mass or weight is the
left-to-right float sum, from 0.0, of its members' rule values, in the order
a loop over the full snapshot's points (then edges) meets them.  With the
default unit rules a tree generation's totals are its exact counts, so the
reduced tree costs O(depth) rather than O(2^depth).

The builders hand integer endpoint positions to one graph builder (_graph).
The structure they make (declared endpoints, no self-loop, parallel edge or
isolated vertex) is valid by construction and is not validated again; only
the rule values are checked, in bulk, after every rule call.  A mass or
weight that is not a positive finite number is reported as the WeightedGraph
constructor reports it: the same InputError for the same first fault.

Every fact about a kind is in its entry of KINDS, and nothing else names a
kind: a new kind is its builder and one entry, whose flags the tests check.
"""

import functools
import itertools
import math
import operator
import sys
from collections import namedtuple
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import InputError
from .graph_core import SPARSE_MIN_DIM, WeightedGraph, _derived, make_domain

FamilyStep = namedtuple("FamilyStep", "index graph domain W sink")


# build(spec, step) -> FamilyStep; source(spec): the default source set, in
# every step's closure.  spec.dim is read by a dimensioned kind (others take
# only 1), spec.quotient by a reducible one; grounded windows meet the boundary
# of U; a single kind is one fixed graph, without rules; summable: CLI option.
FamilyKind = namedtuple("FamilyKind", "build source dimensioned reducible grounded single "
                        "summable", defaults=(False,) * 5)


def kinds_with(flag):
    """The names of the kinds that set flag, in table order, joined by "or"."""
    return " or ".join(name for name, kind in KINDS.items() if getattr(kind, flag))


@dataclass(frozen=True)
class FamilySpec:
    """Recipe for one family; the step index is supplied to generate()."""

    kind: str
    dim: int = 1
    quotient: bool = False
    mass_rule: Optional[Callable] = None
    weight_rule: Optional[Callable] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InputError("unknown family kind %r; known: %s" % (self.kind, ", ".join(KINDS)))
        entry = KINDS[self.kind]
        if entry.dimensioned and self.dim < 1:
            raise InputError("dimension must be >= 1")
        if self.quotient and not entry.reducible:
            raise InputError("no reduced model for kind %r" % self.kind)
        if self.dim != 1 and not entry.dimensioned:
            raise InputError("family kind %r has no dimension" % self.kind)
        if entry.single and (self.mass_rule is not None or self.weight_rule is not None):
            raise InputError("family kind %r is a fixed graph without rules" % self.kind)

    def mass(self, v):
        return 1.0 if self.mass_rule is None else float(self.mass_rule(v))

    def weight(self, u, v):
        return 1.0 if self.weight_rule is None else float(self.weight_rule(u, v))


def path_graph(n, weight_rule=None, mass_rule=None):
    """Path on vertices 0..n with unit weights and masses by default."""
    if n < 1:
        raise InputError("path needs n >= 1")
    return _full_graph(mass_rule, weight_rule, list(range(n + 1)), np.arange(n),
                       np.arange(1, n + 1))


def line_domain(n, weight_rule=None, mass_rule=None):
    """Path 0..n marked with interior {1..n-1}; endpoints are the boundary."""
    if n < 2:
        raise InputError("interior needs n >= 2")
    graph = path_graph(n, weight_rule, mass_rule)
    return graph, make_domain(graph, range(1, n))


# (j, k) joins "xj" to "xk"
_T3_EDGES = np.array([
    (1, 2), (1, 3), (1, 4),
    (2, 5), (2, 6),
    (3, 7), (3, 8),
    (4, 9), (4, 10),
])


def t3_example():
    """Ten-vertex tree: root x1, its three children, six leaves; omega is the
    root plus children."""
    graph = _full_graph(None, None, ["x%d" % k for k in range(1, 11)], *(_T3_EDGES - 1).T)
    return graph, make_domain(graph, ("x1", "x2", "x3", "x4"))


def _rule_values(rule, *columns):
    """Iterator of float(rule(*args)) over the argument tuples the columns
    zip to, calling the rule in that order; 1.0 for each without a rule."""
    if rule is None:
        return itertools.repeat(1.0, len(columns[0]))
    return map(float, map(rule, *columns))


def _left_sum(values, start=0.0):
    # the left-to-right float sum the quotients are defined by; builtin sum()
    # compensates on Python >= 3.12 and would change the bits
    return functools.reduce(operator.add, values, start)


def _full_graph(mass_rule, weight_rule, vertices, src, dst):
    """The graph on `vertices` with edges (vertices[src[k]], vertices[dst[k]]),
    src and dst integer arrays with src < dst; one rule call per vertex,
    then one per edge, in the order given."""
    masses = list(_rule_values(mass_rule, vertices))
    weights = ([1.0] * len(src) if weight_rule is None else
               list(_rule_values(weight_rule, _picks(vertices, src), _picks(vertices, dst))))
    return _graph(vertices, masses, src, dst, weights)


def _graph(vertices, masses, src, dst, weights):
    """The graph on `vertices` with these masses (a float list in vertex
    order) and the edges (src[k], dst[k], weights[k]) of dense positions,
    src < dst, the weights a float list.

    A builder's structure is valid by construction, so only the values are
    checked, in bulk, and the graph is made by graph_core._derived: with its
    edges as tuples below SPARSE_MIN_DIM vertices, the form the domain loop
    reads, and as arrays from there.  A mass or weight that is not a
    positive finite number sends the whole input through the WeightedGraph
    constructor, which raises the error it always raised for it."""
    vertices = tuple(vertices)
    if len(vertices) < SPARSE_MIN_DIM:
        valid = all(0.0 < x < math.inf for x in itertools.chain(masses, weights))
        pairs, values = tuple(zip(src.tolist(), dst.tolist())), tuple(weights)
    else:
        pairs, values = np.stack([src, dst], axis=1).astype(np.intp), np.array(weights)
        valid = all(a.min() > 0 and a.max() < math.inf for a in (np.array(masses), values))
        pairs.setflags(write=False)
        values.setflags(write=False)
    if not valid:
        return WeightedGraph(vertices, dict(zip(vertices, masses)),
                             list(zip(_picks(vertices, src), _picks(vertices, dst), weights)))
    return _derived(vertices, dict(zip(vertices, range(len(vertices)))),
                    dict(zip(vertices, masses)), pairs, values)


def _interior_step(index, graph, domain):
    # the window is the whole interior, so the sink is the boundary
    return FamilyStep(index, graph, domain, domain.interior, domain.boundary)


def _path_step(spec, n):
    if n < 2:
        raise InputError("path step needs n >= 2")
    return _interior_step(n, *line_domain(n, spec.weight_rule, spec.mass_rule))


def _binary_tree_step(spec, i):
    if i < 1:
        raise InputError("tree step needs i >= 1")
    if i >= sys.float_info.max_exp:
        raise InputError("tree step needs i < %d: deeper generations overflow "
                         "a float" % sys.float_info.max_exp)
    top = 2 ** (i + 1)
    # stem 1-2, then label k has children 2k-1 and 2k
    if spec.quotient:
        # label 1 is generation 0; generation j >= 1 holds labels
        # 2^(j-1)+1 .. 2^j.  Generation j's weight sums its edges to odd
        # children, then those to even children.
        gens = [range(1, 2)] + [range(2 ** (j - 1) + 1, 2 ** j + 1) for j in range(1, i + 2)]
        if spec.mass_rule is None:
            masses = [1.0] + [2.0 ** (j - 1) for j in range(1, i + 2)]
        else:
            masses = [_left_sum(_rule_values(spec.mass_rule, g)) for g in gens]
        if spec.weight_rule is None:
            weights = [2.0 ** j for j in range(i + 1)]
        else:
            rule, parents = spec.weight_rule, gens[1:i + 1]
            stem = _left_sum(_rule_values(rule, [1], [2]))
            odd = [_left_sum(_rule_values(rule, g, range(2 * g.start - 1, 2 * g.stop - 1, 2)))
                   for g in parents]
            weights = [stem] + [
                _left_sum(_rule_values(rule, g, range(2 * g.start, 2 * g.stop, 2)), total)
                for g, total in zip(parents, odd)]
        graph = _graph(range(i + 2), masses, np.arange(i + 1), np.arange(1, i + 2), weights)
        domain = make_domain(graph, range(1, i + 2))
        return FamilyStep(i, graph, domain, tuple(range(i + 1)), (i + 1,))
    # positions are labels - 1: the stem, then each inner label's edges to
    # its odd children, then those to its even children
    inner = np.arange(1, 2 ** i)
    src = np.concatenate([[0], inner, inner])
    dst = np.concatenate([[1], 2 * inner, 2 * inner + 1])
    graph = _full_graph(spec.mass_rule, spec.weight_rule, range(1, top + 1), src, dst)
    domain = make_domain(graph, range(2, top + 1))
    window = tuple(range(1, 2 ** i + 1))
    sink = tuple(range(2 ** i + 1, top + 1))
    return FamilyStep(i, graph, domain, window, sink)


def _lattice(ranges):
    """Points of the box of integer ranges, their coordinates, and the pairs
    (k, k + stride) of +1 neighbours.

    The points come from one itertools.product, so they are in lexicographic
    order and point k sits at flat index k.  The pairs are listed by point,
    then by axis: the order of a per-point loop over the axes.
    """
    shape = tuple(len(r) for r in ranges)
    points = list(itertools.product(*ranges))
    pos = np.indices(shape).reshape(len(shape), -1).T
    strides = np.array([math.prod(shape[a + 1:]) for a in range(len(shape))])
    src, axis = np.nonzero(pos < np.array(shape) - 1)
    coords = pos + [r.start for r in ranges]
    return points, coords, src, src + strides[axis]


def _picks(items, flat):
    return list(map(items.__getitem__, flat.tolist()))


def _lattice_box_step(spec, r):
    if r < 1:
        raise InputError("box step needs r >= 1")
    dim = spec.dim
    outer = r + 1
    points, coords, src, dst = _lattice([range(-outer, outer + 1)] * dim)
    if not spec.quotient:
        graph = _full_graph(spec.mass_rule, spec.weight_rule, points, src, dst)
        window = itertools.compress(points, (np.abs(coords).max(axis=1) <= r).tolist())
        return _interior_step(r, graph, make_domain(graph, window))
    # an orbit is the sorted |coordinates|; read as base-(outer+1) digits it
    # is an integer whose order is the order of the orbit tuples
    digits = np.sort(np.abs(coords), axis=1)
    _, first, orbit = np.unique(digits @ (outer + 1) ** np.arange(dim - 1, -1, -1),
                                return_index=True, return_inverse=True)
    orbits = list(map(tuple, digits[first].tolist()))
    masses = np.zeros(len(orbits))
    np.add.at(masses, orbit, list(_rule_values(spec.mass_rule, points)))
    # each total takes its terms in point order, as a loop over the points
    # would; a +1 step changes one |coordinate|, so no edge joins an orbit to
    # itself
    lo = np.minimum(orbit[src], orbit[dst])
    hi = np.maximum(orbit[src], orbit[dst])
    keys, pair = np.unique(lo * len(orbits) + hi, return_inverse=True)
    weights = np.zeros(len(keys))
    np.add.at(weights, pair, list(_rule_values(spec.weight_rule, _picks(points, src),
                                               _picks(points, dst))))
    graph = _graph(orbits, masses.tolist(), *np.divmod(keys, len(orbits)), weights.tolist())
    return _interior_step(r, graph, make_domain(graph, (v for v in orbits if v[-1] <= r)))


def _half_space_step(spec, R):
    if R < 1:
        raise InputError("slab step needs R >= 1")
    dim = spec.dim
    outer = R + 1
    points, coords, src, dst = _lattice([range(-outer, outer + 1)] * (dim - 1)
                                        + [range(outer + 1)])
    graph = _full_graph(spec.mass_rule, spec.weight_rule, points, src, dst)
    inside = coords[:, -1] >= 1
    domain = make_domain(graph, list(itertools.compress(points, inside.tolist())))
    in_w = np.abs(coords).max(axis=1) <= R
    window = tuple(itertools.compress(points, in_w.tolist()))
    # the sink: closure vertices outside W with a neighbour in W along an
    # edge of G_Omega, i.e. one with an interior endpoint
    kept = inside[src] | inside[dst]
    near = np.zeros(len(points), dtype=bool)
    near[src[kept & in_w[dst]]] = True
    near[dst[kept & in_w[src]]] = True
    closure = np.fromiter(map(graph.index.__getitem__, domain.closure), np.intp,
                          len(domain.closure))
    sink = tuple(itertools.compress(domain.closure, (near & ~in_w)[closure].tolist()))
    return FamilyStep(R, graph, domain, window, sink)


def _origin(spec):
    return ((0,) * spec.dim,)


# the family kinds, in the order that messages list them; a step index is a
# segment length, a tree depth or a window radius (t3 ignores it)
KINDS = {
    # vertex 0 is in every step's sink
    "path_segment": FamilyKind(_path_step, lambda spec: (1,)),
    "t3": FamilyKind(lambda spec, step: _interior_step(0, *t3_example()), lambda spec: ("x1",),
                     single=True),
    # the root: label 1, or generation 0 of the quotient
    "binary_tree": FamilyKind(_binary_tree_step, lambda spec: (0,) if spec.quotient else (1,),
                              reducible=True, grounded=True),
    "lattice_box": FamilyKind(_lattice_box_step, _origin, dimensioned=True, reducible=True,
                              summable=True),
    "half_space": FamilyKind(_half_space_step, _origin, dimensioned=True, grounded=True),
}


def generate(spec, step=None):
    """The step-indexed snapshot of the family, from its kind's builder; the
    rules are called as the module docstring says (once per vertex and edge
    of the full snapshot, quotient or not)."""
    entry = KINDS[spec.kind]
    if step is None and not entry.single:
        raise InputError("family kind %r needs a step index" % spec.kind)
    return entry.build(spec, step)


def generate_steps(spec, indices):
    """Snapshots for an increasing index sequence, validated as such.  A
    single-snapshot kind takes exactly one index."""
    indices = [int(i) for i in indices]
    if not indices:
        raise InputError("empty index sequence")
    if any(b <= a for a, b in zip(indices, indices[1:])):
        raise InputError("step indices must be strictly increasing")
    if KINDS[spec.kind].single and len(indices) > 1:
        raise InputError("family kind %r has a single snapshot; pass one step index"
                         % spec.kind)
    return [generate(spec, i) for i in indices]


def default_source(spec):
    """A canonical small source set for capacity runs over the family."""
    return KINDS[spec.kind].source(spec)


def half_space_test_field(N, r0, R):
    """Radial comparison field on the slab snapshot of radius R.

    The field is 1 on the ball of radius r0 intersected with the closed half
    space and decays like (r0/r)^(N-2) outward.  It is shifted and rescaled
    so that it hits zero exactly at radius R+1 while keeping value 1 on the
    source ball; clipping at zero truncates the support without breaking
    admissibility.  Keys cover the whole radius-R slab snapshot, so the dict
    plugs directly into the snapshot's energy form.
    """
    if N < 3:
        raise InputError("radial decay needs N >= 3")
    if not 1 <= r0 < R:
        raise InputError("need 1 <= r0 < R")
    floor = (r0 / (R + 1.0)) ** (N - 2)
    out = {}
    lateral = range(-(R + 1), R + 2)
    for x in itertools.product(*([lateral] * (N - 1) + [range(R + 2)])):
        rad = max(abs(c) for c in x)
        raw = 1.0 if rad <= r0 else (r0 / rad) ** (N - 2)
        out[x] = max(0.0, (raw - floor) / (1.0 - floor))
    return out


def half_space_capacity_bound(N, r0, R):
    """Energy of the radial comparison field divided by the source mass.

    This is a certified upper bound for the relative capacity of the ball
    Q_r0 in the half space: the field is admissible and finitely supported.
    Vectorized; edges inside the floor hyperplane carry no energy and are
    skipped.
    """
    if N < 3:
        raise InputError("radial decay needs N >= 3")
    if not 1 <= r0 < R:
        raise InputError("need 1 <= r0 < R")
    axes = [np.arange(-(R + 1), R + 2)] * (N - 1) + [np.arange(0, R + 2)]
    grids = np.meshgrid(*axes, indexing="ij")
    rad = np.maximum.reduce([np.abs(g) for g in grids])
    floor = (r0 / (R + 1.0)) ** (N - 2)
    raw = np.where(rad <= r0, 1.0, (r0 / np.maximum(rad, 1.0)) ** (N - 2))
    field = np.clip((raw - floor) / (1.0 - floor), 0.0, None)
    height = grids[-1]
    total = 0.0
    for axis in range(N):
        diff = np.diff(field, axis=axis)
        if axis < N - 1:
            cut = [slice(None)] * N
            cut[axis] = slice(0, -1)
            total += float((diff ** 2 * (height[tuple(cut)] > 0)).sum())
        else:
            total += float((diff ** 2).sum())
    return total / (2 * r0 + 1) ** (N - 1)
