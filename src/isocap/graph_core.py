"""Weighted graphs, boundary subgraphs, and the discrete operators.

A graph is G = (V, E, w, m): simple, undirected, positive edge weights w and
vertex masses m.  For an interior set Omega the working subgraph is
G_Omega = (closure, E(Omega, closure), w, m): edges with both endpoints in
the vertex boundary are removed.

Validate once, derive by index: the WeightedGraph constructor checks its
input in one pass and keeps each edge as a pair of dense positions with its
float weight.  Structure made by a builder that guarantees it (a family
builder in infinite_families, G_Omega here) is not validated again: such a
graph keeps its edges as a read-only (E, 2) position array and a weight
array instead.  Either form reads as the other, built on first use.
Domains, G_Omega, connectivity and linear_core's stiffness assembly work on
the positions: by Python loops below SPARSE_MIN_DIM ambient vertices, where
they are faster, and by array masks from there.  make_domain hands back the
domain it last built for a graph and interior while that domain is alive.
"""

import functools
import itertools
import weakref

import numpy as np

from .errors import DomainError, InputError
from .linear_core import SPARSE_MIN_DIM

_INF = float("inf")


class WeightedGraph:
    """Immutable weighted graph over hashable vertex ids.

    vertices: iterable of ids (declaration order is kept and is the dense
    index order used by the matrix modules).
    mass: id -> positive finite mass.
    edges: iterable of (u, v, weight) with positive finite weight, no
    self-loops, no parallel edges, no isolated vertices.
    Malformed input raises InputError for its first fault, looked for in
    this order: duplicate ids, masses in vertex order, edges in the order
    given, isolated vertices, and last an infinite mass or weight.

    Fields: vertices (tuple), index (id -> dense position), mass (id ->
    float, in vertex order), pairs (one (i, j) tuple of dense positions per
    edge, i < j, in the order the edges were given) and weights (the float
    weights, aligned with pairs).  `ends` and `edge_weights` hold the same
    edges as a read-only (E, 2) intp array and a read-only float array.  A
    graph stores one of the two forms (the constructor the tuples, a family
    builder or a large domain the arrays) and builds the other the first
    time it is read.  `edges`, the (u, v, weight) triples with
    u before v in vertex order, and `adjacency`, id -> ((neighbour, weight),
    ...) in edge order, are tuples built from pairs and weights the first
    time they are read.  linear_core.stiffness_matrix stores the graph's
    stiffness, a read-only ndarray in vertex order, on the instance the
    first time it is asked for, and linear_core.sparse_stiffness the same
    entries as a CSR matrix.
    """

    # make_domain's weak reference to the domain it last built on the graph
    _domain = None

    def __init__(self, vertices, mass, edges):
        vertices = tuple(vertices)
        n = len(vertices)
        index = dict(zip(vertices, range(n)))
        if len(index) != n:
            raise InputError("duplicate vertex ids")
        masses = {}
        for v in vertices:
            if v not in mass:
                raise InputError("missing mass for vertex %r" % (v,))
            mv = masses[v] = float(mass[v])
            if not mv > 0:
                raise InputError("mass of %r must be positive, got %r" % (v, mass[v]))
        # endpoints as dense positions: a parallel edge is a repeated i * n + j
        seen = set()
        touched = bytearray(n)
        pairs = []
        weights = []
        infinite = None
        for u, v, w in edges:
            i = index.get(u)
            j = index.get(v)
            if i is None or j is None:
                raise InputError("edge (%r, %r) has an undeclared endpoint" % (u, v))
            if i == j:
                raise InputError("self-loop at %r" % (u,))
            w = float(w)
            if not 0 < w < _INF:
                if not w > 0:
                    raise InputError("weight of (%r, %r) must be positive" % (u, v))
                infinite = infinite or (u, v, w)
            if i > j:
                u, v, i, j = v, u, j, i
            key = i * n + j
            if key in seen:
                raise InputError("parallel edge (%r, %r)" % (u, v))
            seen.add(key)
            pairs.append((i, j))
            weights.append(w)
            touched[i] = touched[j] = 1
        if not all(touched):
            raise InputError("isolated vertex %r" % (vertices[touched.index(0)],))
        # infinities pass every check above; they are rejected last, so any
        # other fault of the same input is still the one reported
        if _INF in masses.values():
            v = next(v for v, mv in masses.items() if mv == _INF)
            raise InputError("mass of %r must be a positive finite number, got %r"
                             % (v, mass[v]))
        if infinite:
            raise InputError("weight of (%r, %r) must be a positive finite number, "
                             "got %r" % infinite)
        self._set(vertices, index, masses, tuple(pairs), tuple(weights))

    def _set(self, vertices, index, mass, pairs, weights):
        """The one builder: every graph, validated or derived, is these five
        fields; pairs and weights are tuples, or the ends and edge_weights
        arrays.  The other form, edges and adjacency follow from them."""
        self.vertices = vertices
        self.index = index
        self.mass = mass
        if isinstance(pairs, np.ndarray):
            self.ends = pairs
            self.edge_weights = weights
        else:
            self.pairs = pairs
            self.weights = weights

    @functools.cached_property
    def pairs(self):
        return tuple(map(tuple, self.ends.tolist()))

    @functools.cached_property
    def weights(self):
        return tuple(self.edge_weights.tolist())

    @functools.cached_property
    def ends(self):
        pairs = self.pairs
        ends = np.fromiter(itertools.chain.from_iterable(pairs), np.intp,
                           2 * len(pairs)).reshape(-1, 2)
        ends.setflags(write=False)
        return ends

    @functools.cached_property
    def edge_weights(self):
        w = np.array(self.weights, dtype=float)
        w.setflags(write=False)
        return w

    @functools.cached_property
    def edges(self):
        vs = self.vertices
        return tuple((vs[i], vs[j], w) for (i, j), w in zip(self.pairs, self.weights))

    @functools.cached_property
    def adjacency(self):
        vs = self.vertices
        adj = [[] for _ in vs]
        for (i, j), w in zip(self.pairs, self.weights):
            adj[i].append((vs[j], w))
            adj[j].append((vs[i], w))
        return dict(zip(vs, map(tuple, adj)))

    def __getstate__(self):
        # the weak reference does not pickle
        state = dict(self.__dict__)
        state.pop("_domain", None)
        return state

    def mass_of(self, subset):
        return sum(self.mass[v] for v in subset)

    def degree(self, v):
        """Weighted degree Deg(v) = (1/m(v)) * sum of incident edge weights."""
        return sum(w for _, w in self.adjacency[v]) / self.mass[v]

    def check_vertices(self, subset, what="set"):
        for v in subset:
            if v not in self.index:
                raise InputError("unknown vertex %r in %s" % (v, what))

    def __eq__(self, other):
        return (
            isinstance(other, WeightedGraph)
            and self.vertices == other.vertices
            and self.mass == other.mass
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.vertices, self.edges))

    def __repr__(self):
        return "WeightedGraph(|V|=%d, |E|=%d)" % (len(self.vertices), len(self.edges))


def _derived(vertices, index, mass, pairs, weights):
    """A WeightedGraph from parts of a graph that was already validated:
    no check runs, and the constructor is not called."""
    graph = WeightedGraph.__new__(WeightedGraph)
    graph._set(vertices, index, mass, pairs, weights)
    return graph


def _connected(n, pairs):
    """Whether the n positions joined by the (i, j) pairs form one component
    (depth-first from position 0)."""
    nbrs = [[] for _ in range(n)]
    for i, j in pairs:
        nbrs[i].append(j)
        nbrs[j].append(i)
    seen = bytearray(n)
    seen[0] = 1
    stack = [0]
    reached = 1
    while stack:
        for y in nbrs[stack.pop()]:
            if not seen[y]:
                seen[y] = 1
                reached += 1
                stack.append(y)
    return reached == n


def _connected_ends(n, ends):
    """_connected for an (E, 2) position array, by hooking and pointer
    jumping: each round hooks every root onto the smallest root it shares an
    edge with, then points every position at its root, until no edge joins
    two labels.  Position 0 keeps label 0, so one component is all zeros.
    Every round merges at least two components, and pointer jumping keeps
    the rounds few: on a 1,215-vertex lattice closure it took 46 us, scipy's
    connected_components 178 us and the loop 650 us (2-core x86-64 host)."""
    u, v = ends[:, 0], ends[:, 1]
    label = np.arange(n)
    while True:
        lu, lv = label[u], label[v]
        if (lu == lv).all():
            return not label.any()
        np.minimum.at(label, np.maximum(lu, lv), np.minimum(lu, lv))
        while True:
            jumped = label[label]
            if (jumped == label).all():
                break
            label = jumped


def is_connected(graph):
    """Whether every vertex is reachable from the first."""
    return _connected(len(graph.vertices), graph.pairs)


def _roles(graph, interior):
    """Per dense position of graph: 1 for the interior, 2 for its vertex
    boundary, 0 elsewhere.  The interior is read once, in its own order; its
    first unknown vertex raises."""
    index = graph.index
    role = bytearray(len(graph.vertices))
    for v in interior:
        i = index.get(v)
        if i is None:
            raise InputError("unknown vertex %r in interior" % (v,))
        role[i] = 1
    for i, j in graph.pairs:
        if role[i] == 1:
            if not role[j]:
                role[j] = 2
        elif role[j] == 1:
            role[i] = 2
    return role


def vertex_boundary(graph, interior):
    """{y not in interior : y ~ x for some interior x}."""
    vs = graph.vertices
    return {vs[p] for p, r in enumerate(_roles(graph, interior)) if r == 2}


def _looped(graph, interior):
    """(inner, outer, pairs, weights, connected) of the domain, one edge at a
    time: interior and boundary positions in ambient order, G_Omega's edges
    as closure-position tuples, and whether the closure is connected."""
    role = _roles(graph, interior)
    inner = [p for p, r in enumerate(role) if r == 1]
    outer = [p for p, r in enumerate(role) if r == 2]
    local = dict(zip(inner + outer, range(len(inner) + len(outer))))
    pairs = []
    weights = []
    for (i, j), w in zip(graph.pairs, graph.weights):
        if role[i] == 1 or role[j] == 1:
            a, b = local[i], local[j]
            pairs.append((a, b) if a < b else (b, a))
            weights.append(w)
    return (inner, outer, tuple(pairs), tuple(weights),
            _connected(len(local), pairs))


def _masked(graph, interior):
    """_looped by array masks over the ambient graph's ends: the same
    positions and edges, in the same order, with G_Omega's edges as arrays."""
    n = len(graph.vertices)
    try:
        at = np.fromiter(map(graph.index.__getitem__, interior), np.intp, len(interior))
    except KeyError as exc:
        raise InputError("unknown vertex %r in interior" % (exc.args[0],)) from None
    ends = graph.ends
    inside = np.zeros(n, dtype=bool)
    inside[at] = True
    first, second = inside[ends[:, 0]], inside[ends[:, 1]]
    outside = np.zeros(n, dtype=bool)
    outside[ends[second & ~first, 0]] = True
    outside[ends[first & ~second, 1]] = True
    inner = np.flatnonzero(inside)
    outer = np.flatnonzero(outside)
    local = np.empty(n, dtype=np.intp)
    local[inner] = np.arange(len(inner))
    local[outer] = np.arange(len(inner), len(inner) + len(outer))
    kept = first | second
    pairs = local[ends[kept]]
    pairs.sort(axis=1)
    weights = graph.edge_weights[kept]
    pairs.setflags(write=False)
    weights.setflags(write=False)
    return (inner.tolist(), outer.tolist(), pairs, weights,
            _connected_ends(len(inner) + len(outer), pairs))


class SteklovDomain:
    """An interior set with its boundary and the induced subgraph G_Omega.

    Built by make_domain; fields:
      graph      ambient graph
      interior   Omega, in ambient vertex order
      boundary   delta Omega, in ambient vertex order
      closure    interior + boundary (this order is the dense index order of
                 `induced`, so stiffness blocks split as [interior|boundary])
      induced    G_Omega: edges between boundary vertices removed
      interior_index / boundary_index / closure_index  id -> dense position

    Everything is derived from the ambient graph's integer positions: G_Omega
    keeps the edges with an interior endpoint, in ambient edge order,
    renumbered to closure positions, and is not validated again.  Below
    SPARSE_MIN_DIM ambient vertices this runs one edge at a time and G_Omega
    keeps tuples; from there it runs by array masks and G_Omega keeps
    arrays.  The interior may be any iterable; it is read once.  Raises
    InputError for an empty interior, then for its first unknown vertex, and
    DomainError when the closure is not connected in G_Omega.
    """

    def __init__(self, graph, interior):
        interior = tuple(interior)
        if not interior:
            raise InputError("empty interior")
        derive = _masked if len(graph.vertices) >= SPARSE_MIN_DIM else _looped
        inner, outer, pairs, weights, connected = derive(graph, interior)
        vs = graph.vertices
        self.graph = graph
        self.interior = tuple(map(vs.__getitem__, inner))
        self.boundary = tuple(map(vs.__getitem__, outer))
        self.closure = closure = self.interior + self.boundary
        self.closure_index = dict(zip(closure, range(len(closure))))
        self.interior_index = dict(zip(self.interior, range(len(inner))))
        self.boundary_index = dict(zip(self.boundary, range(len(outer))))
        mass = graph.mass
        self.induced = _derived(closure, self.closure_index,
                                {v: mass[v] for v in closure}, pairs, weights)
        if not connected:
            raise DomainError("closure is not connected in the induced graph")

    def is_interior(self, v):
        return v in self.interior_index

    def __repr__(self):
        return "SteklovDomain(|Omega|=%d, |dOmega|=%d)" % (
            len(self.interior),
            len(self.boundary),
        )


def make_domain(graph, interior):
    """Domain with boundary-boundary edges dropped; closure must be connected.

    While the domain last built for this graph is alive and its interior
    equals the given one (as a tuple), that same domain is returned.  The
    graph holds it by a weak reference only, so a graph and its domain hold
    no cycle and are freed with their last outside reference."""
    interior = tuple(interior)
    domain = None if graph._domain is None else graph._domain()
    if domain is not None and domain.graph is graph and domain.interior == interior:
        return domain
    domain = SteklovDomain(graph, interior)
    graph._domain = weakref.ref(domain)
    return domain


def _require_on(f, vertices, what):
    for v in vertices:
        if v not in f:
            raise InputError("field missing value at %r (%s)" % (v, what))


def energy(domain, f, g):
    """E_Omega(f, g) = sum over retained edges of w (f(y)-f(x)) (g(y)-g(x))."""
    _require_on(f, domain.closure, "energy")
    _require_on(g, domain.closure, "energy")
    total = 0.0
    for u, v, w in domain.induced.edges:
        total += w * (f[v] - f[u]) * (g[v] - g[u])
    return total


def laplacian_apply(graph, f, at):
    """Delta f(x) = (1/m(x)) sum_{y~x} w(x,y) (f(y) - f(x)), on `at`."""
    graph.check_vertices(at, "at")
    _require_on(f, at, "laplacian")
    out = {}
    for x in at:
        acc = 0.0
        fx = f[x]
        for y, w in graph.adjacency[x]:
            if y not in f:
                raise InputError("field missing value at neighbor %r" % (y,))
            acc += w * (f[y] - fx)
        out[x] = acc / graph.mass[x]
    return out


def normal_derivative(domain, f):
    """Outward normal derivative on delta Omega: sums over interior neighbors only."""
    _require_on(f, domain.closure, "normal derivative")
    out = {}
    for z in domain.boundary:
        acc = 0.0
        fz = f[z]
        for x, w in domain.induced.adjacency[z]:
            # in G_Omega every neighbor of a boundary vertex is interior
            acc += w * (fz - f[x])
        out[z] = acc / domain.graph.mass[z]
    return out


def green_residual(domain, f, g):
    """|<Lf, g>_Omega + <df/dn, g>_dOmega - E_Omega(f, g)|, L = -Delta on G_Omega.

    Exactly zero in real arithmetic (Green's formula).
    """
    lap = laplacian_apply(domain.induced, f, domain.interior)
    nd = normal_derivative(domain, f)
    inner = 0.0
    for x in domain.interior:
        inner += -lap[x] * g[x] * domain.graph.mass[x]
    for z in domain.boundary:
        inner += nd[z] * g[z] * domain.graph.mass[z]
    return abs(inner - energy(domain, f, g))
