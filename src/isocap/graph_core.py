"""Weighted graphs, boundary subgraphs, and the discrete operators.

A graph is G = (V, E, w, m): simple, undirected, positive edge weights w and
vertex masses m.  For an interior set Omega the working subgraph is
G_Omega = (closure, E(Omega, closure), w, m): edges with both endpoints in
the vertex boundary are removed.
"""

from collections import deque

from .errors import DomainError, InputError


class WeightedGraph:
    """Immutable weighted graph over hashable vertex ids.

    vertices: iterable of ids (declaration order is kept and is the dense
    index order used by the matrix modules).
    mass: id -> positive mass.
    edges: iterable of (u, v, weight) with positive weight, no self-loops,
    no parallel edges, no isolated vertices.

    linear_core.stiffness_matrix stores the graph's stiffness on the
    instance the first time it is asked for.
    """

    def __init__(self, vertices, mass, edges):
        self.vertices = tuple(vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise InputError("duplicate vertex ids")
        self.index = {v: i for i, v in enumerate(self.vertices)}
        self.mass = {}
        for v in self.vertices:
            if v not in mass:
                raise InputError("missing mass for vertex %r" % (v,))
            mv = float(mass[v])
            if not mv > 0:
                raise InputError("mass of %r must be positive, got %r" % (v, mass[v]))
            self.mass[v] = mv
        seen = set()
        adj = {v: [] for v in self.vertices}
        normalized = []
        for u, v, w in edges:
            if u not in self.index or v not in self.index:
                raise InputError("edge (%r, %r) has an undeclared endpoint" % (u, v))
            if u == v:
                raise InputError("self-loop at %r" % (u,))
            w = float(w)
            if not w > 0:
                raise InputError("weight of (%r, %r) must be positive" % (u, v))
            if self.index[u] > self.index[v]:
                u, v = v, u
            if (u, v) in seen:
                raise InputError("parallel edge (%r, %r)" % (u, v))
            seen.add((u, v))
            normalized.append((u, v, w))
            adj[u].append((v, w))
            adj[v].append((u, w))
        self.edges = tuple(normalized)
        self.adjacency = {v: tuple(nbrs) for v, nbrs in adj.items()}
        for v in self.vertices:
            if not self.adjacency[v]:
                raise InputError("isolated vertex %r" % (v,))

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


def is_connected(graph):
    """Whether every vertex is reachable from the first (breadth-first)."""
    start = graph.vertices[0]
    seen = {start}
    queue = deque([start])
    while queue:
        x = queue.popleft()
        for y, _ in graph.adjacency[x]:
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return len(seen) == len(graph.vertices)


def vertex_boundary(graph, interior):
    """{y not in interior : y ~ x for some interior x}."""
    graph.check_vertices(interior, "interior")
    inside = set(interior)
    out = set()
    for x in inside:
        for y, _ in graph.adjacency[x]:
            if y not in inside:
                out.add(y)
    return set(out)


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
    """

    def __init__(self, graph, interior):
        if not interior:
            raise InputError("empty interior")
        graph.check_vertices(interior, "interior")
        inside = set(interior)
        self.graph = graph
        self.interior = tuple(v for v in graph.vertices if v in inside)
        bset = vertex_boundary(graph, self.interior)
        self.boundary = tuple(v for v in graph.vertices if v in bset)
        self.closure = self.interior + self.boundary
        kept = [
            (u, v, w)
            for u, v, w in graph.edges
            if u in inside or v in inside
        ]
        self.induced = WeightedGraph(
            self.closure, {v: graph.mass[v] for v in self.closure}, kept
        )
        self.interior_index = {v: i for i, v in enumerate(self.interior)}
        self.boundary_index = {v: i for i, v in enumerate(self.boundary)}
        self.closure_index = {v: i for i, v in enumerate(self.closure)}
        if not is_connected(self.induced):
            raise DomainError("closure is not connected in the induced graph")

    def is_interior(self, v):
        return v in self.interior_index

    def __repr__(self):
        return "SteklovDomain(|Omega|=%d, |dOmega|=%d)" % (
            len(self.interior),
            len(self.boundary),
        )


def make_domain(graph, interior):
    """Domain with boundary-boundary edges dropped; closure must be connected."""
    return SteklovDomain(graph, interior)


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
