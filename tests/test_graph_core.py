import gc
import pickle
import weakref

import numpy as np
import pytest

import isocap.infinite_families as infinite_families
from isocap import (DomainError, FamilySpec, InputError, WeightedGraph, dirichlet_spectrum,
                    energy, generate, green_residual, laplacian_apply, make_domain,
                    normal_derivative, stiffness_matrix, vertex_boundary)
from isocap.graph_core import is_connected
from isocap.linear_core import SPARSE_MIN_DIM
from isocap.infinite_families import path_graph, t3_example


def square_graph():
    masses = {v: 1.0 + v for v in range(4)}
    edges = [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0), (0, 3, 4.0)]
    return WeightedGraph(range(4), masses, edges)


def test_vertex_order_and_index():
    g = square_graph()
    assert g.vertices == (0, 1, 2, 3)
    assert g.index == {0: 0, 1: 1, 2: 2, 3: 3}
    assert g.mass_of([1, 3]) == pytest.approx(6.0)
    # weighted degree folds the mass in
    assert g.degree(0) == pytest.approx((1.0 + 4.0) / 1.0)
    assert g.degree(2) == pytest.approx((2.0 + 3.0) / 3.0)


def test_edges_normalized_by_declaration_order():
    g = WeightedGraph("ab", {"a": 1, "b": 1}, [("b", "a", 2.0)])
    assert g.edges == (("a", "b", 2.0),)
    assert g.adjacency["a"] == (("b", 2.0),)


# ---------------------------------------------------------------------------
# oracle: the one-edge-at-a-time constructor, kept here because only tests use it

def loop_graph(vertices, mass, edges):
    """Reference construction; returns (vertices, index, mass, edges,
    adjacency), which WeightedGraph must reproduce, and raises the same first
    InputError on malformed input."""
    vertices = tuple(vertices)
    if len(set(vertices)) != len(vertices):
        raise InputError("duplicate vertex ids")
    index = {v: i for i, v in enumerate(vertices)}
    masses = {}
    for v in vertices:
        if v not in mass:
            raise InputError("missing mass for vertex %r" % (v,))
        mv = float(mass[v])
        if not mv > 0:
            raise InputError("mass of %r must be positive, got %r" % (v, mass[v]))
        masses[v] = mv
    seen = set()
    adj = {v: [] for v in vertices}
    normalized = []
    for u, v, w in edges:
        if u not in index or v not in index:
            raise InputError("edge (%r, %r) has an undeclared endpoint" % (u, v))
        if u == v:
            raise InputError("self-loop at %r" % (u,))
        w = float(w)
        if not w > 0:
            raise InputError("weight of (%r, %r) must be positive" % (u, v))
        if index[u] > index[v]:
            u, v = v, u
        if (u, v) in seen:
            raise InputError("parallel edge (%r, %r)" % (u, v))
        seen.add((u, v))
        normalized.append((u, v, w))
        adj[u].append((v, w))
        adj[v].append((u, w))
    adjacency = {v: tuple(nbrs) for v, nbrs in adj.items()}
    for v in vertices:
        if not adjacency[v]:
            raise InputError("isolated vertex %r" % (v,))
    return vertices, index, masses, tuple(normalized), adjacency


MALFORMED = [
    dict(vertices=[0, 0], mass={0: 1}, edges=[]),
    dict(vertices=[0, 1], mass={0: 1}, edges=[(0, 1, 1)]),
    dict(vertices=[0, 1], mass={0: 1, 1: -2}, edges=[(0, 1, 1)]),
    dict(vertices=[0, 1], mass={0: 1, 1: 1}, edges=[(0, 2, 1)]),
    dict(vertices=[0, 1], mass={0: 1, 1: 1}, edges=[(0, 0, 1)]),
    dict(vertices=[0, 1], mass={0: 1, 1: 1}, edges=[(0, 1, 0.0)]),
    dict(vertices=[0, 1], mass={0: 1, 1: 1}, edges=[(0, 1, 1), (1, 0, 2)]),
    dict(vertices=[0, 1, 2], mass={0: 1, 1: 1, 2: 1}, edges=[(0, 1, 1)]),
    dict(vertices=[0, 1], mass={0: 1, 1: 1}, edges=[(1, 0, 1), (0, 1, 2)]),
]


@pytest.mark.parametrize("bad", MALFORMED)
def test_construction_rejects(bad):
    with pytest.raises(InputError):
        WeightedGraph(**bad)


def _first_error(build, case):
    with pytest.raises(InputError) as err:
        build(**case)
    return str(err.value)


@pytest.mark.parametrize("case", MALFORMED + [
    # several faults at once: the first in declaration order is reported
    dict(vertices="abc", mass={"a": 1, "b": 0, "c": 1},
         edges=[("a", "z", 1), ("b", "c", 1)]),
    dict(vertices="abc", mass={"a": 1, "b": 1, "c": 1},
         edges=[("a", "b", 1), ("b", "a", 1), ("c", "c", 1)]),
    dict(vertices="abc", mass={"a": 1, "b": 1, "c": 1},
         edges=[("a", "b", -1), ("b", "a", 1)]),
    dict(vertices="abcd", mass={"a": 1, "b": 1, "c": 1, "d": 1},
         edges=[("a", "b", 1), ("c", "a", 1), ("b", "a", 2), ("c", "x", 1)]),
    dict(vertices=[(0, 1), (1, 0), (1, 1)], mass={(0, 1): 1, (1, 0): 1, (1, 1): 1},
         edges=[((1, 1), (0, 1), 1), ((0, 1), (1, 1), float("nan"))]),
])
def test_construction_reports_the_oracle_first_error(case):
    assert _first_error(WeightedGraph, case) == _first_error(loop_graph, case)


def random_inputs():
    """(vertices, mass, edges) of 100 random connected graphs: integer,
    string and tuple ids, edges shuffled and given either way round."""
    rng = np.random.default_rng(7)
    labels = [lambda k: k, lambda k: "v%d" % k, lambda k: (k % 3, k // 3)]
    for trial in range(100):
        n = int(rng.integers(2, 14))
        name = labels[trial % 3]
        pairs = [(int(rng.integers(i)), i) for i in range(1, n)]
        pairs += [(i, j) for i in range(n) for j in range(i + 1, n)
                  if rng.random() < 0.3 and (i, j) not in pairs]
        pairs = [pairs[t] for t in rng.permutation(len(pairs))]
        pairs = [(j, i) if rng.random() < 0.5 else (i, j) for i, j in pairs]
        vertices = [name(int(k)) for k in rng.permutation(n)]
        mass = {name(k): float(10.0 ** rng.uniform(-3, 3)) for k in range(n)}
        edges = [(name(i), name(j), float(10.0 ** rng.uniform(-3, 3))) for i, j in pairs]
        yield vertices, mass, edges


def test_construction_matches_the_edge_loop():
    for vertices, mass, edges in random_inputs():
        g = WeightedGraph(vertices, mass, edges)
        assert (g.vertices, g.index, g.mass, g.edges, g.adjacency) == \
            loop_graph(vertices, mass, edges)
        assert list(g.index) == list(g.vertices)
        assert list(g.adjacency) == list(g.vertices)
        # the integer form the constructor keeps: i < j, in edge order
        assert g.pairs == tuple((g.index[u], g.index[v]) for u, v, _ in g.edges)
        assert all(i < j for i, j in g.pairs)
        assert g.weights == tuple(w for _, _, w in g.edges)


@pytest.mark.parametrize("bad", [float("inf"), float("nan"), "inf", -float("inf")])
def test_masses_must_be_positive_finite(bad):
    edges = [("a", "b", 1.0), ("b", "c", 1.0)]
    with pytest.raises(InputError, match="mass of 'b' must be"):
        WeightedGraph("abc", {"a": 1, "b": bad, "c": 1}, edges)


@pytest.mark.parametrize("bad", [float("inf"), float("nan"), "inf", -float("inf")])
def test_weights_must_be_positive_finite(bad):
    with pytest.raises(InputError, match=r"weight of \('c', 'b'\) must be"):
        WeightedGraph("abc", {v: 1 for v in "abc"}, [("a", "b", 1.0), ("c", "b", bad)])


def test_infinities_are_reported_after_the_other_faults():
    # the parallel edge is what the edge loop reports; the infinity comes last
    with pytest.raises(InputError, match="parallel edge"):
        WeightedGraph("ab", {"a": float("inf"), "b": 1}, [("a", "b", 1), ("b", "a", 1)])
    with pytest.raises(InputError, match=r"mass of 'a' must be a positive finite number, "
                                         r"got inf"):
        WeightedGraph("abc", {"a": float("inf"), "b": 1, "c": 1},
                      [("a", "b", float("inf")), ("b", "c", 1)])
    with pytest.raises(InputError, match=r"weight of \('b', 'a'\) must be a positive "
                                         r"finite number, got inf"):
        WeightedGraph("abc", {v: 1 for v in "abc"},
                      [("b", "a", float("inf")), ("b", "c", float("inf"))])


def test_vertex_boundary_path():
    g = path_graph(4)
    assert vertex_boundary(g, [1, 2, 3]) == {0, 4}
    assert vertex_boundary(g, [2]) == {1, 3}
    with pytest.raises(InputError):
        vertex_boundary(g, [9])


def test_domain_closure_order_and_blocks():
    g = path_graph(4)
    dom = make_domain(g, [1, 2, 3])
    assert dom.interior == (1, 2, 3)
    assert dom.boundary == (0, 4)
    assert dom.closure == (1, 2, 3, 0, 4)
    assert dom.is_interior(2) and not dom.is_interior(0)


def test_induced_drops_boundary_boundary_edges():
    # triangle with one interior vertex: the opposite edge is removed
    g = WeightedGraph("abc", {v: 1.0 for v in "abc"},
                      [("a", "b", 1.0), ("b", "c", 1.0), ("a", "c", 1.0)])
    dom = make_domain(g, ["a"])
    kept = {(u, v) for u, v, _ in dom.induced.edges}
    assert kept == {("a", "b"), ("a", "c")}


def test_disconnected_closure_rejected():
    # two interior vertices in separate components of the closure
    g = WeightedGraph(range(4), {v: 1.0 for v in range(4)},
                      [(0, 1, 1.0), (2, 3, 1.0), (1, 2, 1.0)])
    with pytest.raises(DomainError):
        make_domain(g, [0, 3])
    # the full interior is fine
    make_domain(g, [0, 1, 2, 3])


def test_t3_shape():
    g, dom = t3_example()
    assert len(g.vertices) == 10
    assert dom.interior == ("x1", "x2", "x3", "x4")
    assert set(dom.boundary) == {"x%d" % k for k in range(5, 11)}
    # leaves hang off distinct interior parents, no boundary-boundary edges
    assert all({u, v} & set(dom.interior) for u, v, _ in dom.induced.edges)


# ---------------------------------------------------------------------------
# oracle: the vertex-id domain construction that sent G_Omega back through
# the validating constructor, kept here because only tests use it


def oracle_domain(graph, interior):
    """Reference domain fields, or the first error, from vertex ids and sets."""
    if not interior:
        raise InputError("empty interior")
    graph.check_vertices(interior, "interior")
    inside = set(interior)
    interior = tuple(v for v in graph.vertices if v in inside)
    bset = {y for x in inside for y, _ in graph.adjacency[x] if y not in inside}
    boundary = tuple(v for v in graph.vertices if v in bset)
    closure = interior + boundary
    kept = [(u, v, w) for u, v, w in graph.edges if u in inside or v in inside]
    induced = WeightedGraph(closure, {v: graph.mass[v] for v in closure}, kept)
    start = closure[0]
    seen = {start}
    queue = [start]
    while queue:
        for y, _ in induced.adjacency[queue.pop()]:
            if y not in seen:
                seen.add(y)
                queue.append(y)
    if len(seen) != len(closure):
        raise DomainError("closure is not connected in the induced graph")
    return dict(interior=interior, boundary=boundary, closure=closure, induced=induced,
                interior_index={v: i for i, v in enumerate(interior)},
                boundary_index={v: i for i, v in enumerate(boundary)},
                closure_index={v: i for i, v in enumerate(closure)})


def _graph_fields(g):
    return (g.vertices, list(g.index.items()), list(g.mass.items()), g.edges,
            list(g.adjacency.items()), stiffness_matrix(g).tobytes())


def assert_matches_oracle(graph, interior, build=make_domain):
    """make_domain agrees with the oracle field by field (dicts in order,
    stiffness bytes), or raises the same first error."""
    try:
        ref = oracle_domain(graph, interior)
    except (InputError, DomainError) as exc:
        with pytest.raises(type(exc)) as got:
            build(graph, interior)
        assert str(got.value) == str(exc)
        return False
    dom = build(graph, interior)
    assert dom.graph is graph
    for name in ("interior", "boundary", "closure"):
        assert getattr(dom, name) == ref[name]
    for name in ("interior_index", "boundary_index", "closure_index"):
        assert list(getattr(dom, name).items()) == list(ref[name].items())
    assert _graph_fields(dom.induced) == _graph_fields(ref["induced"])
    return True


def test_domain_matches_the_oracle_on_random_graphs():
    rng = np.random.default_rng(8)
    built = failed = 0
    for vertices, mass, edges in random_inputs():
        g = WeightedGraph(vertices, mass, edges)
        for _ in range(4):
            size = int(rng.integers(0, len(vertices) + 1))
            interior = [vertices[t] for t in rng.permutation(len(vertices))[:size]]
            if rng.random() < 0.1:
                interior.append("nowhere")
            ok = assert_matches_oracle(g, interior)
            built += ok
            failed += not ok
    assert built > 200 and failed > 20  # both outcomes are exercised


@pytest.mark.parametrize("spec", [
    FamilySpec("path_segment"), FamilySpec("t3"), FamilySpec("binary_tree"),
    FamilySpec("binary_tree", quotient=True),
    FamilySpec("binary_tree", weight_rule=lambda u, v: 1.0 + u % 3,
               mass_rule=lambda v: 0.5 + v % 2),
    FamilySpec("lattice_box", dim=1), FamilySpec("lattice_box", dim=2),
    FamilySpec("lattice_box", dim=3), FamilySpec("lattice_box", dim=2, quotient=True),
    FamilySpec("lattice_box", dim=3, quotient=True),
    FamilySpec("half_space", dim=1), FamilySpec("half_space", dim=2),
    FamilySpec("half_space", dim=3, weight_rule=lambda u, v: 1.0 + abs(u[0] - v[0])),
], ids=repr)
def test_family_domains_match_the_oracle(spec, monkeypatch):
    calls = []

    def recording(graph, interior):
        interior = tuple(interior)
        calls.append((graph, interior))
        return make_domain(graph, interior)

    monkeypatch.setattr(infinite_families, "make_domain", recording)
    for step in range(1, 5):
        if spec.kind == "path_segment" and step < 2:
            continue
        generate(spec, step)
    assert calls
    for graph, interior in calls:
        assert assert_matches_oracle(graph, interior)


def large_graphs():
    """Random connected graphs of 150-400 vertices, on both sides of
    SPARSE_MIN_DIM: a random tree plus about n extra edges, integer, string
    and tuple ids, edges shuffled and given either way round."""
    rng = np.random.default_rng(9)
    labels = [lambda k: k, lambda k: "v%d" % k, lambda k: (k % 7, k // 7)]
    sizes = [150, SPARSE_MIN_DIM - 1, SPARSE_MIN_DIM, 400] + rng.integers(150, 401, 6).tolist()
    for trial, n in enumerate(sizes):
        name = labels[trial % 3]
        pairs = {(int(rng.integers(i)), i) for i in range(1, n)}
        pairs |= {(min(i, j), max(i, j)) for i, j in rng.integers(0, n, (n, 2)).tolist() if i != j}
        pairs = sorted(pairs)
        pairs = [pairs[t] for t in rng.permutation(len(pairs))]
        pairs = [(j, i) if rng.random() < 0.5 else (i, j) for i, j in pairs]
        vertices = [name(int(k)) for k in rng.permutation(n)]
        mass = {name(k): float(10.0 ** rng.uniform(-3, 3)) for k in range(n)}
        edges = [(name(i), name(j), float(10.0 ** rng.uniform(-3, 3))) for i, j in pairs]
        yield rng, WeightedGraph(vertices, mass, edges)


def _ball(rng, graph, size):
    """The first `size` vertices met breadth-first from a random vertex."""
    seen = [graph.vertices[int(rng.integers(len(graph.vertices)))]]
    for v in seen:
        seen += [y for y, _ in graph.adjacency[v] if y not in seen]
        if len(seen) >= size:
            break
    return seen[:size]


def test_masked_domains_match_the_oracle_on_large_graphs():
    built = failed = 0
    for rng, g in large_graphs():
        n = len(g.vertices)
        scattered = [g.vertices[t] for t in rng.permutation(n)[:n // 3]]
        ball = _ball(rng, g, int(rng.integers(1, n // 2)))
        for interior in (ball, ball[::-1] + ball[:3], scattered, list(g.vertices),
                         ball[:5] + ["nowhere"] + ball[5:]):
            ok = assert_matches_oracle(g, interior)
            built += ok
            failed += not ok
            if ok:
                induced = make_domain(g, interior).induced
                assert all(type(i) is int for pair in induced.pairs for i in pair)
                assert all(type(w) is float for w in induced.weights)
    assert built >= 20 and failed >= 15  # both outcomes are exercised


def test_make_domain_returns_the_live_domain_of_its_graph():
    g = path_graph(6)
    dom = make_domain(g, [1, 2, 3])
    assert make_domain(g, iter([1, 2, 3])) is dom
    assert make_domain(g, dom.interior) is dom
    # an interior out of ambient order is built anew, and is then the
    # graph's live domain
    other = make_domain(g, [3, 2, 1])
    assert other is not dom and other.closure == dom.closure
    assert make_domain(g, (1, 2, 3)) is other
    # an equal graph is another graph
    assert make_domain(path_graph(6), [3, 2, 1]) is not other
    # the weak reference is not part of the graph's state
    copy = pickle.loads(pickle.dumps(g))
    assert copy == g and make_domain(copy, (1, 2, 3)).graph is copy


@pytest.mark.parametrize("spec,step", [(FamilySpec("path_segment"), 5),
                                       (FamilySpec("lattice_box", dim=2), 8)], ids=repr)
def test_a_dropped_snapshot_is_freed_without_the_collector(spec, step):
    # the graph holds its domain by a weak reference: no graph <-> domain
    # cycle, so reference counting alone frees both
    gc.disable()
    try:
        snapshot = generate(spec, step)
        assert make_domain(snapshot.graph, snapshot.W) is snapshot.domain
        dirichlet_spectrum(snapshot.graph, snapshot.W, count=1)
        refs = [weakref.ref(x) for x in (snapshot.graph, snapshot.domain,
                                         snapshot.domain.induced)]
        del snapshot
        assert [ref() for ref in refs] == [None, None, None]
    finally:
        gc.enable()


def _abc():
    return WeightedGraph("abc", {v: 1.0 for v in "abc"}, [("a", "b", 1.0), ("b", "c", 2.0)])


@pytest.mark.parametrize("make, interior, boundary", [
    (lambda: iter(["b"]), ("b",), ("a", "c")),
    (lambda: (v for v in "b"), ("b",), ("a", "c")),
    (lambda: np.array(["a", "b"]), ("a", "b"), ("c",)),
], ids=["iterator", "generator", "ndarray"])
def test_make_domain_reads_its_interior_once(make, interior, boundary):
    g = _abc()
    dom = make_domain(g, make())
    assert (dom.interior, dom.boundary) == (interior, boundary)
    # the ids are the graph's own objects, not numpy strings
    assert all(type(v) is str for v in dom.closure + dom.induced.vertices)
    assert assert_matches_oracle(g, tuple(make()), lambda g, _: make_domain(g, make()))
    assert vertex_boundary(g, make()) == set(boundary)
    with pytest.raises(InputError, match="empty interior"):
        make_domain(g, iter([]))


def test_derived_graph_skips_the_constructor(monkeypatch):
    g = _abc()
    calls = []
    init = WeightedGraph.__init__
    monkeypatch.setattr(WeightedGraph, "__init__",
                        lambda self, *a: calls.append(a) or init(self, *a))
    dom = make_domain(g, ["b"])
    assert calls == []
    assert isinstance(dom.induced, WeightedGraph)
    assert dom.induced == WeightedGraph("bac", {v: 1.0 for v in "abc"},
                                        [("b", "a", 1.0), ("b", "c", 2.0)])


def test_is_connected():
    assert is_connected(_abc())
    g = WeightedGraph(range(4), {v: 1.0 for v in range(4)}, [(0, 1, 1.0), (2, 3, 1.0)])
    assert not is_connected(g)


def test_energy_and_laplacian_path():
    g = path_graph(3)
    dom = make_domain(g, [1, 2])
    f = {0: 0.0, 1: 1.0, 2: 4.0, 3: 9.0}
    # differences 1, 3, 5 -> energy 1 + 9 + 25
    assert energy(dom, f, f) == pytest.approx(35.0)
    lap = laplacian_apply(g, f, [1, 2])
    assert lap[1] == pytest.approx((0 - 1) + (4 - 1))
    assert lap[2] == pytest.approx((1 - 4) + (9 - 4))


def test_energy_vanishes_on_constants():
    g, dom = t3_example()
    c = {v: 3.7 for v in dom.closure}
    assert energy(dom, c, c) == 0.0


def test_normal_derivative_linear_potential():
    g = path_graph(4)
    dom = make_domain(g, [1, 2, 3])
    f = {v: 1.0 - v / 4.0 for v in range(5)}
    nd = normal_derivative(dom, f)
    assert nd[0] == pytest.approx(1 / 4)
    assert nd[4] == pytest.approx(-1 / 4)


def test_missing_field_value_rejected():
    g = path_graph(3)
    dom = make_domain(g, [1, 2])
    with pytest.raises(InputError):
        energy(dom, {0: 1.0}, {0: 1.0})


def test_green_identity_random_fields():
    rng = np.random.default_rng(3)
    g, dom = t3_example()
    for _ in range(10):
        f = {v: float(x) for v, x in zip(dom.closure, rng.normal(size=10))}
        gfield = {v: float(x) for v, x in zip(dom.closure, rng.normal(size=10))}
        scale = max(1.0, max(abs(x) for x in f.values()))
        assert green_residual(dom, f, gfield) <= 1e-12 * scale


def test_graph_equality_and_repr():
    assert square_graph() == square_graph()
    assert square_graph() != path_graph(3)
    assert "WeightedGraph" in repr(square_graph())
