import copy
import itertools
import json
import math
import time
import tracemalloc

import pytest

from isocap import (BudgetError, InputError, WeightedGraph, cap, cap_exhaustion,
                    dirichlet_spectrum, energy, grounded_dtn_spectrum,
                    make_domain)
from isocap import infinite_families
from isocap.cli_io import parse_family_spec, run_command
from isocap.infinite_families import (KINDS, FamilyKind, FamilySpec, FamilyStep,
                                      default_source, generate, generate_steps,
                                      half_space_capacity_bound,
                                      half_space_test_field, line_domain,
                                      path_graph, t3_example)
from isocap.infinity import is_infinite

# frozen values of the slab capacity bound (dimension 3)
HALF_SPACE_R30 = {
    2: 0.95703354636686067,
    4: 0.65238792499087739,
    8: 0.43675597113874387,
}
HALF_SPACE_R40_R0_2 = 0.94217284532680612


# ---------------------------------------------------------------------------
# oracles: the point-by-point builders, kept here because only tests use them;
# generate() must reproduce their snapshots bit for bit

def _tree_level(label):
    # label 1 sits at generation 0; generation j >= 1 holds labels 2^(j-1)+1 .. 2^j
    return 0 if label == 1 else (label - 1).bit_length()


def oracle_tree_step(spec, i):
    top = 2 ** (i + 1)
    # stem 1-2, then label k has children 2k-1 and 2k
    full_edges = [(1, 2)] + [(k, 2 * k - 1) for k in range(2, 2 ** i + 1)] \
        + [(k, 2 * k) for k in range(2, 2 ** i + 1)]
    if spec.quotient:
        masses = {}
        for k in range(1, top + 1):
            lvl = _tree_level(k)
            masses[lvl] = masses.get(lvl, 0.0) + spec.mass(k)
        weights = {}
        for a, b in full_edges:
            lvl = _tree_level(a)
            weights[lvl] = weights.get(lvl, 0.0) + spec.weight(a, b)
        vertices = list(range(i + 2))
        edges = [(j, j + 1, weights[j]) for j in range(i + 1)]
        graph = WeightedGraph(vertices, masses, edges)
        domain = make_domain(graph, range(1, i + 2))
        return FamilyStep(i, graph, domain, tuple(range(i + 1)), (i + 1,))
    vertices = list(range(1, top + 1))
    masses = {v: spec.mass(v) for v in vertices}
    edges = [(a, b, spec.weight(a, b)) for a, b in full_edges]
    graph = WeightedGraph(vertices, masses, edges)
    domain = make_domain(graph, range(2, top + 1))
    window = tuple(range(1, 2 ** i + 1))
    sink = tuple(range(2 ** i + 1, top + 1))
    return FamilyStep(i, graph, domain, window, sink)


def _orbit(point):
    return tuple(sorted(abs(c) for c in point))


def _axis_neighbours(x, outer):
    for axis in range(len(x)):
        if x[axis] + 1 <= outer:
            yield x[:axis] + (x[axis] + 1,) + x[axis + 1:]


def oracle_box_step(spec, r):
    dim = spec.dim
    outer = r + 1
    points = sorted(itertools.product(range(-outer, outer + 1), repeat=dim))
    if spec.quotient:
        masses = {}
        weights = {}
        for x in points:
            ox = _orbit(x)
            masses[ox] = masses.get(ox, 0.0) + spec.mass(x)
            for y in _axis_neighbours(x, outer):
                oy = _orbit(y)
                if ox == oy:
                    continue
                key = (ox, oy) if ox < oy else (oy, ox)
                weights[key] = weights.get(key, 0.0) + spec.weight(x, y)
        vertices = sorted(masses)
        edges = [(a, b, w) for (a, b), w in sorted(weights.items())]
        graph = WeightedGraph(vertices, masses, edges)
        window = tuple(v for v in vertices if v[-1] <= r)
    else:
        masses = {x: spec.mass(x) for x in points}
        edges = [(x, y, spec.weight(x, y)) for x in points
                 for y in _axis_neighbours(x, outer)]
        graph = WeightedGraph(points, masses, edges)
        window = tuple(x for x in points if max(abs(c) for c in x) <= r)
    domain = make_domain(graph, window)
    return FamilyStep(r, graph, domain, window, domain.boundary)


def oracle_slab_step(spec, R):
    dim = spec.dim
    outer = R + 1
    lateral = range(-outer, outer + 1)
    points = sorted(itertools.product(*([lateral] * (dim - 1) + [range(outer + 1)])))
    masses = {x: spec.mass(x) for x in points}
    edges = [(x, y, spec.weight(x, y)) for x in points for y in _axis_neighbours(x, outer)]
    graph = WeightedGraph(points, masses, edges)
    domain = make_domain(graph, [x for x in points if x[-1] >= 1])
    window = tuple(x for x in points if max(abs(c) for c in x) <= R)
    wset = set(window)
    adjacency = domain.induced.adjacency
    sink = tuple(v for v in domain.closure
                 if v not in wset and any(y in wset for y, _ in adjacency[v]))
    return FamilyStep(R, graph, domain, window, sink)


ORACLES = {"binary_tree": oracle_tree_step, "lattice_box": oracle_box_step,
           "half_space": oracle_slab_step}


def snapshot_bits(step):
    """Every field of a snapshot, floats as hex strings (bit-exact)."""
    g, d = step.graph, step.domain

    def edge_bits(edges):
        return [(u, v, w.hex()) for u, v, w in edges]
    return dict(index=step.index, vertices=g.vertices,
                mass=[g.mass[v].hex() for v in g.vertices],
                edges=edge_bits(g.edges), W=step.W, sink=step.sink,
                interior=d.interior, boundary=d.boundary, closure=d.closure,
                induced=edge_bits(d.induced.edges))


def _position(v):
    return v if isinstance(v, int) else sum((k + 2) * c for k, c in enumerate(v))


# unit weights and masses; a constant; position-dependent and non-dyadic,
# odd under x -> -x and asymmetric in (u, v), so that reversing the order of
# a quotient sum (which maps an orbit onto its negation) shows in its bits
RULES = {
    "unit": (None, None),
    "constant": (lambda v: 0.3, lambda u, v: 1.7),
    "position": (lambda v: math.exp(2.0 * math.sin(_position(v))),
                 lambda u, v: math.exp(math.sin(_position(u) + 2 * _position(v)))),
}

# (spec text, last step): every kind and option, dims 1-4
PARITY_SPECS = [("binary_tree", 8), ("binary_tree:quotient", 16)] + [
    (text % dim, last)
    for dim, last in ((1, 8), (2, 8), (3, 4), (4, 2))
    for text in ("lattice_box:%d", "lattice_box:%d:quotient", "half_space:%d")
] + [("lattice_box:2:quotient:summable", 6), ("lattice_box:3:summable", 3)]


class CountingRules:
    def __init__(self, mass_rule, weight_rule):
        self.mass_calls = self.weight_calls = 0
        self._mass, self._weight = mass_rule, weight_rule

    def mass(self, v):
        self.mass_calls += 1
        return self._mass(v)

    def weight(self, u, v):
        self.weight_calls += 1
        return self._weight(u, v)


def _with_rules(spec, mass_rule, weight_rule):
    # a spec's own (summable) mass rule is kept
    return FamilySpec(spec.kind, dim=spec.dim, quotient=spec.quotient,
                      mass_rule=spec.mass_rule or mass_rule, weight_rule=weight_rule)


@pytest.mark.parametrize("rules", RULES)
@pytest.mark.parametrize("text,last", PARITY_SPECS)
def test_snapshots_are_bit_equal_to_the_oracle(text, last, rules):
    spec = _with_rules(parse_family_spec(text), *RULES[rules])
    oracle = ORACLES[spec.kind]
    for i in range(1, last + 1):
        assert snapshot_bits(generate(spec, i)) == snapshot_bits(oracle(spec, i))


@pytest.mark.parametrize("text,last", PARITY_SPECS)
def test_rule_calls_match_the_oracle(text, last):
    spec = parse_family_spec(text)
    for i in range(1, min(last, 6) + 1):
        counts = []
        for build in (generate, ORACLES[spec.kind]):
            rules = CountingRules(*RULES["position"])
            build(_with_rules(spec, rules.mass, rules.weight), i)
            counts.append((rules.mass_calls, rules.weight_calls))
        assert counts[0] == counts[1]


def test_rule_calls_per_tree_step():
    # once per vertex and once per edge of the full tree, quotient or not
    for quotient in (False, True):
        for i in range(1, 9):
            rules = CountingRules(*RULES["position"])
            generate(FamilySpec("binary_tree", quotient=quotient, mass_rule=rules.mass,
                                weight_rule=rules.weight), i)
            assert (rules.mass_calls, rules.weight_calls) == (2 ** (i + 1), 2 ** (i + 1) - 1)


def test_box_quotient_calls_the_rules_on_the_full_box():
    # a +1 step changes one |coordinate| by one, so no edge stays inside an
    # orbit: every edge of the full box is a call
    for dim in (1, 2, 3):
        for r in (1, 2, 3):
            side = 2 * r + 3
            rules = CountingRules(*RULES["position"])
            generate(FamilySpec("lattice_box", dim=dim, quotient=True,
                                mass_rule=rules.mass, weight_rule=rules.weight), r)
            assert rules.mass_calls == side ** dim
            assert rules.weight_calls == dim * (side - 1) * side ** (dim - 1)


# ---------------------------------------------------------------------------
# the rule contract of the positional builders: every mass call over the full
# snapshot's points, then every weight call over its edges, whatever the
# kind; a bad value is reported after the last call, as WeightedGraph reports
# it for the same values

def full_snapshot(kind, dim, i):
    """(points, edges) of the unreduced snapshot, in rule-call order."""
    if kind == "path_segment":
        return list(range(i + 1)), [(k, k + 1) for k in range(i)]
    if kind == "binary_tree":
        inner = range(2, 2 ** i + 1)
        return (list(range(1, 2 ** (i + 1) + 1)),
                [(1, 2)] + [(k, 2 * k - 1) for k in inner] + [(k, 2 * k) for k in inner])
    outer = i + 1
    lateral = range(-outer, outer + 1)
    last = lateral if kind == "lattice_box" else range(outer + 1)
    points = list(itertools.product(*([lateral] * (dim - 1) + [last])))
    return points, [(x, y) for x in points for y in _axis_neighbours(x, outer)]


def reference_error(kind, dim, quotient, i, rules):
    """The InputError text WeightedGraph raises for the values that `rules`
    gives in rule-call order, through the point-by-point oracles; None when
    they are accepted."""
    points, edges = full_snapshot(kind, dim, i)
    mass = {x: rules.mass(x) for x in points}
    weight = {(x, y): rules.weight(x, y) for x, y in edges}
    spec = FamilySpec(kind, dim=dim, quotient=quotient, mass_rule=mass.__getitem__,
                      weight_rule=lambda u, v: weight[u, v])
    try:
        if kind in ORACLES:
            ORACLES[kind](spec, i)
        else:
            WeightedGraph(points, {x: spec.mass(x) for x in points},
                          [(x, y, spec.weight(x, y)) for x, y in edges])
    except InputError as exc:
        return str(exc)
    return None


class RecordingRules:
    """Rules that log each call and return fixed values (or a bad one at a
    chosen call)."""

    def __init__(self, mass=1.5, weight=0.75, bad_at=None, bad=None):
        self.calls = []
        self._values = {"mass": mass, "weight": weight}
        self._bad_at, self._bad = bad_at, bad

    def _value(self, name, args):
        self.calls.append((name,) + args)
        return self._bad if len(self.calls) - 1 == self._bad_at else self._values[name]

    def mass(self, v):
        return self._value("mass", (v,))

    def weight(self, u, v):
        return self._value("weight", (u, v))


# (kind, dim, quotient, steps): every kind with rules (t3 takes none), at
# small steps and, except for the small quotients, at one whose graph has
# SPARSE_MIN_DIM vertices or more, where the builders keep arrays
RULE_CASES = [
    ("path_segment", 1, False, (2, 5, 250)),
    ("binary_tree", 1, False, (1, 3, 7)),
    ("binary_tree", 1, True, (1, 3, 7)),
    ("lattice_box", 1, False, (2, 120)),
    ("lattice_box", 2, False, (1, 3, 7)),
    ("lattice_box", 2, True, (1, 3, 18)),
    ("lattice_box", 3, False, (1, 2)),
    ("lattice_box", 3, True, (1, 3)),
    ("half_space", 2, False, (1, 3, 9)),
    ("half_space", 3, False, (1, 3)),
]


@pytest.mark.parametrize("kind,dim,quotient,steps", RULE_CASES, ids=repr)
def test_a_recording_rule_sees_the_full_snapshot_in_order(kind, dim, quotient, steps):
    for i in steps:
        rules = RecordingRules()
        spec = FamilySpec(kind, dim=dim, quotient=quotient, mass_rule=rules.mass,
                          weight_rule=rules.weight)
        generate(spec, i)
        points, edges = full_snapshot(kind, dim, i)
        assert rules.calls == [("mass", x) for x in points] + \
            [("weight", x, y) for x, y in edges]
        assert all(type(v) is type(points[0]) for call in rules.calls for v in call[1:])


@pytest.mark.parametrize("bad", [0, -1, float("inf"), float("nan")], ids=repr)
@pytest.mark.parametrize("kind,dim,quotient,steps", RULE_CASES, ids=repr)
def test_a_bad_rule_value_raises_the_constructor_error(kind, dim, quotient, steps, bad):
    raised = 0
    for i in steps:
        points, edges = full_snapshot(kind, dim, i)
        # everywhere, at the third vertex, at the second edge, and an infinite
        # mass beside a bad weight (infinities are reported last)
        for fields in ({"mass": bad}, {"weight": bad},
                       {"bad_at": 2, "bad": bad}, {"bad_at": len(points) + 1, "bad": bad},
                       {"mass": float("inf"), "bad_at": len(points), "bad": bad}):
            want = reference_error(kind, dim, quotient, i, RecordingRules(**fields))
            rules = RecordingRules(**fields)
            spec = FamilySpec(kind, dim=dim, quotient=quotient, mass_rule=rules.mass,
                              weight_rule=rules.weight)
            if want is None:
                # a quotient sum can be positive and finite around one bad value
                assert quotient
                generate(spec, i)
                continue
            with pytest.raises(InputError) as got:
                generate(spec, i)
            # every rule was called before the error
            assert len(rules.calls) == len(points) + len(edges)
            assert str(got.value) == want
            raised += 1
    assert raised >= 3 * len(steps)


def test_deep_tree_quotient_is_cheap_and_exact():
    start = time.perf_counter()
    step = generate(FamilySpec("binary_tree", quotient=True), 60)
    assert time.perf_counter() - start < 1.0
    masses = [step.graph.mass[j] for j in step.graph.vertices]
    assert masses == [1.0] + [2.0 ** (j - 1) for j in range(1, 62)]
    assert [w for _, _, w in step.graph.edges] == [2.0 ** j for j in range(61)]
    assert step.W == tuple(range(61)) and step.sink == (61,)


@pytest.mark.parametrize("bad", [float("inf"), float("nan")])
def test_non_finite_rules_are_rejected(bad):
    # a tree has no dimension, so FamilySpec refuses dim 2 for it
    for kind, dim in (("binary_tree", 1), ("lattice_box", 2), ("half_space", 2)):
        with pytest.raises(InputError, match="mass of .* must be"):
            generate(FamilySpec(kind, dim=dim, mass_rule=lambda v: bad), 2)
        with pytest.raises(InputError, match="weight of .* must be"):
            generate(FamilySpec(kind, dim=dim, weight_rule=lambda u, v: bad), 2)
    with pytest.raises(InputError, match="mass of .* must be"):
        generate(FamilySpec("lattice_box", dim=2, quotient=True, mass_rule=lambda v: bad), 2)
    with pytest.raises(InputError, match="must be"):
        generate(FamilySpec("binary_tree", quotient=True, weight_rule=lambda u, v: bad), 2)


def test_spec_validation():
    with pytest.raises(InputError):
        FamilySpec("moebius_strip")
    with pytest.raises(InputError):
        FamilySpec("lattice_box", dim=0)
    with pytest.raises(InputError):
        FamilySpec("half_space", dim=3, quotient=True)
    FamilySpec("binary_tree", quotient=True)


def test_generate_steps_guards():
    spec = FamilySpec("path_segment")
    with pytest.raises(InputError):
        generate_steps(spec, [])
    with pytest.raises(InputError):
        generate_steps(spec, [3, 3])
    with pytest.raises(InputError):
        generate(spec, 1)
    with pytest.raises(InputError):
        generate(FamilySpec("binary_tree"))
    assert generate(FamilySpec("t3")).graph.vertices == t3_example()[0].vertices
    with pytest.raises(InputError, match="single snapshot"):
        generate_steps(FamilySpec("t3"), [1, 2])
    assert [s.index for s in generate_steps(FamilySpec("t3"), [5])] == [0]


def test_rules_are_injectable():
    g = path_graph(3, weight_rule=lambda u, v: 2.0 * (u + v),
                   mass_rule=lambda v: v + 1.0)
    assert g.mass[2] == 3.0
    assert dict(zip([(0, 1), (1, 2), (2, 3)], [2.0, 6.0, 10.0])) == \
        {(u, v): w for u, v, w in g.edges}


@pytest.mark.parametrize("i", range(1, 13))
def test_tree_capacity_closed_form(i):
    spec = FamilySpec("binary_tree", quotient=True)
    step = generate(spec, i)
    res = cap(step.domain, default_source(spec), step.sink)
    assert res.value == pytest.approx(2.0**i / (2.0 ** (i + 1) - 1.0), rel=1e-9)


@pytest.mark.parametrize("i", [1, 2, 3])
def test_tree_quotient_matches_full(i):
    q = generate(FamilySpec("binary_tree", quotient=True), i)
    f = generate(FamilySpec("binary_tree"), i)
    cq = cap(q.domain, (0,), q.sink).value
    cf = cap(f.domain, (1,), f.sink).value
    assert cq == pytest.approx(cf, rel=1e-12)
    sq = grounded_dtn_spectrum(q.domain, q.W, count=1).eigenvalues[0]
    sf = grounded_dtn_spectrum(f.domain, f.W, count=1).eigenvalues[0]
    assert sq == pytest.approx(sf, rel=1e-12)
    # masses agree generation by generation
    assert q.graph.mass_of(q.graph.vertices) == \
        pytest.approx(f.graph.mass_of(f.graph.vertices))


@pytest.mark.parametrize("dim,r", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_box_quotient_matches_full(dim, r):
    q = generate(FamilySpec("lattice_box", dim=dim, quotient=True), r)
    f = generate(FamilySpec("lattice_box", dim=dim), r)
    lq = dirichlet_spectrum(q.graph, q.domain.interior, 1).eigenvalues[0]
    lf = dirichlet_spectrum(f.graph, f.domain.interior, 1).eigenvalues[0]
    assert lq == pytest.approx(lf, rel=1e-11)
    assert q.graph.mass_of(q.graph.vertices) == \
        pytest.approx(f.graph.mass_of(f.graph.vertices))


@pytest.mark.parametrize("r", [1, 2, 5, 9])
def test_line_box_capacity_closed_form(r):
    step = generate(FamilySpec("lattice_box", dim=1), r)
    res = cap(step.domain, [(0,)], step.sink)
    assert res.value == pytest.approx(2.0 / (r + 1.0), rel=1e-12)


def test_exhaustion_windows_are_nested():
    for spec in (FamilySpec("binary_tree", quotient=True),
                 FamilySpec("lattice_box", dim=2, quotient=True),
                 FamilySpec("half_space", dim=2)):
        steps = generate_steps(spec, [1, 2, 3])
        for a, b in zip(steps, steps[1:]):
            assert set(a.W) <= set(b.W)
            assert set(a.domain.closure) <= set(b.domain.closure)


def test_half_space_step_shape():
    step = generate(FamilySpec("half_space", dim=2), 3)
    xs = step.graph.vertices
    assert all(x[-1] >= 0 for x in xs)
    assert max(abs(c) for x in xs for c in x) == 4
    assert all(x[-1] >= 1 for x in step.domain.interior)
    assert all(max(abs(c) for c in x) <= 3 for x in step.W)
    assert all(max(abs(c) for c in x) == 4 for x in step.sink)


def test_summable_mass_rule_carries_through():
    rule = lambda v: 2.0 ** (-max(abs(c) for c in v))
    step = generate(FamilySpec("lattice_box", dim=2, quotient=True,
                               mass_rule=rule), 2)
    # quotient masses are sums of the rule over each orbit
    total = sum(rule(p) for p in itertools.product(range(-3, 4), repeat=2))
    assert step.graph.mass_of(step.graph.vertices) == pytest.approx(total)


def test_half_space_field_is_admissible():
    N, r0, R = 3, 2, 6
    field = half_space_test_field(N, r0, R)
    for x, val in field.items():
        rad = max(abs(c) for c in x)
        assert 0.0 <= val <= 1.0
        if rad <= r0:
            assert val == 1.0
        if rad >= R + 1:
            assert val == 0.0
    with pytest.raises(InputError):
        half_space_test_field(2, 2, 6)
    with pytest.raises(InputError):
        half_space_test_field(3, 6, 6)


def test_half_space_bound_matches_field_energy():
    N, r0, R = 3, 2, 6
    step = generate(FamilySpec("half_space", dim=N), R)
    field = half_space_test_field(N, r0, R)
    e = energy(step.domain, field, field)
    m_source = float((2 * r0 + 1) ** (N - 1))
    assert half_space_capacity_bound(N, r0, R) == pytest.approx(e / m_source,
                                                                rel=1e-12)


def test_half_space_frozen_values():
    for r0, expect in HALF_SPACE_R30.items():
        assert half_space_capacity_bound(3, r0, 30) == pytest.approx(expect,
                                                                     rel=1e-12)
    assert half_space_capacity_bound(3, 2, 40) == \
        pytest.approx(HALF_SPACE_R40_R0_2, rel=1e-12)
    # certified upper bounds shrink as the snapshot grows
    assert HALF_SPACE_R40_R0_2 < HALF_SPACE_R30[2]


def test_tree_exhaustion_through_cap_sequence():
    spec = FamilySpec("binary_tree", quotient=True)
    steps = generate_steps(spec, range(1, 13))
    seq = cap_exhaustion(steps, default_source(spec))
    expect = [2.0**i / (2.0 ** (i + 1) - 1.0) for i in range(1, 13)]
    assert seq.values == pytest.approx(expect, rel=1e-9)
    assert seq.limit_estimate == pytest.approx(0.5, abs=1e-3)


# ---------------------------------------------------------------------------
# the table of kinds: each entry's flags against what its builder does


def _forced(spec, **fields):
    """A copy of spec with fields set past FamilySpec's checks, to see what
    the kind's builder does with an option that the table refuses."""
    spec = copy.copy(spec)
    for name, value in fields.items():
        object.__setattr__(spec, name, value)
    return spec


def _shape(step):
    """A snapshot's bits without its index."""
    bits = snapshot_bits(step)
    del bits["index"]
    return bits


@pytest.mark.parametrize("kind", list(KINDS))
def test_every_entry_matches_its_builder(kind):
    entry = KINDS[kind]
    spec = FamilySpec(kind)
    first, second = (entry.build(spec, i) for i in (2, 3))
    # single: the first steps give one snapshot
    assert (_shape(first) == _shape(second)) == entry.single
    # grounded: the windows meet the boundary of U
    for step in (first, second):
        assert (not is_infinite(grounded_dtn_spectrum(step.domain, step.W, count=1))) \
            == entry.grounded
    # dimensioned: dim 2 changes the snapshot, and only then is it accepted
    assert (_shape(entry.build(_forced(spec, dim=2), 2)) != _shape(first)) == entry.dimensioned
    # reducible: a quotient changes the snapshot, and only then is it accepted
    assert (_shape(entry.build(_forced(spec, quotient=True), 2)) != _shape(first)) \
        == entry.reducible
    for fields, accepted in (({"dim": 2}, entry.dimensioned),
                             ({"quotient": True}, entry.reducible)):
        if accepted:
            FamilySpec(kind, **fields)
        else:
            with pytest.raises(InputError):
                FamilySpec(kind, **fields)
    # summable: the CLI option is accepted exactly on these kinds
    if entry.summable:
        parse_family_spec(kind + ":summable")
    else:
        with pytest.raises(InputError, match="summable masses"):
            parse_family_spec(kind + ":summable")
    # the default source lies in the first step's closure, in every variant
    variants = [{}] + [{"dim": 2}] * entry.dimensioned + [{"quotient": True}] * entry.reducible
    for fields in variants:
        variant = FamilySpec(kind, **fields)
        assert set(default_source(variant)) <= set(generate(variant, 2).domain.closure)


def test_a_spec_refuses_a_dimension_its_kind_ignores():
    # a tree's builder never reads dim, so dim 7 would build the dim 1 tree
    with pytest.raises(InputError, match="'binary_tree' has no dimension"):
        FamilySpec("binary_tree", dim=7)
    # the CLI's own message, which names the spec, still comes first
    with pytest.raises(InputError, match="gives a dimension to 'binary_tree'"):
        parse_family_spec("binary_tree:7")
    with pytest.raises(InputError, match="no reduced model"):
        parse_family_spec("t3:2:quotient")


def test_a_spec_refuses_rules_for_a_fixed_graph():
    # t3 is a fixed graph with unit masses and weights, whatever the rules
    with pytest.raises(InputError, match="'t3' is a fixed graph"):
        FamilySpec("t3", mass_rule=lambda v: 2.0)
    with pytest.raises(InputError, match="'t3' is a fixed graph"):
        FamilySpec("t3", weight_rule=lambda u, v: 2.0)
    with pytest.raises(InputError, match="summable masses are a lattice_box option"):
        parse_family_spec("t3:summable")


def _family_outputs(capsys, kind, commands):
    outs = []
    for command in commands:
        code = run_command([part.format(kind) for part in command])
        outs.append((code, capsys.readouterr().out.replace(kind, "KIND")))
    return outs


def test_a_new_kind_is_one_entry(monkeypatch, capsys):
    path = KINDS["path_segment"]
    monkeypatch.setitem(KINDS, "segment_copy", FamilyKind(path.build, path.source))
    commands = [["family", "{}", "--steps", "2..5", "--emit", emit]
                for emit in ("cap", "alpha", "sigma")]
    commands.append(["verify", "bottom", "--family", "{}", "--steps", "2..4"])
    want = _family_outputs(capsys, "path_segment", commands)
    assert [code for code, _ in want] == [0, 0, 0, 0]
    assert _family_outputs(capsys, "segment_copy", commands) == want


# ---------------------------------------------------------------------------
# the family point budget: a step is refused before it is built

HUGE_STEPS = [
    ("binary_tree", "80..80", "cap"),
    ("path_segment", "9223372036854775807..9223372036854775807", "cap"),
    ("lattice_box:3", "100000..100000", "cap"),
    ("lattice_box:40", "1..1", "cap"),
    ("half_space:9", "5..5", "sigma"),
]


@pytest.mark.parametrize("spec,steps,emit", HUGE_STEPS)
def test_a_huge_step_is_a_budget_report(capsys, spec, steps, emit):
    capsys.readouterr()
    tracemalloc.start()
    try:
        code = run_command(["family", spec, "--steps", steps, "--emit", emit])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out, err = capsys.readouterr()
    assert code == 3
    assert err == ""
    assert json.loads(out)["error"]["kind"] == "budget"
    # the report is all that is allocated: about 80 kB measured, with the
    # argument parser
    assert peak < 1 << 20


def test_the_point_budget_counts_what_each_builder_walks():
    budget = infinite_families.MAX_POINTS
    for kind, entry in KINDS.items():
        assert (entry.points is None) == entry.single
    # the full snapshot's vertices are the points its builder walks
    for spec in (FamilySpec("path_segment"), FamilySpec("binary_tree"),
                 FamilySpec("lattice_box", dim=2), FamilySpec("lattice_box", dim=3),
                 FamilySpec("half_space", dim=2), FamilySpec("half_space", dim=3)):
        for i in (2, 3):
            assert KINDS[spec.kind].points(spec, i) == len(generate(spec, i).graph.vertices)
    # the last step of each shape within the budget, and the first past it
    for spec, last in [(FamilySpec("path_segment"), budget - 1),
                       (FamilySpec("binary_tree"), 17),
                       (FamilySpec("lattice_box", dim=3), 30),
                       (FamilySpec("lattice_box", dim=3, quotient=True), 30),
                       (FamilySpec("half_space", dim=3), 38),
                       (FamilySpec("binary_tree", quotient=True, mass_rule=lambda v: 1.0), 17)]:
        entry = KINDS[spec.kind]
        assert entry.points(spec, last) <= budget < entry.points(spec, last + 1)
        with pytest.raises(BudgetError, match="family point budget"):
            generate(spec, last + 1)
    # the unit-rule quotient tree walks its generations only
    assert len(generate(FamilySpec("binary_tree", quotient=True), 1023).graph.vertices) == 1025
    # an index below 1 is still the builder's input error
    with pytest.raises(InputError, match="box step needs r >= 1"):
        generate(FamilySpec("lattice_box", dim=3), -10 ** 30)
