import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isocap import (InfeasibleError, InputError, LimitReport, WeightedGraph, cap,
                    cap_exhaustion, cap_to_boundary, coarea_value, energy,
                    equilibrium_potential, laplacian_apply, linear_core, make_domain,
                    solve_spd, stiffness_matrix)
from isocap.infinite_families import (KINDS, FamilySpec, default_source, generate,
                                      generate_steps, line_domain, path_graph, t3_example)
from isocap.linear_core import SPARSE_MIN_DIM
from isocap.testing import random_domain
from test_spectra import box_window


def capacity_by_descent(domain, A, B, tol=1e-13, max_sweeps=200000):
    """Independent oracle for Cap_Omega(A, B): Gauss-Seidel descent on the
    energy to stationarity.

    Each sweep sets every free vertex to the weighted average of its
    neighbors (the exact single-coordinate minimizer).  Intended for
    instances with at most ~12 vertices.
    """
    aset, bset = set(A), set(B)
    f = {v: 1.0 if v in aset else 0.0 for v in domain.closure}
    free = [v for v in domain.closure if v not in aset and v not in bset]
    for _ in range(max_sweeps):
        delta = 0.0
        for x in free:
            num = 0.0
            den = 0.0
            for y, w in domain.induced.adjacency[x]:
                num += w * f[y]
                den += w
            new = num / den
            delta = max(delta, abs(new - f[x]))
            f[x] = new
        if delta <= tol:
            break
    return energy(domain, f, f)


def test_path_equilibrium_potential():
    g, dom = line_domain(4)
    res = cap(dom, [0], [4])
    assert res.value == pytest.approx(0.25, abs=1e-14)
    for v, expect in enumerate([1.0, 0.75, 0.5, 0.25, 0.0]):
        assert res.potential[v] == pytest.approx(expect, abs=1e-13)
    assert set(res.source) == {0} and set(res.sink) == {4}


@pytest.mark.parametrize("n", range(2, 20))
def test_path_capacity_is_one_over_n(n):
    g, dom = line_domain(n)
    assert cap(dom, [0], [n]).value == pytest.approx(1.0 / n, abs=1e-12)


def test_t3_pair_capacity():
    g, dom = t3_example()
    res = cap(dom, ["x5", "x6"], ["x7", "x8"])
    assert res.value == pytest.approx(1.0 / 3.0, rel=1e-12)
    # unused branch x4/x9/x10 floats at the source-side potential of x1
    assert res.potential["x9"] == pytest.approx(res.potential["x1"], abs=1e-12)


def test_harmonic_off_source_and_sink():
    g, dom = t3_example()
    pot = equilibrium_potential(dom, ["x5"], ["x7", "x8"])
    free = [v for v in dom.closure if v not in {"x5", "x7", "x8"}]
    lap = laplacian_apply(dom.induced, pot, free)
    assert max(abs(x) for x in lap.values()) <= 1e-12


def test_capacity_value_equals_potential_energy():
    g, dom = t3_example()
    res = cap(dom, ["x5", "x6"], ["x9"])
    assert res.value == pytest.approx(energy(dom, res.potential, res.potential),
                                      rel=1e-12)


def _pinned_weight(u, v):
    # non-dyadic and position-dependent; ids are ints or int tuples, whose
    # hashes do not depend on the interpreter's hash seed
    return 1.0 + hash((u, v)) % 7 / 10


def _bit_cases():
    """(domain, A, B): steps 1-4 of every kind, with unit and non-dyadic
    weights, and 40 random domains."""
    for kind, entry in KINDS.items():
        variants = [{}] + [{"dim": 2}, {"dim": 3}] * entry.dimensioned \
            + [{"quotient": True}] * entry.reducible
        for fields in variants:
            for rule in [None] + [_pinned_weight] * (not entry.single):
                spec = FamilySpec(kind, weight_rule=rule, **fields)
                for i in range(2 if kind == "path_segment" else 1, 5):
                    step = generate(spec, i)
                    yield step.domain, default_source(spec), step.sink
    rng = np.random.default_rng(40)
    for _ in range(40):
        dom = random_domain(rng)
        size = int(rng.integers(1, len(dom.interior) + 1))
        yield dom, dom.interior[:size], dom.boundary


def test_cap_value_is_the_energy_of_its_potential_bit_for_bit():
    for dom, A, B in _bit_cases():
        res = cap(dom, A, B)
        assert res.value.hex() == energy(dom, res.potential, res.potential).hex()
        assert res.potential == equilibrium_potential(dom, A, B)


def test_set_monotonicity():
    g, dom = t3_example()
    small = cap(dom, ["x5"], ["x7"]).value
    grown_source = cap(dom, ["x5", "x6"], ["x7"]).value
    grown_sink = cap(dom, ["x5"], ["x7", "x8"]).value
    assert grown_source >= small - 1e-14
    assert grown_sink >= small - 1e-14


def test_weight_scaling_and_mass_invariance():
    masses = {v: 1.0 for v in range(5)}
    heavy = {v: 7.5 for v in range(5)}
    edges = [(v, v + 1, 2.0) for v in range(4)]
    scaled = [(v, v + 1, 6.0) for v in range(4)]
    base = cap(make_domain(WeightedGraph(range(5), masses, edges), [1, 2, 3]), [0], [4])
    tri = cap(make_domain(WeightedGraph(range(5), masses, scaled), [1, 2, 3]), [0], [4])
    fat = cap(make_domain(WeightedGraph(range(5), heavy, edges), [1, 2, 3]), [0], [4])
    assert tri.value == pytest.approx(3.0 * base.value, rel=1e-13)
    assert fat.value == pytest.approx(base.value, rel=1e-13)


def test_infeasible_and_bad_input():
    g, dom = t3_example()
    with pytest.raises(InputError):
        cap(dom, [], ["x7"])
    with pytest.raises(InfeasibleError):
        cap(dom, ["x5", "x7"], ["x7"])
    with pytest.raises(InputError):
        cap(dom, ["nope"], ["x7"])


def test_cap_to_boundary():
    g, dom = t3_example()
    res = cap_to_boundary(dom, ["x1"])
    direct = cap(dom, ["x1"], dom.boundary)
    assert res.value == pytest.approx(direct.value, rel=1e-13)
    with pytest.raises(InfeasibleError):
        cap_to_boundary(dom, ["x5"])


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_maximum_principle_random(salt):
    rng = np.random.default_rng(salt)
    dom = random_domain(rng, max_closure=10)
    closure = list(dom.closure)
    k = int(rng.integers(1, len(closure)))
    picks = rng.permutation(len(closure))
    A = [closure[i] for i in picks[:k]]
    B = [v for v in dom.boundary if v not in A]
    if not B:
        return
    pot = equilibrium_potential(dom, A, B)
    assert min(pot.values()) >= -1e-12
    assert max(pot.values()) <= 1.0 + 1e-12


def test_descent_oracle_matches_solver():
    rng = np.random.default_rng(42)
    for _ in range(5):
        dom = random_domain(rng, max_closure=9)
        A = [dom.interior[0]]
        B = list(dom.boundary)
        exact = cap(dom, A, B).value
        slow = capacity_by_descent(dom, A, B)
        assert slow == pytest.approx(exact, rel=1e-8)


def test_coarea_value_piecewise_exact():
    g, dom = line_domain(4)
    f = {0: 0.0, 1: 1.0, 2: 2.0, 3: 1.0, 4: 0.0}
    # levels t in (0,1]: {f>t} = {1,2,3}; t in (1,2]: {2}
    c1 = cap(dom, [1, 2, 3], [0, 4]).value
    c2 = cap(dom, [2], [0, 4]).value
    expect = c1 * 0.5 + c2 * (4.0 - 1.0) / 2.0
    assert coarea_value(dom, f) == pytest.approx(expect, rel=1e-12)


def test_coarea_needs_a_sink():
    g, dom = line_domain(4)
    with pytest.raises(InfeasibleError):
        coarea_value(dom, {v: 1.0 + v for v in range(5)})


def test_exhaustion_monotone_and_guarded():
    steps = generate_steps(FamilySpec("binary_tree", quotient=True), range(1, 7))
    seq = cap_exhaustion(steps, (0,))
    assert seq.monotone
    assert seq.values == sorted(seq.values, reverse=True)
    assert seq.error_bar == pytest.approx(abs(seq.values[-1] - seq.values[-2]))
    with pytest.raises(InputError):
        cap_exhaustion(list(reversed(steps)), (0,))


@pytest.mark.parametrize("spec", [FamilySpec("binary_tree"),
                                  FamilySpec("binary_tree", quotient=True),
                                  FamilySpec("lattice_box", dim=2)])
def test_exhaustion_report_holds_the_per_step_capacities(spec):
    steps = generate_steps(spec, range(1, 5))
    source = default_source(spec)
    rep = cap_exhaustion(steps, source)
    assert isinstance(rep, LimitReport) and rep.heuristic is False
    assert rep.indices == [1, 2, 3, 4]
    assert rep.values == [cap(s.domain, source, s.sink).value for s in steps]
    assert rep.limit_estimate == rep.values[-1]
    assert rep.error_bar == abs(rep.values[-1] - rep.values[-2])
    assert cap_exhaustion(steps[:1], source).error_bar == 0.0


# ---------------------------------------------------------------------------
# the factored free block: dense below SPARSE_MIN_DIM rows, sparse from there


def _step(spec, index):
    steps = generate_steps(spec, [index])
    return steps[-1].domain, default_source(spec), steps[-1].sink


def _dense_potential(domain, A, B):
    """The equilibrium potential by the dense arithmetic, written out."""
    idx = domain.closure_index
    f = np.zeros(len(domain.closure))
    a_idx = sorted(idx[v] for v in set(A))
    f[a_idx] = 1.0
    pinned = set(a_idx) | {idx[v] for v in B}
    free = [i for i in range(len(f)) if i not in pinned]
    k = stiffness_matrix(domain.induced)
    f[free] = solve_spd(k[np.ix_(free, free)], -k[np.ix_(free, a_idx)].sum(axis=1))
    np.clip(f, 0.0, 1.0, out=f)
    return {v: float(f[idx[v]]) for v in domain.closure}


def _box_case(side):
    g, W = box_window(side, 2, np.random.default_rng(side))
    dom = make_domain(g, W)
    return dom, [W[len(W) // 2]], dom.boundary


def test_capacities_below_the_threshold_keep_the_dense_bits(monkeypatch):
    def refuse(*args):
        raise AssertionError("the sparse factor ran")

    monkeypatch.setattr(linear_core, "sparse_stiffness", refuse)
    cases = ([_step(FamilySpec("binary_tree"), i) for i in (3, 5, 7)]  # up to 127 free rows
             + [_step(FamilySpec("lattice_box", dim=2), r) for r in (3, 6)]  # 48 and 168
             # one free row short of the sparse route
             + [(line_domain(SPARSE_MIN_DIM)[1], [0], [SPARSE_MIN_DIM])])
    for seed in range(6):
        dom = random_domain(np.random.default_rng(seed))
        cases.append((dom, [dom.interior[0]], dom.boundary))
    for dom, A, B in cases:
        got = cap(dom, A, B)
        want = _dense_potential(dom, A, B)
        assert [x.hex() for x in got.potential.values()] == [x.hex() for x in want.values()]
        assert got.value == energy(dom, want, want)


ABOVE_THRESHOLD = (
    [("binary_tree %d" % i, lambda i=i: _step(FamilySpec("binary_tree"), i)) for i in (8, 9)]
    + [("half_space:3 R=%d" % r, lambda r=r: _step(FamilySpec("half_space", dim=3), r))
       for r in range(4, 9)]
    + [("lattice_box:2 r=%d" % r, lambda r=r: _step(FamilySpec("lattice_box", dim=2), r))
       for r in (8, 10)]
    + [("random 2-D box %d" % side, lambda side=side: _box_case(side)) for side in (15, 20, 30)]
)


@pytest.mark.parametrize("label,case", ABOVE_THRESHOLD, ids=[c[0] for c in ABOVE_THRESHOLD])
def test_capacities_sparse_and_dense_agree(label, case, monkeypatch):
    dom, A, B = case()
    sparse = cap(dom, A, B)
    assert len(dom.closure) - len(set(A)) - len(set(B)) >= SPARSE_MIN_DIM
    monkeypatch.setattr(linear_core, "SPARSE_MIN_DIM", 10 ** 9)  # every block dense
    dense = cap(*case())
    assert abs(sparse.value - dense.value) <= 1e-12 * dense.value
    # a potential lies in [0, 1] and is 1 on A
    assert list(sparse.potential) == list(dense.potential)
    assert max(abs(sparse.potential[v] - x) for v, x in dense.potential.items()) <= 1e-12


def test_binary_tree_capacity_past_the_dense_budget():
    # step 12 has 8,192 closure vertices, 4,095 of them free: past the dense
    # budget, and Cap = 2^12 / (2^13 - 1) from the root to generation 12
    spec = FamilySpec("binary_tree")
    rep = cap_exhaustion(generate_steps(spec, [12]), default_source(spec))
    assert abs(rep.values[0] - 4096 / 8191) <= 1e-12 * (4096 / 8191)
    # a free block of fewer than SPARSE_MIN_DIM rows on a 5,001-vertex
    # graph: the sparse factor too, the dense stiffness never assembled.
    # On the unit path, Cap({0..2400}, {2500..5000}) = 1/100
    _, dom = line_domain(5000)
    got = cap(dom, range(2401), range(2500, 5001))
    assert abs(got.value - 0.01) <= 1e-12 * 0.01
    assert getattr(dom.induced, "_stiffness", None) is None


def test_sparse_capacity_is_deterministic():
    runs = [[cap(*_step(FamilySpec("half_space", dim=3), 5)), cap(*_box_case(20))]
            for _ in range(2)]
    for a, b in zip(*runs):
        assert a.value.hex() == b.value.hex()
        assert [x.hex() for x in a.potential.values()] == \
            [x.hex() for x in b.potential.values()]
