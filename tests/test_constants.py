import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isocap import (INFINITE, Budget, BudgetError, InputError, SingularMatrixError,
                    WeightedGraph, alpha_dirichlet, alpha_dirichlet_limit, alpha_ds,
                    alpha_neumann, alpha_steklov, alpha_steklov_limit,
                    beta_steklov, beta_tuple, cap, cap_exhaustion, cap_to_boundary,
                    constants, dirichlet_spectrum, gamma_k_dirichlet, gamma_k_steklov,
                    gamma_tilde_dirichlet, is_infinite, kappa_steklov,
                    linear_core, make_domain)
from isocap.infinite_families import (FamilySpec, generate_steps, line_domain,
                                      t3_example)
from isocap.testing import random_domain

REL = 1e-12


def brute_alpha_d(dom):
    best = math.inf
    for s in range(1, len(dom.interior) + 1):
        for A in itertools.combinations(dom.interior, s):
            v = cap(dom, A, dom.boundary).value / dom.graph.mass_of(A)
            best = min(best, v)
    return best


def brute_pair(dom, universe):
    best = math.inf
    for sa in range(1, len(universe)):
        for A in itertools.combinations(universe, sa):
            rest = [v for v in universe if v not in A]
            for sb in range(1, len(rest) + 1):
                for B in itertools.combinations(rest, sb):
                    v = cap(dom, A, B).value
                    v /= min(dom.graph.mass_of(A), dom.graph.mass_of(B))
                    best = min(best, v)
    return best


@pytest.mark.parametrize("n", range(2, 9))
def test_alpha_s_line(n):
    g, dom = line_domain(n)
    res = alpha_steklov(dom)
    assert res.value == pytest.approx(1.0 / n, rel=REL)
    assert {frozenset(res.witness[0]), frozenset(res.witness[1])} == \
        {frozenset({0}), frozenset({n})}
    assert not res.heuristic and res.evaluations >= 1


def test_alpha_s_t3():
    g, dom = t3_example()
    res = alpha_steklov(dom)
    assert res.value == pytest.approx(1.0 / 6.0, rel=REL)
    assert {frozenset(res.witness[0]), frozenset(res.witness[1])} == \
        {frozenset({"x5", "x6"}), frozenset({"x7", "x8"})}


def test_alpha_d_brute_force():
    rng = np.random.default_rng(3)
    for _ in range(6):
        dom = random_domain(rng, max_closure=9)
        res = alpha_dirichlet(dom)
        assert res.value == pytest.approx(brute_alpha_d(dom), rel=1e-10)
        direct = cap(dom, res.witness, dom.boundary).value
        assert direct / dom.graph.mass_of(res.witness) == \
            pytest.approx(res.value, rel=1e-10)


def test_alpha_n_and_s_brute_force():
    rng = np.random.default_rng(4)
    for _ in range(4):
        dom = random_domain(rng, max_closure=8, min_interior=2, min_boundary=2)
        assert alpha_neumann(dom).value == \
            pytest.approx(brute_pair(dom, dom.interior), rel=1e-10)
        assert alpha_steklov(dom).value == \
            pytest.approx(brute_pair(dom, dom.boundary), rel=1e-10)


def test_beta_s_brute_force():
    rng = np.random.default_rng(5)
    dom = random_domain(rng, max_closure=8, min_interior=3)
    g = dom.graph
    free = make_domain(g, g.vertices)  # no boundary: capacities in G itself
    res = beta_steklov(g, dom.interior)
    assert res.value == pytest.approx(brute_pair(free, dom.interior), rel=1e-10)


def test_beta_s_reduces_once_onto_omega():
    # a unit path of 240 vertices, Omega its 12 middle ones: the rest is
    # eliminated once onto a 12 x 12 root form, so the enumeration's
    # workspace does not grow with the graph (741 MB traced when every union
    # eliminated the rest itself); the minimum is 1 / (7 * 3)
    g = WeightedGraph(range(240), {v: 1.0 for v in range(240)},
                      [(v, v + 1, 1.0) for v in range(239)])
    tracemalloc.start()
    try:
        res = beta_steklov(g, range(114, 126))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20
    assert res.value == pytest.approx(1 / 21, rel=1e-12)
    assert res.witness == ((114, 115, 116), (123, 124, 125))


def shuffle_combinations(monkeypatch, seed):
    """Patch constants._combinations to hand out its rows, and
    constants._level_plan the unions of each lattice level, in a seeded
    random order, so the single-set, pair and tuple enumerators visit their
    candidates shuffled; returns the list of (p, s) _combinations is called
    with.  The shuffled plans have a cache of their own: each level is
    built from its shuffled parent, and none outlives the patch."""
    rng = np.random.default_rng(seed)
    original = constants._combinations
    plan = constants._level_plan.__wrapped__
    calls = []

    def shuffled(p, s):
        calls.append((p, s))
        rows = original(p, s)
        return rows[rng.permutation(len(rows))]

    def shuffled_plan(p, u):
        level = plan(p, u)
        if level.rows is None:
            return level
        perm = rng.permutation(len(level.v))
        return constants._Level(level.combos[perm], level.v[perm],
                                *(a[..., perm] for a in level[2:]))

    monkeypatch.setattr(constants, "_combinations", shuffled)
    monkeypatch.setattr(constants, "_level_plan", functools.lru_cache(shuffled_plan))
    return calls


def test_shuffled_enumeration_is_deterministic(monkeypatch):
    rng = np.random.default_rng(6)
    dom = random_domain(rng, max_closure=9)
    plain_d = alpha_dirichlet(dom)
    plain_s = alpha_steklov(dom)
    for seed in (0, 1, 99):
        with monkeypatch.context() as mp:
            calls = shuffle_combinations(mp, seed)
            rd = alpha_dirichlet(dom)
            rs = alpha_steklov(dom)
        assert calls
        assert rd.value == plain_d.value and rd.witness == plain_d.witness
        assert rs.value == plain_s.value and rs.witness == plain_s.witness
        assert (rd.evaluations, rs.evaluations) == (plain_d.evaluations, plain_s.evaluations)


def _relabelled(dom, rng):
    """dom with fresh vertex names, its vertices and interior declared in a
    random order and its edges in reverse; returns it and the map from new
    names back to old ones."""
    g = dom.graph
    n = len(g.vertices)
    name = {v: "r%d" % k for v, k in zip(g.vertices, rng.permutation(n).tolist())}
    order = [g.vertices[i] for i in rng.permutation(n).tolist()]
    graph = WeightedGraph([name[v] for v in order], {name[v]: g.mass[v] for v in order},
                          [(name[u], name[v], w) for u, v, w in reversed(g.edges)])
    interior = [name[dom.interior[i]] for i in rng.permutation(len(dom.interior)).tolist()]
    return make_domain(graph, interior), {new: old for old, new in name.items()}


def test_constants_do_not_depend_on_vertex_labels():
    # tied minimizers may differ between the copies (on the unit paths they
    # do), so each relabelled witness is mapped back and re-evaluated on the
    # original domain
    rng = np.random.default_rng(2024)
    doms = [t3_example()[1]] + [line_domain(n)[1] for n in range(4, 9)]
    doms += [random_domain(rng, max_closure=10) for _ in range(60)]
    moved = 0
    for dom in doms:
        copy, back = _relabelled(dom, rng)
        m = dom.graph.mass_of
        for fn in (alpha_dirichlet, alpha_neumann, alpha_steklov):
            want, got = fn(dom), fn(copy)
            assert got.value == pytest.approx(want.value, rel=REL)
            if fn is alpha_dirichlet:
                A = [back[v] for v in got.witness]
                again = cap_to_boundary(dom, A).value / m(A)
                moved += set(A) != set(want.witness)
            else:
                A, B = ([back[v] for v in side] for side in got.witness)
                again = cap(dom, A, B).value / min(m(A), m(B))
                moved += {frozenset(A), frozenset(B)} != set(map(frozenset, want.witness))
            assert again == pytest.approx(got.value, rel=REL)
    assert moved  # some tie went to a different minimizer


def test_budget_errors_and_heuristic_upper_bounds():
    rng = np.random.default_rng(7)
    dom = random_domain(rng, max_closure=10, min_interior=4, min_boundary=3)
    tight = Budget(single=2, pair=2, tuples=2)
    with pytest.raises(BudgetError):
        alpha_dirichlet(dom, budget=tight)
    with pytest.raises(BudgetError):
        alpha_steklov(dom, budget=tight)
    with pytest.raises(BudgetError):
        gamma_tilde_dirichlet(dom.graph, dom.interior, 2, budget=tight)
    exact_d = alpha_dirichlet(dom).value
    exact_s = alpha_steklov(dom).value
    hd = alpha_dirichlet(dom, budget=tight, heuristic=True)
    hs = alpha_steklov(dom, budget=tight, heuristic=True)
    assert hd.heuristic and hs.heuristic
    assert hd.value >= exact_d - 1e-12
    assert hs.value >= exact_s - 1e-12


def test_pair_value_at_most_zero_is_singular_for_alpha_n_and_s(monkeypatch):
    # a connected closure has positive pair capacities, so 0 can only come
    # from cancellation
    g, dom = t3_example()
    tight = Budget(pair=2)
    zero = (0.0, ((0,), (1,)), 1)
    monkeypatch.setattr(constants, "_heuristic_pair", lambda *args: zero)
    monkeypatch.setattr(constants, "_min_pair", lambda *args: zero)
    for fn in (alpha_steklov, alpha_neumann):
        for kw in ({}, {"budget": tight, "heuristic": True}):
            with pytest.raises(SingularMatrixError, match="minimal pair value 0.0"):
                fn(dom, **kw)


def test_beta_s_value_at_most_zero_is_singular_on_a_connected_graph(monkeypatch):
    # on the path a - b - c - d with masses 1e-300, 1, 1e300, 1 and weights
    # 1e300, 1e-300, 1e300, eliminating a and d cancels b's and c's Schur
    # entries to 0, where beta_S({b, c}) is 1e-300 (the b - c edge alone)
    path = WeightedGraph("abcd", {"a": 1e-300, "b": 1.0, "c": 1e300, "d": 1.0},
                         [("a", "b", 1e300), ("b", "c", 1e-300), ("c", "d", 1e300)])
    with pytest.raises(SingularMatrixError, match="minimal pair value 0.0"):
        beta_steklov(path, ["b", "c"])
    g, dom = t3_example()
    tight = Budget(pair=2)
    zero = (0.0, ((0,), (1,)), 1)
    with monkeypatch.context() as mp:
        mp.setattr(constants, "_heuristic_pair", lambda *args: zero)
        mp.setattr(constants, "_min_pair", lambda *args: zero)
        for kw in ({}, {"budget": tight, "heuristic": True}):
            with pytest.raises(SingularMatrixError, match="minimal pair value 0.0"):
                beta_steklov(g, dom.interior, **kw)
    # two components, 0 - 1 - 2 and 3 - 4: A = {0, 1} and B = {3} have no
    # capacity between them, and the 0 is kept
    split = WeightedGraph(range(5), {v: 1.0 for v in range(5)},
                          [(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0)])
    res = beta_steklov(split, [0, 1, 3])
    assert (res.value, res.witness) == (0.0, ((0, 1), (3,)))


def test_budget_errors_come_before_any_assembly(monkeypatch):
    assembled = []
    assemble = linear_core._assemble

    def counting(graph):
        assembled.append(len(graph.vertices))
        return assemble(graph)

    monkeypatch.setattr(linear_core, "_assemble", counting)
    g, line = line_domain(30)  # 29 interior vertices, 31 in all
    big, _ = line_domain(4096)  # past the dense budget of 4,096 rows
    leaves = range(1, 21)
    star = WeightedGraph(range(21), {v: 1.0 for v in range(21)},
                         [(0, v, 1.0) for v in leaves])
    tuples = "^universe size %d exceeds tuple budget 12"
    calls = [
        (lambda: alpha_dirichlet(line), "universe size 29 exceeds single-set budget 20"),
        (lambda: alpha_neumann(line), "pair universe size 29 exceeds pair budget 16"),
        (lambda: alpha_steklov(make_domain(star, [0])),
         "pair universe size 20 exceeds pair budget 16"),
        (lambda: beta_steklov(line.graph, range(1, 30)),
         "pair universe size 29 exceeds pair budget 16"),
        (lambda: gamma_tilde_dirichlet(g, line.interior, 2), tuples % 29),
        (lambda: gamma_k_dirichlet(g, line.interior, 2), tuples % 29),
        (lambda: kappa_steklov(line, 1), tuples % 31),
        (lambda: gamma_k_steklov(line, line.closure, 2), tuples % 31),
        (lambda: beta_tuple(g, line.interior, 1), tuples % 31),
        (lambda: beta_tuple(big, [1, 2], 1), tuples % 4097),
    ]
    for call, message in calls:
        with pytest.raises(BudgetError, match=message):
            call()
    assert assembled == []


def test_window_blocks_of_a_large_graph_are_gathered_from_the_csr(monkeypatch):
    # alpha_D and the tuple windows eliminate nothing: on a graph of
    # SPARSE_MIN_DIM vertices or more their block comes from the CSR
    # stiffness, bit-equal to the dense one.  On the 301-vertex unit path
    # with 12 middle interior vertices, alpha_D = (1/4 + 1/4) / 6
    def run():
        g, _ = line_domain(300)
        dom = make_domain(g, range(144, 156))
        return g, [alpha_dirichlet(dom), gamma_k_dirichlet(g, dom.interior, 2),
                   gamma_tilde_dirichlet(g, dom.interior, 2)]

    g, sparse = run()
    assert getattr(g, "_stiffness", None) is None
    assert sparse[0].value == pytest.approx(1 / 12, rel=REL)
    monkeypatch.setattr(linear_core, "SPARSE_MIN_DIM", 10 ** 9)  # every block dense
    g, dense = run()
    assert g._stiffness is not None
    assert [(r.value.hex(), r.witness) for r in sparse] == \
        [(r.value.hex(), r.witness) for r in dense]


def test_alpha_ds_conventions():
    g, dom = line_domain(4)
    assert is_infinite(alpha_ds(dom, [1, 2]).value)
    whole = alpha_ds(dom, dom.closure)
    assert whole.value == 0.0 and len(whole.witness) == 1
    res = alpha_ds(dom, [0, 1])
    assert res.value == pytest.approx(0.5, rel=REL)
    assert res.witness == (0,)
    with pytest.raises(InputError):
        alpha_ds(dom, [])


def test_gamma_tilde_k1_is_bottom_dirichlet_of_w():
    g, dom = line_domain(4)
    res = gamma_tilde_dirichlet(g, dom.interior, 1)
    lam = dirichlet_spectrum(g, dom.interior, 1).eigenvalues[0]
    assert res.value == pytest.approx(lam, rel=1e-10)
    assert res.witness == (tuple(dom.interior),)
    assert lam == pytest.approx(2.0 - math.sqrt(2.0), rel=1e-12)


def brute_gamma_tilde(graph, W, k):
    slots = list(W)
    best = math.inf
    for labels in itertools.product(range(k + 1), repeat=len(slots)):
        parts = [[s for s, l in zip(slots, labels) if l == j]
                 for j in range(1, k + 1)]
        if any(not p for p in parts):
            continue
        worst = max(dirichlet_spectrum(graph, p, 1).eigenvalues[0]
                    for p in parts)
        best = min(best, worst)
    return best


def test_gamma_tilde_brute_force():
    rng = np.random.default_rng(8)
    dom = random_domain(rng, max_closure=8, min_interior=4)
    W = dom.interior
    for k in (1, 2):
        res = gamma_tilde_dirichlet(dom.graph, W, k)
        assert res.value == pytest.approx(brute_gamma_tilde(dom.graph, W, k),
                                          rel=1e-9)
        assert len(res.witness) == k
        flat = [v for part in res.witness for v in part]
        assert len(flat) == len(set(flat))


def brute_alpha_ds_part(dom, part):
    pset = set(part)
    inner = [v for v in part if v in set(dom.boundary)]
    if not inner:
        return INFINITE
    sink = {y for v in part for y, _ in dom.induced.adjacency[v]
            if y not in pset}
    if not sink:
        return 0.0
    best = math.inf
    for s in range(1, len(inner) + 1):
        for A in itertools.combinations(inner, s):
            v = cap(dom, A, sink).value / dom.graph.mass_of(A)
            best = min(best, v)
    return best


def brute_minmax_ds(dom, slots, arity):
    best = INFINITE
    for labels in itertools.product(range(arity + 1), repeat=len(slots)):
        parts = [[s for s, l in zip(slots, labels) if l == j]
                 for j in range(1, arity + 1)]
        if any(not p for p in parts):
            continue
        vals = [brute_alpha_ds_part(dom, p) for p in parts]
        worst = INFINITE if any(is_infinite(v) for v in vals) else max(vals)
        if is_infinite(best) or (not is_infinite(worst) and worst < best):
            best = worst
    return best


def test_kappa_brute_force():
    rng = np.random.default_rng(9)
    dom = random_domain(rng, max_closure=6, min_boundary=3)
    res = kappa_steklov(dom, 1)
    expect = brute_minmax_ds(dom, list(dom.closure), 2)
    assert res.value == pytest.approx(expect, rel=1e-9)
    with pytest.raises(InputError):
        kappa_steklov(dom, len(dom.boundary))


def test_gamma_k_dirichlet_k1_matches_alpha_d():
    rng = np.random.default_rng(10)
    dom = random_domain(rng, max_closure=9)
    res = gamma_k_dirichlet(dom.graph, dom.interior, 1)
    assert res.value == pytest.approx(alpha_dirichlet(dom).value, rel=1e-10)


def test_part_cap_gives_upper_bound():
    rng = np.random.default_rng(11)
    dom = random_domain(rng, max_closure=9, min_interior=4)
    free = gamma_tilde_dirichlet(dom.graph, dom.interior, 2)
    capped = gamma_tilde_dirichlet(dom.graph, dom.interior, 2,
                                   budget=Budget(part_cap=1))
    assert capped.value >= free.value - 1e-12
    assert all(len(p) == 1 for p in capped.witness)
    assert capped.evaluations <= free.evaluations


def test_beta_tuple_and_bundle():
    rng = np.random.default_rng(12)
    dom = random_domain(rng, max_closure=7, min_interior=3)
    g = dom.graph
    omega = dom.interior
    res = beta_tuple(g, omega, 1)
    free = make_domain(g, g.vertices)

    def part_value(part):
        inner = [v for v in part if v in set(omega)]
        if not inner:
            return INFINITE
        sink = {y for v in part for y, _ in g.adjacency[v]
                if y not in set(part)}
        if not sink:
            return 0.0
        return min(cap(free, A, sink).value / g.mass_of(A)
                   for s in range(1, len(inner) + 1)
                   for A in itertools.combinations(inner, s))

    best = INFINITE
    for labels in itertools.product(range(3), repeat=len(g.vertices)):
        parts = [[v for v, l in zip(g.vertices, labels) if l == j]
                 for j in (1, 2)]
        if any(not p for p in parts):
            continue
        vals = [part_value(p) for p in parts]
        worst = INFINITE if any(is_infinite(v) for v in vals) else max(vals)
        if is_infinite(best) or (not is_infinite(worst) and worst < best):
            best = worst
    assert res.value == pytest.approx(best, rel=1e-9)


def test_limits_along_tree_exhaustion():
    steps = generate_steps(FamilySpec("binary_tree", quotient=True),
                           range(1, 7))
    rep = alpha_steklov_limit(steps)
    expect = [2.0**i / (2.0 ** (i + 1) - 1.0) for i in range(1, 7)]
    assert rep.values == pytest.approx(expect, rel=1e-11)
    assert rep.monotone and rep.limit_estimate == rep.values[-1]
    assert rep.error_bar == pytest.approx(abs(expect[-1] - expect[-2]))
    rep_d = alpha_dirichlet_limit(steps)
    assert rep_d.monotone
    assert all(b <= a + 1e-12 for a, b in zip(rep_d.values, rep_d.values[1:]))
    with pytest.raises(InputError):
        alpha_steklov_limit([])


def test_reversed_steps_raise_one_error_from_every_limit():
    spec = FamilySpec("binary_tree", quotient=True)
    steps = generate_steps(spec, range(1, 7))[::-1]
    limits = (lambda: cap_exhaustion(steps, (0,)),
              lambda: alpha_steklov_limit(steps),
              lambda: alpha_dirichlet_limit(steps))
    for limit in limits:
        with pytest.raises(InputError, match="^constant increased along the "
                                             "exhaustion; steps are not nested$"):
            limit()


def test_gamma_1_steklov_over_the_closure_is_zero():
    # no edge of G_Omega leaves the whole closure, so its part is 0.0 by
    # alpha_DS's empty-sink convention, decided from the edges; the
    # eliminations alone leave rounding noise of either sign there
    for seed in range(40):
        dom = random_domain(np.random.default_rng(seed), max_closure=10)
        assert alpha_ds(dom, dom.closure).value == 0.0
        res = gamma_k_steklov(dom, dom.closure, 1)
        assert res.value == 0.0
        assert res.witness == (tuple(dom.closure),)


def test_gamma_k_steklov_window():
    g, dom = line_domain(6)
    res = gamma_k_steklov(dom, [0, 1, 2, 3], 1)
    # single part, best is the whole window: Cap(0, {4})/m(0), potential
    # linear over four edges
    assert res.value == pytest.approx(0.25, rel=1e-10)
    assert not is_infinite(gamma_k_steklov(dom, [0, 1], 1).value)
    assert is_infinite(gamma_k_steklov(dom, [1, 2], 1).value)


def _tuple_constants(dom, k, window):
    """name -> result of each of kappa_{k+1}, beta_{k+1}, Gamma_k^D over the
    interior and Gamma_k^S over window that is defined at k."""
    g, interior = dom.graph, dom.interior
    out = {}
    if k <= len(dom.boundary) - 1:
        out["kappa"] = kappa_steklov(dom, k)
    if k <= len(interior) - 1:
        out["beta"] = beta_tuple(g, interior, k)
    if k <= len(interior):
        out["gamma_d"] = gamma_k_dirichlet(g, interior, k)
    if k <= len(window):
        out["gamma_s"] = gamma_k_steklov(dom, window, k)
    return out


def _scaled(dom, a, b):
    """dom with every weight times 2^a and every mass times 2^b."""
    g = dom.graph
    graph = WeightedGraph(g.vertices, {v: g.mass[v] * 2.0 ** b for v in g.vertices},
                          [(u, v, w * 2.0 ** a) for u, v, w in g.edges])
    return make_domain(graph, dom.interior)


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(seed=st.integers(0, 10 ** 6), k=st.integers(1, 3),
       a=st.integers(-3, 3), b=st.integers(-3, 3))
def test_tuple_constants_scale_exactly_and_ignore_labels(seed, k, a, b):
    # every operation of a part value scales by a power of two exactly, so
    # the values scale by 2^(a - b) bit for bit, with the same witness; the
    # window leaves out the closure's last vertex, so no part of it is
    # closed and no value is a cancelled 0
    rng = np.random.default_rng(seed)
    dom = random_domain(rng, max_closure=9)
    window = list(dom.closure[:-1])
    plain = _tuple_constants(dom, k, window)
    scaled = _tuple_constants(_scaled(dom, a, b), k, window)
    copy, back = _relabelled(dom, rng)
    name = {old: new for new, old in back.items()}
    relabelled = _tuple_constants(copy, k, [name[v] for v in window])
    assert plain.keys() == scaled.keys() == relabelled.keys()
    for key, want in plain.items():
        got, again = scaled[key], relabelled[key]
        if is_infinite(want.value):
            assert is_infinite(got.value) and is_infinite(again.value), key
            continue
        assert got.value == want.value * 2.0 ** (a - b), key
        assert got.witness == want.witness, key
        assert again.value == pytest.approx(want.value, rel=REL, abs=0), key
