"""The vectorized enumerators against per-candidate reference loops.

The references below are the straightforward loops: every tied minimum
builds its witness tuple and is offered to the running best one by one, and
every tuple-constant part is evaluated on its own.  The library must agree
with them bit for bit on value, witness and evaluation count, because both
perform the same per-candidate arithmetic and only the selection differs.
"""

import itertools

import numpy as np
import pytest

import isocap.constants as constants
from isocap import (INFINITE, Budget, InputError, WeightedGraph, beta_tuple,
                    dirichlet_spectrum, gamma_k_dirichlet, gamma_k_steklov, gamma_tilde_dirichlet,
                    kappa_steklov, make_domain)
from isocap.constants import (_CHUNK, _CUBE_MIN, DEFAULT_BUDGET, _better,
                              _cube_forms, _grounded_value, _levels, _min_pair,
                              _min_single, _min_tuple, _split_forms,
                              _split_table)
from isocap.infinite_families import line_domain
from isocap.linear_core import stiffness_matrix
from isocap.verify import _sign_patterns, random_domain

SEEDS = (None, 0, 1, 2, 3)


# ---------------------------------------------------------------------------
# reference implementations


def ref_grounded_values(k_amb, combos):
    n, s = combos.shape
    d_amb = k_amb.shape[0]
    kaa = k_amb[combos[:, :, None], combos[:, None, :]]
    tops = kaa.sum(axis=(1, 2))
    d = d_amb - s
    if d == 0:
        return tops
    mask = np.ones((n, d_amb), dtype=bool)
    mask[np.arange(n)[:, None], combos] = False
    free = np.nonzero(mask)[1].reshape(n, d)
    kfa = k_amb[free[:, :, None], combos[:, None, :]]
    c = kfa.sum(axis=2)
    kff = k_amb[free[:, :, None], free[:, None, :]]
    x = np.linalg.solve(kff, c[..., None])[..., 0]
    return tops - np.einsum("nd,nd->n", c, x)


def ref_min_single(k_amb, universe, masses, rng=None):
    """Returns (value, witness, evaluations, most tied rows in one chunk)."""
    p = len(universe)
    universe = np.asarray(universe, dtype=int)
    masses = np.asarray(masses, dtype=float)
    best = None
    examined = most_tied = 0
    sizes = list(range(1, p + 1))
    if rng is not None:
        rng.shuffle(sizes)
    for s in sizes:
        combos = np.array(list(itertools.combinations(range(p), s)), dtype=int)
        if rng is not None:
            combos = combos[rng.permutation(len(combos))]
        for lo in range(0, len(combos), _CHUNK):
            part = combos[lo : lo + _CHUNK]
            vals = ref_grounded_values(k_amb, universe[part]) / masses[part].sum(axis=1)
            examined += len(part)
            vmin = vals.min()
            tied = np.nonzero(vals == vmin)[0]
            most_tied = max(most_tied, len(tied))
            for row in tied:
                best = _better(best, float(vmin), tuple(int(i) for i in part[row]))
    return best[0], best[1], examined, most_tied


def ref_min_pair(k_amb, universe, masses, rng=None):
    """Returns (value, witness, evaluations, most tied splits in one chunk)."""
    p = len(universe)
    universe = np.asarray(universe, dtype=int)
    masses = np.asarray(masses, dtype=float)
    d_amb = k_amb.shape[0]
    best = None
    examined = most_tied = 0
    sizes = list(range(2, p + 1))
    if rng is not None:
        rng.shuffle(sizes)
    for u in sizes:
        bits = np.arange(1 << (u - 1))
        t = np.zeros((len(bits) - 1, u))
        t[:, 0] = 1.0
        for j in range(u - 1):
            t[:, j + 1] = (bits[:-1] >> j) & 1
        combos = np.array(list(itertools.combinations(range(p), u)), dtype=int)
        if rng is not None:
            combos = combos[rng.permutation(len(combos))]
        chunk = max(1, min(_CHUNK, (1 << 22) // max(1, len(bits))))
        for lo in range(0, len(combos), chunk):
            part = combos[lo : lo + chunk]
            rows = universe[part]
            n = len(part)
            kuu = k_amb[rows[:, :, None], rows[:, None, :]]
            d = d_amb - u
            if d:
                mask = np.ones((n, d_amb), dtype=bool)
                mask[np.arange(n)[:, None], rows] = False
                elim = np.nonzero(mask)[1].reshape(n, d)
                kue = k_amb[rows[:, :, None], elim[:, None, :]]
                kee = k_amb[elim[:, :, None], elim[:, None, :]]
                x = np.linalg.solve(kee, kue.transpose(0, 2, 1))
                s_u = kuu - kue @ x
            else:
                s_u = kuu
            quad = np.einsum("ps,nst,pt->np", t, s_u, t)
            m_u = masses[part]
            m_a = np.einsum("ps,ns->np", t, m_u)
            m_b = m_u.sum(axis=1)[:, None] - m_a
            vals = quad / np.minimum(m_a, m_b)
            examined += vals.size
            vmin = vals.min()
            tied = list(zip(*np.nonzero(vals == vmin)))
            most_tied = max(most_tied, len(tied))
            for ui, pi in tied:
                slots = part[ui]
                in_a = t[pi].astype(bool)
                key = (
                    tuple(int(i) for i in slots[in_a]),
                    tuple(int(i) for i in slots[~in_a]),
                )
                best = _better(best, float(vmin), key)
    return best[0], best[1], examined, most_tied


def ref_heuristic_values(k_amb, universe, masses, field):
    """Superlevel sets and singletons in candidate order, each with the value
    of one _grounded_value solve."""
    universe = np.asarray(universe, dtype=int)
    masses = np.asarray(masses, dtype=float)
    vec = np.asarray(field, dtype=float)
    if vec.sum() < 0:
        vec = -vec
    cands = _levels(vec) + [(i,) for i in range(len(universe))]
    return {slots: _grounded_value(k_amb, universe[list(slots)]) / masses[list(slots)].sum()
            for slots in dict.fromkeys(cands)}


def ref_heuristic_single(k_amb, universe, masses, field):
    """Every candidate solved, offered to the running best in candidate
    order."""
    values = ref_heuristic_values(k_amb, universe, masses, field)
    best = None
    for slots, val in values.items():
        best = _better(best, val, slots)
    return best[0], best[1], len(values)


def per_part(objective):
    """Batched objective from a one-part objective on a slot tuple."""
    return lambda parts: [objective(tuple(row)) for row in parts.tolist()]


def ref_ds_objective(k_amb, boundary_slots, masses):
    def objective(slots):
        inner = [i for i, s in enumerate(slots) if s in boundary_slots]
        if not inner:
            return INFINITE
        sub = k_amb[np.ix_(slots, slots)]
        return ref_min_single(sub, inner, masses[[slots[i] for i in inner]])[0]

    return per_part(objective)


def ref_kappa(domain, k, budget):
    order = list(domain.closure)
    kmat = stiffness_matrix(domain.induced)
    masses = np.array([domain.graph.mass[v] for v in order])
    bnd = {domain.closure_index[v] for v in domain.boundary}
    objective = ref_ds_objective(kmat, bnd, masses)
    return _min_tuple(k + 1, len(order), objective, budget, budget.part_cap, order)


def ref_beta_tuple(graph, omega, k, budget):
    order = list(graph.vertices)
    kmat = stiffness_matrix(graph)
    masses = np.array([graph.mass[v] for v in order])
    objective = ref_ds_objective(kmat, {graph.index[v] for v in omega}, masses)
    return _min_tuple(k + 1, len(order), objective, budget, budget.part_cap, order)


def ref_gamma_k_steklov(domain, W, k, budget):
    order = [v for v in domain.closure if v in set(W)]
    kmat = stiffness_matrix(domain.induced)
    pos = np.array([domain.closure_index[v] for v in order])
    masses = np.array([domain.graph.mass[v] for v in order])
    bnd = {i for i, v in enumerate(order) if v in domain.boundary_index}
    objective = ref_ds_objective(kmat[np.ix_(pos, pos)], bnd, masses)
    return _min_tuple(k, len(order), objective, budget, budget.part_cap, order)


def _window(graph, W):
    order = [v for v in graph.vertices if v in set(W)]
    kmat = stiffness_matrix(graph)
    pos = np.array([graph.index[v] for v in order])
    masses = np.array([graph.mass[v] for v in order])
    return order, kmat, pos, masses


def ref_gamma_k_dirichlet(graph, W, k, budget):
    order, kmat, pos, masses = _window(graph, W)

    def objective(slots):
        rows = pos[list(slots)]
        sub = kmat[np.ix_(rows, rows)]
        return ref_min_single(sub, list(range(len(slots))), masses[list(slots)])[0]

    return _min_tuple(k, len(order), per_part(objective), budget, budget.part_cap, order)


def ref_gamma_tilde_dirichlet(graph, W, k, budget):
    order, kmat, pos, masses = _window(graph, W)

    def objective(slots):
        rows = pos[list(slots)]
        sub = kmat[np.ix_(rows, rows)]
        d = 1.0 / np.sqrt(masses[list(slots)])
        return float(np.linalg.eigvalsh(sub * d[:, None] * d[None, :])[0])

    return _min_tuple(k, len(order), per_part(objective), budget, budget.part_cap, order)


def ref_sign_patterns(b):
    pats = np.array(list(itertools.product((-1.0, 0.0, 1.0), repeat=b)))
    keep = []
    for row in pats:
        nz = np.nonzero(row)[0]
        if len(nz) and row[nz[0]] > 0:
            keep.append(row)
    return np.array(keep)


# ---------------------------------------------------------------------------
# instances


def _unit_graph(n_vertices, edges):
    verts = list(range(n_vertices))
    return WeightedGraph(verts, {v: 1.0 for v in verts}, [(u, v, 1.0) for u, v in edges])


def unit_star(p, leaves_inside=False):
    """Centre 0 and leaves 1..p; the leaves are the boundary, or with
    leaves_inside the interior (then every nonempty leaf set ties for
    alpha_D)."""
    g = _unit_graph(p + 1, [(0, v) for v in range(1, p + 1)])
    return make_domain(g, list(range(1, p + 1)) if leaves_inside else [0])


def two_level_tree(c, leaves):
    """Root 0 with c children of `leaves` leaves each; the leaves are the
    boundary."""
    edges, interior, n = [], [0], 1
    for _ in range(c):
        child = n
        interior.append(child)
        edges.append((0, child))
        for leaf in range(child + 1, child + 1 + leaves):
            edges.append((child, leaf))
        n = child + 1 + leaves
    return make_domain(_unit_graph(n, edges), interior)


def random_star(p, rng):
    """Centre 0 and boundary leaves 1..p, weights and masses log-uniform
    over e^-3..e^3."""
    verts = list(range(p + 1))
    mass = dict(zip(verts, np.exp(rng.uniform(-3, 3, p + 1)).tolist()))
    weights = np.exp(rng.uniform(-3, 3, p)).tolist()
    g = WeightedGraph(verts, mass, [(0, v, weights[v - 1]) for v in range(1, p + 1)])
    return make_domain(g, [0])


TIED = [unit_star(p) for p in range(3, 10)] + [
    two_level_tree(c, l) for c, l in [(2, 2), (2, 3), (3, 2), (2, 4), (3, 3)]]
TIED_SINGLE = [unit_star(p, leaves_inside=True) for p in range(3, 10)]
RANDOM = [random_domain(np.random.default_rng(40 + i), max_closure=9)
          for i in range(20)]
# universes whose larger unions reach the split hypercube of _split_forms;
# the unit star's exact ties go through it too
CUBE = [unit_star(10)] + [random_star(p, np.random.default_rng(60 + p))
                          for p in (10, 11, 12)]


def single_inputs(dom):
    """(k_amb, universe, masses) as alpha_dirichlet passes them."""
    k = stiffness_matrix(dom.graph)
    pos = [dom.graph.index[v] for v in dom.interior]
    masses = [dom.graph.mass[v] for v in dom.interior]
    return k[np.ix_(pos, pos)], list(range(len(pos))), masses


def pair_inputs(dom):
    """(k_amb, universe, masses) as alpha_steklov passes them."""
    n = len(dom.interior)
    masses = [dom.graph.mass[v] for v in dom.boundary]
    return (stiffness_matrix(dom.induced),
            list(range(n, n + len(dom.boundary))), masses)


def _rng(seed):
    return None if seed is None else np.random.default_rng(seed)


def _same(got, want):
    assert repr(got[0]) == repr(want[0])
    assert got[1:3] == want[1:3]


# ---------------------------------------------------------------------------
# single-set and pair enumerators


@pytest.mark.parametrize("seed", SEEDS)
def test_min_single_matches_reference(seed):
    most_tied = []
    for dom in TIED_SINGLE + TIED + RANDOM:
        args = single_inputs(dom)
        want = ref_min_single(*args, rng=_rng(seed))
        _same(_min_single(*args, rng=_rng(seed)), want)
        most_tied.append(want[3])
    # both the tied path and the single-winner path ran
    assert min(most_tied[: len(TIED_SINGLE)]) > 1
    assert 1 in most_tied


def _count_cube_calls(monkeypatch):
    calls = []

    def counted(s_u, cube):
        calls.append(len(s_u))
        return _cube_forms(s_u, cube)

    monkeypatch.setattr(constants, "_cube_forms", counted)
    return calls


@pytest.mark.parametrize("seed", SEEDS)
def test_min_pair_matches_reference(seed, monkeypatch):
    calls = _count_cube_calls(monkeypatch)
    most_tied, cubed = [], []
    for dom in TIED + RANDOM + CUBE:
        args = pair_inputs(dom)
        want = ref_min_pair(*args, rng=_rng(seed))
        before = len(calls)
        _same(_min_pair(*args, rng=_rng(seed)), want)
        most_tied.append(want[3])
        cubed.append(len(calls) > before)
    assert min(most_tied[: len(TIED)]) > 1
    assert 1 in most_tied
    assert all(cubed[-len(CUBE):])
    assert most_tied[-len(CUBE)] > 1  # the unit star: ties through the cube


def test_min_pair_neumann_universe_matches_reference():
    # interior universe with boundary rows free, as alpha_neumann passes it
    for dom in TIED_SINGLE + RANDOM[:8]:
        if len(dom.interior) < 2:
            continue
        k_amb = stiffness_matrix(dom.induced)
        masses = [dom.graph.mass[v] for v in dom.interior]
        args = (k_amb, list(range(len(dom.interior))), masses)
        _same(_min_pair(*args), ref_min_pair(*args))


def test_min_single_and_min_pair_reject_all_nan_values():
    k_amb = np.full((3, 3), np.nan)
    with np.errstate(all="ignore"):
        with pytest.raises(InputError, match="every subset"):
            _min_single(k_amb, [0, 1, 2], [1.0, 1.0, 1.0])
        with pytest.raises(InputError, match="every pair split"):
            _min_pair(k_amb, [0, 1, 2], [1.0, 1.0, 1.0])


# ---------------------------------------------------------------------------
# split forms: hypercube kernel against the einsum


def _einsum_forms(t, s_u):
    return np.einsum("ps,nst,pt->np", t, s_u, t)


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def _schur_entries(rng, n, u):
    """Non-symmetric entries over e^-30..e^30 with both signs and some
    signed zeros, so that any other order of the adds changes the sums."""
    s_u = rng.standard_normal((n, u, u)) * np.exp(rng.uniform(-30, 30, (n, u, u)))
    s_u[rng.random((n, u, u)) < 0.05] = 0.0
    s_u[rng.random((n, u, u)) < 0.05] = -0.0
    return s_u


@pytest.mark.parametrize("u", range(2, DEFAULT_BUDGET.pair + 1))
def test_cube_forms_are_bit_equal_to_the_einsum(u):
    rng = np.random.default_rng(u)
    t, t_in_a, cube = _split_table(u)
    assert np.array_equal(t_in_a, t > 0) and not t.flags.writeable
    chunk = max(1, min(_CHUNK, (1 << 22) // (len(t) + 1)))
    sizes = [1, 2, 5]
    if u <= 9:  # the chunk _min_pair uses, while the einsum stays cheap
        sizes.append(chunk)
    for n in sizes:
        s_u = _schur_entries(rng, n, u)
        got = _cube_forms(s_u, cube)
        assert got.shape == (n, len(t))
        assert np.array_equal(_bits(got), _bits(_einsum_forms(t, s_u))), (u, n)


@pytest.mark.parametrize("u", range(2, DEFAULT_BUDGET.pair + 1))
def test_split_forms_route_on_both_sides_of_the_threshold(u, monkeypatch):
    calls = _count_cube_calls(monkeypatch)
    rng = np.random.default_rng(100 + u)
    t, _, cube = _split_table(u)
    below, above = (_CUBE_MIN - 1) // len(t), -(-_CUBE_MIN // len(t))
    for n, cubed in ((below, False), (above, True)):
        if n == 0:
            continue
        s_u = _schur_entries(rng, n, u)
        before = len(calls)
        got = _split_forms(t, s_u, cube)
        assert (len(calls) > before) == cubed
        assert np.array_equal(_bits(got), _bits(_einsum_forms(t, s_u))), (u, n)
    # a non-finite Schur entry keeps the einsum and its NaN pattern (0 * inf)
    s_u = _schur_entries(rng, above, u)
    s_u[0, 0, u - 1] = np.inf
    s_u[-1, u - 1, 0] = np.nan
    before = len(calls)
    with np.errstate(invalid="ignore"):
        got = _split_forms(t, s_u, cube)
        want = _einsum_forms(t, s_u)
    assert len(calls) == before
    assert np.isnan(got).any()
    assert np.array_equal(_bits(got), _bits(want))


# ---------------------------------------------------------------------------
# tuple constants


def _result(res):
    return repr(res.value), res.witness, res.evaluations


TUPLE_DOMAINS = TIED[:3] + [two_level_tree(2, 2)] + RANDOM[:10]


@pytest.mark.parametrize("budget", [DEFAULT_BUDGET, Budget(part_cap=2)],
                         ids=["uncapped", "cap2"])
def test_tuple_constants_match_per_part_reference(budget):
    for dom in TUPLE_DOMAINS:
        g, interior = dom.graph, dom.interior
        W = list(dom.closure)[:8]
        for k in (1, 2, 3):
            if k <= len(dom.boundary) - 1:
                assert _result(kappa_steklov(dom, k, budget)) == \
                    _result(ref_kappa(dom, k, budget))
            if k <= len(interior) - 1:
                assert _result(beta_tuple(g, interior, k, budget)) == \
                    _result(ref_beta_tuple(g, interior, k, budget))
            if k <= len(interior):
                assert _result(gamma_k_dirichlet(g, interior, k, budget)) == \
                    _result(ref_gamma_k_dirichlet(g, interior, k, budget))
                assert _result(gamma_tilde_dirichlet(g, interior, k, budget)) == \
                    _result(ref_gamma_tilde_dirichlet(g, interior, k, budget))
            if k <= len(W):
                assert _result(gamma_k_steklov(dom, W, k, budget)) == \
                    _result(ref_gamma_k_steklov(dom, W, k, budget))


def test_parts_without_boundary_slot_are_infinite():
    # a window of interior vertices only: every part's alpha_DS is vacuous
    dom = two_level_tree(2, 2)
    W = list(dom.interior)
    res = gamma_k_steklov(dom, W, 2)
    assert res.value is INFINITE
    assert _result(res) == _result(ref_gamma_k_steklov(dom, W, 2, DEFAULT_BUDGET))


# ---------------------------------------------------------------------------
# heuristic single-set bound: screened, survivors batched by size


def _segment(n, rng, spread=2):
    """Interior 1..n-1 of a segment with weights and masses log-uniform over
    e^-spread..e^spread."""
    w = np.exp(rng.uniform(-spread, spread, n)).tolist()
    m = np.exp(rng.uniform(-spread, spread, n + 1)).tolist()
    graph, dom = line_domain(n, weight_rule=lambda u, v: w[u],
                             mass_rule=lambda v: m[v])
    return dom


def heuristic_inputs():
    """(k_amb, universe, masses, field) as alpha_dirichlet's heuristic path
    passes them, plus fields with tied and negative levels."""
    rng = np.random.default_rng(90)
    doms = (RANDOM + TIED_SINGLE + [line_domain(40)[1]]
            + [_segment(n, rng) for n in (40, 150)])
    for dom in doms:
        k_amb, universe, masses = single_inputs(dom)
        p = len(universe)
        yield k_amb, universe, masses, dirichlet_spectrum(
            dom.graph, dom.interior, 1).vectors[:, 0]
        yield k_amb, universe, masses, rng.integers(-2, 3, p).astype(float)
        yield k_amb, universe, masses, np.ones(p)


def _record_batches(monkeypatch):
    """The (candidate rows, d_amb) of every exact batch, as lists."""
    batches = []
    solve = constants._grounded_values

    def recording(k_amb, combos, free):
        batches.append((combos.tolist(), k_amb.shape[0]))
        return solve(k_amb, combos, free)

    monkeypatch.setattr(constants, "_grounded_values", recording)
    return batches


@pytest.mark.parametrize("cap", [None, 3 * 39 ** 2, 1])
def test_heuristic_single_matches_reference(cap, monkeypatch):
    if cap is not None:
        monkeypatch.setattr(constants, "_SOLVE_ELEMENTS", cap)
    cap = constants._SOLVE_ELEMENTS
    cases = list(heuristic_inputs())
    want = [ref_heuristic_single(*case) for case in cases]
    batches = _record_batches(monkeypatch)
    got, kept = [], []
    for case in cases:
        batches.clear()
        got.append(constants._heuristic_single(*case))
        kept.append(list(batches))
    for g, w in zip(got, want):
        _same(g, w)
    for case, w, runs in zip(cases, want, kept):
        # no kept batch over the element budget, unless it is a single candidate
        assert all(len(rows) == 1 or len(rows) * d * d <= cap for rows, d in runs)
        # every candidate tied with the reference minimum was solved exactly
        solved = {tuple(r) for rows, _ in runs for r in rows}
        universe = np.asarray(case[1])
        for slots, val in ref_heuristic_values(*case).items():
            if val == w[0]:
                assert tuple(universe[list(slots)].tolist()) in solved
    # an infinite margin keeps every candidate, batched by size
    monkeypatch.setattr(constants, "_SCREEN_SLACK", np.inf)
    batches.clear()
    got = [constants._heuristic_single(*case) for case in cases]
    for g, w in zip(got, want):
        _same(g, w)
    assert all(len(rows) == 1 or len(rows) * d * d <= cap for rows, d in batches)
    assert sum(len(rows) for rows, _ in batches) == sum(w[2] for w in want)
    if cap > 1:
        assert max(len(rows) for rows, _ in batches) > 1
        assert len(batches) < sum(w[2] for w in want)


def test_heuristic_single_screen_solves_few_candidates(monkeypatch):
    # the guiding eigenfunction of the unit 40-edge segment: of its 39
    # superlevel sets and 39 singletons, one survives the screen
    dom = line_domain(40)[1]
    k_amb, universe, masses = single_inputs(dom)
    field = dirichlet_spectrum(dom.graph, dom.interior, 1).vectors[:, 0]
    want = ref_heuristic_single(k_amb, universe, masses, field)
    batches = _record_batches(monkeypatch)
    _same(constants._heuristic_single(k_amb, universe, masses, field), want)
    assert sum(len(rows) for rows, _ in batches) == 1 < want[2]


@pytest.mark.parametrize("seed", [93, 95])
def test_heuristic_single_keeps_every_candidate_when_ill_conditioned(seed, monkeypatch):
    # weights and masses over e^-30..e^30 on a 10-edge segment: with seed 95
    # the estimated kappa is about 6e18, so delta >= 1/4; with seed 93 the
    # Cholesky factorization of k_amb fails.  Either way every candidate is
    # solved exactly, and the result is the reference's, however inaccurate
    dom = _segment(10, np.random.default_rng(seed), spread=30)
    k_amb, universe, masses = single_inputs(dom)
    field = dirichlet_spectrum(dom.graph, dom.interior, 1).vectors[:, 0]
    want = ref_heuristic_single(k_amb, universe, masses, field)
    batches = _record_batches(monkeypatch)
    _same(constants._heuristic_single(k_amb, universe, masses, field), want)
    assert sum(len(rows) for rows, _ in batches) == want[2]


def _scaled_star(p, weight, mass):
    """unit_star(p, leaves_inside=True) with every weight and mass scaled:
    the leaf sets tie up to rounding, and the screen rounds differently from
    the exact solves."""
    verts = list(range(p + 1))
    g = WeightedGraph(verts, {v: mass for v in verts},
                      [(0, v, weight) for v in range(1, p + 1)])
    return make_domain(g, list(range(1, p + 1)))


def test_heuristic_single_ties_take_the_smallest_candidate():
    # every nonempty leaf set of the unit star ties (the scaled stars up to
    # rounding); the singleton (0,) is the smallest candidate tuple whatever
    # the field's levels are
    stars = TIED_SINGLE + [_scaled_star(p, 3.0, m) for p in (3, 6, 9)
                           for m in (0.3, 0.7, 1.0)]
    for dom in stars:
        k_amb, universe, masses = single_inputs(dom)
        field = np.arange(len(universe), 0, -1, dtype=float)
        got = constants._heuristic_single(k_amb, universe, masses, field)
        assert got[1] == (0,)
        _same(got, ref_heuristic_single(k_amb, universe, masses, field))


# ---------------------------------------------------------------------------
# equality-case sign patterns


@pytest.mark.parametrize("b", range(1, 9))
def test_sign_patterns_match_reference(b):
    got = _sign_patterns(b)
    want = ref_sign_patterns(b)
    assert got.dtype == np.int8
    assert got.shape == want.shape
    assert np.array_equal(got, want)
