import itertools
import math
import time

import numpy as np
import pytest
import scipy.linalg

from isocap import (INFINITE, InputError, WeightedGraph, WeightSchedule,
                    default_schedule, dirichlet_spectrum, dtn_operator,
                    energy, grounded_dtn_spectrum, harmonic_extension,
                    hm_dtn_spectrum, is_infinite, make_domain,
                    neumann_spectrum, normal_derivative, solve_spd,
                    steklov_spectrum, stiffness_matrix, sym_eig_generalized,
                    vanishing_weight_spectrum)
from isocap import linear_core
from isocap.errors import BudgetError
from isocap.cli_io import parse_family_spec
from isocap.infinite_families import (FamilySpec, generate, generate_steps, line_domain,
                                      t3_example)
from isocap.linear_core import (SPARSE_MAX_COUNT, SPARSE_MIN_DIM, _residual,
                                lowest_eigenpairs, schur_solver)
from isocap.testing import random_domain

REL = 1e-11


def unit_path(n):
    return WeightedGraph(range(n + 1), {v: 1.0 for v in range(n + 1)},
                         [(v, v + 1, 1.0) for v in range(n)])


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_dirichlet_path_closed_form(n):
    res = dirichlet_spectrum(unit_path(n), range(1, n))
    expect = sorted(2.0 - 2.0 * math.cos(j * math.pi / n) for j in range(1, n))
    assert res.eigenvalues == pytest.approx(expect, rel=REL)
    assert res.residual_norm <= 1e-10


@pytest.mark.parametrize("n", range(2, 12))
def test_steklov_line(n):
    g, dom = line_domain(n)
    res = steklov_spectrum(dom)
    assert res.eigenvalues[0] == pytest.approx(0.0, abs=1e-12)
    assert res.eigenvalues[1] == pytest.approx(2.0 / n, rel=REL)
    u = res.fields[1]
    assert u[0] == pytest.approx(-u[n], rel=1e-9)


def test_t3_steklov():
    g, dom = t3_example()
    res = steklov_spectrum(dom, count=2)
    assert res.eigenvalues[1] == pytest.approx(1.0 / 3.0, rel=REL)


def test_steklov_field_rayleigh_and_flux():
    g, dom = t3_example()
    res = steklov_spectrum(dom, count=3)
    sigma = res.eigenvalues[2]
    u = res.fields[2]
    bmass = sum(g.mass[z] * u[z] ** 2 for z in dom.boundary)
    assert energy(dom, u, u) / bmass == pytest.approx(sigma, rel=1e-9)
    nd = normal_derivative(dom, u)
    for z in dom.boundary:
        assert nd[z] == pytest.approx(sigma * u[z], abs=1e-9)


def test_steklov_ignores_interior_mass():
    g, dom = t3_example()
    heavy = WeightedGraph(
        g.vertices,
        {v: (50.0 if v in dom.interior else g.mass[v]) for v in g.vertices},
        g.edges,
    )
    a = steklov_spectrum(dom).eigenvalues
    b = steklov_spectrum(make_domain(heavy, dom.interior)).eigenvalues
    assert a == pytest.approx(b, rel=1e-12)


def test_dtn_operator_matches_normal_derivative():
    g, dom = t3_example()
    op = dtn_operator(dom)
    vals = {z: float(i * i - 2.0) for i, z in enumerate(dom.boundary)}
    u = harmonic_extension(dom, vals)
    nd = normal_derivative(dom, u)
    out = op.apply(vals)
    for z in dom.boundary:
        assert out[z] == pytest.approx(g.mass[z] * nd[z], abs=1e-10)


def test_neumann_basics():
    g, dom = t3_example()
    res = neumann_spectrum(dom)
    assert len(res.eigenvalues) == len(dom.interior)
    assert res.eigenvalues[0] == pytest.approx(0.0, abs=1e-12)
    c = res.fields[0]
    spread = max(c.values()) - min(c.values())
    assert spread <= 1e-10 * max(abs(v) for v in c.values())
    # zero flux at the boundary of the extension
    u = res.fields[1]
    nd = normal_derivative(dom, u)
    for z in dom.boundary:
        assert nd[z] == pytest.approx(0.0, abs=1e-10)


def test_neumann_without_boundary_is_plain_laplacian():
    g = unit_path(3)
    dom = make_domain(g, g.vertices)
    res = neumann_spectrum(dom)
    # plain Laplacian of the path: 2 - 2 cos(j pi / 4) over j = 0..3
    expect = [2.0 - 2.0 * math.cos(j * math.pi / 4.0) for j in range(4)]
    assert res.eigenvalues == pytest.approx(expect, abs=1e-11)


def test_neumann_and_steklov_count_errors():
    # one interior and one boundary vertex: no count above 1 is posed
    g = unit_path(1)
    dom = make_domain(g, [0])
    for spectrum, size in ((neumann_spectrum, "Omega"), (steklov_spectrum, "boundary")):
        assert len(spectrum(dom, 1).eigenvalues) == 1
        with pytest.raises(InputError, match=r"count exceeds \|%s\|" % size):
            spectrum(dom, 2)
        for count in (0, -1):
            with pytest.raises(InputError, match="count must be positive"):
                spectrum(dom, count)


def test_hm_triangle_oracle():
    g = WeightedGraph("abc", {v: 1.0 for v in "abc"},
                      [("a", "b", 1.0), ("b", "c", 1.0), ("a", "c", 1.0)])
    res = hm_dtn_spectrum(g, ["b", "c"])
    assert res.eigenvalues == pytest.approx([0.0, 3.0], abs=1e-12)


def test_hm_agrees_with_steklov_when_omega_has_no_inner_edges():
    g, dom = t3_example()
    # Omega = boundary of the t3 domain: no omega-omega edges survive either way
    res_hm = hm_dtn_spectrum(g, dom.boundary)
    rng = np.random.default_rng(7)
    dom2 = random_domain(rng, max_closure=9)
    hm2 = hm_dtn_spectrum(dom2.graph, dom2.interior, count=2)
    assert res_hm.eigenvalues[0] == pytest.approx(0.0, abs=1e-12)
    assert hm2.eigenvalues[0] == pytest.approx(0.0, abs=1e-12)
    assert hm2.eigenvalues[1] > 0


def test_hm_rejects_improper_omega():
    g, dom = t3_example()
    with pytest.raises(InputError):
        hm_dtn_spectrum(g, [])
    with pytest.raises(InputError):
        hm_dtn_spectrum(g, g.vertices)


def test_grounded_dtn_path_oracle():
    g, dom = line_domain(4)
    res = grounded_dtn_spectrum(dom, [1, 2, 3, 4])
    assert len(res.eigenvalues) == 1
    assert res.eigenvalues[0] == pytest.approx(0.25, rel=1e-12)
    f = res.fields[0]
    top = f[4]
    assert [f[v] / top for v in (1, 2, 3)] == pytest.approx([0.25, 0.5, 0.75])
    assert is_infinite(grounded_dtn_spectrum(dom, [1, 2]))


def test_grounded_dtn_positive_and_monotone_in_window():
    rng = np.random.default_rng(11)
    dom = random_domain(rng, max_closure=10, min_boundary=3)
    # ground at least one vertex so the constant kernel disappears
    wide = grounded_dtn_spectrum(dom, dom.interior + dom.boundary[:2])
    assert all(s > 0 for s in wide.eigenvalues)
    narrow = grounded_dtn_spectrum(dom, dom.interior + dom.boundary[:1])
    assert narrow.eigenvalues[0] >= wide.eigenvalues[0] - 1e-12


def test_tree_grounded_bottom_approaches_half():
    spec = FamilySpec("binary_tree", quotient=True)
    prev = None
    for i in (2, 5, 9, 12):
        step = generate(spec, i)
        sigma = grounded_dtn_spectrum(step.domain, step.W, count=1).eigenvalues[0]
        if prev is not None:
            assert sigma <= prev + 1e-12
        prev = sigma
    assert abs(prev - 0.5) < 1e-3


def test_vanishing_weight_modes():
    g, dom = t3_example()
    sched = WeightSchedule(tuple(2.0**p for p in range(13)))
    runs = vanishing_weight_spectrum(dom, "steklov", schedule=sched)
    seq = [r.eigenvalues[1] for r in runs]
    assert all(b >= a - 1e-12 for a, b in zip(seq, seq[1:]))
    target = steklov_spectrum(dom, count=2).eigenvalues[1]
    assert abs(seq[-1] - target) < 1e-3
    runs_n = vanishing_weight_spectrum(dom, "neumann", schedule=sched)
    seq_n = [r.eigenvalues[1] for r in runs_n]
    target_n = neumann_spectrum(dom, count=2).eigenvalues[1]
    assert abs(seq_n[-1] - target_n) < 1e-3
    with pytest.raises(InputError):
        vanishing_weight_spectrum(dom, "dirichlet")


def test_schedule_validation():
    with pytest.raises(InputError):
        WeightSchedule((1.0, 1.0))
    with pytest.raises(InputError):
        WeightSchedule((4.0, 2.0))
    with pytest.raises(InputError):
        WeightSchedule(())
    assert default_schedule(3).k_values == (1, 2, 4, 8)


def test_neumann_eigenproblem_is_the_schur_elimination():
    # the independent check: the diagonal elimination with its upper triangle
    # mirrored gives the same spectrum, to 1e-12 of its largest eigenvalue.
    # The bit-equality half only pins the call sequence (schur_solver's form,
    # then sym_eig_generalized); the unsymmetrized product is asymmetric on
    # enough domains that schur_solver's symmetrization is exercised
    asymmetric = 0
    for seed in range(40):
        domain = random_domain(np.random.default_rng(seed))
        n, nb = len(domain.interior), len(domain.boundary)
        k = stiffness_matrix(domain.induced)
        mass = np.array([domain.graph.mass[v] for v in domain.interior])
        got = neumann_spectrum(domain)
        kib = k[:n, n:]
        khat = k[:n, :n] - (kib / np.diag(k[n:, n:])[None, :]) @ kib.T
        mirrored = sym_eig_generalized(np.triu(khat) + np.triu(khat, 1).T, mass)
        top = abs(mirrored.eigenvalues[-1])
        assert np.abs(got.eigenvalues - mirrored.eigenvalues).max() <= 1e-12 * top
        form, solve, _ = schur_solver(k, range(n), range(n, n + nb))
        product = k[:n, :n] - kib @ solve(kib.T)
        asymmetric += not np.array_equal(product, product.T)
        want = sym_eig_generalized(form, mass)
        assert np.array_equal(got.eigenvalues, want.eigenvalues)
        assert np.array_equal(got.vectors, want.vectors)
        assert got.residual_norm == want.residual_norm
    assert asymmetric >= 10


@pytest.mark.parametrize("n", range(3, 13))
def test_neumann_line_closed_form(n):
    # a unit path with both ends as boundary: zero flux there makes the
    # interior a free path, lambda_j = 4 sin^2(pi j / (2 (n - 1)))
    g, dom = line_domain(n)
    res = neumann_spectrum(dom)
    expect = [4.0 * math.sin(math.pi * j / (2 * (n - 1))) ** 2 for j in range(n - 1)]
    assert res.eigenvalues == pytest.approx(expect, abs=1e-12)


def test_an_operator_scale_past_the_float_range_is_refused():
    # one interior vertex and one boundary vertex joined by weight 0.5: the
    # Schur form of either problem is 0.5 - 0.5 (1 - 2^-52) = 1.1e-16 where
    # the exact value is 0; at unit masses that is the answer's rounding
    # error, but over a mass of 5e-324 it would read as an eigenvalue of
    # 2.2e307, so a K_ii / m_i past the float range is an InputError
    def domain(masses):
        graph = WeightedGraph([0, 1, 2], dict(enumerate(masses)),
                              [(0, 1, 0.5), (1, 2, 5e-324)])
        return make_domain(graph, [0])

    for spectrum in (neumann_spectrum, steklov_spectrum):
        assert abs(spectrum(domain([1.0, 1.0, 1.0])).eigenvalues[0]) <= 1e-15
    with pytest.raises(InputError, match="operator scale"):
        neumann_spectrum(domain([5e-324, 1.7976931348623157e308, 5e-324]))
    with pytest.raises(InputError, match="operator scale"):
        steklov_spectrum(domain([1.0, 5e-324, 1.0]))


# ---------------------------------------------------------------------------
# eigenfunction extensions: one factorization per call


def _count_factors(monkeypatch):
    sizes = []
    factor = scipy.linalg.cho_factor

    def counting(a, *args, **kwargs):
        sizes.append(a.shape[0])
        return factor(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "cho_factor", counting)
    return sizes


def _bits(field):
    return [(v, float(x).hex()) for v, x in field.items()]


def _per_vector(block, rhs, ids, field):
    """A field completed by one fresh SPD solve, as each eigenvector was."""
    field = dict(field)
    for x, value in zip(ids, solve_spd(block, rhs)):
        field[x] = float(value)
    return field


@pytest.mark.parametrize("seed", range(40))
def test_extensions_factor_once_and_match_per_vector_solves(seed, monkeypatch):
    dom = random_domain(np.random.default_rng(seed))
    n, nb = len(dom.interior), len(dom.boundary)
    k = stiffness_matrix(dom.induced)
    sizes = _count_factors(monkeypatch)

    res = steklov_spectrum(dom)
    # K_II once, for the Schur complement and every extension
    assert sizes == [n]
    assert len(res.fields) == nb
    for j, f in enumerate(res.fields):
        boundary = {z: res.vectors[i, j] for i, z in enumerate(dom.boundary)}
        assert _bits(f) == _bits(harmonic_extension(dom, boundary))

    sizes.clear()
    g, omega = dom.graph, dom.interior
    res = hm_dtn_spectrum(g, omega)
    drop = [v for v in g.vertices if v not in set(omega)]
    assert sizes == [len(drop)]
    pos = [g.index[v] for v in list(omega) + drop]
    kw = stiffness_matrix(g)[np.ix_(pos, pos)]
    for j, f in enumerate(res.fields):
        v = res.vectors[:, j]
        own = {x: float(v[i]) for i, x in enumerate(omega)}
        assert _bits(f) == _bits(_per_vector(kw[n:, n:], -kw[n:, :n] @ v, drop, own))

    sizes.clear()
    res = neumann_spectrum(dom)
    # K_BB, diagonal, once for the form and every zero-flux extension
    assert sizes == [nb]
    for j, f in enumerate(res.fields):
        v = res.vectors[:, j]
        own = {x: float(v[i]) for i, x in enumerate(dom.interior)}
        assert _bits(f) == _bits(_per_vector(k[n:, n:], -k[n:, :n] @ v,
                                             dom.boundary, own))

    sizes.clear()
    W = dom.interior + dom.boundary[:2]
    res = grounded_dtn_spectrum(dom, W)
    assert sizes == [n]
    kw = k[np.ix_(range(n + 2), range(n + 2))]
    for j, f in enumerate(res.fields):
        v = res.vectors[:, j]
        own = {z: float(v[i]) for i, z in enumerate(dom.boundary[:2])}
        assert _bits(f) == _bits(_per_vector(kw[:n, :n], -kw[:n, n:] @ v,
                                             dom.interior, own))


# ---------------------------------------------------------------------------
# the lowest Dirichlet eigenpairs: dense below SPARSE_MIN_DIM, sparse above


def box_window(side, dim, rng=None):
    """The box {1..side}^dim with its faces {0, side+1} as boundary (no edge
    or corner vertices), and the box as window.  Unit weights and masses, or
    log-uniform ones over 10^-1..10^1 from rng: then every eigenvalue is
    simple."""
    def inside(p):
        return all(1 <= c <= side for c in p)

    keep = [p for p in itertools.product(range(side + 2), repeat=dim)
            if sum(not 1 <= c <= side for c in p) <= 1]
    present = set(keep)
    pairs = [(p, q) for p in keep for q in (p[:a] + (p[a] + 1,) + p[a + 1:]
                                            for a in range(dim))
             if q in present and (inside(p) or inside(q))]
    if rng is None:
        weights, masses = np.ones(len(pairs)), np.ones(len(keep))
    else:
        weights = 10.0 ** rng.uniform(-1, 1, len(pairs))
        masses = 10.0 ** rng.uniform(-1, 1, len(keep))
    graph = WeightedGraph(keep, dict(zip(keep, masses)),
                          [(p, q, w) for (p, q), w in zip(pairs, weights)])
    return graph, [p for p in keep if inside(p)]


def _no_sparse_route(monkeypatch):
    def refuse(*args):
        raise AssertionError("the sparse route ran")

    monkeypatch.setattr(linear_core, "_sparse_lowest", refuse)


@pytest.mark.parametrize("side", [14, 15, 20])  # windows of 196, 225 and 400
def test_sparse_and_dense_routes_agree(side):
    g, W = box_window(side, 2, np.random.default_rng(side))
    dom = make_domain(g, W)
    n = len(dom.interior)
    k = stiffness_matrix(dom.induced)[:n, :n]
    mass = np.array([g.mass[v] for v in dom.interior])
    for count in range(1, SPARSE_MAX_COUNT + 1):
        res = dirichlet_spectrum(g, W, count=count)
        dense = sym_eig_generalized(k, mass, vertex_order=dom.interior, count=count)
        assert res.vertex_order == dense.vertex_order
        assert [sorted(f) for f in res.fields] == [sorted(dom.closure)] * count
        assert all(f[z] == 0.0 for f in res.fields for z in dom.boundary)
        if n < SPARSE_MIN_DIM:  # the dense route itself
            assert res.eigenvalues.tobytes() == dense.eigenvalues.tobytes()
            assert res.vectors.tobytes() == dense.vectors.tobytes()
            assert res.residual_norm == dense.residual_norm
            continue
        rel = np.abs(res.eigenvalues - dense.eigenvalues) / dense.eigenvalues
        assert rel.max() <= 1e-12
        for a, b in zip(res.vectors.T, dense.vectors.T):
            assert min(np.abs(a - b).max(), np.abs(a + b).max()) <= 1e-8 * np.abs(b).max()
        # the CSR residual and the dense rule on the same pairs
        assert res.residual_norm <= 1e-14
        assert _residual(k, mass, res.eigenvalues, res.vectors) <= 1e-14


def test_unit_box_closed_form_past_the_dense_budget():
    # 6,859 window vertices: G_Omega has 9,025, past the dense budget
    side = 19
    g, W = box_window(side, 3)
    start = time.perf_counter()
    res = dirichlet_spectrum(g, W, count=SPARSE_MAX_COUNT)
    elapsed = time.perf_counter() - start
    t1 = 2.0 * (1.0 - math.cos(math.pi / (side + 1)))
    t2 = 2.0 * (1.0 - math.cos(2.0 * math.pi / (side + 1)))
    # lambda_1 = 2d(1 - cos(pi/(N+1))), then a triple eigenvalue
    expect = np.array([3 * t1] + [2 * t1 + t2] * 3)
    assert np.abs(res.eigenvalues - expect).max() <= 1e-12 * expect[0]
    assert res.residual_norm <= 1e-14
    assert elapsed < 20.0  # about 0.2 s on a 2-core x86-64 host
    with pytest.raises(BudgetError):
        dirichlet_spectrum(g, W, count=SPARSE_MAX_COUNT + 1)


def test_sparse_route_is_deterministic():
    results = [dirichlet_spectrum(*box_window(16, 2, np.random.default_rng(3)), count=2)
               for _ in range(2)]
    a, b = results
    assert a.eigenvalues.tobytes() == b.eigenvalues.tobytes()
    assert a.vectors.tobytes() == b.vectors.tobytes()
    assert a.residual_norm == b.residual_norm


def test_boundary_free_and_large_counts_take_the_dense_route(monkeypatch):
    g, W = box_window(15, 2, np.random.default_rng(4))
    dom = make_domain(g, W)
    n = len(dom.interior)
    mass = np.array([g.mass[v] for v in dom.interior])
    want = sym_eig_generalized(stiffness_matrix(dom.induced)[:n, :n], mass,
                               count=SPARSE_MAX_COUNT + 1)
    _no_sparse_route(monkeypatch)
    got = dirichlet_spectrum(g, W, count=SPARSE_MAX_COUNT + 1)
    assert got.eigenvalues.tobytes() == want.eigenvalues.tobytes()
    # Omega = every vertex: no boundary, K_II singular, lambda_0 = 0
    res = dirichlet_spectrum(g, g.vertices, count=1)
    assert abs(res.eigenvalues[0]) <= 1e-12
    k = stiffness_matrix(g)
    whole = lowest_eigenpairs(g, len(g.vertices), [g.mass[v] for v in g.vertices], 1)
    assert whole.eigenvalues.tobytes() == sym_eig_generalized(
        k, [g.mass[v] for v in g.vertices], count=1).eigenvalues.tobytes()


# ---------------------------------------------------------------------------
# the factored block of the eliminated spectra: dense below SPARSE_MIN_DIM
# eliminated rows, sparse from there


def _grounded_case(step):
    dom, wset = step.domain, set(step.W)
    return (grounded_dtn_spectrum(dom, step.W), dom.induced, dom.graph.mass,
            [z for z in dom.boundary if z in wset], [v for v in dom.interior if v in wset])


def _steklov_case(dom):
    return steklov_spectrum(dom), dom.induced, dom.graph.mass, dom.boundary, dom.interior


def _neumann_case(dom):
    return neumann_spectrum(dom), dom.induced, dom.graph.mass, dom.interior, dom.boundary


def _hm_case(graph, omega):
    oset = set(omega)
    return (hm_dtn_spectrum(graph, omega), graph, graph.mass,
            [v for v in graph.vertices if v in oset],
            [v for v in graph.vertices if v not in oset])


def _family_step(spec, index):
    return generate_steps(parse_family_spec(spec), [index])[-1]


def _dense_elimination(graph, mass, keep_ids, elim_ids, count):
    """The eliminated spectrum by the dense arithmetic, written out: one
    Cholesky factor of K_EE for the symmetrized Schur form and every field."""
    k = stiffness_matrix(graph)
    keep = [graph.index[v] for v in keep_ids]
    elim = [graph.index[v] for v in elim_ids]
    kek = k[np.ix_(elim, keep)]
    factor = scipy.linalg.cho_factor(k[np.ix_(elim, elim)], check_finite=False)
    s = k[np.ix_(keep, keep)] - kek.T @ scipy.linalg.cho_solve(factor, kek, check_finite=False)
    res = sym_eig_generalized(0.5 * (s + s.T), [mass[v] for v in keep_ids], count=count)
    for j in range(count):
        v = res.vectors[:, j]
        f = {x: float(v[i]) for i, x in enumerate(keep_ids)}
        f.update(zip(elim_ids, scipy.linalg.cho_solve(factor, (-kek) @ v,
                                                      check_finite=False).tolist()))
        res.fields.append(f)
    return res


def _below_threshold_cases():
    for r in (1, 2, 3):  # 9, 50 and 147 eliminated rows
        yield _grounded_case(_family_step("half_space:3", r))
    for i in (3, 5, 7):  # 7, 31 and 127
        yield _grounded_case(_family_step("binary_tree", i))
    # a unit path whose interior is one row short of the sparse route
    yield _steklov_case(make_domain(unit_path(SPARSE_MIN_DIM + 1), range(SPARSE_MIN_DIM - 1)))
    for seed in range(6):
        dom = random_domain(np.random.default_rng(seed))
        yield _steklov_case(dom)
        yield _neumann_case(dom)
        yield _hm_case(dom.graph, dom.interior)


def test_eliminated_spectra_below_the_threshold_keep_the_dense_bits(monkeypatch):
    def refuse(*args):
        raise AssertionError("the sparse factor ran")

    monkeypatch.setattr(linear_core, "sparse_stiffness", refuse)
    for got, graph, mass, keep_ids, elim_ids in _below_threshold_cases():
        assert len(elim_ids) < SPARSE_MIN_DIM
        want = _dense_elimination(graph, mass, keep_ids, elim_ids, len(got.eigenvalues))
        assert got.eigenvalues.tobytes() == want.eigenvalues.tobytes()
        assert got.vectors.tobytes() == want.vectors.tobytes()
        assert got.residual_norm == want.residual_norm
        assert [_bits(f) for f in got.fields] == [_bits(f) for f in want.fields]


def _random_box(side, dim):
    return box_window(side, dim, np.random.default_rng(side))


# (label, the spectrum's case, run on either route)
ABOVE_THRESHOLD = (
    [("grounded half_space:3 R=%d" % r,
      lambda r=r: _grounded_case(_family_step("half_space:3", r))) for r in range(4, 9)]
    + [("grounded binary_tree %d" % i,
        lambda i=i: _grounded_case(_family_step("binary_tree", i))) for i in (8, 9)]
    + [("steklov half_space:3 R=4", lambda: _steklov_case(_family_step("half_space:3", 4).domain)),
       ("hm half_space:3 R=4",
        lambda: _hm_case(_family_step("half_space:3", 4).graph, _family_step("half_space:3", 4).W))]
    + [("steklov random 2-D box %d" % side,
        lambda side=side: _steklov_case(make_domain(*_random_box(side, 2)))) for side in (15, 20)]
    + [("hm random 2-D box %d" % side,
        lambda side=side: _hm_case(_random_box(side, 2)[0], _random_box(side, 2)[1][:side * 4]))
       for side in (15, 20)]
    # the boundary of a 2-D box reaches SPARSE_MIN_DIM rows only at side 50,
    # where the dense Neumann eigensolve has 2,500 rows; a 3-D box of side 6
    # has 216 boundary and 216 interior vertices
    + [("neumann random 3-D box 6", lambda: _neumann_case(make_domain(*_random_box(6, 3))))]
)


@pytest.mark.parametrize("label,case", ABOVE_THRESHOLD, ids=[c[0] for c in ABOVE_THRESHOLD])
def test_eliminated_spectra_sparse_and_dense_agree(label, case, monkeypatch):
    sparse, _, _, keep_ids, elim_ids = case()
    assert len(elim_ids) >= SPARSE_MIN_DIM
    monkeypatch.setattr(linear_core, "SPARSE_MIN_DIM", 10 ** 9)  # every block dense
    dense = case()[0]
    a, b = sparse.eigenvalues, dense.eigenvalues
    scale = np.abs(b).max()
    # to 1e-12 of the largest eigenvalue (sigma_0 = 0 has no relative
    # error), and of each one for a grounded operator, which is SPD
    assert np.abs(a - b).max() <= 1e-12 * scale
    if label.startswith("grounded"):
        assert (np.abs(a - b) / b).max() <= 1e-12
    assert sparse.residual_norm <= 1e-13 and dense.residual_norm <= 1e-13
    assert abs(sparse.residual_norm - dense.residual_norm) <= 1e-12
    # each field of a simple eigenvalue, up to sign, to 1e-12 of its largest
    # value where its relative gap is 1e-2 or more; an eigenvector moves by
    # about the form's rounding over the gap, so a closer pair gets
    # 1e-14 / gap, and a pair closer than 1e-6 (a symmetry's repeated
    # eigenvalue) has no one eigenvector to compare
    gaps = np.minimum(np.diff(b, prepend=-np.inf), np.diff(b, append=np.inf)) / scale
    compared = 0
    for j, gap in enumerate(gaps):
        if gap < 1e-6:
            continue
        assert list(sparse.fields[j]) == list(dense.fields[j])
        fa = np.array(list(sparse.fields[j].values()))
        fb = np.array(list(dense.fields[j].values()))
        err = min(np.abs(fa - fb).max(), np.abs(fa + fb).max())
        assert err <= 1e-14 / min(gap, 1e-2) * np.abs(fb).max()
        compared += 1
    assert compared >= 1


def test_grounded_spectrum_past_the_dense_budget():
    # half_space:3 at R = 9: a closure of 4,851 vertices, past the dense
    # budget, with 3,249 eliminated and 361 kept rows
    step = _family_step("half_space:3", 9)
    res = grounded_dtn_spectrum(step.domain, step.W, count=1)
    assert res.residual_norm <= 1e-14
    # the grounded sigma_1 decreases along the half_space windows
    smaller = _family_step("half_space:3", 8)
    assert 0 < res.eigenvalues[0] < grounded_dtn_spectrum(smaller.domain, smaller.W,
                                                          count=1).eigenvalues[0]
    with pytest.raises(BudgetError):
        stiffness_matrix(step.domain.induced)


def test_sparse_factor_is_deterministic():
    runs = []
    for _ in range(2):
        step = _family_step("half_space:3", 5)
        g, W = _random_box(16, 2)
        runs.append([grounded_dtn_spectrum(step.domain, step.W),
                     steklov_spectrum(make_domain(g, W))])
    for a, b in zip(*runs):
        assert a.eigenvalues.tobytes() == b.eigenvalues.tobytes()
        assert a.vectors.tobytes() == b.vectors.tobytes()
        assert a.residual_norm == b.residual_norm
        assert [_bits(f) for f in a.fields] == [_bits(f) for f in b.fields]


def test_harmonic_extension_past_the_dense_budget():
    # half_space:3 at R = 9: 4,851 closure vertices, 4,410 of them interior;
    # the extension takes the sparse factor of the Steklov fields
    domain = _family_step("half_space:3", 9).domain
    res = steklov_spectrum(domain, 2)
    boundary = {z: res.vectors[i, 1] for i, z in enumerate(domain.boundary)}
    field = harmonic_extension(domain, boundary)
    want = res.fields[1]
    assert list(field) == list(want)
    scale = max(abs(x) for x in want.values())
    assert max(abs(field[v] - want[v]) for v in want) <= 1e-12 * scale
    with pytest.raises(BudgetError):
        stiffness_matrix(domain.induced)
