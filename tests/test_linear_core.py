import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isocap import (InputError, SingularMatrixError, WeightedGraph, solve_spd,
                    stiffness_matrix, sym_eig_generalized)
from isocap.infinite_families import path_graph
from isocap import linear_core
from isocap.errors import BudgetError
from isocap.linear_core import (DENSE_MAX_DIM, SPARSE_MIN_DIM, _fix_signs, _residual,
                                block_solver, block_stiffness, schur_solver,
                                sparse_stiffness)

TOL = 1e-12


# ---------------------------------------------------------------------------
# oracles: independent reference routes, kept here because only tests use them

def jacobi_eigenvalues(a, tol=1e-13, max_sweeps=60):
    """Cyclic Jacobi eigenvalues of a dense symmetric matrix, ascending.

    Independent cross-check oracle for the eigh route; intended for dim <= 12.
    """
    a = np.array(a, dtype=float)
    n = a.shape[0]
    if n == 1:
        return a[0:1, 0].copy()
    scale = np.abs(a).max() or 1.0
    for _ in range(max_sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                off = max(off, abs(a[p, q]))
                if abs(a[p, q]) <= tol * scale:
                    continue
                # classic 2x2 rotation zeroing a[p, q]
                theta = (a[q, q] - a[p, p]) / (2.0 * a[p, q])
                t = np.sign(theta) / (abs(theta) + np.hypot(1.0, theta))
                if theta == 0.0:
                    t = 1.0
                c = 1.0 / np.hypot(1.0, t)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
        if off <= tol * scale:
            break
    return np.sort(np.diag(a))


def jacobi_generalized_eigenvalues(K, mass, tol=1e-13):
    """Generalized variant of the Jacobi oracle via the same diagonal scaling."""
    m = np.asarray(mass, dtype=float)
    d = 1.0 / np.sqrt(m)
    return jacobi_eigenvalues(d[:, None] * K * d[None, :], tol=tol)


def loop_stiffness(graph):
    """Edge-by-edge reference assembly in vertex order; stiffness_matrix must
    match it bit for bit."""
    idx = graph.index
    n = len(graph.vertices)
    k = np.zeros((n, n))
    for u, v, w in graph.edges:
        i, j = idx[u], idx[v]
        k[i, j] -= w
        k[j, i] -= w
        k[i, i] += w
        k[j, j] += w
    return k


def per_pair_residual(k, m, eigenvalues, vectors):
    """Reference formula: worst scaled eigen-residual over every given pair."""
    kn = np.linalg.norm(k, "fro")
    worst = 0.0
    for j, lam in enumerate(eigenvalues):
        v = vectors[:, j]
        mv = m * v
        num = np.linalg.norm(k @ v - lam * mv)
        den = kn * np.linalg.norm(v) + abs(lam) * np.linalg.norm(mv)
        if den:
            worst = max(worst, num / den)
    return worst


def random_graph(rng, n, decades):
    """Connected graph on n vertices, edges in shuffled order, weights
    log-uniform over 10^-decades..10^decades."""
    pairs = [(rng.integers(i), i) for i in range(1, n)]
    pairs += [(i, j) for i in range(n) for j in range(i + 1, n)
              if rng.random() < 0.3 and (i, j) not in pairs]
    pairs = [pairs[t] for t in rng.permutation(len(pairs))]
    pairs = [(j, i) if rng.random() < 0.5 else (i, j) for i, j in pairs]
    vertices = [int(v) for v in rng.permutation(n)]
    weights = 10.0 ** rng.uniform(-decades, decades, size=len(pairs))
    return WeightedGraph(vertices, {v: 1.0 for v in vertices},
                         [(int(i), int(j), w) for (i, j), w in zip(pairs, weights)])


def test_stiffness_quadratic_form_is_energy():
    g = WeightedGraph("abc", {v: 2.0 for v in "abc"},
                      [("a", "b", 3.0), ("b", "c", 5.0)])
    K = stiffness_matrix(g)
    x = np.array([1.0, 4.0, 6.0])
    # energy = 3*(4-1)^2 + 5*(6-4)^2
    assert x @ K @ x == pytest.approx(3 * 9 + 5 * 4, rel=TOL)
    assert np.array([g.mass[v] for v in g.vertices]).tolist() == [2.0, 2.0, 2.0]


def test_stiffness_is_bit_equal_to_the_edge_loop():
    # narrow weights make the diagonal sums depend on the order of addition
    rng = np.random.default_rng(2024)
    for trial in range(100):
        g = random_graph(rng, int(rng.integers(2, 12)), (150, 1)[trial % 2])
        assert np.array_equal(stiffness_matrix(g), loop_stiffness(g))


def test_sparse_stiffness_is_bit_equal_to_the_dense_one():
    rng = np.random.default_rng(2024)
    for trial in range(100):
        g = random_graph(rng, int(rng.integers(2, 12)), (150, 1)[trial % 2])
        csr = sparse_stiffness(g)
        assert csr.toarray().tobytes() == stiffness_matrix(g).tobytes()
        assert csr.has_sorted_indices
        assert sparse_stiffness(g) is csr
        for part in (csr.data, csr.indices, csr.indptr):
            assert not part.flags.writeable


def test_dense_budget_refuses_before_allocating(monkeypatch):
    n = DENSE_MAX_DIM + 1
    g = WeightedGraph(range(n), {v: 1.0 for v in range(n)},
                      [(v, v + 1, 1.0) for v in range(n - 1)])
    monkeypatch.setattr(linear_core, "_edges", None)  # assembly never starts
    with pytest.raises(BudgetError, match="dense budget"):
        stiffness_matrix(g)
    # the mass vector alone decides; K is not read
    with pytest.raises(BudgetError, match="dense budget"):
        sym_eig_generalized(np.zeros((1, 1)), np.ones(n))


def test_stiffness_is_cached_and_read_only():
    g = path_graph(4)
    K = stiffness_matrix(g)
    assert stiffness_matrix(g) is K
    assert not K.flags.writeable
    with pytest.raises(ValueError):
        K[0, 0] = 1.0
    assert np.array_equal(K, loop_stiffness(g))


def test_eig_count_post_processes_only_the_requested_pairs():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(9, 9))
    K = a @ a.T + 9 * np.eye(9)
    m = np.exp(rng.normal(size=9))
    full = sym_eig_generalized(K, m)
    one = sym_eig_generalized(K, m, count=1)
    assert one.eigenvalues.shape == (1,) and one.vectors.shape == (9, 1)
    assert np.array_equal(one.eigenvalues, full.eigenvalues[:1])
    assert np.array_equal(one.vectors, full.vectors[:, :1])
    assert one.residual_norm == per_pair_residual(K, m, full.eigenvalues[:1],
                                                  full.vectors[:, :1])
    # the default count keeps the residual over all pairs
    d = 1.0 / np.sqrt(m)
    s = d[:, None] * K * d[None, :]
    w, u = np.linalg.eigh(0.5 * (s + s.T))
    vectors = _fix_signs(d[:, None] * u)
    assert full.residual_norm == per_pair_residual(K, m, w, vectors)
    assert sym_eig_generalized(K, m, count=9).residual_norm == full.residual_norm
    with pytest.raises(InputError):
        sym_eig_generalized(K, m, count=10)


def test_path_dirichlet_eigenvalues_closed_form():
    # unit path 0..n, interior Dirichlet spectrum: 2 - 2 cos(j pi / n)
    for n in (2, 3, 5, 8):
        g = path_graph(n)
        K = stiffness_matrix(g)[1:n, 1:n]
        res = sym_eig_generalized(K, np.ones(n - 1), vertex_order=g.vertices[1:n])
        expect = [2 - 2 * math.cos(j * math.pi / n) for j in range(1, n)]
        assert np.allclose(res.eigenvalues, expect, atol=1e-12)
        assert res.residual_norm <= 1e-12


def test_eigenvectors_m_orthonormal_and_deterministic():
    g = path_graph(5)
    K = stiffness_matrix(g)
    m = np.array([g.mass[v] for v in g.vertices]) * 2.0
    res = sym_eig_generalized(K, m, vertex_order=g.vertices)
    gram = res.vectors.T @ np.diag(m) @ res.vectors
    assert np.allclose(gram, np.eye(6), atol=1e-10)
    again = sym_eig_generalized(K, m, vertex_order=g.vertices)
    assert np.array_equal(res.vectors, again.vectors)
    f0 = res.eigenfunction(0)
    assert set(f0) == set(g.vertices)


def test_trace_identity():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(7, 7))
    K = (a + a.T) / 2 + 7 * np.eye(7)
    m = np.exp(rng.normal(size=7))
    res = sym_eig_generalized(K, m)
    # sum of generalized eigenvalues = trace of M^{-1} K
    assert res.eigenvalues.sum() == pytest.approx(np.trace(K / m[:, None]), rel=1e-10)


def test_solve_spd_and_singular_rejection():
    a = np.array([[4.0, 1.0], [1.0, 3.0]])
    b = np.array([1.0, 2.0])
    x = solve_spd(a, b)
    assert np.allclose(a @ x, b, atol=1e-13)
    with pytest.raises(SingularMatrixError):
        solve_spd(np.array([[1.0, 2.0], [2.0, 1.0]]), b)  # indefinite


def test_schur_complement_energy_minimization():
    # eliminating the middle of a path composes series conductances
    g = path_graph(2)
    K = stiffness_matrix(g)  # order 0,1,2
    S = schur_solver(K, [0, 2], [1])[0]
    assert np.allclose(S, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-14)


def test_schur_complement_matches_block_formula():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(6, 6))
    spd = a @ a.T + 6 * np.eye(6)
    S = schur_solver(spd, [1, 3, 5], [0, 2, 4])[0]
    keep = [1, 3, 5]
    el = [0, 2, 4]
    expect = spd[np.ix_(keep, keep)] - spd[np.ix_(keep, el)] @ np.linalg.solve(
        spd[np.ix_(el, el)], spd[np.ix_(el, keep)])
    assert np.allclose(S, expect, atol=1e-11)


def test_jacobi_matches_eigh():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(6, 6))
    sym = (a + a.T) / 2
    assert np.allclose(jacobi_eigenvalues(sym), np.linalg.eigvalsh(sym), atol=1e-10)


def test_jacobi_generalized_oracle():
    g = path_graph(4)
    K = stiffness_matrix(g)
    m = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    res = sym_eig_generalized(K, m)
    other = jacobi_generalized_eigenvalues(K, m)
    assert np.allclose(res.eigenvalues, other, atol=1e-10)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=2, max_size=7),
       st.integers(min_value=0, max_value=10 ** 6))
def test_courant_fischer_bottom(masses, salt):
    """lambda_0 = min Rayleigh quotient; any vector gives an upper bound."""
    n = len(masses)
    rng = np.random.default_rng(salt)
    a = rng.normal(size=(n, n))
    K = a @ a.T + n * np.eye(n)
    m = np.array(masses)
    res = sym_eig_generalized(K, m)
    probe = rng.normal(size=n)
    rayleigh = probe @ K @ probe / (probe @ (m * probe))
    assert res.eigenvalues[0] <= rayleigh + 1e-9 * max(1.0, abs(rayleigh))
    assert res.eigenvalues[-1] >= rayleigh - 1e-9 * max(1.0, abs(rayleigh))


def test_residual_survives_an_overflowing_frobenius_norm():
    # ||K||_F overflows here, yet a perturbed eigenvector must show the same
    # residual as on the matrix scaled down by a power of two
    k = 1e300 * np.array([[2.0, -1.0], [-1.0, 2.0]])
    m = np.ones(2)
    lam = np.array([1e300])
    v = np.array([[1.0], [1.001]]) / math.sqrt(2.0)
    small = 2.0 ** -1000
    res = _residual(k, m, lam, v)
    assert res > 0
    assert res == _residual(k * small, m, lam * small, v)


def test_schur_complement_index_checks_and_empty_elimination():
    K = stiffness_matrix(path_graph(3))
    S, solve, k_ek = schur_solver(K, [0, 1, 2, 3], [])
    assert np.array_equal(S, K) and solve is None and k_ek is None
    # kept positions come back in the order given
    assert np.array_equal(schur_solver(K, [3, 0], [])[0], K[np.ix_([3, 0], [3, 0])])
    for bad in ([4], [0, 7]):
        with pytest.raises(IndexError):
            schur_solver(K, [0], bad)


def _random_graph(n, seed):
    """A connected graph on n vertices: a random spanning tree plus n extra
    edges, with log-uniform weights."""
    rng = np.random.default_rng(seed)
    pairs = {(int(rng.integers(0, v)), v) for v in range(1, n)}
    while len(pairs) < 2 * n - 1:
        i, j = sorted(int(x) for x in rng.choice(n, 2, replace=False))
        pairs.add((i, j))
    return WeightedGraph(range(n), {v: 1.0 for v in range(n)},
                         [(i, j, 10.0 ** rng.uniform(-1, 1)) for i, j in sorted(pairs)])


def test_block_stiffness_takes_the_csr_from_the_sparse_threshold():
    g = _random_graph(SPARSE_MIN_DIM + 10, 1)
    assert block_stiffness(g, range(SPARSE_MIN_DIM - 1)) is stiffness_matrix(g)
    assert block_stiffness(g, range(SPARSE_MIN_DIM)) is sparse_stiffness(g)


def test_schur_solver_on_the_csr_stiffness_matches_the_dense_one():
    g = _random_graph(60, 2)
    rng = np.random.default_rng(3)
    order = rng.permutation(60).tolist()
    keep, elim = order[:15], order[15:]
    dense = schur_solver(stiffness_matrix(g), keep, elim)
    sparse = schur_solver(sparse_stiffness(g), keep, elim)
    assert isinstance(sparse[0], np.ndarray)
    assert np.abs(sparse[0] - dense[0]).max() <= 1e-13 * np.abs(dense[0]).max()
    assert np.array_equal(sparse[0], sparse[0].T)
    assert np.array_equal(sparse[2].toarray(), dense[2])
    b = rng.normal(size=len(elim))
    assert np.abs(sparse[1](b) - dense[1](b)).max() <= 1e-12 * np.abs(dense[1](b)).max()
    # nothing to eliminate: K_KK itself, dense
    S, solve, k_ek = schur_solver(sparse_stiffness(g), keep, [])
    assert np.array_equal(S, stiffness_matrix(g)[np.ix_(keep, keep)])
    assert solve is None and k_ek is None


def test_sparse_schur_form_is_built_in_bands_of_kept_columns(monkeypatch):
    g = _random_graph(60, 4)
    keep, elim = list(range(20)), list(range(20, 60))
    whole = schur_solver(sparse_stiffness(g), keep, elim)[0]
    # 400 // 40 = 10 kept columns per band: two bands
    monkeypatch.setattr(linear_core, "DENSE_MAX_DIM", 20)
    banded = schur_solver(sparse_stiffness(g), keep, elim)[0]
    assert np.abs(banded - whole).max() <= 1e-14 * np.abs(whole).max()
    with pytest.raises(BudgetError):
        schur_solver(sparse_stiffness(g), list(range(21)), list(range(21, 60)))


def test_singular_blocks_raise_on_either_route():
    # a whole connected graph's stiffness is singular: its rows sum to zero
    g = path_graph(SPARSE_MIN_DIM)
    rows = list(range(len(g.vertices)))
    for K in (stiffness_matrix(g), sparse_stiffness(g)):
        with pytest.raises(SingularMatrixError):
            block_solver(K, rows)
        with pytest.raises(SingularMatrixError, match="eliminated block is not SPD"):
            schur_solver(K, [], rows)
