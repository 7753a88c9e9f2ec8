import math

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
from isocap.infinite_families import (FamilySpec, generate, line_domain,
                                      t3_example)
from isocap.verify import random_domain

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


def test_neumann_eigenproblem_is_the_mirrored_elimination():
    # K_II - K_IB K_BB^{-1} K_BI is often not bit-symmetric; the spectrum is
    # that of its upper triangle mirrored onto the lower one
    asymmetric = 0
    for seed in range(40):
        domain = random_domain(np.random.default_rng(seed))
        n = len(domain.interior)
        k = stiffness_matrix(domain.induced)
        kib = k[:n, n:]
        khat = k[:n, :n] - (kib / np.diag(k[n:, n:])[None, :]) @ kib.T
        if np.array_equal(khat, khat.T):
            continue
        asymmetric += 1
        mass = np.array([domain.graph.mass[v] for v in domain.interior])
        want = sym_eig_generalized(np.triu(khat) + np.triu(khat, 1).T, mass)
        got = neumann_spectrum(domain)
        assert np.array_equal(got.eigenvalues, want.eigenvalues)
        assert np.array_equal(got.vectors, want.vectors)
        assert got.residual_norm == want.residual_norm
    assert asymmetric >= 10


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
    W = dom.interior + dom.boundary[:2]
    res = grounded_dtn_spectrum(dom, W)
    assert sizes == [n]
    kw = k[np.ix_(range(n + 2), range(n + 2))]
    for j, f in enumerate(res.fields):
        v = res.vectors[:, j]
        own = {z: float(v[i]) for i, z in enumerate(dom.boundary[:2])}
        assert _bits(f) == _bits(_per_vector(kw[:n, :n], -kw[:n, n:] @ v,
                                             dom.interior, own))
