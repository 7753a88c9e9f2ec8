"""End-to-end acceptance gate.

One test per advertised guarantee, each printing a single PASS line with the
measured numbers.  Tolerances and runtime ceilings are stated inline; seeds
are frozen so every run is byte-for-byte reproducible.
"""

import time

import numpy as np
import pytest

from isocap import (Budget, WeightedGraph, alpha_dirichlet_limit,
                    alpha_steklov, cap, cap_exhaustion, coarea_value, energy,
                    green_residual, grounded_dtn_spectrum, make_domain,
                    neumann_spectrum, steklov_spectrum,
                    vanishing_weight_spectrum)
from isocap.constants import alpha_dirichlet, alpha_neumann
from isocap.infinite_families import (FamilySpec, generate_steps,
                                      half_space_capacity_bound, line_domain,
                                      t3_example)
from isocap.testing import random_connected_graph, random_domain
from isocap.verify import check, check_equality_case
from test_capacity import capacity_by_descent
from test_constants import shuffle_combinations


def test_criterion_1_line_family():
    t0 = time.perf_counter()
    for n in range(2, 51):
        g, dom = line_domain(n)
        assert cap(dom, [0], [n]).value == pytest.approx(1.0 / n, abs=1e-12)
        assert alpha_steklov(dom).value == pytest.approx(1.0 / n, rel=1e-9)
        sigma = steklov_spectrum(dom, count=2).eigenvalues[1]
        assert sigma == pytest.approx(2.0 / n, rel=1e-9)
        eq = check_equality_case(dom)
        assert eq.status == "equal"
        assert set(eq.witness.values()) == {-1.0, 1.0}
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print("ACCEPTANCE 1 PASS - line n=2..50: Cap=1/n, alpha_S=1/n, "
          "sigma_1=2/n, equality certified (%.2fs)" % elapsed)


def test_criterion_2_finite_tree():
    t0 = time.perf_counter()
    g, dom = t3_example()
    c = cap(dom, ["x5", "x6"], ["x7", "x8"]).value
    assert c == pytest.approx(1.0 / 3.0, rel=1e-9)
    a = alpha_steklov(dom).value
    assert a == pytest.approx(1.0 / 6.0, rel=1e-9)
    rep = check("steklov_1", dom)
    assert rep.eigenvalue == pytest.approx(1.0 / 3.0, rel=1e-9)
    assert rep.lower_bound == pytest.approx(1.0 / 48.0, rel=1e-9)
    assert rep.upper_bound == pytest.approx(1.0 / 3.0, rel=1e-9)
    assert rep.eigenvalue == pytest.approx(rep.upper_bound, rel=1e-9)
    assert rep.passed()
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print("ACCEPTANCE 2 PASS - T3: Cap=1/3, alpha_S=1/6, sigma_1=1/3, "
          "bracket [1/48, 1/3] tight above (%.2fs)" % elapsed)


def test_criterion_3_infinite_tree():
    t0 = time.perf_counter()
    spec = FamilySpec("binary_tree", quotient=True)
    steps = generate_steps(spec, range(1, 13))
    seq = cap_exhaustion(steps, (0,))
    for i, val in zip(seq.indices, seq.values):
        assert val == pytest.approx(2.0**i / (2.0 ** (i + 1) - 1.0), rel=1e-9)
    sigmas = [grounded_dtn_spectrum(s.domain, s.W, count=1).eigenvalues[0]
              for s in steps]
    assert all(b <= a + 1e-12 for a, b in zip(sigmas, sigmas[1:]))
    assert abs(sigmas[-1] - 0.5) < 1e-3
    rep = check("dtn_bottom", steps)
    assert rep.passed()
    assert rep.lower_bound == pytest.approx(0.125, abs=1e-3)
    assert rep.upper_bound == pytest.approx(0.5, abs=1e-3)
    assert rep.lower_bound <= 0.5 <= rep.upper_bound + 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print("ACCEPTANCE 3 PASS - binary tree i=1..12: caps exact, sigma_1^D "
          "monotone to 1/2 (gap %.1e), bracket [%.6f, %.6f] contains 1/2 "
          "(%.2fs)" % (abs(sigmas[-1] - 0.5), rep.lower_bound,
                       rep.upper_bound, elapsed))


def test_criterion_4_half_space():
    t0 = time.perf_counter()
    bounds = {r0: half_space_capacity_bound(3, r0, 30) for r0 in (2, 4, 8)}
    vals = [bounds[2], bounds[4], bounds[8]]
    assert vals[0] > vals[1] > vals[2]
    products = [r0 * bounds[r0] for r0 in (2, 4, 8)]
    assert max(products) / min(products) <= 3.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print("ACCEPTANCE 4 PASS - half space N=3 R=30: certified bounds "
          "%.4f > %.4f > %.4f, r0*bound band %.2f <= 3; alpha_S(U) -> 0 "
          "(%.2fs)" % (vals[0], vals[1], vals[2],
                       max(products) / min(products), elapsed))


def test_criterion_5_random_theorem_campaign():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260815)
    failures = 0
    green_worst = 0.0
    for _ in range(200):
        dom = random_domain(rng, max_closure=12)
        for theorem in ("dirichlet_1", "neumann_1", "steklov_1",
                        "hm_steklov_1"):
            if not check(theorem, dom).passed():
                failures += 1
        for _ in range(10):
            f = {v: float(rng.normal()) for v in dom.closure}
            g = {v: float(rng.normal()) for v in dom.closure}
            scale = max(1.0, energy(dom, f, f), energy(dom, g, g))
            res = green_residual(dom, f, g) / scale
            green_worst = max(green_worst, res)
            assert res <= 1e-10
        for _ in range(20):
            raw = rng.normal(size=len(dom.closure))
            raw -= raw.mean()  # guarantees a nonpositive value: sink exists
            f = dict(zip(dom.closure, map(float, raw)))
            quad = energy(dom, f, f)
            assert coarea_value(dom, f) <= 2.0 * quad + 1e-12 * max(1.0, quad)
    assert failures == 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print("ACCEPTANCE 5 PASS - 200 random instances: 4 theorems x 0 "
          "failures, worst Green residual %.1e <= 1e-10, co-area holds "
          "(%.2fs)" % (green_worst, elapsed))


def _unit_domains(rng, count):
    out = []
    while len(out) < count:
        n = int(rng.integers(5, 13))
        g = random_connected_graph(rng, n)
        gg = WeightedGraph(g.vertices, {v: 1.0 for v in g.vertices},
                           [(u, v, 1.0) for u, v, _ in g.edges])
        k = int(rng.integers(2, n - 2)) if n > 4 else 2
        try:
            dom = make_domain(gg, gg.vertices[:k])
        except Exception:
            continue
        if len(dom.boundary) >= 2:
            out.append(dom)
    return out


def test_criterion_6_vanishing_weight_convergence():
    rng = np.random.default_rng(7)
    worst_s = worst_n = 0.0
    for dom in _unit_domains(rng, 20):
        target = steklov_spectrum(dom, count=2).eigenvalues[1]
        seq = [r.eigenvalues[1]
               for r in vanishing_weight_spectrum(dom, "steklov")]
        gaps = [abs(x - target) for x in seq]
        assert all(b <= a + 1e-9 for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-3
        worst_s = max(worst_s, gaps[-1])
        target = neumann_spectrum(dom, count=2).eigenvalues[1]
        seq = [r.eigenvalues[1]
               for r in vanishing_weight_spectrum(dom, "neumann")]
        gaps = [abs(x - target) for x in seq]
        assert all(b <= a + 1e-9 for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-3
        worst_n = max(worst_n, gaps[-1])
    print("ACCEPTANCE 6 PASS - 20 domains, k=2^0..2^14: monotone-trending, "
          "final gaps steklov %.1e / neumann %.1e < 1e-3" % (worst_s, worst_n))


def test_criterion_7_higher_order_upper_bounds():
    t0 = time.perf_counter()
    rng = np.random.default_rng(777)
    budget = Budget(part_cap=3)
    failures = 0
    empirical = {1: [], 2: [], 3: []}
    for _ in range(50):
        dom = random_domain(rng, max_closure=10, min_interior=3,
                            min_boundary=4, max_boundary=6)
        for k in (1, 2, 3):
            for theorem in ("higher_steklov_finite", "higher_dirichlet"):
                rep = check(theorem, dom, k=k, budget=budget)
                if not rep.upper_ok:
                    failures += 1
                if rep.empirical_c is not None:
                    empirical[k].append(rep.empirical_c)
    assert failures == 0
    floors = {k: min(v) for k, v in empirical.items()}
    assert all(f > 0 for f in floors.values())
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    print("ACCEPTANCE 7 PASS - 50 instances, k=1..3: sigma_k <= 2 kappa and "
          "lambda_k <= 2 Gamma-tilde, 0 failures; empirical_c floors "
          "%.4f / %.4f / %.4f > 0 (%.2fs)"
          % (floors[1], floors[2], floors[3], elapsed))


def test_criterion_8_oracle_equivalence(monkeypatch):
    t0 = time.perf_counter()
    rng = np.random.default_rng(808)
    worst = 0.0
    for _ in range(50):
        dom = random_domain(rng, max_closure=12)
        nb = len(dom.boundary)
        A = list(dom.interior[: 1 + int(rng.integers(0, 2))])
        B = list(dom.boundary[: 1 + int(rng.integers(0, nb))])
        exact = cap(dom, A, B).value
        slow = capacity_by_descent(dom, A, B)
        assert slow == pytest.approx(exact, rel=1e-8)
        if exact:
            worst = max(worst, abs(slow - exact) / exact)
        seed = int(rng.integers(0, 2**31))
        for fn in (alpha_dirichlet, alpha_neumann, alpha_steklov):
            base = fn(dom)
            # the same enumeration with every candidate array row-shuffled
            with monkeypatch.context() as mp:
                calls = shuffle_combinations(mp, seed)
                again = fn(dom)
            assert calls
            assert again.value == base.value
            assert again.witness == base.witness
            assert again.evaluations == base.evaluations
    elapsed = time.perf_counter() - t0
    print("ACCEPTANCE 8 PASS - 50 instances: descent capacity within "
          "%.1e <= 1e-8 rel; shuffled alpha re-enumeration identical "
          "(%.2fs)" % (worst, elapsed))


def test_criterion_9_recurrence_transience_probe():
    t0 = time.perf_counter()
    line = generate_steps(FamilySpec("lattice_box", dim=1), [50, 100, 200])
    rep1 = alpha_dirichlet_limit(line, heuristic=True)
    assert rep1.values[-1] < 1e-2
    summable = lambda v: 2.0 ** (-max(abs(c) for c in v))
    floors = {}
    for name, spec in (("unit", FamilySpec("lattice_box", dim=3,
                                           quotient=True)),
                       ("summable", FamilySpec("lattice_box", dim=3,
                                               quotient=True,
                                               mass_rule=summable))):
        steps = generate_steps(spec, range(2, 11))
        rep = alpha_dirichlet_limit(steps, heuristic=True)
        assert all(v > 0 for v in rep.values)
        floors[name] = min(rep.values)
        # the transient probes stay clear of the threshold the recurrent
        # one dips under
        assert floors[name] > 1e-2
    elapsed = time.perf_counter() - t0
    print("ACCEPTANCE 9 PASS - Z^1 alpha_D(W_200)=%.1e < 1e-2; Z^3 floors "
          "unit %.4f, summable %.4f > 0 (%.2fs)"
          % (rep1.values[-1], floors["unit"], floors["summable"], elapsed))
