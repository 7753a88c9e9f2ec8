import pathlib
import re

import numpy as np
import pytest

from isocap import (Budget, BudgetError, InputError, SingularMatrixError, WeightedGraph,
                    alpha_steklov, is_infinite, make_domain)
from isocap.infinite_families import (FamilySpec, generate_steps, line_domain,
                                      t3_example)
from isocap.testing import random_connected_graph, random_domain
from isocap.verify import FINITE_THEOREMS, K_THEOREMS, THEOREMS, check, check_equality_case


def test_line_steklov_bracket_is_tight_above():
    g, dom = line_domain(5)
    rep = check("steklov_1", dom)
    assert rep.eigenvalue == pytest.approx(0.4, rel=1e-11)
    assert rep.constant == pytest.approx(0.2, rel=1e-11)
    assert rep.lower_bound == pytest.approx(0.2 / 8.0)
    assert rep.upper_bound == pytest.approx(0.4)
    assert rep.passed() and rep.lower_ok and rep.upper_ok
    assert rep.ratio == pytest.approx(2.0, rel=1e-11)


def test_t3_steklov_bracket():
    g, dom = t3_example()
    rep = check("steklov_1", dom)
    assert rep.eigenvalue == pytest.approx(1.0 / 3.0, rel=1e-11)
    assert rep.constant == pytest.approx(1.0 / 6.0, rel=1e-11)
    assert rep.lower_bound == pytest.approx(1.0 / 48.0, rel=1e-11)
    assert rep.passed()
    # the upper estimate is attained here
    assert rep.eigenvalue == pytest.approx(rep.upper_bound, rel=1e-11)


def test_dirichlet_bracket_factors():
    g, dom = line_domain(6)
    rep = check("dirichlet_1", dom)
    assert rep.lower_bound == pytest.approx(rep.constant / 4.0)
    assert rep.upper_bound == pytest.approx(rep.constant)
    assert rep.passed()


@pytest.mark.parametrize("theorem", FINITE_THEOREMS)
def test_finite_theorems_on_random_domains(theorem):
    rng = np.random.default_rng(17)
    for _ in range(8):
        dom = random_domain(rng, max_closure=9, min_interior=2,
                            min_boundary=2)
        rep = check(theorem, dom)
        assert rep.passed(), (theorem, rep)
        assert rep.lower_bound <= rep.eigenvalue <= rep.upper_bound + 1e-9
        assert rep.witness


def test_report_flags_are_consistent():
    rng = np.random.default_rng(18)
    dom = random_domain(rng, max_closure=8)
    rep = check("neumann_1", dom)
    slack = 1e-9 * max(1.0, abs(rep.eigenvalue))
    assert rep.lower_ok == (rep.lower_bound <= rep.eigenvalue + slack)
    assert rep.upper_ok == (rep.eigenvalue <= rep.upper_bound + slack)
    assert rep.ratio == pytest.approx(rep.eigenvalue / rep.constant)


def test_instance_type_mismatches():
    g, dom = line_domain(4)
    steps = generate_steps(FamilySpec("binary_tree", quotient=True), [1, 2])
    with pytest.raises(InputError):
        check("nonsense", dom)
    with pytest.raises(InputError):
        check("bottom", dom)
    with pytest.raises(InputError):
        check("steklov_1", steps)
    with pytest.raises(InputError):
        check("steklov_1", dom, k=2)
    with pytest.raises(InputError):
        check("higher_dirichlet", dom)
    with pytest.raises(InputError):
        check("higher_dirichlet", dom, k=0)


def test_k_theorems_record_empirical_ratio():
    rng = np.random.default_rng(19)
    dom = random_domain(rng, max_closure=9, min_interior=3, min_boundary=3)
    for theorem in ("higher_dirichlet", "higher_steklov_finite", "hm_higher"):
        for k in (1, 2):
            rep = check(theorem, dom, k=k)
            assert rep.upper_ok, (theorem, k, rep)
            assert rep.lower_ok is None and rep.lower_bound is None
            assert rep.passed()
            if not is_infinite(rep.constant):
                assert rep.empirical_c > 0
                assert rep.empirical_c == pytest.approx(
                    rep.eigenvalue * k**6 / rep.constant)


def test_higher_dirichlet_with_explicit_window():
    rng = np.random.default_rng(20)
    dom = random_domain(rng, max_closure=9, min_interior=4)
    W = dom.interior[:3]
    rep = check("higher_dirichlet", dom, k=2, W=W)
    assert rep.upper_ok
    with pytest.raises(InputError):
        check("higher_dirichlet", dom, k=4, W=W)


def test_tree_family_brackets():
    steps = generate_steps(FamilySpec("binary_tree", quotient=True),
                           range(1, 9))
    rep = check("dtn_bottom", steps)
    assert rep.passed()
    assert rep.lower_bound <= rep.eigenvalue <= rep.upper_bound + 1e-9
    assert rep.sequences and len(rep.sequences["eigenvalues"]) == 8
    seq = rep.sequences["eigenvalues"]
    assert all(b <= a + 1e-12 for a, b in zip(seq, seq[1:]))
    rep_b = check("bottom", steps)
    assert rep_b.passed()
    assert rep_b.lower_bound == pytest.approx(rep_b.constant / 4.0)


def test_infinite_window_theorem_on_tree():
    steps = generate_steps(FamilySpec("binary_tree", quotient=True), [2, 3, 4])
    rep1 = check("higher_steklov_infinite", steps, k=1)
    assert rep1.passed()
    # each window meets the free boundary in one vertex only, so k = 2 packs
    # nothing and the constant is the infinite sentinel
    rep2 = check("higher_steklov_infinite", steps, k=2)
    assert is_infinite(rep2.constant)
    assert rep2.upper_ok and rep2.passed()


def test_equality_on_line_and_t3():
    g, dom = line_domain(5)
    rep = check_equality_case(dom)
    assert rep.status == "equal" and rep.equal
    assert rep.multiplicity == 1
    assert rep.witness == {0: 1.0, 5: -1.0}
    g2, dom2 = t3_example()
    rep2 = check_equality_case(dom2)
    assert rep2.status == "equal"
    assert rep2.multiplicity == 2
    assert set(rep2.witness) == set(dom2.boundary)
    assert all(v in (-1.0, 0.0, 1.0) for v in rep2.witness.values())


def test_equality_strict_gap_detected():
    # unbalanced end masses push sigma_1 strictly above 2 alpha_S
    rng = np.random.default_rng(21)
    found = False
    for _ in range(60):
        dom = random_domain(rng, max_closure=8, min_boundary=2)
        rep = check_equality_case(dom)
        if rep.status == "strict":
            found = True
            assert not rep.equal and rep.witness is None
            assert rep.gap > 0
            assert rep.sigma1 < 2.0 * rep.alpha_s - 1e-10
            break
    assert found


def test_equality_undecided_for_wide_boundaries():
    n = 15
    verts = list(range(n + 1))
    edges = [(0, v, 1.0) for v in range(1, n + 1)]
    g = WeightedGraph(verts, {v: 1.0 for v in verts}, edges)
    dom = make_domain(g, [0])
    rep = check_equality_case(dom)
    assert rep.status == "undecided"
    assert rep.witness is None


def test_equality_case_enumerates_alpha_s_on_the_dtn_form(eliminations):
    # the DtN form of the eigenvalue side is the root of the pair
    # enumeration: one elimination per call, counted on freshly built
    # domains, and the value, the budget error and the cancellation check
    # are alpha_steklov's
    def doms():
        return [random_domain(np.random.default_rng([7, i]), max_closure=13)
                for i in range(30)]

    want = [alpha_steklov(dom).value for dom in doms()]
    hostile = WeightedGraph("abc", {"a": 1e-300, "b": 1.0, "c": 1e300},
                            [("a", "b", 1e300), ("b", "c", 1e-300)])
    for dom, value in zip(doms(), want):
        if len(dom.boundary) >= 2:
            eliminations.clear()
            assert repr(check_equality_case(dom).alpha_s) == repr(value)
            assert len(eliminations) == 1
    with pytest.raises(BudgetError, match="pair universe size 6 exceeds pair budget 5; "):
        check_equality_case(t3_example()[1], budget=Budget(pair=5))
    with pytest.raises(SingularMatrixError, match="on a connected closure"):
        check_equality_case(make_domain(hostile, ["b"]))


def test_random_generators_respect_ranges():
    rng = np.random.default_rng(22)
    for _ in range(10):
        g = random_connected_graph(rng, 8)
        assert len(g.vertices) == 8
        assert all(0.1 <= g.mass[v] <= 10.0 for v in g.vertices)
        assert all(0.1 <= w <= 10.0 for _, _, w in g.edges)
        dom = random_domain(rng, max_closure=9, min_interior=2,
                            min_boundary=2, max_boundary=4)
        assert len(dom.closure) <= 9
        assert len(dom.interior) >= 2
        assert 2 <= len(dom.boundary) <= 4


def test_readme_lists_the_registry_ids():
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text()
    paragraph = text[text.index("Theorem ids for"):]
    paragraph = paragraph[:paragraph.index("\n\n")]
    assert sorted(re.findall(r"`([a-z][a-z0-9_]*)`", paragraph)) == sorted(THEOREMS)
