"""One cached elimination per graph (linear_core.graph_schur).

A spectrum and a constant posed on the same positions of one graph share
one Schur elimination; the cached form is read-only, the graph still
pickles, and a dropped graph frees its form without the garbage collector.
"""

import gc
import pickle
import weakref

import numpy as np
import pytest

from isocap import (Budget, FamilySpec, alpha_dirichlet, alpha_neumann, alpha_steklov,
                    beta_steklov, dtn_operator, generate_steps, linear_core, make_domain,
                    neumann_spectrum)
from isocap.constants import _reduce
from isocap.testing import random_domain
from isocap.verify import check


def _domains(seed, count=10):
    return [random_domain(np.random.default_rng([seed, i]), max_closure=10)
            for i in range(count)]


def test_dtn_bottom_eliminates_once_per_step(eliminations):
    # the grounded spectrum and alpha_DS of a step keep and eliminate the
    # same positions of its G_Omega
    steps = generate_steps(FamilySpec("binary_tree"), range(2, 7))
    rep = check("dtn_bottom", steps)
    assert rep.passed()
    assert len(eliminations) == len(steps)
    assert all(e for _, e in eliminations)


@pytest.mark.parametrize("constant", [
    lambda dom, b: alpha_neumann(dom, budget=b, heuristic=True),
    lambda dom, b: alpha_steklov(dom, budget=b, heuristic=True),
    lambda dom, b: beta_steklov(dom.graph, dom.interior, budget=b, heuristic=True),
], ids=["alpha_neumann", "alpha_steklov", "beta_steklov"])
def test_heuristic_pair_constants_eliminate_once(constant, eliminations):
    # the guiding field is the second eigenvector of the spectrum on the
    # root form, which the graph already holds
    for dom in _domains(41):
        eliminations.clear()
        res = constant(dom, Budget(pair=1))
        assert res.heuristic
        assert len(eliminations) == 1


@pytest.mark.parametrize("theorem", ["steklov_1", "hm_steklov_1"])
def test_graphs_pickle_after_a_pair_theorem(theorem):
    for dom in _domains(43, 5):
        check(theorem, dom)
        for graph in (dom.graph, dom.induced):
            copy = pickle.loads(pickle.dumps(graph))
            assert copy == graph
            assert copy._schur is None


def test_the_cached_form_is_read_only():
    dom = _domains(47, 1)[0]
    op = dtn_operator(dom)
    with pytest.raises(ValueError, match="read-only"):
        op.form[0, 0] = 1.0
    root, _ = _reduce(dom.induced, dom.boundary)
    assert root is op.form
    with pytest.raises(ValueError, match="read-only"):
        root[0, 0] = 1.0
    # a block gathered with nothing eliminated is read-only too, and not kept
    block, _ = _reduce(dom.induced, dom.interior, ())
    with pytest.raises(ValueError, match="read-only"):
        block[0, 0] = 1.0
    assert dom.induced._schur[1][0] is op.form


def test_only_real_eliminations_are_kept(eliminations):
    dom = _domains(53, 1)[0]
    alpha_dirichlet(dom)
    alpha_dirichlet(dom)
    assert [e for _, e in eliminations] == [0, 0]
    assert dom.graph._schur is None
    # one slot: a second elimination replaces the first
    neumann_spectrum(dom)
    first = dom.induced._schur
    dtn_operator(dom)
    assert dom.induced._schur[0] != first[0]
    neumann_spectrum(dom)
    assert [e for _, e in eliminations[2:]] == [len(dom.boundary), len(dom.interior),
                                                len(dom.boundary)]


def _form_ref(seed):
    dom = _domains(seed, 1)[0]
    return weakref.ref(dtn_operator(dom).form), weakref.ref(dom.induced)


def test_a_dropped_graph_frees_its_form_without_the_collector():
    gc.collect()
    gc.disable()
    try:
        form, graph = _form_ref(59)
        # reference counting alone frees both: the slot holds no cycle
        assert graph() is None
        assert form() is None
    finally:
        gc.enable()


def test_graph_schur_is_the_entry_both_sides_share():
    dom = _domains(61, 1)[0]
    n = len(dom.interior)
    keep, elim = range(n, len(dom.closure)), range(n)
    out = linear_core.graph_schur(dom.induced, keep, elim)
    assert linear_core.graph_schur(dom.induced, list(keep), np.arange(n)) is out
    assert dtn_operator(dom).form is out[0]
    assert alpha_steklov(dom).value == alpha_steklov(make_domain(dom.graph, dom.interior)).value
