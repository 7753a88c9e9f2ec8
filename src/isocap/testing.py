"""Random weighted graphs and marked domains for tests and benchmarks."""

import itertools

import numpy as np

from .errors import InputError
from .graph_core import WeightedGraph, make_domain


def _log_uniform(rng, lo=0.1, hi=10.0):
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


def random_connected_graph(rng, n, extra_edge_prob=0.35):
    """Random attachment tree on 0..n-1 plus independent extra edges; weights
    and masses log-uniform in [0.1, 10]."""
    if n < 2:
        raise InputError("need n >= 2")
    present = {(int(rng.integers(0, v)), v) for v in range(1, n)}
    for u, v in itertools.combinations(range(n), 2):
        if (u, v) not in present and rng.random() < extra_edge_prob:
            present.add((u, v))
    edges = [(u, v, _log_uniform(rng)) for u, v in sorted(present)]
    masses = {v: _log_uniform(rng) for v in range(n)}
    return WeightedGraph(list(range(n)), masses, edges)


def random_domain(rng, max_closure=12, min_interior=2, min_boundary=2,
                  max_boundary=None, attempts=1000):
    """Random marked domain with connected closure and the requested sizes.

    The ambient graph is connected, so induced closures only fail to connect
    when boundary vertices hang off separate parts of the interior; such
    draws are rejected and retried.
    """
    for _ in range(attempts):
        n = int(rng.integers(min_interior + min_boundary, max_closure + 1))
        graph = random_connected_graph(rng, n)
        size = int(rng.integers(min_interior, n - min_boundary + 1))
        interior = sorted(rng.choice(n, size=size, replace=False).tolist())
        try:
            domain = make_domain(graph, interior)
        except InputError:
            continue
        if len(domain.boundary) < min_boundary:
            continue
        if max_boundary is not None and len(domain.boundary) > max_boundary:
            continue
        if len(domain.closure) > max_closure:
            continue
        return domain
    raise InputError("no admissible random domain after %d attempts" % attempts)
