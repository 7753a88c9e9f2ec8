"""Equilibrium potentials, capacities, exhaustion limits, and the co-area sum.

Cap_Omega(A, B) = inf { E(f,f) : f|_A = 1, f|_B = 0 } over the induced graph
G_Omega; the minimizer is harmonic at free interior vertices and has zero
normal derivative at free boundary vertices, i.e. the free block solves the
grounded linear system.

cap_exhaustion walks Cap(A, sink) along the truncations of an infinite
family with the walker of the alpha limits (constants._limit), so all three
report the same LimitReport under one non-increase rule.
"""

from dataclasses import dataclass

import numpy as np

from .constants import _limit
from .errors import InfeasibleError, InputError
from .linear_core import block_solver, block_stiffness


@dataclass
class CapacityResult:
    value: float
    potential: dict
    source: tuple
    sink: tuple


def _check_sets(domain, A, B):
    if not A or not B:
        raise InputError("source and sink must be nonempty")
    domain.induced.check_vertices(A, "source")
    domain.induced.check_vertices(B, "sink")
    if set(A) & set(B):
        raise InfeasibleError("source and sink overlap")


def _potential(domain, A, B):
    """The equilibrium potential as an array in closure order."""
    _check_sets(domain, A, B)
    idx = domain.closure_index
    n = len(domain.closure)
    f = np.zeros(n)
    a_idx = np.array(sorted(idx[v] for v in set(A)), dtype=int)
    b_idx = np.array(sorted(idx[v] for v in set(B)), dtype=int)
    f[a_idx] = 1.0
    pinned = np.zeros(n, dtype=bool)
    pinned[a_idx] = True
    pinned[b_idx] = True
    free = np.flatnonzero(~pinned)
    if free.size:
        k = block_stiffness(domain.induced, free)
        b = -k[np.ix_(free, a_idx)].sum(axis=1)
        f[free] = block_solver(k, free)(b)
    # exact minimizer obeys the maximum principle; clip float noise
    np.clip(f, 0.0, 1.0, out=f)
    return f


def equilibrium_potential(domain, A, B):
    """The capacity minimizer: 1 on A, 0 on B, grounded solve elsewhere.

    The free block is factored on the route of linear_core.block_stiffness:
    a dense Cholesky below SPARSE_MIN_DIM free rows, a sparse LU of the CSR
    stiffness from there, where the dense stiffness is never assembled."""
    return dict(zip(domain.closure, _potential(domain, A, B).tolist()))


def cap(domain, A, B):
    """Cap_Omega(A, B) with its equilibrium potential; source and sink are
    listed in closure order, so reports do not depend on hashing.

    The value is energy(domain, f, f) from the potential array, bit for
    bit: the terms (w * d) * d of the induced edges, d = f(v) - f(u), summed
    left to right (np.add.accumulate is sequential).  Starting from 0.0, as
    energy() does, changes no bits, because every term is +0.0 or more, and
    there is at least one term: the closure is connected and holds A and B."""
    f = _potential(domain, A, B)
    at = f[domain.induced.ends]
    d = at[:, 1] - at[:, 0]
    A, B = set(A), set(B)
    return CapacityResult(
        value=float(np.add.accumulate(domain.induced.edge_weights * d * d)[-1]),
        potential=dict(zip(domain.closure, f.tolist())),
        source=tuple(v for v in domain.closure if v in A),
        sink=tuple(v for v in domain.closure if v in B),
    )


def cap_to_boundary(domain, A):
    """Cap_Omega(A) = Cap_Omega(A, delta Omega); A must lie inside Omega."""
    if not A:
        raise InputError("source must be nonempty")
    domain.induced.check_vertices(A, "source")
    if any(v in domain.boundary_index for v in A):
        raise InfeasibleError("source meets the boundary")
    if not domain.boundary:
        raise InputError("domain has no boundary to ground")
    return cap(domain, A, domain.boundary)


def cap_exhaustion(steps, A):
    """The LimitReport of Cap(A, sink) along an exhaustion; non-increasing.

    steps: iterable of objects with .index, .domain, .sink and .W (the
    truncation set); see infinite_families.  Non-increase is an exhaustion
    property, so a violation beyond float slack means the steps are not
    nested and is raised.
    """
    steps = list(steps)
    if steps and not set(A) <= set(steps[0].W):
        raise InputError("source escapes the first truncation")
    return _limit(steps, lambda step: cap(step.domain, A, step.sink))


def coarea_value(domain, f):
    """The level-set integral int_0^inf t Cap_Omega({f>t}, {f<=0}) dt, exactly.

    The capacity is piecewise constant between consecutive distinct positive
    values of f, so the integral is a finite sum of Cap * (t_j^2 - t_{j-1}^2)/2
    terms; no quadrature tolerance is involved.
    """
    for v in domain.closure:
        if v not in f:
            raise InputError("field missing value at %r" % (v,))
    sink = [v for v in domain.closure if f[v] <= 0.0]
    levels = sorted({f[v] for v in domain.closure if f[v] > 0.0})
    if not levels:
        return 0.0
    if not sink:
        raise InfeasibleError("no vertex with f <= 0: capacity sink is empty")
    total = 0.0
    prev = 0.0
    for t in levels:
        above = [v for v in domain.closure if f[v] >= t]
        c = cap(domain, above, sink).value
        total += c * (t * t - prev * prev) / 2.0
        prev = t
    return total

