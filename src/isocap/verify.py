"""Two-sided eigenvalue bound checks and the equality-case test.

Each branch of check() evaluates one inequality pair on one instance: the
eigenvalue side through the solvers in spectra, the constant side through the
enumerators in constants, then compares with the exact bracket factors.  The
k-indexed brackets have an unspecified universal constant on the lower side;
those lower bounds are recorded as an empirical ratio, never asserted.

Inequality comparisons use additive slack 1e-9 * max(1, |eigenvalue|) to
absorb solver residuals.  Equality detection uses 1e-8 relative.
"""

import itertools
from collections import namedtuple
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .constants import (alpha_dirichlet, alpha_ds, alpha_neumann,
                        alpha_steklov, alpha_steklov_limit, beta_steklov,
                        beta_tuple, gamma_k_steklov, gamma_tilde_dirichlet,
                        kappa_steklov)
from .errors import InputError
from .graph_core import SteklovDomain, WeightedGraph, make_domain
from .infinite_families import FamilyStep
from .spectra import (dirichlet_spectrum, dtn_operator, grounded_dtn_spectrum,
                      hm_dtn_spectrum, neumann_spectrum, steklov_spectrum)
from .infinity import INFINITE, is_infinite

FINITE_THEOREMS = ("dirichlet_1", "neumann_1", "steklov_1", "hm_steklov_1")
K_THEOREMS = ("higher_dirichlet", "higher_steklov_finite",
              "higher_steklov_infinite", "hm_higher")
THEOREMS = FINITE_THEOREMS + ("bottom", "dtn_bottom") + K_THEOREMS

_ConstEval = namedtuple("_ConstEval", "value witness")


@dataclass
class BoundReport:
    theorem_id: str
    eigenvalue: float
    constant: float
    lower_bound: Optional[float]
    upper_bound: float
    lower_ok: Optional[bool]
    upper_ok: bool
    ratio: float
    witness: tuple
    empirical_c: Optional[float] = None
    sequences: Optional[dict] = None

    def passed(self):
        return self.upper_ok and self.lower_ok is not False


def _slack(eig):
    return 1e-9 * max(1.0, abs(eig)) if not is_infinite(eig) else 0.0


def _leq(a, b, slack=0.0):
    # comparisons where either side may be the infinite sentinel
    if is_infinite(b):
        return True
    if is_infinite(a):
        return False
    return bool(a <= b + slack)


def _scale(c, factor):
    return INFINITE if is_infinite(c) else factor * c


def _ratio(eig, const):
    if is_infinite(const):
        return 1.0 if is_infinite(eig) else 0.0
    if is_infinite(eig):
        return INFINITE
    return eig / const


def _report(theorem_id, eig, res, lo_factor, hi_factor, k=None, sequences=None):
    const = res.value
    slack = _slack(eig)
    upper = _scale(const, hi_factor)
    if lo_factor is None:
        lower, lower_ok = None, None
        emp = None
        if k is not None and not is_infinite(eig) and not is_infinite(const) and const > 0:
            emp = eig * k ** 6 / const
    else:
        lower = _scale(const, lo_factor)
        lower_ok = _leq(lower, eig, slack)
        emp = None
    return BoundReport(
        theorem_id=theorem_id,
        eigenvalue=eig,
        constant=const,
        lower_bound=lower,
        upper_bound=upper,
        lower_ok=lower_ok,
        upper_ok=_leq(eig, upper, slack),
        ratio=_ratio(eig, const),
        witness=res.witness,
        empirical_c=emp,
        sequences=sequences,
    )


def _want_domain(instance, theorem_id):
    if not isinstance(instance, SteklovDomain):
        raise InputError("%s expects a marked domain" % theorem_id)
    return instance


def _want_steps(instance, theorem_id):
    try:
        steps = list(instance)
    except TypeError:
        raise InputError("%s expects a family step sequence" % theorem_id)
    if not steps or not all(isinstance(s, FamilyStep) for s in steps):
        raise InputError("%s expects a family step sequence" % theorem_id)
    return steps


def _check_dirichlet_1(domain, budget, heuristic):
    eig = dirichlet_spectrum(domain.graph, domain.interior, count=1).eigenvalues[0]
    res = alpha_dirichlet(domain, budget=budget, heuristic=heuristic)
    return _report("dirichlet_1", eig, res, 0.25, 1.0)


def _check_neumann_1(domain, budget, heuristic):
    if len(domain.interior) < 2:
        raise InputError("first nonzero Neumann eigenvalue needs |Omega| >= 2")
    eig = neumann_spectrum(domain, count=2).eigenvalues[1]
    res = alpha_neumann(domain, budget=budget, heuristic=heuristic)
    return _report("neumann_1", eig, res, 0.125, 2.0)


def _check_steklov_1(domain, budget, heuristic):
    if len(domain.boundary) < 2:
        raise InputError("first nonzero boundary eigenvalue needs |dOmega| >= 2")
    eig = steklov_spectrum(domain, count=2).eigenvalues[1]
    res = alpha_steklov(domain, budget=budget, heuristic=heuristic)
    return _report("steklov_1", eig, res, 0.125, 2.0)


def _check_hm_steklov_1(domain, budget, heuristic):
    if len(domain.interior) < 2:
        raise InputError("first nonzero eigenvalue needs |Omega| >= 2")
    eig = hm_dtn_spectrum(domain.graph, domain.interior, count=2).eigenvalues[1]
    res = beta_steklov(domain.graph, domain.interior, budget=budget, heuristic=heuristic)
    return _report("hm_steklov_1", eig, res, 0.125, 2.0)


def _check_bottom(steps, budget, heuristic):
    idx, eigs, consts = [], [], []
    last = None
    for step in steps:
        marked = make_domain(step.graph, step.W)
        eigs.append(dirichlet_spectrum(step.graph, step.W, count=1).eigenvalues[0])
        last = alpha_dirichlet(marked, budget=budget, heuristic=heuristic)
        consts.append(last.value)
        idx.append(step.index)
    seq = {"index": idx, "eigenvalues": eigs, "constants": consts}
    return _report("bottom", eigs[-1], last, 0.25, 1.0, sequences=seq)


def _check_dtn_bottom(steps, budget, heuristic):
    idx, eigs = [], []
    for step in steps:
        spec = grounded_dtn_spectrum(step.domain, step.W, count=1)
        eigs.append(spec if is_infinite(spec) else spec.eigenvalues[0])
        idx.append(step.index)
    limit = alpha_steklov_limit(steps, budget=budget)
    last = alpha_ds(steps[-1].domain, steps[-1].W, budget=budget)
    seq = {"index": idx, "eigenvalues": eigs, "constants": list(limit.values)}
    return _report("dtn_bottom", eigs[-1],
                   _ConstEval(limit.limit_estimate, last.witness),
                   0.25, 1.0, sequences=seq)


def _grounded_k(domain, W, k):
    spec = grounded_dtn_spectrum(domain, W)
    if is_infinite(spec) or len(spec.eigenvalues) < k:
        return INFINITE
    return spec.eigenvalues[k - 1]


def _check_higher_dirichlet(domain, k, budget, W=None):
    window = tuple(W) if W is not None else domain.interior
    if len(window) < k:
        raise InputError("k-th window eigenvalue needs |W| >= k")
    eig = dirichlet_spectrum(domain.graph, window, count=k).eigenvalues[k - 1]
    res = gamma_tilde_dirichlet(domain.graph, window, k, budget=budget)
    return _report("higher_dirichlet(%d)" % k, eig, res, None, 2.0, k=k)


def _check_higher_steklov_finite(domain, k, budget):
    if len(domain.boundary) < k + 1:
        raise InputError("k-th boundary eigenvalue needs |dOmega| >= k+1")
    eig = steklov_spectrum(domain, count=k + 1).eigenvalues[k]
    res = kappa_steklov(domain, k, budget=budget)
    return _report("higher_steklov_finite(%d)" % k, eig, res, None, 2.0, k=k)


def _check_higher_steklov_infinite(steps, k, budget):
    idx, eigs, consts = [], [], []
    last = None
    for step in steps:
        eig = _grounded_k(step.domain, step.W, k)
        last = gamma_k_steklov(step.domain, step.W, k, budget=budget)
        idx.append(step.index)
        eigs.append(eig)
        consts.append(last.value)
    report = _report("higher_steklov_infinite(%d)" % k, eigs[-1], last,
                     None, 2.0, k=k,
                     sequences={"index": idx, "eigenvalues": eigs, "constants": consts})
    # the bracket must hold at every step, not just the last snapshot
    ok = all(_leq(e, _scale(c, 2.0), _slack(e)) for e, c in zip(eigs, consts))
    report.upper_ok = report.upper_ok and ok
    return report


def _check_hm_higher(domain, k, budget):
    if len(domain.interior) < k + 1:
        raise InputError("k-th eigenvalue needs |Omega| >= k+1")
    eig = hm_dtn_spectrum(domain.graph, domain.interior, count=k + 1).eigenvalues[k]
    res = beta_tuple(domain.graph, domain.interior, k, budget=budget)
    return _report("hm_higher(%d)" % k, eig, res, None, 2.0, k=k)


def check(theorem_id, instance, k=None, budget=None, heuristic=False, W=None):
    """Evaluate both sides of one named inequality on one instance.

    Finite theorems take a marked domain; `bottom`, `dtn_bottom` and
    `higher_steklov_infinite` take a sequence of family steps.  The k-indexed
    branches require k >= 1.
    """
    if theorem_id not in THEOREMS:
        raise InputError("unknown theorem %r; known: %s" % (theorem_id, ", ".join(THEOREMS)))
    if theorem_id in K_THEOREMS:
        if k is None or k < 1:
            raise InputError("%s needs k >= 1" % theorem_id)
    elif k is not None:
        raise InputError("%s takes no k" % theorem_id)
    if theorem_id == "dirichlet_1":
        return _check_dirichlet_1(_want_domain(instance, theorem_id), budget, heuristic)
    if theorem_id == "neumann_1":
        return _check_neumann_1(_want_domain(instance, theorem_id), budget, heuristic)
    if theorem_id == "steklov_1":
        return _check_steklov_1(_want_domain(instance, theorem_id), budget, heuristic)
    if theorem_id == "hm_steklov_1":
        return _check_hm_steklov_1(_want_domain(instance, theorem_id), budget, heuristic)
    if theorem_id == "bottom":
        return _check_bottom(_want_steps(instance, theorem_id), budget, heuristic)
    if theorem_id == "dtn_bottom":
        return _check_dtn_bottom(_want_steps(instance, theorem_id), budget, heuristic)
    if theorem_id == "higher_dirichlet":
        return _check_higher_dirichlet(_want_domain(instance, theorem_id), k, budget, W=W)
    if theorem_id == "higher_steklov_finite":
        return _check_higher_steklov_finite(_want_domain(instance, theorem_id), k, budget)
    if theorem_id == "higher_steklov_infinite":
        return _check_higher_steklov_infinite(_want_steps(instance, theorem_id), k, budget)
    return _check_hm_higher(_want_domain(instance, theorem_id), k, budget)


@dataclass
class EqualityReport:
    sigma1: float
    alpha_s: float
    equal: bool
    status: str  # "equal", "strict", or "undecided"
    gap: float
    multiplicity: int
    witness: Optional[dict] = None


_PATTERN_CAP = 13  # 3^13 candidate sign patterns is still cheap


def _sign_patterns(b):
    """int8 rows over {-1, 0, 1}^b whose first nonzero entry is +1, in
    lexicographic order (base-3 digits of 0..3^b-1, shifted down by one)."""
    count = np.arange(3 ** b)
    pats = np.empty((len(count), b), dtype=np.int8)
    for j in range(b - 1, -1, -1):
        count, digit = np.divmod(count, 3)
        pats[:, j] = digit - 1
    nonzero = pats != 0
    lead = pats[np.arange(len(pats)), nonzero.argmax(axis=1)]
    return pats[nonzero.any(axis=1) & (lead > 0)]


def check_equality_case(domain, budget=None):
    """Decide sigma_1 = 2 alpha_S and, if so, exhibit a three-valued witness.

    The witness is an eigenfunction of the bottom nonzero boundary eigenvalue
    whose boundary values, scaled so the largest magnitude is 1, all lie in
    {-1, 0, 1}.  The search runs over sign patterns inside the eigenspace;
    eigenspaces of dimension above 3 (or more than 13 boundary vertices) are
    reported undecided rather than searched incompletely.  Any witness found
    is re-verified: its Rayleigh quotient must reproduce sigma_1.
    """
    if len(domain.boundary) < 2:
        raise InputError("equality case needs at least two boundary vertices")
    spec = steklov_spectrum(domain)
    sigma = spec.eigenvalues[1]
    alpha = alpha_steklov(domain, budget=budget).value
    tol = 1e-8 * max(1.0, abs(sigma))
    equal = bool(abs(sigma - 2.0 * alpha) <= tol)
    gap = 2.0 * alpha - sigma
    mult = sum(1 for s in spec.eigenvalues[1:] if abs(s - sigma) <= tol)
    if not equal:
        return EqualityReport(sigma, alpha, False, "strict", gap, mult)
    b = len(domain.boundary)
    if mult > 3 or b > _PATTERN_CAP:
        return EqualityReport(sigma, alpha, True, "undecided", gap, mult)

    basis = spec.vectors[:, 1:1 + mult]
    masses = np.array([domain.graph.mass[v] for v in domain.boundary])
    pats = _sign_patterns(b)
    # eigenfunctions are mass-orthogonal to constants, so +1/-1 masses balance
    balanced = np.abs(pats @ masses) <= 1e-7 * (np.abs(pats) @ masses)
    pats = pats[balanced].astype(float)
    if len(pats):
        coef, *_ = np.linalg.lstsq(basis, pats.T, rcond=None)
        resid = np.linalg.norm(basis @ coef - pats.T, axis=0)
        norms = np.linalg.norm(pats, axis=1)
        form = dtn_operator(domain).form.a
        # pattern rows are already in lexicographic order
        for j in np.nonzero(resid <= 1e-7 * norms)[0]:
            t = pats[j]
            rayleigh = float(t @ form @ t) / float(t @ (masses * t))
            if abs(rayleigh - sigma) <= tol:
                witness = {v: float(t[i]) for i, v in enumerate(domain.boundary)}
                return EqualityReport(sigma, alpha, True, "equal", gap, mult, witness)
    return EqualityReport(sigma, alpha, True, "undecided", gap, mult)


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
