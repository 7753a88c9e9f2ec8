"""Two-sided eigenvalue bound checks and the equality-case test.

Each theorem is one entry of REGISTRY: an eigenvalue side evaluated by the
solvers in spectra, a constant side evaluated by the enumerators in
constants, and the exact bracket factors of lower * constant <= eigenvalue
<= upper * constant.  The k-indexed brackets have an unspecified universal
constant on the lower side; those lower bounds are recorded as an empirical
ratio, never asserted.

Inequality comparisons use additive slack 1e-9 * max(1, |eigenvalue|) to
absorb solver residuals.  Equality detection uses 1e-8 relative.
"""

import itertools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.linalg

from .constants import (_PAIR, DEFAULT_BUDGET, _monotone_scan, _over_budget, _pair_constant,
                        alpha_dirichlet, alpha_ds, alpha_neumann, alpha_steklov, beta_steklov,
                        beta_tuple, gamma_k_steklov, gamma_tilde_dirichlet, kappa_steklov)
from .errors import InputError
from .graph_core import SteklovDomain, make_domain
from .infinite_families import FamilyStep, kinds_with
from .linear_core import sym_eig_generalized
from .spectra import (DOMAIN_SPECTRA, _check_finite, _finite, dirichlet_spectrum, dtn_operator,
                      grounded_dtn_spectrum)
from .infinity import INFINITE, is_infinite

DOMAIN = "a marked domain"
STEPS = "a family step sequence"


@dataclass(frozen=True)
class Theorem:
    """One bracket lower * constant <= eigenvalue <= upper * constant.

    On a marked domain (kind DOMAIN) the eigenvalue is number first + k - 1
    (k = 1 when the theorem takes none) of DOMAIN_SPECTRA[spectrum] posed on
    the vertex set vertices(domain, W), and constant(domain, that set, k,
    budget, heuristic) is the other side; precondition is the error when the
    set is too small to hold that eigenvalue.  On family steps (kind STEPS)
    eigenvalue(step, k) and constant(step, k, budget, heuristic) are taken at
    every step and the report on the last one; monotone enforces constants
    that do not increase, every_step asserts the upper bound at each step.
    lower None marks a k-indexed theorem, whose lower side carries an
    unspecified constant: empirical_c = eigenvalue * k^6 / constant is
    recorded instead of a lower check.
    """

    id: str
    kind: str
    lower: Optional[float]
    upper: float
    constant: Callable
    spectrum: Optional[str] = None
    vertices: Optional[Callable] = None
    first: int = 0
    precondition: Optional[str] = None
    eigenvalue: Optional[Callable] = None
    monotone: bool = False
    every_step: bool = False


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


def _report(theorem, k, eig, res, sequences=None):
    const = res.value
    slack = _slack(eig)
    upper = _scale(const, theorem.upper)
    lower = lower_ok = emp = None
    if theorem.lower is not None:
        lower = _scale(const, theorem.lower)
        lower_ok = _leq(lower, eig, slack)
    elif not is_infinite(eig) and not is_infinite(const) and const > 0:
        emp = eig * k ** 6 / const
    return BoundReport(
        theorem_id=theorem.id if k is None else "%s(%d)" % (theorem.id, k),
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


def _on_domain(theorem, domain, k, budget, heuristic, W):
    if not isinstance(domain, SteklovDomain):
        raise InputError("%s expects %s" % (theorem.id, DOMAIN))
    vertices = theorem.vertices(domain, W)
    number = theorem.first + (k or 1) - 1
    if len(vertices) <= number:
        raise InputError(theorem.precondition)
    spectrum = DOMAIN_SPECTRA[theorem.spectrum](domain, vertices, number + 1)
    res = theorem.constant(domain, vertices, k, budget, heuristic)
    return _report(theorem, k, spectrum.eigenvalues[number], res)


def _on_steps(theorem, instance, k, budget, heuristic, W):
    try:
        steps = list(instance)
    except TypeError:
        steps = None
    if not steps or not all(isinstance(s, FamilyStep) for s in steps):
        raise InputError("%s expects %s" % (theorem.id, STEPS))
    eigs, results = [], []
    for step in steps:
        eigs.append(theorem.eigenvalue(step, k))
        results.append(theorem.constant(step, k, budget, heuristic))
    consts = [res.value for res in results]
    if theorem.monotone:
        _monotone_scan(consts, enforce=True)
    report = _report(theorem, k, eigs[-1], results[-1], sequences={
        "index": [s.index for s in steps], "eigenvalues": eigs, "constants": consts})
    if theorem.every_step:
        report.upper_ok = report.upper_ok and all(
            _leq(e, _scale(c, theorem.upper), _slack(e)) for e, c in zip(eigs, consts))
    return report


def _interior(domain, W):
    return domain.interior


def _boundary(domain, W):
    return domain.boundary


def _window(domain, W):
    return tuple(W) if W is not None else domain.interior


def _grounded(step, k, count=None):
    """The k-th grounded DtN eigenvalue of a step, INFINITE past the
    dimension.  A window that misses the boundary of U has no grounded
    operator, and a bound on it would hold vacuously: an InputError."""
    spec = grounded_dtn_spectrum(step.domain, step.W, count=count)
    if is_infinite(spec):
        raise InputError("the window of step %d does not meet the boundary of U: "
                         "the grounded DtN operator needs a %s family"
                         % (step.index, kinds_with("grounded")))
    if len(spec.eigenvalues) < k:
        return INFINITE
    return spec.eigenvalues[k - 1]


REGISTRY = {theorem.id: theorem for theorem in (
    Theorem("dirichlet_1", DOMAIN, 0.25, 1.0, spectrum="dirichlet", vertices=_interior,
            constant=lambda d, V, k, b, h: alpha_dirichlet(d, budget=b, heuristic=h),
            precondition="first Dirichlet eigenvalue needs |Omega| >= 1"),
    Theorem("neumann_1", DOMAIN, 0.125, 2.0, spectrum="neumann", vertices=_interior, first=1,
            constant=lambda d, V, k, b, h: alpha_neumann(d, budget=b, heuristic=h),
            precondition="first nonzero Neumann eigenvalue needs |Omega| >= 2"),
    Theorem("steklov_1", DOMAIN, 0.125, 2.0, spectrum="steklov", vertices=_boundary, first=1,
            constant=lambda d, V, k, b, h: alpha_steklov(d, budget=b, heuristic=h),
            precondition="first nonzero boundary eigenvalue needs |dOmega| >= 2"),
    Theorem("hm_steklov_1", DOMAIN, 0.125, 2.0, spectrum="hm", vertices=_interior, first=1,
            constant=lambda d, V, k, b, h: beta_steklov(d.graph, V, budget=b, heuristic=h),
            precondition="first nonzero eigenvalue needs |Omega| >= 2"),
    Theorem("bottom", STEPS, 0.25, 1.0,
            eigenvalue=lambda s, k: dirichlet_spectrum(s.graph, s.W, count=1).eigenvalues[0],
            constant=lambda s, k, b, h: alpha_dirichlet(make_domain(s.graph, s.W),
                                                        budget=b, heuristic=h)),
    Theorem("dtn_bottom", STEPS, 0.25, 1.0, monotone=True,
            eigenvalue=lambda s, k: _grounded(s, 1, count=1),
            constant=lambda s, k, b, h: alpha_ds(s.domain, s.W, budget=b)),
    Theorem("higher_dirichlet", DOMAIN, None, 2.0, spectrum="dirichlet", vertices=_window,
            constant=lambda d, V, k, b, h: gamma_tilde_dirichlet(d.graph, V, k, budget=b),
            precondition="k-th window eigenvalue needs |W| >= k"),
    Theorem("higher_steklov_finite", DOMAIN, None, 2.0, spectrum="steklov",
            vertices=_boundary, first=1,
            constant=lambda d, V, k, b, h: kappa_steklov(d, k, budget=b),
            precondition="k-th boundary eigenvalue needs |dOmega| >= k+1"),
    Theorem("higher_steklov_infinite", STEPS, None, 2.0, every_step=True,
            eigenvalue=_grounded,
            constant=lambda s, k, b, h: gamma_k_steklov(s.domain, s.W, k, budget=b)),
    Theorem("hm_higher", DOMAIN, None, 2.0, spectrum="hm", vertices=_interior, first=1,
            constant=lambda d, V, k, b, h: beta_tuple(d.graph, V, k, budget=b),
            precondition="k-th eigenvalue needs |Omega| >= k+1"),
)}

THEOREMS = tuple(REGISTRY)
K_THEOREMS = tuple(t.id for t in REGISTRY.values() if t.lower is None)
FINITE_THEOREMS = tuple(t.id for t in REGISTRY.values()
                        if t.kind == DOMAIN and t.lower is not None)


def check(theorem_id, instance, k=None, budget=None, heuristic=False, W=None):
    """Evaluate both sides of one named inequality on one instance.

    Theorems of kind DOMAIN take a marked domain, those of kind STEPS a
    sequence of family steps; the k-indexed ones (K_THEOREMS) require
    k >= 1, and W is the window of higher_dirichlet (default Omega).
    """
    if theorem_id not in THEOREMS:
        raise InputError("unknown theorem %r; known: %s" % (theorem_id, ", ".join(THEOREMS)))
    theorem = REGISTRY[theorem_id]
    if theorem.lower is None:
        if k is None or k < 1:
            raise InputError("%s needs k >= 1" % theorem_id)
    elif k is not None:
        raise InputError("%s takes no k" % theorem_id)
    evaluate = _on_domain if theorem.kind == DOMAIN else _on_steps
    return evaluate(theorem, instance, k, budget, heuristic, W)


@dataclass
class EqualityReport:
    sigma1: float
    alpha_s: float
    equal: bool
    status: str  # "equal", "strict", or "undecided"
    gap: float
    multiplicity: int
    witness: Optional[dict] = None


def _span_patterns(basis):
    """The {-1, 0, 1}-valued vectors that may lie in the span of the columns
    of basis (b x mult, full column rank): int8 rows whose first nonzero
    entry is +1, in lexicographic order.

    A span vector is fixed by its values on the mult pivot rows of a pivoted
    QR of basis^T, so each nonzero choice of {-1, 0, 1}^mult there is mapped
    through the span and rounded; rounded rows with an entry outside
    {-1, 0, 1} are dropped.  Every three-valued vector of the span is among
    the (at most 3^mult - 1) rows; a row need not lie in the span."""
    mult = basis.shape[1]
    _, _, piv = scipy.linalg.qr(basis.T, mode="economic", pivoting=True)
    choices = np.array(list(itertools.product((-1.0, 0.0, 1.0), repeat=mult)))
    choices = choices[choices.any(axis=1)]
    cands = np.rint(basis @ np.linalg.solve(basis[piv[:mult]], choices.T)).T
    cands = cands[(np.abs(cands) <= 1).all(axis=1)].astype(np.int8)
    lead = cands[np.arange(len(cands)), (cands != 0).argmax(axis=1)]
    return np.unique(cands * lead[:, None], axis=0)


@_finite
def check_equality_case(domain, budget=None):
    """Decide sigma_1 = 2 alpha_S and, if so, exhibit a three-valued witness.

    The witness is an eigenfunction of the bottom nonzero boundary eigenvalue
    whose boundary values, scaled so the largest magnitude is 1, all lie in
    {-1, 0, 1}.  The candidates come from the eigenspace (_span_patterns: at
    most 3^mult - 1 of them, whatever the boundary size) and are tried in
    lexicographic order; each must balance the boundary masses, lie in the
    eigenspace (least-squares residual) and reproduce sigma_1 as its
    Rayleigh quotient.  Reach: every boundary within the pair budget (alpha_S
    is enumerated exactly), and eigenspaces of dimension at most 3; wider
    eigenspaces are reported undecided rather than searched incompletely.
    """
    if len(domain.boundary) < 2:
        raise InputError("equality case needs at least two boundary vertices")
    # the eigenpairs of steklov_spectrum, without its harmonic extensions
    op = dtn_operator(domain)
    spec = sym_eig_generalized(op.form, op.mass)
    sigma = spec.eigenvalues[1]
    # alpha_S enumerated on the same DtN form, the root that alpha_steklov
    # would eliminate again, with its budget error and its name in an error
    _over_budget(len(domain.boundary), (budget or DEFAULT_BUDGET).pair, _PAIR, False)
    res = _pair_constant(op.form, op.mass, domain.boundary, False, None, connected=True)
    _check_finite(res, "alpha_steklov")
    alpha = res.value
    tol = 1e-8 * max(1.0, abs(sigma))
    equal = bool(abs(sigma - 2.0 * alpha) <= tol)
    gap = 2.0 * alpha - sigma
    mult = sum(1 for s in spec.eigenvalues[1:] if abs(s - sigma) <= tol)
    if not equal:
        return EqualityReport(sigma, alpha, False, "strict", gap, mult)
    if mult > 3:
        return EqualityReport(sigma, alpha, True, "undecided", gap, mult)

    basis = spec.vectors[:, 1:1 + mult]
    pats = _span_patterns(basis)
    # eigenfunctions are mass-orthogonal to constants, so +1/-1 masses balance
    balanced = np.abs(pats @ op.mass) <= 1e-7 * (np.abs(pats) @ op.mass)
    pats = pats[balanced].astype(float)
    if len(pats):
        coef, *_ = np.linalg.lstsq(basis, pats.T, rcond=None)
        resid = np.linalg.norm(basis @ coef - pats.T, axis=0)
        norms = np.linalg.norm(pats, axis=1)
        # pattern rows are already in lexicographic order
        for j in np.nonzero(resid <= 1e-7 * norms)[0]:
            t = pats[j]
            rayleigh = float(t @ op.form @ t) / float(t @ (op.mass * t))
            if abs(rayleigh - sigma) <= tol:
                witness = {v: float(t[i]) for i, v in enumerate(domain.boundary)}
                return EqualityReport(sigma, alpha, True, "equal", gap, mult, witness)
    return EqualityReport(sigma, alpha, True, "undecided", gap, mult)
