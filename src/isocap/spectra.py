"""Dirichlet, Neumann, and Steklov (DtN) eigenvalue problems on finite domains.

Neumann and Steklov problems are solved by exact block elimination (Schur
complements) of the induced stiffness; the vanishing-vertex-weight sequences
of rescaled graphs G^(k) are an independent verification route whose first
non-trivial eigenvalue converges to the same quantities.

The Neumann problem and the three DtN operators (Lambda_Omega, the grounded
Lambda_W and the variant S_Omega) differ only in the stiffness block and the
positions they keep and eliminate.  One routine, _eliminate, serves
dtn_operator and all four spectra: it takes the Schur complement from
linear_core.graph_schur, solves the eigenproblem, and extends each
eigenvector through the eliminated block with the same factor
(harmonically for the DtN operators, by zero flux for Neumann).  The graph
keeps that elimination, so the pair constant posed on the same form
(constants._reduce) and a second spectrum of it do not eliminate again.
The factor is a dense Cholesky below 200 eliminated rows and a sparse LU of the CSR
stiffness from there (linear_core.block_stiffness); the Schur form over the
kept rows is dense either way.

The Dirichlet problem is the one caller of linear_core.lowest_eigenpairs,
which takes a sparse shift-invert route for a few pairs of a large window
(200 or more interior vertices, at most 4 pairs, a nonempty boundary) and
the dense eigensolve otherwise.
"""

import dataclasses
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InputError
from .graph_core import is_connected, make_domain
from .infinity import INFINITE
from .linear_core import (SpectralResult, block_solver, block_stiffness, graph_schur,
                          lowest_eigenpairs, stiffness_matrix, sym_eig_generalized)


@dataclass
class DtnOperator:
    """The Dirichlet-to-Neumann form on delta Omega.

    form is the Schur complement of the induced stiffness eliminating the
    interior; applying it to boundary values f gives m(z) * du_f/dn(z).
    It is read-only: it is the graph's cached elimination
    (linear_core.graph_schur), which other calls on the same positions
    share.  (_eliminate builds one for each of its four spectra, and
    boundary holds the kept vertices: W cap deltaU for the grounded
    operator, Omega for the variant one and the interior for the Neumann
    problem.)
    """

    boundary: tuple
    form: np.ndarray
    mass: np.ndarray

    def apply(self, f):
        vec = np.array([f[z] for z in self.boundary])
        out = self.form @ vec
        return {z: float(out[i]) for i, z in enumerate(self.boundary)}


@dataclass
class WeightSchedule:
    """Strictly increasing rescale factors k for the G^(k) construction."""

    k_values: tuple

    def __post_init__(self):
        ks = tuple(self.k_values)
        if not ks or any(k <= 0 for k in ks):
            raise InputError("schedule values must be positive")
        if any(b <= a for a, b in zip(ks, ks[1:])):
            raise InputError("schedule must be strictly increasing")
        object.__setattr__(self, "k_values", ks)


def default_schedule(max_power=14):
    """Powers of two up to 2^14: large enough for the observed O(1/k) gap."""
    return WeightSchedule(tuple(2**p for p in range(max_power + 1)))


def _finite(fn):
    """Run a computation with numpy's floating-point warnings off, then
    reject a result that holds a non-finite number.

    Masses and weights at extreme scales (say 1e-300..1e300) overflow in the
    eigen solve, in a harmonic extension or in an enumerator's batched
    solves.  This is the one check for every function of this module
    (eigenpairs, residuals, DtN forms and extended fields) and for the
    public enumerators of constants.  It raises an InputError that names the
    step, instead of a RuntimeWarning on stderr and inf or nan in the result.
    Each number is checked once: the walk (_all_finite) skips what was
    checked where it was built, the eigenfunction fields of a spectrum.
    """
    @functools.wraps(fn)
    def checked(*args, **kwargs):
        with np.errstate(all="ignore"):
            result = fn(*args, **kwargs)
        _check_finite(result, fn.__name__)
        return result

    return checked


def _check_finite(result, step):
    if not _all_finite(result):
        raise InputError("non-finite values in %s" % step)


def _all_finite(result):
    """Whether every float and float array that result holds is finite,
    each number checked once, through lists, dict values and dataclass
    fields (a DtN form is one array).  Counts, the INFINITE sentinel and the
    tuples that hold vertex ids are skipped.  A list of dicts (eigenfunction
    fields: vertex -> float) is read as one array."""
    if isinstance(result, float):
        return math.isfinite(result)
    if isinstance(result, np.ndarray):
        return bool(np.isfinite(result).all())
    if isinstance(result, list):
        if result and all(isinstance(r, dict) for r in result):
            values = itertools.chain.from_iterable(r.values() for r in result)
            return bool(np.isfinite(np.fromiter(values, float)).all())
        return all(map(_all_finite, result))
    if isinstance(result, dict):
        return bool(np.isfinite(np.fromiter(result.values(), float, len(result))).all())
    names = _number_fields(type(result))
    return names is None or all(_all_finite(getattr(result, name)) for name in names)


@functools.cache
def _number_fields(cls):
    """The names of the dataclass fields that _all_finite reads, None for a
    type that is not a dataclass.  SpectralResult.fields is left out: each
    spectrum checks its fields where it builds them (Dirichlet fields are
    entries of the checked vectors, or 0.0)."""
    if not dataclasses.is_dataclass(cls):
        return None
    return tuple(f.name for f in dataclasses.fields(cls)
                 if (cls, f.name) != (SpectralResult, "fields"))


@_finite
def dirichlet_spectrum(graph, interior, count=None):
    """First eigenvalues of K_II v = lambda M_II v (zero boundary values).

    Eigenfunctions are extended by 0 to the boundary.  The pairs come from
    linear_core.lowest_eigenpairs: with at least SPARSE_MIN_DIM (200)
    interior vertices, a nonempty boundary and count at most
    SPARSE_MAX_COUNT (4), from shift-invert Lanczos on the sparse stiffness
    with the fixed start vector sqrt(m), whose eigenvalues agree with the
    dense route's to 1e-12 relative on lattice windows and are the more
    accurate of the two where they differ more; otherwise from the dense
    eigensolve, which raises BudgetError past linear_core.DENSE_MAX_DIM.
    """
    domain = make_domain(graph, interior)
    n = len(domain.interior)
    count = n if count is None else count
    if not 1 <= count <= n:
        raise InputError("count must be in 1..|interior|")
    mass = np.array([graph.mass[v] for v in domain.interior])
    res = lowest_eigenpairs(domain.induced, n, mass, count, vertex_order=domain.interior)
    # the fields are entries of the checked vectors, or 0.0 on the boundary
    zeros = [0.0] * len(domain.boundary)
    res.fields = [dict(zip(domain.closure, col + zeros)) for col in res.vectors.T.tolist()]
    return res


@_finite
def neumann_spectrum(domain, count=None):
    """Eigenvalues of L f = lambda f on Omega with zero normal derivative.

    _eliminate with the interior kept and the (diagonal, positive) boundary
    block of the induced stiffness eliminated:
    (K_II - K_IB K_BB^{-1} K_BI) v = lambda M_I v, and the zero-flux
    boundary values of each eigenfunction are solve(-K_BI v).  With no
    boundary the form is K_II itself.  lambda_0 = 0 with constant
    eigenfunction.
    """
    n = len(domain.interior)
    count = n if count is None else count
    if count > n:
        raise InputError("count exceeds |Omega|")
    if count < 1:
        raise InputError("count must be positive")
    _, spectrum = _eliminate(domain.induced, range(n), range(n, len(domain.closure)))
    return spectrum(count)


def _eliminate(graph, keep, elim):
    """The DtN operator of the stiffness of graph on the positions keep, the
    positions elim eliminated, from the graph's cached elimination
    (linear_core.graph_schur).

    Returns the operator, checked and named in an error as dtn_operator,
    and spectrum(count): the count lowest eigenpairs of form v = sigma M v
    with each eigenvector v extended through elim by solve(-K_EK v), one
    factor for the form and every field, each field (keep ids,
    then elim ids), the fields checked together and named in an error as
    harmonic_extension; a spectrum whose fields are finite but some kept
    K_ii / m_i is not is an InputError too.
    """
    form, solve, k_ek = graph_schur(graph, keep, elim)
    keep_ids, elim_ids = ([graph.vertices[i] for i in rows] for rows in (keep, elim))
    op = DtnOperator(boundary=tuple(keep_ids), form=form,
                     mass=np.array([graph.mass[v] for v in keep_ids]))
    _check_finite(op, "dtn_operator")

    def spectrum(count):
        res = sym_eig_generalized(form, op.mass, vertex_order=op.boundary, count=count)
        minus_k_ek = None if solve is None else -k_ek
        for j, col in enumerate(res.vectors.T.tolist()):
            f = dict(zip(keep_ids, col))
            if solve is not None:
                f.update(zip(elim_ids, solve(minus_k_ek @ res.vectors[:, j]).tolist()))
            res.fields.append(f)
        _check_finite(res.fields, "harmonic_extension")
        # a form entry carries a rounding error of order u K_ii, so the
        # eigenvalues are known only to about u max_i K_ii / m_i: past the
        # float range, that error could pass for a finite eigenvalue
        diagonal = block_stiffness(graph, elim).diagonal()
        if not np.isfinite(diagonal[list(keep)] / op.mass).all():
            raise InputError("operator scale (stiffness over mass) is not finite")
        return res

    return op, spectrum


def _steklov(domain):
    """_eliminate for Lambda_Omega: the interior out, the boundary kept."""
    if not domain.boundary:
        raise InputError("domain has no boundary")
    n = len(domain.interior)
    return _eliminate(domain.induced, range(n, len(domain.closure)), range(n))


@_finite
def dtn_operator(domain):
    """Lambda_Omega as a matrix: Schur complement onto the boundary."""
    return _steklov(domain)[0]


@_finite
def harmonic_extension(domain, boundary_values):
    """Extend boundary data into Omega harmonically (w.r.t. G_Omega), through
    the factor of K_II that the Steklov fields take (block_solver)."""
    interior = range(len(domain.interior))
    k = block_stiffness(domain.induced, interior)
    vec = np.array([boundary_values[z] for z in domain.boundary])
    out = {z: float(boundary_values[z]) for z in domain.boundary}
    k_ib = k[np.ix_(interior, range(len(interior), len(domain.closure)))]
    out.update(zip(domain.interior, block_solver(k, interior)(-k_ib @ vec).tolist()))
    return out


@_finite
def steklov_spectrum(domain, count=None):
    """Steklov eigenvalues: form v = sigma M_B v; sigma_0 = 0.

    Eigenfunctions are returned with their harmonic extensions (_eliminate).
    """
    _, spectrum = _steklov(domain)
    nb = len(domain.boundary)
    count = nb if count is None else count
    if count > nb:
        raise InputError("count exceeds |boundary|")
    if count < 1:
        raise InputError("count must be positive")
    return spectrum(count)


@_finite
def vanishing_weight_spectrum(domain, mode, schedule=None, count=2):
    """Spectra of the rescaled graphs G^(k) along a schedule.

    steklov mode: m^(k) = m on the boundary and m/k on Omega; the first
    non-trivial eigenvalue increases to sigma_1(Omega).  neumann mode: m on
    Omega and m/k on the boundary; the limit is lambda_1^N(Omega).
    """
    if mode not in ("neumann", "steklov"):
        raise InputError("mode must be 'neumann' or 'steklov'")
    if mode == "steklov" and not domain.boundary:
        raise InputError("steklov mode needs a nonempty boundary")
    schedule = schedule or default_schedule()
    n = len(domain.interior)
    total = len(domain.closure)
    if not 1 <= count <= total:
        raise InputError("count must be in 1..|closure|")
    k = stiffness_matrix(domain.induced)
    base = np.array([domain.graph.mass[v] for v in domain.closure])
    results = []
    for kk in schedule.k_values:
        mass = base.copy()
        if mode == "steklov":
            mass[:n] /= kk
        else:
            mass[n:] /= kk
        results.append(sym_eig_generalized(k, mass, vertex_order=domain.closure,
                                           count=count))
    return results


@_finite
def grounded_dtn_spectrum(domain, W, count=None):
    """Eigenvalues of the DtN operator Lambda_W on W cap deltaU.

    Every closure vertex outside W is grounded (value 0); W cap U is
    eliminated.  All eigenvalues are strictly positive (grounding removes the
    constant kernel).  Returns INFINITE when W cap deltaU is empty (the
    min-max over an empty space is vacuous).
    """
    domain.induced.check_vertices(W, "W")
    wset = set(W)
    w_int = [v for v in domain.interior if v in wset]
    w_bnd = [z for z in domain.boundary if z in wset]
    if not w_bnd:
        return INFINITE
    dim = len(w_bnd)
    count = dim if count is None else count
    if not 1 <= count <= dim:
        raise InputError("count must be in 1..|W cap boundary|")
    # grounding keeps the weights of edges leaving W on the diagonal
    at = domain.closure_index
    _, spectrum = _eliminate(domain.induced, [at[z] for z in w_bnd], [at[v] for v in w_int])
    return spectrum(count)


@_finite
def hm_dtn_spectrum(graph, omega, count=None):
    """The variant DtN operator S_Omega: full-graph harmonic extension.

    No edges are removed inside Omega; the form is the Schur complement of
    the full stiffness keeping Omega.  sigma_0^S = 0.
    """
    graph.check_vertices(omega, "Omega")
    oset = set(omega)
    if not oset or len(oset) == len(graph.vertices):
        raise InputError("Omega must be a proper nonempty subset")
    if not is_connected(graph):
        raise DomainError("graph is not connected")
    keep = [i for i, v in enumerate(graph.vertices) if v in oset]
    drop = [i for i, v in enumerate(graph.vertices) if v not in oset]
    n = len(keep)
    count = n if count is None else count
    if not 1 <= count <= n:
        raise InputError("count must be in 1..|Omega|")
    _, spectrum = _eliminate(graph, keep, drop)
    return spectrum(count)


# The spectra of a marked domain by name (the CLI's spectrum modes), called as
# (domain, V, count): Dirichlet on V and the variant DtN keeping V; the
# Neumann and Steklov problems are fixed by the domain and ignore V.
DOMAIN_SPECTRA = {
    "dirichlet": lambda domain, V, count: dirichlet_spectrum(domain.graph, V, count=count),
    "neumann": lambda domain, V, count: neumann_spectrum(domain, count=count),
    "steklov": lambda domain, V, count: steklov_spectrum(domain, count=count),
    "hm": lambda domain, V, count: hm_dtn_spectrum(domain.graph, V, count=count),
}
