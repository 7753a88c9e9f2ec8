"""Dirichlet, Neumann, and Steklov (DtN) eigenvalue problems on finite domains.

Neumann and Steklov problems are solved by exact block elimination (Schur
complements) of the induced stiffness; the vanishing-vertex-weight sequences
of rescaled graphs G^(k) are an independent verification route whose first
non-trivial eigenvalue converges to the same quantities.
"""

import dataclasses
import functools
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InputError
from .graph_core import is_connected, make_domain
from .infinity import INFINITE
from .linear_core import (
    schur_solver,
    spd_solver,
    stiffness_matrix,
    sym_eig_generalized,
)


@dataclass
class DtnOperator:
    """The Dirichlet-to-Neumann form on delta Omega.

    form is the Schur complement of the induced stiffness eliminating the
    interior; applying it to boundary values f gives m(z) * du_f/dn(z).
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
    """
    @functools.wraps(fn)
    def checked(*args, **kwargs):
        with np.errstate(all="ignore"):
            result = fn(*args, **kwargs)
        _check_finite(result, fn.__name__)
        return result

    return checked


def _check_finite(result, step):
    if not all(np.isfinite(x).all() for x in _numbers(result)):
        raise InputError("non-finite values in %s" % step)


def _numbers(result):
    """The float arrays and floats a result holds, through lists, dict
    values and dataclass fields (a DtN form is one array).  Counts, the
    INFINITE sentinel and the tuples that hold vertex ids are skipped."""
    if isinstance(result, (float, np.ndarray)):
        yield result
    elif isinstance(result, list):
        for r in result:
            yield from _numbers(r)
    elif isinstance(result, dict):  # an eigenfunction: vertex -> float
        yield np.fromiter(result.values(), float, len(result))
    elif dataclasses.is_dataclass(result):
        for f in dataclasses.fields(result):
            yield from _numbers(getattr(result, f.name))


@_finite
def dirichlet_spectrum(graph, interior, count=None):
    """First eigenvalues of K_II v = lambda M_II v (zero boundary values).

    Eigenfunctions are extended by 0 to the boundary.
    """
    domain = make_domain(graph, interior)
    n = len(domain.interior)
    count = n if count is None else count
    if not 1 <= count <= n:
        raise InputError("count must be in 1..|interior|")
    k = stiffness_matrix(domain.induced)[:n, :n]
    mass = np.array([graph.mass[v] for v in domain.interior])
    res = sym_eig_generalized(k, mass, vertex_order=domain.interior, count=count)
    res.fields = [
        {v: (float(res.vectors[domain.interior_index[v], j]) if v in domain.interior_index else 0.0)
         for v in domain.closure}
        for j in range(count)
    ]
    return res


@_finite
def neumann_spectrum(domain, count=None):
    """Eigenvalues of L f = lambda f on Omega with zero normal derivative.

    Realized by eliminating the (diagonal, positive) boundary block of the
    induced stiffness: (K_II - K_IB K_BB^{-1} K_BI) v = lambda M_I v.
    lambda_0 = 0 with constant eigenfunction.
    """
    n = len(domain.interior)
    count = n if count is None else count
    if count > n:
        raise InputError("count exceeds |Omega|")
    if count >= 2 and n < 2:
        raise InputError("a non-trivial Neumann eigenvalue needs |Omega| >= 2")
    if count < 1:
        raise InputError("count must be positive")
    k = stiffness_matrix(domain.induced)
    kii = k[:n, :n]
    if domain.boundary:
        kib = k[:n, n:]
        dbb = np.diag(k[n:, n:])  # diagonal: boundary-boundary edges are removed
        khat = kii - (kib / dbb[None, :]) @ kib.T
        # the product is not always bit-symmetric: mirror its upper triangle
        khat = np.triu(khat) + np.triu(khat, 1).T
    else:
        khat = kii
    mass = np.array([domain.graph.mass[v] for v in domain.interior])
    res = sym_eig_generalized(khat, mass, vertex_order=domain.interior, count=count)
    fields = []
    for j in range(count):
        v = res.vectors[:, j]
        f = {x: float(v[domain.interior_index[x]]) for x in domain.interior}
        if domain.boundary:
            # zero flux determines boundary values: weighted neighbor average
            fb = -(kib.T @ v) / dbb
            for z in domain.boundary:
                f[z] = float(fb[domain.boundary_index[z]])
        fields.append(f)
    res.fields = fields
    return res


def _dtn(domain):
    """dtn_operator and the solver of K_II that formed it."""
    if not domain.boundary:
        raise InputError("domain has no boundary")
    k = stiffness_matrix(domain.induced)
    form, solve = schur_solver(k, range(len(domain.interior)))
    mass = np.array([domain.graph.mass[z] for z in domain.boundary])
    return DtnOperator(boundary=domain.boundary, form=form, mass=mass), solve


@_finite
def dtn_operator(domain):
    """Lambda_Omega as a matrix: Schur complement onto the boundary."""
    return _dtn(domain)[0]


def _extender(domain, solve=None):
    """harmonic_extension as a map of boundary values, K_II factored once
    (or solved by the given solver of K_II)."""
    n = len(domain.interior)
    k = stiffness_matrix(domain.induced)
    if solve is None:
        solve = spd_solver(k[:n, :n])
    kib = k[:n, n:]

    def extend(boundary_values):
        vec = np.array([boundary_values[z] for z in domain.boundary])
        out = {z: float(boundary_values[z]) for z in domain.boundary}
        out.update(zip(domain.interior, solve(-kib @ vec).tolist()))
        return out

    return extend


@_finite
def harmonic_extension(domain, boundary_values):
    """Extend boundary data into Omega harmonically (w.r.t. G_Omega)."""
    return _extender(domain)(boundary_values)


@_finite
def steklov_spectrum(domain, count=None):
    """Steklov eigenvalues: form v = sigma M_B v; sigma_0 = 0.

    Eigenfunctions are returned with their harmonic extensions: K_II is
    factored once, for the DtN form and every field, and each field is
    checked, and named in an error, as harmonic_extension would be.
    """
    op, solve = _dtn(domain)
    _check_finite(op, "dtn_operator")
    nb = len(domain.boundary)
    count = nb if count is None else count
    if count > nb:
        raise InputError("count exceeds |boundary|")
    if count >= 2 and nb < 2:
        raise InputError("a non-trivial Steklov eigenvalue needs |boundary| >= 2")
    if count < 1:
        raise InputError("count must be positive")
    res = sym_eig_generalized(op.form, op.mass, vertex_order=domain.boundary,
                              count=count)
    extend = _extender(domain, solve)
    for j in range(count):
        f = extend({z: res.vectors[i, j] for i, z in enumerate(domain.boundary)})
        _check_finite(f, "harmonic_extension")
        res.fields.append(f)
    return res


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
    k = stiffness_matrix(domain.induced)
    order = w_int + w_bnd
    pos = [domain.closure_index[v] for v in order]
    kw = k[np.ix_(pos, pos)]  # diagonal keeps weights of edges leaving W
    form, solve = schur_solver(kw, range(len(w_int)))
    mass = np.array([domain.graph.mass[z] for z in w_bnd])
    res = sym_eig_generalized(form, mass, vertex_order=tuple(w_bnd), count=count)
    fields = []
    m = len(w_int)
    for j in range(count):
        v = res.vectors[:, j]
        f = {z: float(v[i]) for i, z in enumerate(w_bnd)}
        if m:
            f.update(zip(w_int, solve(-kw[:m, m:] @ v).tolist()))
        fields.append(f)
    res.fields = fields
    return res


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
    keep = [v for v in graph.vertices if v in oset]
    drop = [v for v in graph.vertices if v not in oset]
    n = len(keep)
    count = n if count is None else count
    if not 1 <= count <= n:
        raise InputError("count must be in 1..|Omega|")
    k = stiffness_matrix(graph)
    order = keep + drop
    pos = [graph.index[v] for v in order]
    kw = k[np.ix_(pos, pos)]
    form, solve = schur_solver(kw, range(n, len(order)))
    mass = np.array([graph.mass[v] for v in keep])
    res = sym_eig_generalized(form, mass, vertex_order=tuple(keep), count=count)
    fields = []
    keo = kw[n:, :n]
    for j in range(count):
        v = res.vectors[:, j]
        f = {x: float(v[i]) for i, x in enumerate(keep)}
        if drop:
            f.update(zip(drop, solve(-keo @ v).tolist()))
        fields.append(f)
    res.fields = fields
    return res


# The spectra of a marked domain by name (the CLI's spectrum modes), called as
# (domain, V, count): Dirichlet on V and the variant DtN keeping V; the
# Neumann and Steklov problems are fixed by the domain and ignore V.
DOMAIN_SPECTRA = {
    "dirichlet": lambda domain, V, count: dirichlet_spectrum(domain.graph, V, count=count),
    "neumann": lambda domain, V, count: neumann_spectrum(domain, count=count),
    "steklov": lambda domain, V, count: steklov_spectrum(domain, count=count),
    "hm": lambda domain, V, count: hm_dtn_spectrum(domain.graph, V, count=count),
}
