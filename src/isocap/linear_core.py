"""Symmetric kernels: SPD solves, generalized eigenproblems, Schur complements.

Everything is double precision with direct methods; instances are
desk-scale.  The generalized problem K v = lambda M v with diagonal positive
M is reduced to standard form by the M^{-1/2} scaling.

Every dense operator is a plain float ndarray whose symmetry is exact by
construction: a graph's stiffness matrix, its slices and the Schur
complements below.  The stiffness is assembled once, from the graph's
integer endpoint pairs and weights, and kept read-only on the graph, so
every caller that asks for it shares one array.  A dense matrix of more than
DENSE_MAX_DIM rows is refused with a BudgetError before it is allocated.  A
dense eigensolve diagonalizes the whole matrix but post-processes (orients,
checks residuals of, returns) only the eigenpairs its caller asks for.
schur_solver is the one elimination kernel: spectra._eliminate, which serves
the four eliminated spectra (Neumann and the three DtN operators), takes its
Schur complement, the solver of the eliminated block and the coupling block
from one call, and extends its eigenvectors through the same Cholesky
factor.

The lowest Dirichlet eigenpairs of a large window have a sparse route
(lowest_eigenpairs).  When the block has at least SPARSE_MIN_DIM rows, at
most SPARSE_MAX_COUNT pairs are asked for and the block is SPD (the domain
has a boundary), the graph's CSR stiffness (sparse_stiffness, the same
entries bit for bit) is scaled to D K D, D = M^{-1/2}, and ARPACK's
shift-invert Lanczos (scipy.sparse.linalg.eigsh, sigma = 0) finds the pairs
from the fixed start vector sqrt(m), so repeated calls give the same bits.
Its pairs get the same sign rule and the same residual rule.  Its
eigenvalues agree with the dense route's to 1e-12 relative on lattice
windows (2e-14 or better measured), its vectors up to sign where the
eigenvalue is simple.  Where the two differ by more, the dense route is the
less accurate: on a unit path with 399 window vertices its lambda_1 is
1.8e-11 off the closed form, the sparse one 1.1e-13.  scipy.sparse is
imported on that route only.
"""

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import BudgetError, InputError, SingularMatrixError

# Largest dense matrix, in rows, that is assembled or diagonalized: 128 MiB
# per matrix.  The largest dense operators of the test suite and of the
# benchmark have 1,215 rows; the largest one a documented command builds is
# the 2,197-vertex graph of `family lattice_box:3 --steps 5..5 --emit alpha
# --heuristic`.
DENSE_MAX_DIM = 4096

# The sparse route of lowest_eigenpairs: from SPARSE_MIN_DIM rows and for at
# most SPARSE_MAX_COUNT pairs.  For one pair on a 2-core x86-64 host with one
# BLAS thread, dense and sparse tie near 125 window vertices (2.3 vs 2.5 ms
# on the 2-D box of 121); sparse is ahead from about 160 (4.0 vs 2.7 ms at
# 169) and far ahead at 729 (90 vs 10 ms).
SPARSE_MIN_DIM = 200
SPARSE_MAX_COUNT = 4


def _check_dense(n):
    if n > DENSE_MAX_DIM:
        raise BudgetError("a dense %d x %d operator exceeds the dense budget of %d rows"
                          % (n, n, DENSE_MAX_DIM))


def stiffness_matrix(graph):
    """Stiffness K of a graph in vertex order: K_xy = -w(x,y),
    K_xx = sum_y w(x,y).

    This is the matrix of m * L; quadratic form f^T K f equals the energy.
    It is assembled once per graph and stored on the graph; every call
    returns that same read-only array.  A graph of more than DENSE_MAX_DIM
    vertices raises BudgetError before anything is allocated.
    """
    K = getattr(graph, "_stiffness", None)
    if K is None:
        K = graph._stiffness = _assemble(graph)
    return K


def sparse_stiffness(graph):
    """The stiffness of stiffness_matrix as a CSR matrix with sorted column
    indices, its entries bit-equal to the dense ones.  Built once per graph
    and stored on it; its arrays are read-only."""
    K = getattr(graph, "_stiffness_csr", None)
    if K is None:
        K = graph._stiffness_csr = _assemble_csr(graph)
    return K


def _edges(graph):
    """(ends, w, deg): the (E, 2) endpoint positions, the weights and the
    weighted degrees.  Each degree sums its edges in edge order: the rows of
    ends interleave [i0, j0, i1, j1, ...], which keeps every degree
    bit-identical to adding the edges one at a time."""
    pairs = graph.pairs
    ends = np.fromiter(itertools.chain.from_iterable(pairs), np.intp,
                       2 * len(pairs)).reshape(-1, 2)
    w = np.array(graph.weights, dtype=float)
    deg = np.zeros(len(graph.vertices))
    np.add.at(deg, ends.ravel(), np.repeat(w, 2))
    return ends, w, deg


def _assemble(graph):
    n = len(graph.vertices)
    _check_dense(n)
    ends, w, deg = _edges(graph)
    k = np.zeros((n, n))
    k[ends[:, 0], ends[:, 1]] = -w
    k[ends[:, 1], ends[:, 0]] = -w
    k[np.diag_indices(n)] = deg
    k.setflags(write=False)
    return k


def _assemble_csr(graph):
    import scipy.sparse

    n = len(graph.vertices)
    ends, w, deg = _edges(graph)
    diag = np.arange(n)
    rows = np.concatenate([ends[:, 0], ends[:, 1], diag])
    cols = np.concatenate([ends[:, 1], ends[:, 0], diag])
    order = np.lexsort((cols, rows))
    data = np.concatenate([-w, -w, deg])[order]
    indices = cols[order]
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
    for a in (data, indices, indptr):
        a.setflags(write=False)
    return scipy.sparse.csr_array((data, indices, indptr), shape=(n, n))


@dataclass
class SpectralResult:
    """Ascending eigenvalues of K v = lambda M v with M-orthonormal vectors.

    vectors holds the problem-space eigenvectors as columns, aligned with
    vertex_order; fields (when set) are the eigenfunctions extended to their
    natural support (e.g. harmonic extensions), one dict per eigenvalue.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray
    mass: np.ndarray
    residual_norm: float
    vertex_order: tuple = None
    fields: list = field(default_factory=list)

    def eigenfunction(self, j):
        if self.fields:
            return dict(self.fields[j])
        return {v: self.vectors[i, j] for i, v in enumerate(self.vertex_order)}


def _fix_signs(vectors):
    # deterministic orientation: first coordinate that is clearly nonzero is positive
    for j in range(vectors.shape[1]):
        col = vectors[:, j]
        big = np.abs(col) > 1e-12 * max(np.abs(col).max(), 1e-300)
        if big.any():
            lead = col[np.argmax(big)]
            if lead < 0:
                vectors[:, j] = -col
    return vectors


def _residual(k, m, eigenvalues, vectors):
    """The worst ||K v - lam M v|| / (||K||_F ||v|| + |lam| ||M v||) over
    the given pairs; k is a dense array or a CSR matrix."""
    if len(eigenvalues) == 0:
        return 0.0
    # K and the eigenvalues over 2^e, the power of two just above max|K|:
    # exact in binary floating point, so the ratios below keep every bit,
    # and ||K||_F stays finite however large the entries are
    if isinstance(k, np.ndarray):
        e = np.frexp(np.abs(k).max())[1]
        k = np.ldexp(k, -e)
        kn = np.linalg.norm(k, "fro")
    else:  # CSR: the same scaling of its stored entries
        e = np.frexp(np.abs(k.data).max())[1]
        k = type(k)((np.ldexp(k.data, -e), k.indices, k.indptr), shape=k.shape)
        kn = np.linalg.norm(k.data)
    eigenvalues = np.ldexp(eigenvalues, -e)
    worst = 0.0
    for j, lam in enumerate(eigenvalues):
        v = vectors[:, j]
        mv = m * v
        num = np.linalg.norm(k @ v - lam * mv)
        den = kn * np.linalg.norm(v) + abs(lam) * np.linalg.norm(mv)
        if den == 0.0:
            continue
        worst = max(worst, num / den)
    return worst


def _checked_mass(entries, mass):
    """mass as a float array, once the entries of K and the masses are
    finite and the masses positive."""
    m = np.asarray(mass, dtype=float)
    if not np.all(np.isfinite(entries)) or not np.all(np.isfinite(m)):
        raise InputError("non-finite entries in eigenproblem")
    if np.any(m <= 0):
        raise InputError("mass matrix must be strictly positive")
    return m


def _result(k, m, w, vectors, vertex_order):
    return SpectralResult(
        eigenvalues=w,
        vectors=vectors,
        mass=m,
        residual_norm=_residual(k, m, w, vectors),
        vertex_order=tuple(vertex_order) if vertex_order is not None else None,
    )


def sym_eig_generalized(K, mass, vertex_order=None, count=None):
    """The `count` lowest eigenpairs of K v = lambda M v, M = diag(mass) > 0.

    count defaults to all n pairs.  The whole matrix is diagonalized either
    way, so the returned eigenvalues do not depend on count; only the first
    count pairs are oriented, checked and returned.  Vectors are
    M-orthonormal with a deterministic sign; residual_norm is the worst
    scaled eigen-residual over the returned pairs.  More than DENSE_MAX_DIM
    rows raise BudgetError before anything is allocated.
    """
    _check_dense(len(mass))
    m = _checked_mass(K, mass)
    count = len(m) if count is None else count
    if not 0 <= count <= len(m):
        raise InputError("count must be in 0..%d" % len(m))
    d = 1.0 / np.sqrt(m)
    s = d[:, None] * K * d[None, :]
    s = 0.5 * (s + s.T)
    w, u = np.linalg.eigh(s)
    w = w[:count]
    return _result(K, m, w, _fix_signs(d[:, None] * u[:, :count]), vertex_order)


def lowest_eigenpairs(graph, n, mass, count, vertex_order=None):
    """The `count` lowest eigenpairs of K_II v = lambda M v, where K_II is
    the leading n x n block of the stiffness of a connected graph and
    M = diag(mass): the Dirichlet problem on the first n vertices.

    The one choice between the two routes.  The sparse route runs when
    SPARSE_MIN_DIM <= n, 1 <= count <= SPARSE_MAX_COUNT and some vertex of
    the graph lies outside the block, which makes K_II SPD: shift-invert
    eigsh on D K_II D from the CSR stiffness, from the start vector sqrt(m).
    Every other call is sym_eig_generalized on the dense block.  Both give
    M-orthonormal vectors under _fix_signs and residual_norm under the same
    rule.
    """
    if SPARSE_MIN_DIM <= n < len(graph.vertices) and 1 <= count <= SPARSE_MAX_COUNT:
        return _sparse_lowest(sparse_stiffness(graph)[:n, :n], mass, count, vertex_order)
    return sym_eig_generalized(stiffness_matrix(graph)[:n, :n], mass, vertex_order, count)


def _sparse_lowest(k, mass, count, vertex_order):
    import scipy.sparse
    from scipy.sparse.linalg import LinearOperator, eigsh, splu

    m = _checked_mass(k.data, mass)
    d = 1.0 / np.sqrt(m)
    rows = np.repeat(np.arange(len(m)), np.diff(k.indptr))
    # d_i d_j is one product for (i, j) and (j, i), so D K D is exactly
    # symmetric and its CSR arrays are also its CSC arrays
    s = scipy.sparse.csc_array(((d[rows] * d[k.indices]) * k.data, k.indices, k.indptr),
                               shape=k.shape)
    try:
        # a symmetric fill-reducing order: about half the fill of eigsh's
        # own COLAMD factor on lattice windows, and twice as fast
        lu = splu(s, permc_spec="MMD_AT_PLUS_A", options={"SymmetricMode": True})
        w, u = eigsh(s, count, sigma=0.0, v0=np.sqrt(m),
                     OPinv=LinearOperator(s.shape, matvec=lu.solve, dtype=float))
    except RuntimeError as exc:  # a singular factor, or no convergence
        raise SingularMatrixError(str(exc)) from exc
    order = np.argsort(w, kind="stable")
    return _result(k, m, w[order], _fix_signs(d[:, None] * u[:, order]), vertex_order)


def solve_spd(K, b):
    """Solve K x = b for symmetric positive definite K by Cholesky."""
    try:
        factor = scipy.linalg.cho_factor(K, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(str(exc)) from exc
    return scipy.linalg.cho_solve(factor, b, check_finite=False)


def schur_solver(K, keep, eliminate):
    """(S, solve, K_EK) for the positions keep (K) and eliminate (E) of K,
    each in the order given: S = K_KK - K_KE K_EE^{-1} K_EK, solve(b) =
    K_EE^{-1} b from the Cholesky factor that formed S, and the block K_EK.
    With nothing to eliminate, S is K_KK and solve and K_EK are None.

    A DtN operator forms S and extends its eigenvectors v through E by
    solve(-K_EK v): one factorization, and each solve gives the bits of
    solve_spd(K_EE, b).
    """
    kkk = K[np.ix_(keep, keep)]
    if not len(eliminate):
        return kkk, None, None
    kee = K[np.ix_(eliminate, eliminate)]
    kek = K[np.ix_(eliminate, keep)]
    try:
        factor = scipy.linalg.cho_factor(kee, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError("eliminated block is not SPD") from exc
    solve = functools.partial(scipy.linalg.cho_solve, factor, check_finite=False)
    s = kkk - kek.T @ solve(kek)
    return 0.5 * (s + s.T), solve, kek
