"""Symmetric kernels: SPD solves, generalized eigenproblems, Schur complements.

Everything is double precision with direct methods; instances are
desk-scale.  The generalized problem K v = lambda M v with diagonal positive
M is reduced to standard form by the M^{-1/2} scaling.

Every dense operator is a plain float ndarray whose symmetry is exact by
construction: a graph's stiffness matrix, its slices and the Schur
complements below.  The stiffness is assembled once, from the graph's
(E, 2) endpoint array and weight array, and kept read-only on the graph, so
every caller that asks for it shares one array.  A dense matrix of more than
DENSE_MAX_DIM rows is refused with a BudgetError before it is allocated.  A
dense eigensolve diagonalizes the whole matrix but post-processes (orients,
checks residuals of, returns) only the eigenpairs its caller asks for.

A factored principal block K[rows, rows] has two routes, chosen by
block_stiffness from the number of rows: below SPARSE_MIN_DIM, cho_factor
(LAPACK potrf) on the dense block and LAPACK potrs for each solve, the bits
of cho_solve, as before the sparse route existed, so those results keep
their bits; from there, and on any graph past DENSE_MAX_DIM vertices,
SuperLU (splu, minimum-degree ordering on K + K^T, symmetric mode) on the
CSR block of sparse_stiffness (the same entries bit for bit), and the dense
stiffness is never assembled.  It serves capacity.equilibrium_potential (the
free block), spectra.harmonic_extension (K_II) and schur_solver, the one
elimination kernel.  spectra._eliminate, which serves the four eliminated
spectra (Neumann and the three DtN operators), takes from schur_solver the
Schur complement over the kept rows (dense either way), the solver of the
eliminated block and the coupling block, and extends its eigenvectors
through the same factor; constants._reduce takes the Schur complement onto
the universe of every isocapacitary constant.  A block with nothing
eliminated is only gathered, from the CSR stiffness on a graph of
SPARSE_MIN_DIM vertices or more.  Above the threshold the
results agree with the dense route's to 1e-12 relative (4e-16 measured for
capacities, 3.6e-15 of the largest eigenvalue for the spectra).

The lowest Dirichlet eigenpairs of a large window have a sparse route
(lowest_eigenpairs).  When the block has at least SPARSE_MIN_DIM rows, at
most SPARSE_MAX_COUNT pairs are asked for and the block is SPD (the domain
has a boundary), the graph's CSR stiffness is scaled to D K D,
D = M^{-1/2}, and ARPACK's shift-invert Lanczos
(scipy.sparse.linalg.eigsh, sigma = 0) finds the pairs from the fixed start
vector sqrt(m), so repeated calls give the same bits.  Its pairs get the
same sign rule and the same residual rule.  Its eigenvalues agree with the
dense route's to 1e-12 relative on lattice windows (2e-14 or better
measured), its vectors up to sign where the eigenvalue is simple.  Where
the two differ by more, the dense route is the less accurate: on a unit
path with 399 window vertices its lambda_1 is 1.8e-11 off the closed form,
the sparse one 1.1e-13.  scipy.sparse is imported on the sparse routes
only.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.linalg import lapack

from .errors import BudgetError, InputError, SingularMatrixError

# Largest dense matrix, in rows, that is assembled or diagonalized: 128 MiB
# per matrix.  Capacities and eliminated spectra whose factored block has
# SPARSE_MIN_DIM rows or more assemble none, so the largest dense stiffness
# of the benchmark has 405 rows (a grounded DtN spectrum of half_space:3 at
# R = 3, 147 eliminated rows); the test suite builds larger ones, up to the
# 3,610 rows of half_space:3 at R = 8, only to compare the two routes.  The
# largest dense matrix a documented command builds is the 3,375-row window
# block of `family lattice_box:3 --steps 7..7 --emit alpha --heuristic`,
# taken from the CSR stiffness of its 4,913-vertex graph.
DENSE_MAX_DIM = 4096

# The sparse routes start at SPARSE_MIN_DIM rows: lowest_eigenpairs for at
# most SPARSE_MAX_COUNT pairs, and block_stiffness for a factored principal
# block.  Measured on a 2-core x86-64 host with one BLAS thread:
# - one Dirichlet pair: dense and sparse tie near 125 window vertices (2.3 vs
#   2.5 ms on the 2-D box of 121); sparse is ahead from about 160 (4.0 vs
#   2.7 ms at 169) and far ahead at 729 (90 vs 10 ms);
# - one factored block, the call timed with its stiffness assembly: a
#   capacity ties near 195 free rows on the 2-D box (1.07 vs 1.09 ms), near
#   200 on binary trees and near 340 on the 3-D box (2.25 vs 2.29 ms); a
#   Schur complement ties near 210-230 eliminated rows on 2-D and 3-D boxes
#   and trees, and a whole grounded DtN spectrum near 320 on half_space:3
#   (5.2 vs 4.9 ms at 324).  The median tie, about 230 rows, is close
#   enough to share the threshold.  Sparse is far ahead at 728 rows (a 3-D
#   capacity, 14.9 vs 6.3 ms) and at 1,023 (a tree capacity, 35 vs 2.9 ms).
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
    ends, w = graph.ends, graph.edge_weights
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
    """Orient every column in place, deterministically: its first entry
    above 1e-12 of the column's largest magnitude is made positive.  A
    column with no such entry (all zero, or holding a NaN) is left as it
    is."""
    if not vectors.size:
        return vectors
    # |x| > c as x > c or x < -c, and max |x| from the column max and min:
    # the same comparisons with no temporary the size of vectors but booleans
    cut = 1e-12 * np.maximum(np.maximum(vectors.max(axis=0), -vectors.min(axis=0)), 1e-300)
    big = (vectors > cut) | (vectors < -cut)
    lead = vectors[big.argmax(axis=0), np.arange(vectors.shape[1])]
    np.negative(vectors, out=vectors, where=big.any(axis=0) & (lead < 0))
    return vectors


def _norm(x):
    """np.linalg.norm of a contiguous float vector without its wrapper: the
    same sqrt of the same dot product."""
    return np.sqrt(x.dot(x))


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
        # norm ravels a strided column into a contiguous copy: so does this
        den = kn * _norm(v.copy()) + abs(lam) * _norm(mv)
        if den == 0.0:
            continue
        worst = max(worst, _norm(k @ v - lam * mv) / den)
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


def block_stiffness(graph, rows):
    """The stiffness of graph in the form that factors its principal block
    K[rows, rows]: the dense array of stiffness_matrix below
    SPARSE_MIN_DIM rows, the CSR of sparse_stiffness from there and on any
    graph of more than DENSE_MAX_DIM vertices, whose dense matrix could only
    raise BudgetError.  With no rows, nothing is factored and the caller
    only gathers a block, which is bit-equal on both routes; the graph's
    own size then picks the route, so the dense matrix is assembled only
    below SPARSE_MIN_DIM vertices, where its n^2 assembly costs less than
    the CSR gather's fixed scipy indexing (about 0.1 ms on a 2-core x86-64
    host).  So a large block, or any block or Schur form of a large graph,
    never assembles the dense matrix.  The type of the matrix is the
    route: block_solver and schur_solver factor a dense block by Cholesky
    and a CSR block by SuperLU."""
    n = len(graph.vertices)
    if (len(rows) or n) >= SPARSE_MIN_DIM or n > DENSE_MAX_DIM:
        return sparse_stiffness(graph)
    return stiffness_matrix(graph)


def block_solver(K, rows, message=None):
    """solve(b) = K[rows, rows]^{-1} b for a stiffness K from block_stiffness.

    A dense K is sliced and factored by cho_factor, and solved by LAPACK's
    potrs, the call (and bits) of cho_solve without its wrapper's overhead;
    a CSR K by splu (MMD_AT_PLUS_A, SymmetricMode, as in _sparse_lowest) on
    its CSR block.  A principal block of a stiffness is symmetric and
    diagonally dominant, so it is SPD exactly when it is nonsingular.  A
    factor that fails raises SingularMatrixError with message, or the
    solver's own.
    """
    if isinstance(K, np.ndarray):
        rows = np.asarray(rows, dtype=np.intp)
        try:
            factor, _ = scipy.linalg.cho_factor(K[rows[:, None], rows], check_finite=False)
        except np.linalg.LinAlgError as exc:
            raise SingularMatrixError(message or str(exc)) from exc
        return lambda b: lapack.dpotrs(factor, b)[0]
    from scipy.sparse import csc_array
    from scipy.sparse.linalg import splu

    block = K[rows][:, rows]
    # symmetric: the CSR arrays of the block are also its CSC arrays
    block = csc_array((block.data, block.indices, block.indptr), shape=block.shape)
    try:
        lu = splu(block, permc_spec="MMD_AT_PLUS_A", options={"SymmetricMode": True})
    except RuntimeError as exc:  # an exactly singular factor
        raise SingularMatrixError(message or str(exc)) from exc
    return lu.solve


def schur_solver(K, keep, eliminate):
    """(S, solve, K_EK) for the positions keep (K) and eliminate (E) of a
    stiffness K from block_stiffness, each in the order given:
    S = K_KK - K_KE K_EE^{-1} K_EK, solve = block_solver(K, eliminate), the
    factor that formed S, and the block K_EK.  With nothing to eliminate, S
    is K_KK and solve and K_EK are None.

    A DtN operator forms S and extends its eigenvectors v through E by
    solve(-K_EK v): one factorization for both.  On a dense K each solve
    gives the bits of solve_spd(K_EE, b).  On a CSR K, S is the one dense
    matrix (its rows checked against DENSE_MAX_DIM first), K_EK stays CSR,
    and K_EE^{-1} K_EK is formed a band of kept columns at a time, each band
    at most DENSE_MAX_DIM^2 entries, so a large eliminated block never
    allocates more than the dense budget at once.
    """
    keep = np.asarray(keep, dtype=np.intp)
    eliminate = np.asarray(eliminate, dtype=np.intp)
    _check_dense(len(keep))
    s = _dense(K[keep[:, None], keep])
    if not len(eliminate):
        return s, None, None
    kek = K[eliminate[:, None], keep]
    solve = block_solver(K, eliminate, "eliminated block is not SPD")
    # one band on a dense K: its eliminated rows are within the dense budget
    band = max(1, DENSE_MAX_DIM ** 2 // len(eliminate))
    for j in range(0, len(keep), band):
        s[:, j:j + band] -= kek.T @ solve(_dense(kek[:, j:j + band]))
    return 0.5 * (s + s.T), solve, kek


def _dense(block):
    return block if isinstance(block, np.ndarray) else block.toarray()
