"""Dense symmetric kernels: SPD solves, generalized eigenproblems, Schur complements.

Everything is dense double precision with direct methods; instances are
desk-scale (at most a few thousand vertices).  The generalized problem
K v = lambda M v with diagonal positive M is reduced to standard form by the
M^{-1/2} scaling.

Every operator is a plain float ndarray whose symmetry is exact by
construction: a graph's stiffness matrix, its slices and the Schur
complements below.  The stiffness is assembled once, from the graph's
integer endpoint pairs and weights, and kept read-only on the graph, so
every caller that asks for it shares one array.  An eigensolve diagonalizes
the whole matrix but post-processes (orients, checks residuals of, returns)
only the eigenpairs its caller asks for.  schur_solver is the one
elimination kernel: every DtN operator (spectra._eliminate) takes its Schur
complement, the solver of the eliminated block and the coupling block from
one call, and extends its eigenvectors through the same Cholesky factor.
"""

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import InputError, SingularMatrixError


def stiffness_matrix(graph):
    """Stiffness K of a graph in vertex order: K_xy = -w(x,y),
    K_xx = sum_y w(x,y).

    This is the matrix of m * L; quadratic form f^T K f equals the energy.
    It is assembled once per graph and stored on the graph; every call
    returns that same read-only array.
    """
    K = getattr(graph, "_stiffness", None)
    if K is None:
        K = graph._stiffness = _assemble(graph)
    return K


def _assemble(graph):
    n = len(graph.vertices)
    pairs = graph.pairs
    ends = np.fromiter(itertools.chain.from_iterable(pairs), np.intp,
                       2 * len(pairs)).reshape(-1, 2)
    w = np.array(graph.weights, dtype=float)
    k = np.zeros((n, n))
    k[ends[:, 0], ends[:, 1]] = -w
    k[ends[:, 1], ends[:, 0]] = -w
    # each degree sums its edges in edge order: the rows of `ends` interleave
    # [i0, j0, i1, j1, ...], which keeps every diagonal entry bit-identical
    # to adding the edges one at a time
    deg = np.zeros(n)
    np.add.at(deg, ends.ravel(), np.repeat(w, 2))
    k[np.diag_indices(n)] = deg
    k.setflags(write=False)
    return k


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
    if len(eigenvalues) == 0:
        return 0.0
    # K and the eigenvalues over 2^e, the power of two just above max|K|:
    # exact in binary floating point, so the ratios below keep every bit,
    # and ||K||_F stays finite however large the entries are
    e = np.frexp(np.abs(k).max())[1]
    k = np.ldexp(k, -e)
    eigenvalues = np.ldexp(eigenvalues, -e)
    kn = np.linalg.norm(k, "fro")
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


def sym_eig_generalized(K, mass, vertex_order=None, count=None):
    """The `count` lowest eigenpairs of K v = lambda M v, M = diag(mass) > 0.

    count defaults to all n pairs.  The whole matrix is diagonalized either
    way, so the returned eigenvalues do not depend on count; only the first
    count pairs are oriented, checked and returned.  Vectors are
    M-orthonormal with a deterministic sign; residual_norm is the worst
    scaled eigen-residual over the returned pairs.
    """
    m = np.asarray(mass, dtype=float)
    if not np.all(np.isfinite(K)) or not np.all(np.isfinite(m)):
        raise InputError("non-finite entries in eigenproblem")
    if np.any(m <= 0):
        raise InputError("mass matrix must be strictly positive")
    count = len(m) if count is None else count
    if not 0 <= count <= len(m):
        raise InputError("count must be in 0..%d" % len(m))
    d = 1.0 / np.sqrt(m)
    s = d[:, None] * K * d[None, :]
    s = 0.5 * (s + s.T)
    w, u = np.linalg.eigh(s)
    w = w[:count]
    vectors = _fix_signs(d[:, None] * u[:, :count])
    return SpectralResult(
        eigenvalues=w,
        vectors=vectors,
        mass=m,
        residual_norm=_residual(K, m, w, vectors),
        vertex_order=tuple(vertex_order) if vertex_order is not None else None,
    )


def solve_spd(K, b):
    """Solve K x = b for symmetric positive definite K by Cholesky."""
    try:
        factor = scipy.linalg.cho_factor(K, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(str(exc)) from exc
    return scipy.linalg.cho_solve(factor, b, check_finite=False)


def schur_complement(K, eliminate):
    """K_RR - K_RE (K_EE)^{-1} K_ER on the retained indices (original order).

    The eliminated principal block must be SPD; PSD input gives PSD output
    with preserved zero row sums (harmonic extension keeps constants).  With
    nothing to eliminate, K itself is returned.
    """
    n = K.shape[0]
    elim = sorted(set(eliminate))
    for i in elim:
        if not 0 <= i < n:
            raise InputError("eliminate index %d out of range" % i)
    if not elim:
        return K
    return schur_solver(K, np.setdiff1d(np.arange(n), elim), elim)[0]


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
