"""Dense symmetric kernels: SPD solves, generalized eigenproblems, Schur complements.

Everything is dense double precision with direct methods; instances are
desk-scale (at most a few thousand vertices).  The generalized problem
K v = lambda M v with diagonal positive M is reduced to standard form by the
M^{-1/2} scaling.

A graph's stiffness matrix is assembled once, from its edge arrays, and kept
read-only on the graph, so every caller that asks for it shares one array.
An eigensolve diagonalizes the whole matrix but post-processes (orients,
checks residuals of, returns) only the eigenpairs its caller asks for.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import InputError, SingularMatrixError


class SymMatrix:
    """Dense symmetric matrix; symmetry is exact by construction (the lower
    triangle is mirrored from the upper on build)."""

    def __init__(self, entries):
        a = np.array(entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise InputError("SymMatrix needs a square array")
        # mirror in place, row by row: a build holds only the input and a copy
        for i in range(1, a.shape[0]):
            a[i, :i] = a[:i, i]
        a += 0.0  # stores -0.0 as +0.0
        a.setflags(write=False)
        self.a = a
        self.dim = a.shape[0]

    def __repr__(self):
        return "SymMatrix(dim=%d)" % self.dim


def stiffness_matrix(graph, order=None):
    """Stiffness K of a graph: K_xy = -w(x,y), K_xx = sum_y w(x,y).

    This is the matrix of m * L; quadratic form f^T K f equals the energy.
    `order` (a permutation of graph.vertices) defaults to graph.vertices.

    The matrix in vertex order is assembled once per graph and stored on the
    graph; later calls return that same read-only SymMatrix.  An `order`
    gives a permuted copy of it, never a second assembly.
    """
    K = getattr(graph, "_stiffness", None)
    if K is None:
        K = graph._stiffness = _assemble(graph)
    if order is None:
        return K
    perm = [graph.index[v] for v in order]
    if sorted(perm) != list(range(K.dim)):
        raise InputError("order must be a permutation of the graph's vertices")
    return SymMatrix(K.a[np.ix_(perm, perm)])


def _assemble(graph):
    idx = graph.index
    n = len(graph.vertices)
    ends = np.array([(idx[u], idx[v]) for u, v, _ in graph.edges],
                    dtype=np.intp).reshape(-1, 2)
    w = np.array([w for _, _, w in graph.edges], dtype=float)
    k = np.zeros((n, n))
    k[ends[:, 0], ends[:, 1]] = -w
    k[ends[:, 1], ends[:, 0]] = -w
    # each degree sums its edges in edge order: the rows of `ends` interleave
    # [i0, j0, i1, j1, ...], which keeps every diagonal entry bit-identical
    # to adding the edges one at a time
    deg = np.zeros(n)
    np.add.at(deg, ends.ravel(), np.repeat(w, 2))
    k[np.diag_indices(n)] = deg
    return SymMatrix(k)


def mass_vector(graph, order=None):
    order = tuple(order) if order is not None else graph.vertices
    return np.array([graph.mass[v] for v in order])


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
    k = K.a
    m = np.asarray(mass, dtype=float)
    if not np.all(np.isfinite(k)) or not np.all(np.isfinite(m)):
        raise InputError("non-finite entries in eigenproblem")
    if np.any(m <= 0):
        raise InputError("mass matrix must be strictly positive")
    count = len(m) if count is None else count
    if not 0 <= count <= len(m):
        raise InputError("count must be in 0..%d" % len(m))
    d = 1.0 / np.sqrt(m)
    s = d[:, None] * k * d[None, :]
    s = 0.5 * (s + s.T)
    w, u = np.linalg.eigh(s)
    w = w[:count]
    vectors = _fix_signs(d[:, None] * u[:, :count])
    return SpectralResult(
        eigenvalues=w,
        vectors=vectors,
        mass=m,
        residual_norm=_residual(k, m, w, vectors),
        vertex_order=tuple(vertex_order) if vertex_order is not None else None,
    )


def solve_spd(K, b):
    """Solve K x = b for symmetric positive definite K by Cholesky."""
    a = K.a if isinstance(K, SymMatrix) else np.asarray(K)
    try:
        c, low = scipy.linalg.cho_factor(a, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(str(exc)) from exc
    return scipy.linalg.cho_solve((c, low), b, check_finite=False)


def schur_complement(K, eliminate):
    """K_RR - K_RE (K_EE)^{-1} K_ER on the retained indices (original order).

    The eliminated principal block must be SPD; PSD input gives PSD output
    with preserved zero row sums (harmonic extension keeps constants).
    """
    a = K.a
    n = K.dim
    elim = sorted(set(eliminate))
    for i in elim:
        if not 0 <= i < n:
            raise InputError("eliminate index %d out of range" % i)
    if not elim:
        return SymMatrix(a)
    keep = [i for i in range(n) if i not in set(elim)]
    kee = a[np.ix_(elim, elim)]
    ker = a[np.ix_(elim, keep)]
    krr = a[np.ix_(keep, keep)]
    try:
        c, low = scipy.linalg.cho_factor(kee, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError("eliminated block is not SPD") from exc
    s = krr - ker.T @ scipy.linalg.cho_solve((c, low), ker, check_finite=False)
    return SymMatrix(0.5 * (s + s.T))
