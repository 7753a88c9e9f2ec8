"""Isocapacitary constants by exact subset and tuple enumeration.

Single-set constants (alpha_D, alpha_DS) minimize a grounded capacity over
mass; pair constants (alpha_N, alpha_S, beta_S) minimize a two-set capacity
over the smaller mass; tuple constants (gamma-tilde, Gamma_k, kappa, beta_k+1)
are min-max packings of disjoint parts, read from one table of the least
largest-part rank over slot masks (_min_tuple).  All enumerators are
exhaustive within the budget and reduce by (value, lexicographic witness), so
results do not depend on evaluation order or chunking.  The public
enumerators run under spectra._finite: no floating-point warnings, and a
value that is not finite (other than INFINITE) is an InputError.
"""

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .errors import BudgetError, InputError, SingularMatrixError
from .infinity import INFINITE, is_infinite
from .linear_core import stiffness_matrix
from .spectra import (_finite, dirichlet_spectrum, hm_dtn_spectrum, neumann_spectrum,
                      steklov_spectrum)

_CHUNK = 4096
# Unions x splits of a _min_pair chunk from which _split_forms takes the
# hypercube kernel instead of the einsum.  Timed on every chunk shape of one
# round of the enum_ties and enum_generic benchmark workloads (1 BLAS thread,
# 2-core x86-64), the kernel wins on all shapes above about 6,000 and on none
# below about 2,300, and the summed time is least from 3,072.
_CUBE_MIN = 3072
# Elements (rows x d_amb^2) of one batched solve of _capacity_ratios: 8 MB of
# float64, which bounds each of its gathered blocks; a candidate larger than
# the budget is solved alone, as it would be unbatched.
_SOLVE_ELEMENTS = 1 << 20
# The relative margin of _heuristic_single's screen is delta = _SCREEN_SLACK
# * n * kappa^2 * u (_screen_single).  Over the oracle inputs of the tests and
# the heuristic steps of the benchmark's families (n up to 729, kappa up to
# 1.3e5), the largest |screened - exact| / exact was 0.56 n kappa^2 u, at
# n = 2; the factor 64 leaves two orders of magnitude above that.
_SCREEN_SLACK = 64.0
_UNIT_ROUNDOFF = np.finfo(float).eps / 2


@dataclass
class Budget:
    """Enumeration limits: subsets of a universe (single), unions for pairs,
    tuple universes with an optional per-part size cap."""

    single: int = 20
    pair: int = 16
    tuples: int = 12
    part_cap: int = None


DEFAULT_BUDGET = Budget()


@dataclass
class ConstantResult:
    value: object  # float or INFINITE
    witness: tuple
    evaluations: int
    heuristic: bool = False


@dataclass
class LimitReport:
    indices: list
    values: list
    limit_estimate: object
    error_bar: object
    monotone: bool
    heuristic: bool = False


def _complement(rows, n):
    """Ascending indices of range(n) that each row of the (N, s) array of
    distinct indices rows leaves out, as an (N, n - s) array."""
    m = len(rows)
    mask = np.ones((m, n), dtype=bool)
    mask[np.arange(m)[:, None], rows] = False
    return np.nonzero(mask)[1].reshape(m, n - rows.shape[1])


def _grounded_values(k_amb, combos, free):
    """Energies of the minimizers with f = 1 on each combo, solved on the
    matching free rows; every other row of k_amb is grounded.

    Vertices absent from k_amb's index set are grounded implicitly: their
    edges only contribute to the retained diagonal.  combos (N, s) and free
    (N, d) are arrays of ascending row indices; one batched solve per call.
    """
    kaa = k_amb[combos[:, :, None], combos[:, None, :]]
    tops = kaa.sum(axis=(1, 2))
    if free.shape[1] == 0:
        return tops
    kfa = k_amb[free[:, :, None], combos[:, None, :]]
    c = kfa.sum(axis=2)
    kff = k_amb[free[:, :, None], free[:, None, :]]
    x = np.linalg.solve(kff, c[..., None])[..., 0]
    return tops - np.einsum("nd,nd->n", c, x)


def _capacity_ratios(k_amb, sources, divisors, sinks=None):
    """Cap(A) / divisor for each row A of sources ((N, s) ascending rows of
    k_amb): f = 1 on A, 0 on the rows of sinks ((N, t), when given) and off
    k_amb, free elsewhere.  The one evaluator of single-set and pair
    candidates, solved in chunks of _SOLVE_ELEMENTS // d_amb^2 rows (at
    least one); each row is the arithmetic of a solve on its own."""
    d_amb = k_amb.shape[0]
    fixed = sources if sinks is None else np.hstack([sources, sinks])
    step = max(1, _SOLVE_ELEMENTS // d_amb ** 2)
    caps = np.empty(len(sources))
    for lo in range(0, len(sources), step):
        rows = sources[lo : lo + step]
        free = _complement(fixed[lo : lo + step], d_amb)
        caps[lo : lo + step] = _grounded_values(k_amb, rows, free)
    return caps / divisors


def _better(best, value, key):
    if best is None or value < best[0] or (value == best[0] and key < best[1]):
        return (value, key)
    return best


def _lex_first(keys):
    """The lexicographically smallest row of a 2-D integer array, column 0
    most significant."""
    if len(keys) == 1:
        return keys[0]
    return keys[np.lexsort(keys.T[::-1])[0]]


def _first_tied_split(part, pos, tied):
    """The smallest (A, B) pair of slot tuples, in Python tuple order, among
    the True entries of tied, a (unions, splits) mask over the rows of part
    (ascending union slots, signed integers) and of pos (_split_table).

    Key column c of a (union, split) entry is part[union, pos[split, c]],
    with -1 for the padding position u, so a shorter tuple orders before its
    extensions.  The entries are filtered to the least value of each column
    in turn, until one is left; distinct entries have distinct keys."""
    ui, pi = np.nonzero(tied)
    u = part.shape[1]
    ext = np.hstack([part, np.full((len(part), 1), -1, dtype=part.dtype)])
    for c in range(2 * u):
        if len(ui) == 1:
            break
        col = ext[ui, pos[pi, c]]
        sel = col == col.min()
        ui, pi = ui[sel], pi[sel]
    slots, cols = ext[ui[0]], pos[pi[0]]
    return (tuple(slots[cols[:u][cols[:u] < u]].tolist()),
            tuple(slots[cols[u:][cols[u:] < u]].tolist()))


@functools.lru_cache(maxsize=64)  # every size of a 20-slot universe: 10 MB
def _combinations(p, s):
    """The s-subsets of range(p) in itertools.combinations order, one
    ascending row each: a shared read-only (C(p, s), s) array of the
    smallest signed integer type that holds -p."""
    rows = itertools.chain.from_iterable(itertools.combinations(range(p), s))
    out = np.fromiter(rows, dtype=np.min_scalar_type(-p), count=math.comb(p, s) * s)
    out = out.reshape(-1, s)
    out.flags.writeable = False
    return out


@functools.lru_cache(maxsize=16)  # all u <= 16 (the pair budget): about 10 MB
def _split_table(u):
    """The splits of a u-slot union with slot 0 in A and B nonempty, shared
    read-only: the (2**(u-1) - 1, u) float table t (1.0 for A; row r puts
    slot j + 1 in A when bit j of r is set), the int8 positions pos of
    each split's slots (A's ascending, then B's ascending, each side padded
    to u columns with u), and for each slot pair (s, q) in row-major order
    the index of the splits holding both slots on the hypercube view of
    _cube_forms."""
    bits = np.arange((1 << (u - 1)) - 1)
    t = np.zeros((len(bits), u))
    t[:, 0] = 1.0
    for j in range(u - 1):
        t[:, j + 1] = (bits >> j) & 1
    slot = np.arange(u, dtype=np.int8)
    pos = np.sort(np.hstack([np.where(t > 0, slot, u), np.where(t > 0, u, slot)])
                  .reshape(len(t), 2, u), axis=2).reshape(len(t), 2 * u).astype(np.int8)
    t.flags.writeable = pos.flags.writeable = False
    cube = []
    for s, q in itertools.product(range(u), repeat=2):
        index = [slice(None)] * (u - 1)
        for j in (s, q):
            if j:  # slot 0 is in every A; slot j is axis u - 1 - j
                index[u - 1 - j] = 1
        cube.append(tuple(index))
    return t, pos, tuple(cube)


def _cube_forms(s_u, cube):
    """The split forms of _split_forms on the split hypercube.

    The split axis, plus the unused all-A split, is viewed as (2,) * (u - 1)
    with the union axis last and contiguous; each Schur entry (s, q), in
    row-major order, is added in place onto the splits that hold both slots.
    That is the einsum's sum with its zero terms left out (it keeps about a
    quarter of them), and for finite entries adding a zero changes no bit."""
    n, u, _ = s_u.shape
    out = np.zeros((1 << (u - 1), n))
    view = out.reshape((2,) * (u - 1) + (n,))
    entries = np.ascontiguousarray(s_u.transpose(1, 2, 0)).reshape(u * u, n)
    for index, entry in zip(cube, entries):
        sub = view[index]
        np.add(sub, entry, out=sub)
    return out[:-1].T


def _split_forms(t, s_u, cube):
    """quad[n, r] = t[r] @ s_u[n] @ t[r] for the 0/1 split rows t of
    _split_table, bit for bit as np.einsum("ps,nst,pt->np", t, s_u, t).

    Route: the hypercube kernel takes a chunk from _CUBE_MIN unions x splits
    up, where its u * u vector adds beat the einsum; smaller chunks, and any
    chunk with a non-finite Schur entry (where 0 * inf gives the einsum its
    NaN pattern), take the einsum."""
    if len(s_u) * len(t) < _CUBE_MIN or not np.isfinite(s_u).all():
        return np.einsum("ps,nst,pt->np", t, s_u, t)
    return _cube_forms(s_u, cube)


def _min_single(k_amb, universe, masses):
    """Exact min over nonempty A of grounded-energy(A)/mass(A).

    universe: ascending row indices of k_amb that A may use; masses aligns
    with universe.  Returns (value, witness slots into universe, count).
    Witness rule: among all candidates with the minimal value (exact float
    equality), the lexicographically smallest slot tuple.  Each subset size
    (one _capacity_ratios call) offers its smallest tied row once to the
    running best, none if a value is NaN or its minimum is above the best so
    far.  Raises InputError when no value is a number.
    """
    p = len(universe)
    universe = np.asarray(universe, dtype=int)
    masses = np.asarray(masses, dtype=float)
    best = None
    examined = 0
    for s in range(1, p + 1):
        combos = _combinations(p, s)
        vals = _capacity_ratios(k_amb, universe[combos], masses[combos].sum(axis=1))
        examined += len(combos)
        vmin = vals.min()
        if best is not None and vmin > best[0]:
            continue  # _better would reject every tied row
        tied = combos[vals == vmin]
        if len(tied):
            best = _better(best, float(vmin), tuple(_lex_first(tied).tolist()))
    if best is None:
        raise InputError("non-finite values in every subset")
    return best[0], best[1], examined


def _min_pair(k_amb, universe, masses):
    """Exact min over disjoint nonempty pairs A, B subsets of the universe of
    Cap(A, B)/(m(A) ^ m(B)); everything outside A u B is free.

    Normalization: A holds the smallest index of the union.  For each union
    U the Schur complement of k_amb onto U turns every split into a quadratic
    form, batched over unions of equal size.  Witness rule: among the
    minimal-value splits, the smallest (A, B) pair of slot tuples in Python
    tuple order.  A chunk whose minimum is NaN or above the best so far
    offers nothing; any other chunk picks its smallest tied split in numpy
    (_first_tied_split: the tied entries are filtered key column by key
    column, each column gathered from the union slots through the split
    positions of _split_table, with no sorting) and offers only that one to
    the running best.

    Evaluation order: a split's form is the sum, from 0.0, of the Schur
    entries of A x A in row-major slot order, which is what
    np.einsum("ps,nst,pt->np") computes with the zero terms of B dropped.
    Route (_split_forms): a chunk of at least _CUBE_MIN unions x splits
    whose Schur entries are all finite is summed on the split hypercube,
    any other chunk by the einsum; both give the same bits.  Raises
    InputError when no split value is a number (every Schur block
    overflowed).
    """
    p = len(universe)
    universe = np.asarray(universe, dtype=int)
    masses = np.asarray(masses, dtype=float)
    d_amb = k_amb.shape[0]
    best = None
    examined = 0
    for u in range(2, p + 1):
        t, pos, cube = _split_table(u)
        combos = _combinations(p, u)
        chunk = max(1, min(_CHUNK, (1 << 22) // (len(t) + 1)))
        for lo in range(0, len(combos), chunk):
            part = combos[lo : lo + chunk]
            rows = universe[part]
            kuu = k_amb[rows[:, :, None], rows[:, None, :]]
            d = d_amb - u
            if d:
                elim = _complement(rows, d_amb)
                kue = k_amb[rows[:, :, None], elim[:, None, :]]
                kee = k_amb[elim[:, :, None], elim[:, None, :]]
                x = np.linalg.solve(kee, kue.transpose(0, 2, 1))
                s_u = kuu - kue @ x
            else:
                s_u = kuu
            quad = _split_forms(t, s_u, cube)
            m_u = masses[part]
            # the masses in the memory layout of quad (the hypercube gives a
            # transposed view), so the division reads both alike; the einsum
            # sums each entry in the same order for either output axis order
            if quad.flags.c_contiguous:
                m_a = np.einsum("ps,ns->np", t, m_u)
            else:
                m_a = np.einsum("ps,ns->pn", t, m_u).T
            m_b = m_u.sum(axis=1)[:, None] - m_a
            vals = quad / np.minimum(m_a, m_b)
            examined += vals.size
            vmin = vals.min()
            # with vmin NaN no entry equals it; above the best, _better
            # would reject every tied split
            if np.isnan(vmin) or (best is not None and vmin > best[0]):
                continue
            key = _first_tied_split(part, pos, vals == vmin)
            best = _better(best, float(vmin), key)
    if best is None:
        raise InputError("non-finite values in every pair split")
    return best[0], best[1], examined


def _levels(vec):
    """Superlevel slot sets of a signed field, largest value first."""
    out = []
    for thresh in sorted({x for x in vec if x > 1e-12}, reverse=True):
        out.append(tuple(int(i) for i in np.nonzero(vec >= thresh - 1e-15)[0]))
    return out


def _screen_single(k_amb, universe, masses, order, cands):
    """The candidates of _heuristic_single that may be the exact minimum.

    With G = k_amb^{-1}, Cap(A) = 1^T (G_AA)^{-1} 1.  The superlevel sets
    are the prefixes of order, so with L the lower Cholesky factor of
    G[order, order] and z = L^{-1} 1, Cap(prefix_k) = z_1^2 + ... + z_k^2;
    a singleton's capacity is 1 / G_ii.  One factorization of k_amb, its
    inverse, one of the chain and one triangular solve screen them all.

    Margin: delta = _SCREEN_SLACK * n * kappa^2 * u, kappa the condition
    number of k_amb (LAPACK's estimate on the same factor) and u the unit
    roundoff; kappa is squared because G is formed explicitly.  If every
    screened value is within a relative delta of its exact value, the exact
    minimum, and every candidate tied with it, has a screened value of at
    most vmin * (1 + delta) / (1 - delta), vmin the least screened value;
    those candidates are kept.  Everything is kept when a factorization
    fails, a screened value is not finite or delta >= 1/4.
    """
    keep_all = np.ones(len(cands), dtype=bool)
    n = k_amb.shape[0]
    upper, info = lapack.dpotrf(k_amb)
    if info:
        return keep_all
    rcond, info = lapack.dpocon(upper, np.abs(k_amb).sum(axis=0).max())
    # delta >= 1/4 exactly when rcond^2 <= 4 * slack * n * u
    if info or not rcond * rcond > 4 * _SCREEN_SLACK * n * _UNIT_ROUNDOFF:
        return keep_all
    delta = _SCREEN_SLACK * n * _UNIT_ROUNDOFF / (rcond * rcond)
    g, _ = lapack.dpotri(upper)
    g = np.triu(g) + np.triu(g, 1).T
    sizes = np.array([len(slots) for slots in cands])
    chain = order[: sizes.max()]
    lower, info = lapack.dpotrf(g[np.ix_(universe[chain], universe[chain])], lower=1)
    if info:
        return keep_all
    z, _ = lapack.dtrtrs(lower, np.ones(len(chain)), lower=1)
    caps = np.cumsum(z * z)
    mass = np.cumsum(masses[chain])
    first = np.array([slots[0] for slots in cands])
    vals = np.where(sizes == 1,
                    1.0 / (g.diagonal()[universe[first]] * masses[first]),
                    caps[sizes - 1] / mass[sizes - 1])
    if not np.isfinite(vals).all():
        return keep_all
    return vals <= vals.min() * ((1 + delta) / (1 - delta))


def _heuristic_single(k_amb, universe, masses, field):
    """Certified upper bound from superlevel sets of a guiding field plus
    singletons: screen them all, then evaluate the survivors exactly.

    Screen (_screen_single): one O(n^3) pass gives every candidate's
    capacity from a factorization of k_amb, and keeps each candidate whose
    screened value is within the relative margin delta = _SCREEN_SLACK *
    n * kappa^2 * u of the least one; all are kept when a factorization
    fails, a screened value is not finite or delta >= 1/4.  The keep-all
    case runs the same loop below.

    Exact evaluation: kept candidates of one size share _capacity_ratios
    solves; each row is the arithmetic of a solve on its own.  The running
    best takes them in candidate order.  So value, witness
    (exact ties go to the smallest candidate) and the evaluation count,
    which counts every candidate, are bit-identical to solving every
    candidate exactly; the screen only decides which solves to skip.
    """
    universe = np.asarray(universe, dtype=int)
    masses = np.asarray(masses, dtype=float)
    vec = np.asarray(field, dtype=float)
    if vec.sum() < 0:
        vec = -vec
    cands = list(dict.fromkeys(_levels(vec) + [(i,) for i in range(len(universe))]))
    # every superlevel set is a prefix of the slots in descending field order
    order = np.argsort(-vec, kind="stable")
    keep = _screen_single(k_amb, universe, masses, order, cands)
    kept = [cands[c] for c in np.flatnonzero(keep)]
    vals = _by_shape([(c,) for c in kept],
                     lambda a: _capacity_ratios(k_amb, universe[a], masses[a].sum(axis=1)))
    best = None
    for slots, val in zip(kept, vals):
        best = _better(best, val, slots)
    return best[0], best[1], len(cands)


def _heuristic_pair(k_amb, universe, masses, field):
    """Upper bound for a pair constant: positive and negative superlevel sets
    of a guiding field plus singletons, all disjoint combinations.  Pairs of
    one shape share _capacity_ratios solves and the running best takes them
    in candidate order: the bits of solving each pair on its own."""
    universe = np.asarray(universe, dtype=int)
    masses = np.asarray(masses, dtype=float)
    vec = np.asarray(field, dtype=float)
    singles = [(i,) for i in range(len(universe))]
    cands_a = list(dict.fromkeys(_levels(vec) + singles))
    cands_b = [(cb, set(cb)) for cb in dict.fromkeys(_levels(-vec) + singles)]
    # A holds the smaller first slot (candidates are ascending slot tuples)
    pairs = [(ca, cb) if ca[0] < cb[0] else (cb, ca)
             for ca in cands_a for cb, set_b in cands_b if set_b.isdisjoint(ca)]

    def ratios(a, b):
        mass = np.minimum(masses[a].sum(axis=1), masses[b].sum(axis=1))
        return _capacity_ratios(k_amb, universe[a], mass, universe[b])

    best = None
    for key, val in zip(pairs, _by_shape(pairs, ratios)):
        best = _better(best, val, key)
    return best[0], best[1], len(pairs)


def _by_shape(cands, values):
    """values(*sides) of every candidate (A,) or (A, B), in candidate order;
    the candidates whose slot tuples have the same lengths go to one call,
    with one (N, len) array of slots per side."""
    groups = {}
    for i, c in enumerate(cands):
        groups.setdefault(tuple(map(len, c)), []).append(i)
    out = np.empty(len(cands))
    for members in groups.values():
        sides = zip(*(cands[i] for i in members))
        out[members] = values(*(np.array(side, dtype=int) for side in sides))
    return out


def _ids(order, slots):
    return tuple(order[i] for i in slots)


_SINGLE = "universe size %d exceeds single-set budget %d"
_PAIR = "pair universe size %d exceeds pair budget %d"


def _over_budget(size, limit, message, heuristic):
    """Whether an enumeration over `size` slots is past its budget `limit`,
    so that only the heuristic answers; past it without heuristic, raises
    BudgetError (message, _SINGLE or _PAIR, names the budget).  Called
    before any operator is assembled."""
    if size <= limit:
        return False
    if not heuristic:
        raise BudgetError((message + "; pass heuristic=True for a certified upper bound")
                          % (size, limit))
    return True


def _alpha_d_raw(graph, subset, budget, heuristic):
    """alpha_D of a subset against its own vertex boundary, ambient rows."""
    inside = set(subset)
    order = [v for v in graph.vertices if v in inside]
    over = _over_budget(len(order), budget.single, _SINGLE, heuristic)
    k = stiffness_matrix(graph)
    pos = [graph.index[v] for v in order]
    k_amb = k[np.ix_(pos, pos)]
    universe = list(range(len(order)))
    masses = [graph.mass[v] for v in order]
    if over:
        res = dirichlet_spectrum(graph, order, 1)
        val, slots, n = _heuristic_single(k_amb, universe, masses, res.vectors[:, 0])
        return ConstantResult(val, _ids(order, slots), n, heuristic=True)
    val, slots, n = _min_single(k_amb, universe, masses)
    return ConstantResult(val, _ids(order, slots), n)


@_finite
def alpha_dirichlet(domain, budget=None, heuristic=False):
    """alpha_D(Omega) = min over nonempty A in Omega of Cap_Omega(A)/m(A).

    Exact within budget; ties go to the lexicographically smallest index set.
    Rows of Omega agree in G and G_Omega, so the ambient stiffness serves.
    """
    budget = budget or DEFAULT_BUDGET
    return _alpha_d_raw(domain.graph, domain.interior, budget, heuristic)


def _pair_constant(k_amb, order, universe, masses, over, field, connected=False):
    """The pair constant on the universe rows of k_amb: by the heuristic when
    over (_over_budget), else exactly.

    connected: the rows of k_amb are a connected closure, so every pair
    capacity is positive; a minimal value <= 0 then means the Schur
    complement cancelled in floating point (say weights over 1e-300..1e300),
    and raises SingularMatrixError instead of being reported."""
    if over:
        val, (sa, sb), n = _heuristic_pair(k_amb, universe, masses, field())
    else:
        val, (sa, sb), n = _min_pair(k_amb, universe, masses)
    if connected and val <= 0:
        raise SingularMatrixError(
            "minimal pair value %r on a connected closure, where every capacity is "
            "positive: the eliminated block cancelled in floating point" % val)
    return ConstantResult(val, (_ids(order, sa), _ids(order, sb)), n, heuristic=over)


@_finite
def alpha_neumann(domain, budget=None, heuristic=False):
    """alpha_N(Omega): pairs of disjoint nonempty subsets of Omega, capacity
    within G_Omega (boundary vertices stay free).  A minimal value <= 0,
    which only cancellation can give, raises SingularMatrixError."""
    budget = budget or DEFAULT_BUDGET
    n = len(domain.interior)
    if n < 2:
        raise InputError("alpha_N needs |Omega| >= 2")
    over = _over_budget(n, budget.pair, _PAIR, heuristic)
    k_amb = stiffness_matrix(domain.induced)
    masses = [domain.graph.mass[v] for v in domain.interior]

    def field():
        return neumann_spectrum(domain, 2).vectors[:, 1]

    return _pair_constant(
        k_amb, domain.interior, list(range(n)), masses, over, field, connected=True
    )


@_finite
def alpha_steklov(domain, budget=None, heuristic=False):
    """alpha_S(Omega): pairs of disjoint nonempty boundary subsets, capacity
    within G_Omega.  A minimal value <= 0, which only cancellation can give,
    raises SingularMatrixError."""
    budget = budget or DEFAULT_BUDGET
    if len(domain.boundary) < 2:
        raise InputError("alpha_S needs |delta Omega| >= 2")
    over = _over_budget(len(domain.boundary), budget.pair, _PAIR, heuristic)
    k_amb = stiffness_matrix(domain.induced)
    n = len(domain.interior)
    universe = list(range(n, n + len(domain.boundary)))
    masses = [domain.graph.mass[v] for v in domain.boundary]

    def field():
        return steklov_spectrum(domain, 2).vectors[:, 1]

    return _pair_constant(
        k_amb, domain.boundary, universe, masses, over, field, connected=True
    )


@_finite
def alpha_ds(domain, Y, budget=None):
    """alpha_DS for Y inside the domain: min over nonempty A in Y cap dOmega
    of Cap_Omega(A, boundary-of-Y-in-G_Omega)/m(A).

    INFINITE when Y has no boundary vertex.  When Y is the whole closure the
    sink is empty and the constant is 0 (a constant test function).  The
    equilibrium potential vanishes beyond the sink, so grounding everything
    outside Y is exact.
    """
    budget = budget or DEFAULT_BUDGET
    domain.induced.check_vertices(Y, "Y")
    yset = set(Y)
    if not yset:
        raise InputError("Y must be nonempty")
    order = [v for v in domain.closure if v in yset]
    inner = [v for v in order if v in domain.boundary_index]
    if not inner:
        return ConstantResult(INFINITE, (), 0)
    sink = {
        y for v in order for y, _ in domain.induced.adjacency[v] if y not in yset
    }
    if not sink:
        return ConstantResult(0.0, (inner[0],), 0)
    if len(inner) > budget.single:
        raise BudgetError(_SINGLE % (len(inner), budget.single))
    k = stiffness_matrix(domain.induced)
    pos = [domain.closure_index[v] for v in order]
    k_amb = k[np.ix_(pos, pos)]
    slot = {v: i for i, v in enumerate(order)}
    universe = [slot[v] for v in inner]
    masses = [domain.graph.mass[v] for v in inner]
    val, slots, n = _min_single(k_amb, universe, masses)
    return ConstantResult(val, tuple(inner[i] for i in slots), n)


@_finite
def beta_steklov(graph, omega, budget=None, heuristic=False):
    """beta_S(Omega): pair constant with full-graph capacities (no edges
    removed, everything outside the pair free)."""
    budget = budget or DEFAULT_BUDGET
    graph.check_vertices(omega, "Omega")
    oset = set(omega)
    if len(oset) < 2:
        raise InputError("beta_S needs |Omega| >= 2")
    if len(oset) == len(graph.vertices):
        raise InputError("Omega must be a proper subset")
    order = [v for v in graph.vertices if v in oset]
    over = _over_budget(len(order), budget.pair, _PAIR, heuristic)
    k_amb = stiffness_matrix(graph)
    universe = [graph.index[v] for v in order]
    masses = [graph.mass[v] for v in order]

    def field():
        return hm_dtn_spectrum(graph, order, 2).vectors[:, 1]

    return _pair_constant(k_amb, order, universe, masses, over, field)


# ---------------------------------------------------------------------------
# min-max packing of disjoint tuples


@functools.lru_cache(maxsize=16)  # all n <= 12 (the tuple budget): about 3 MB
def _submask_pairs(n, dtype):
    """The 3**n (mask, part) pairs of n slots, part a submask of mask,
    grouped by ascending mask and shared read-only: (part, mask ^ part, the
    start of each mask's group)."""
    mask = part = np.zeros(1, dtype=dtype)
    for b in range(n):  # slot b is outside the mask, in the rest or in the part
        bit = dtype(1 << b)
        mask = np.concatenate([mask, mask | bit, mask | bit])
        part = np.concatenate([part, part, part | bit])
    by_mask = np.argsort(mask, kind="stable")
    out = (part[by_mask], (mask ^ part)[by_mask],
           np.searchsorted(mask[by_mask], np.arange(1 << n)))
    for a in out:
        a.flags.writeable = False
    return out


def _min_tuple(arity, objective, budget, slot_ids):
    """Min over disjoint arity-tuples of nonempty parts of the max part
    objective over the slots of slot_ids; parts capped at budget.part_cap
    slots when set.

    objective is batched: it takes an (N, s) integer array holding every
    part of one size s, one ascending slot tuple per row in
    itertools.combinations order, and returns the N part values (floats or
    INFINITE) in row order.  Every part counts as one evaluation.

    The part values are ranked as integers: the sorted distinct floats, then
    INFINITE, and one rank past that for a slot mask that is no part (the
    empty mask included).  best[j][M] is the least rank, over packings of j
    disjoint parts inside slot mask M, of the largest part: best[0] is -1,
    best[1] the subset minimum of the ranks, and best[j][M] the min over
    submasks P of M of max(rank[P], best[j - 1][M ^ P]) (_submask_pairs).
    The optimum is that recurrence for j = arity at the full mask only,
    returned as the value of the first part of its rank.  The witness is
    the lexicographically smallest optimal packing (parts sorted by slot
    tuple), found depth first over the parts of rank at most the optimum,
    with best[j] as the test that j more parts fit.
    """
    n_slots = len(slot_ids)
    if arity < 1:
        raise InputError("tuple arity must be positive")
    if arity > n_slots:
        raise InputError("arity %d exceeds universe size %d" % (arity, n_slots))
    if n_slots > budget.tuples:
        raise BudgetError("universe size %d exceeds tuple budget %d"
                          % (n_slots, budget.tuples))
    cap = budget.part_cap if budget.part_cap is not None else n_slots
    if cap < 1:
        raise InputError("part cap must be positive")
    values, tuples, masks = [], [], []
    for s in range(1, min(cap, n_slots) + 1):
        rows = _combinations(n_slots, s).astype(np.int64)
        values.extend(objective(rows))
        tuples.extend(map(tuple, rows.tolist()))
        masks.append((1 << rows).sum(axis=1))
    masks = np.concatenate(masks)
    infinite = np.array([is_infinite(v) for v in values], dtype=bool)
    finite = [v for v in values if not is_infinite(v)]
    _, first, ranks = np.unique(np.array(finite, dtype=float), return_index=True,
                                return_inverse=True)
    top = len(first)  # the rank of INFINITE
    size = 1 << n_slots
    dtype = np.min_scalar_type(-(size + 1)).type
    rank = np.full(size, top + 1, dtype=dtype)
    rank[masks[~infinite]] = ranks
    rank[masks[infinite]] = top
    best = [np.full(size, -1, dtype=dtype), rank.copy()]
    for b in range(n_slots):
        view = best[1].reshape(-1, 2, 1 << b)
        np.minimum(view[:, 1], view[:, 0], out=view[:, 1])
    for j in range(2, arity):
        part, other, starts = _submask_pairs(n_slots, dtype)
        best.append(np.minimum.reduceat(np.maximum(rank[part], best[j - 1][other]), starts))
    # M ^ P is size - 1 - P at the full mask
    opt = int(np.maximum(rank, best[arity - 1][::-1]).min())
    allowed = sorted((tuples[i], int(masks[i]))
                     for i in np.flatnonzero(rank[masks] <= opt).tolist())

    def dfs(start, need, free):
        if need == 0:
            return ()
        for i in range(start, len(allowed)):
            slots, pmask = allowed[i]
            rest = free & ~pmask
            if rest | pmask == free and best[need - 1][rest] <= opt:
                sub = dfs(i + 1, need - 1, rest)
                if sub is not None:
                    return (slots,) + sub
        return None

    packing = dfs(0, arity, size - 1)
    witness = tuple(tuple(slot_ids[i] for i in slots) for slots in packing)
    return ConstantResult(INFINITE if opt == top else finite[first[opt]], witness,
                          len(values))


def _tuple_constant(graph, W, what, arity, budget, inner=None):
    """_min_tuple over the window W of graph (checked as `what`; slots in
    vertex order), each part grounded outside itself in graph: its alpha_DS
    with A inside the vertices of inner, or with inner None its first
    Dirichlet eigenvalue.  The window's stiffness block and masses are
    gathered at the first part evaluation, after _min_tuple's checks, so a
    window past the tuple budget assembles nothing."""
    graph.check_vertices(W, what)
    wset = set(W)
    order = [v for v in graph.vertices if v in wset]

    @functools.cache
    def objective():
        pos = [graph.index[v] for v in order]
        block = stiffness_matrix(graph)[np.ix_(pos, pos)]
        masses = np.array([graph.mass[v] for v in order])
        if inner is not None:
            return _ds_objective(block, [i for i, v in enumerate(order) if v in inner], masses)

        def eigenvalues(parts):
            sub = block[parts[:, :, None], parts[:, None, :]]
            d = 1.0 / np.sqrt(masses[parts])
            return np.linalg.eigvalsh(sub * d[:, :, None] * d[:, None, :])[:, 0].tolist()

        return eigenvalues

    return _min_tuple(arity, lambda parts: objective()(parts), budget or DEFAULT_BUDGET, order)


def _ds_objective(k_amb, boundary_slots, masses):
    """Batched alpha_DS of parts, the objective for _min_tuple.

    A part's value is the min over nonempty A inside its boundary slots of
    the grounded energy of A, with the rest of the part free and everything
    outside it grounded (which is exact), over m(A); INFINITE when the part
    has no boundary slot.  Slots are rows of k_amb and indices of masses.
    The (part, A) candidates of each A size are solved in chunks of one
    batched solve, with the same blocks as a per-part _min_single.
    """
    is_bnd = np.zeros(k_amb.shape[0], dtype=bool)
    is_bnd[list(boundary_slots)] = True

    def objective(parts):
        n, s = parts.shape
        inner = is_bnd[parts]
        best = np.full(n, np.inf)
        for a in range(1, s + 1):
            local = _combinations(s, a)
            rest = _complement(local, s)
            owner, pick = np.nonzero(inner[:, local].all(axis=2))
            for lo in range(0, len(owner), _CHUNK):
                i, j = owner[lo : lo + _CHUNK], pick[lo : lo + _CHUNK]
                rows = parts[i[:, None], local[j]]
                vals = _grounded_values(k_amb, rows, parts[i[:, None], rest[j]])
                vals /= masses[rows].sum(axis=1)
                np.minimum.at(best, i, vals)
        return [v if has else INFINITE
                for v, has in zip(best.tolist(), inner.any(axis=1).tolist())]

    return objective


@_finite
def gamma_tilde_dirichlet(graph, W, k, budget=None):
    """min over disjoint k-tuples of parts of W of the max first Dirichlet
    eigenvalue of each part (ambient grounding outside the part)."""
    return _tuple_constant(graph, W, "W", k, budget)


@_finite
def gamma_k_dirichlet(graph, W, k, budget=None):
    """Gamma_k^D over W: min-max of alpha_D(part) over disjoint k-tuples."""
    return _tuple_constant(graph, W, "W", k, budget, inner=graph.index)  # A anywhere


@_finite
def kappa_steklov(domain, k, budget=None):
    """kappa_{k+1}: min-max of alpha_DS^Omega(part) over disjoint
    (k+1)-tuples of nonempty subsets of the closure."""
    if not 1 <= k <= len(domain.boundary) - 1:
        raise InputError("k must be in 1..|boundary|-1")
    return _tuple_constant(domain.induced, domain.closure, "the closure", k + 1, budget,
                           inner=domain.boundary_index)


@_finite
def gamma_k_steklov(domain, W, k, budget=None):
    """Gamma_k^S(W) inside a truncated infinite domain: min-max of
    alpha_DS(part) over disjoint k-tuples of subsets of W."""
    return _tuple_constant(domain.induced, W, "W", k, budget, inner=domain.boundary_index)


@_finite
def beta_tuple(graph, omega, k, budget=None):
    """beta_{k+1}: min-max over disjoint (k+1)-tuples of subsets of V of
    inf_{A in part cap Omega} Cap(A, V minus part)/m(A)."""
    graph.check_vertices(omega, "Omega")
    oset = set(omega)
    if not 1 <= k <= len(oset) - 1:
        raise InputError("k must be in 1..|Omega|-1")
    return _tuple_constant(graph, graph.vertices, "V", k + 1, budget, inner=oset)


# ---------------------------------------------------------------------------
# limits along exhaustions


def _monotone_scan(values, enforce):
    ok = True
    for prev, cur in zip(values, values[1:]):
        if is_infinite(cur):
            bad = not is_infinite(prev)
        elif is_infinite(prev):
            bad = False
        else:
            bad = cur > prev + 1e-12 * max(1.0, abs(prev))
        if bad:
            if enforce:
                raise InputError(
                    "constant increased along the exhaustion; steps are not nested"
                )
            ok = False
    return ok


def _limit(family, evaluate):
    """The LimitReport of evaluate(step).value along an exhaustion.

    evaluate maps one step to a result with a .value, and a .heuristic when
    it may be a heuristic upper bound.  Non-increase is an exhaustion
    property, so an increase beyond float slack is raised; once a heuristic
    answered a step, an increase is only recorded in .monotone.
    """
    steps = list(family)
    if not steps:
        raise InputError("no exhaustion steps")
    values, heuristic = [], False
    for step in steps:
        res = evaluate(step)
        values.append(res.value)
        heuristic = heuristic or getattr(res, "heuristic", False)
    if len(values) > 1 and not (is_infinite(values[-1]) or is_infinite(values[-2])):
        error_bar = abs(values[-1] - values[-2])
    elif len(values) > 1:
        error_bar = INFINITE
    else:
        error_bar = 0.0
    return LimitReport(
        indices=[step.index for step in steps],
        values=values,
        limit_estimate=values[-1],
        error_bar=error_bar,
        monotone=_monotone_scan(values, enforce=not heuristic),
        heuristic=heuristic,
    )


@_finite
def alpha_dirichlet_limit(family, budget=None, heuristic=False):
    """Per-step alpha_D(W_i) along an exhaustion; non-increasing, and the
    last value estimates alpha_D of the infinite graph."""
    budget = budget or DEFAULT_BUDGET
    return _limit(family, lambda step: _alpha_d_raw(step.graph, step.W, budget, heuristic))


@_finite
def alpha_steklov_limit(family, budget=None):
    """Per-step alpha_DS(W_i) along an exhaustion of the closure of an
    infinite U; the non-increasing values estimate alpha_S(U)."""
    budget = budget or DEFAULT_BUDGET
    return _limit(family, lambda step: alpha_ds(step.domain, step.W, budget))
