"""Isocapacitary constants by exact subset and tuple enumeration.

Single-set constants (alpha_D, alpha_DS) minimize a grounded capacity over
mass; pair constants (alpha_N, alpha_S, beta_S) minimize a two-set capacity
over the smaller mass; tuple constants (gamma-tilde, Gamma_k, kappa, beta_k+1)
are min-max packings of disjoint parts, read from one table of the least
largest-part rank over slot masks (_min_tuple); the alpha_DS part values of
a window are one table by slot mask, built on its union lattice
(_ds_table), the unions' Schur forms and the doubling kernel shared with
the pair enumerator (_union_forms, _doubling).  What a lattice level
needs that depends only on its shape (its unions, their parents and the
offsets of the rank-one step) is built once and cached (_level_plan).
Every constant reads one operator, the Schur form of its universe
(_reduce), on the route of linear_core.block_stiffness: from the dense
stiffness of the whole graph only below SPARSE_MIN_DIM eliminated rows
(graph vertices, if none).  All
enumerators are exhaustive within the budget and reduce by (value,
lexicographic witness), so results do not depend on evaluation order or
chunking.  The public enumerators run under spectra._finite: no
floating-point warnings, and a value that is not finite (other than
INFINITE) is an InputError.
"""

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import lapack

from .errors import BudgetError, InputError, SingularMatrixError
from .graph_core import is_connected
from .infinity import INFINITE, is_infinite
# stiffness_matrix is unused: a name of this module that perfbench traces
from .linear_core import block_stiffness, schur_solver, stiffness_matrix  # noqa: F401
from .spectra import (_finite, dirichlet_spectrum, hm_dtn_spectrum, neumann_spectrum,
                      steklov_spectrum)

_CHUNK = 4096
# Elements of one batched block, 8 MB of float64: rows x p^2 of a
# _capacity_ratios solve on a p-slot root, which bounds each of its gathered
# blocks (a candidate larger than the budget is solved alone, as it would be
# unbatched), and the one buffer of a _min_pair or _ds_table call, which
# holds every array of the doubling of its largest chunk (_workspace),
# whatever the pair budget.
# Within the tuple budget of 12 slots every other _ds_table array (the
# table, one level of union forms, the inner forms of one r) is under 2^17
# elements.
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


class Parts(tuple):
    """A witness made of parts, each a tuple of vertex ids: the pair of a
    pair constant or the packing of a tuple constant.  Its type says that it
    nests, since a single-set witness of tuple-valued ids (lattice points)
    looks the same; it compares equal to the plain tuple of its parts."""


@dataclass
class ConstantResult:
    value: object  # float or INFINITE
    witness: tuple  # the vertex ids of a set, or Parts
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


def _grounded_values(root, combos, free):
    """Energies of the minimizers with f = 1 on each combo, solved on the
    matching free rows; every other row of root is grounded.

    Vertices absent from root's index set are grounded implicitly: their
    edges only contribute to the retained diagonal.  combos (N, s) and free
    (N, d) are arrays of ascending row indices; one batched solve per call.
    """
    kaa = root[combos[:, :, None], combos[:, None, :]]
    tops = kaa.sum(axis=(1, 2))
    if free.shape[1] == 0:
        return tops
    kfa = root[free[:, :, None], combos[:, None, :]]
    c = kfa.sum(axis=2)
    kff = root[free[:, :, None], free[:, None, :]]
    x = np.linalg.solve(kff, c[..., None])[..., 0]
    return tops - np.einsum("nd,nd->n", c, x)


def _capacity_ratios(root, sources, divisors, sinks=None):
    """Cap(A) / divisor for each row A of sources ((N, s) ascending rows of
    the p-row root): f = 1 on A, 0 on the rows of sinks ((N, t), when given)
    and off root, free elsewhere.  The one evaluator of single-set and
    heuristic pair candidates, solved in chunks of _SOLVE_ELEMENTS // p^2
    rows (at least one); each row is the arithmetic of a solve on its own."""
    p = root.shape[0]
    fixed = sources if sinks is None else np.hstack([sources, sinks])
    step = max(1, _SOLVE_ELEMENTS // p ** 2)
    caps = np.empty(len(sources))
    for lo in range(0, len(sources), step):
        rows = sources[lo : lo + step]
        free = _complement(fixed[lo : lo + step], p)
        caps[lo : lo + step] = _grounded_values(root, rows, free)
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


def _first_tied_split(ties):
    """The smallest (A, B) pair of slot tuples, in Python tuple order, among
    the tied splits of ties: (part, idx) records, part a chunk's union rows
    (ascending slots, signed integers) and idx flat indices into its
    (splits, unions) values, splits in _split_table's row order.

    Key column c of a (union, split) entry is part[union, pos[split, c]],
    pos = _split_table(u), with -1 for the padding position u, so a shorter
    tuple orders before its extensions.  A record's entries are filtered to
    the least value of each column in turn, until one is left (distinct
    entries have distinct keys); the records' winners compare as tuples."""
    firsts = []
    for part, idx in ties:
        u, pos = part.shape[1], _split_table(part.shape[1])
        pi, ui = np.divmod(idx, len(part))
        ext = np.hstack([part, np.full((len(part), 1), -1, dtype=part.dtype)])
        for c in range(2 * u):
            if len(ui) == 1:
                break
            col = ext[ui, pos[pi, c]]
            sel = col == col.min()
            ui, pi = ui[sel], pi[sel]
        key = ext[ui[0], pos[pi[0]]].tolist()  # padded with -1, slots are >= 0
        firsts.append((tuple(i for i in key[:u] if i >= 0), tuple(i for i in key[u:] if i >= 0)))
    return min(firsts)


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


@functools.lru_cache(maxsize=16)  # all u <= 16 (the pair budget): about 2 MB
def _split_table(u):
    """The int8 positions of the splits of a u-slot union with slot 0 in A
    and B nonempty, shared read-only: row r puts slot j + 1 in A when bit j
    of r is set, and lists A's slots ascending, then B's ascending, each
    side padded to u columns with u."""
    bits = np.arange((1 << (u - 1)) - 1)
    in_a = np.ones((len(bits), u), dtype=bool)
    in_a[:, 1:] = (bits[:, None] >> np.arange(u - 1)) & 1
    slot = np.arange(u, dtype=np.int8)
    pos = np.sort(np.hstack([np.where(in_a, slot, u), np.where(in_a, u, slot)])
                  .reshape(len(bits), 2, u), axis=2).reshape(len(bits), 2 * u).astype(np.int8)
    pos.flags.writeable = False
    return pos


def _min_single(root, masses):
    """Exact min over nonempty sets A of the p slots of the root form
    (_reduce) of grounded-energy(A)/mass(A): f = 1 on A, free on the other
    slots.  Returns (value, witness slots, count).

    Witness rule: among all candidates with the minimal value (exact float
    equality), the lexicographically smallest slot tuple.  Each subset size
    (one _capacity_ratios call) offers its smallest tied row once to the
    running best, none if a value is NaN or its minimum is above the best so
    far.  Raises InputError when no value is a number.
    """
    p = len(masses)
    best = None
    examined = 0
    for s in range(1, p + 1):
        combos = _combinations(p, s)
        vals = _capacity_ratios(root, combos, masses[combos].sum(axis=1))
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


class _Level(NamedTuple):
    """The part of _union_forms that depends only on a level's shape: the
    C(p, u) unions of u slots of p (rows of combos, ascending slots) from
    their parents, the C(p, u + 1) unions one slot larger.  A union U drops
    v, its smallest missing slot, from its parent: U's slots 0..v-1 keep
    their positions there and the others move one up, k_i = i + (i >= v).
    The parent level is held as (u + 1, u + 1, C(p, u + 1)) forms, so flat
    offsets into it are fixed: S'[k_i, k_j] is at rows[i] + cols[j], b_i =
    S'[k_i, v] at b_at[i] and c = S'[v, v] at c_at (_union_forms)."""

    combos: np.ndarray
    v: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    b_at: np.ndarray
    c_at: np.ndarray


@functools.lru_cache(maxsize=256)  # every level of every p <= 16 (the pair budget): 13 MB
def _level_plan(p, u):
    """The _Level of the unions of u of p slots, shared read-only; the
    p-slot level, the root, has no parent, and its offsets are None.  Each
    level is made from the one above, every union as a child of its parent
    P, in the order (j, P's row): P without its slot j, for each j before
    P's smallest missing slot, is a union whose parent is P and whose v is
    j.  Every union of u slots is one such child, once, so no lookup by
    slot mask is needed; the order of the unions decides no bit of an
    enumerator.  The offsets are int32 while they fit; with the slots and
    v, every level of p = 16 holds 7.0 MB, of p = 13 0.7 MB."""
    if u == p:
        v = np.array([p])
        v.flags.writeable = False
        return _Level(_combinations(p, p), v, None, None, None, None)
    parent = _level_plan(p, u + 1)
    w, stride = u + 1, len(parent.v)
    dtype = np.int32 if w * w * stride < 1 << 31 else np.int64
    v, col = np.nonzero(np.arange(w)[:, None] < parent.v)
    v, col = v.astype(dtype), col.astype(dtype)
    pos = np.arange(u, dtype=dtype)[:, None]
    keep = pos + (pos >= v)
    cols = keep * stride
    rows = cols * w + col
    drop = v * stride
    level = _Level(parent.combos[col[:, None], keep.T], v, rows, cols, rows + drop,
                   drop * (w + 1) + col)
    for a in level:
        a.flags.writeable = False
    return level


def _union_forms(parents, level, strict=False):
    """The (u, u, N) forms of the N unions of a _Level from parents, the
    forms of the level above: S_U = S'[k, k] - (b_i * b_j) / c, k U's
    positions in its parent, b = S'[k, v] and c = S'[v, v].  With strict,
    a pivot c <= 0 (the parent is not positive definite in floating point)
    raises SingularMatrixError where b is nonzero; with b = 0 (v floats
    free) the step subtracts nothing."""
    flat = parents.reshape(-1)
    forms = flat.take(np.add(level.rows[:, None, :], level.cols, dtype=np.intp))
    b = flat.take(level.b_at)
    drop = b[:, None, :] * b
    pivots = flat.take(level.c_at)
    if strict and (pivots <= 0).any():
        bad = pivots <= 0
        if b[:, bad].any():
            raise SingularMatrixError("Singular matrix")
        pivots[bad] = 1.0  # over b = 0
    drop /= pivots
    forms -= drop
    return forms


def _doubling(q, e, cols, init, two, inc):
    """The doubling kernel of the pair and tuple enumerators, in place over
    n unions (_slabs).  Step t adds one slot to a set A: rows [h, 2h), h =
    2^t, are rows [0, h) with it.  q(A | {s}) = q(A) + e_s(A), e_s(A) =
    init[t] + two[i, t] + ... over the slots i of A that joined at steps i
    < t, in order.  The row sums are doubled in the scratch slab e: those
    of the first b steps, the most whose (b, 2^(b - 1)) block fits in it,
    first and together, one call per earlier step i for all of them; each
    later step then rebuilds its own there, one call per earlier step.
    Each slab of cols (masses, part masks) adds inc[t] at step t.  No array
    is copied."""
    steps, n = init.shape
    b = steps
    while b << (b - 1) > len(e):
        b -= 1
    block = e[: b << (b - 1)].reshape(b, 1 << (b - 1), n)
    block[:, 0] = init[:b]
    for i in range(b - 1):
        np.add(block[i + 1 :, : 1 << i], two[i, i + 1 : b, None],
               out=block[i + 1 :, 1 << i : 2 << i])
    for t in range(steps):
        h = 1 << t
        if t >= b:
            e[0] = init[t]
            for i in range(t):
                np.add(e[: 1 << i], two[i, t], out=e[1 << i : 2 << i])
        np.add(q[:h], block[t, :h] if t < b else e[:h], out=q[h : 2 * h])
        np.add(cols[:, :h], inc[t, :, None], out=cols[:, h : 2 * h])


def _chunk(steps, columns, spare=0):
    """Unions per chunk of a _doubling over steps slots: at most _CHUNK (at
    least one), so that their columns + 2 slabs (_slabs), spare rows more
    and the steps x (steps + columns + 1) start values and increments stay
    within _SOLVE_ELEMENTS."""
    rows = 1 << steps
    return max(1, min(_CHUNK, _SOLVE_ELEMENTS // (rows * (columns + 2 + spare)
                                                   + steps * (steps + columns + 1))))


def _workspace(levels, columns, spare=0):
    """The one buffer of an enumerator call for the _slabs of its chunks
    (_chunk): levels are its (unions, steps) pairs, and the buffer holds
    the largest chunk."""
    return np.empty(max((min(count, _chunk(steps, columns, spare)) * (columns + 2) << steps
                         for count, steps in levels), default=0))


def _slabs(work, n, steps, columns):
    """(q, e, cols): the first columns + 2 slabs of 2^steps rows of n unions
    in the flat buffer work, the last columns being cols."""
    slabs = work[: (columns + 2) * n << steps].reshape(columns + 2, 1 << steps, n)
    return slabs[0], slabs[1], slabs[2:]


def _split_values(s_u, m_u, work):
    """The (splits, n) values Cap(A, B) / min(m_A, m_B) of the splits of n
    unions in _split_table's row order, from their forms s_u (u, u, n) and
    slot masses m_u (n, u), doubled in work (_slabs over u - 1 steps and
    one column, the A-mass).  A starts as {0} and slots 1..u-1 join (the
    last row, all of the union, is no split): the row sum of slot k starts
    as 2 S_0k + S_kk, a slot s before it adds 2 S_sk, and slot k adds m_k
    to the A-mass.  The values overwrite the scratch slab."""
    u, n = len(s_u), len(m_u)
    q, e, cols = _slabs(work, n, u - 1, 1)
    two = s_u + s_u
    q[0], cols[0, 0] = s_u[0, 0], m_u[:, 0]
    _doubling(q, e, cols, two[0, 1:] + s_u.diagonal().T[1:], two[1:, 1:], m_u.T[1:, None])
    splits = len(q) - 1
    mass, vals = cols[0, :splits], e[:splits]
    np.subtract(np.add.reduce(m_u, axis=1), mass, out=vals)
    np.minimum(mass, vals, out=vals)
    return np.divide(q[:splits], vals, out=vals)


def _level_best(forms, combos, masses, best, ties, work):
    """(best, ties, count) after the splits of the unions of combos
    (columns of forms), doubled in chunks in work (_workspace): best the
    least value so far and ties the (part, idx) records of
    _first_tied_split of the chunks that hold it.  A chunk whose minimum is
    NaN or above best adds none; one below starts over."""
    n_all, u = combos.shape
    chunk = _chunk(u - 1, 1)
    for lo in range(0, n_all, chunk):
        part = combos[lo : lo + chunk]
        vals = _split_values(forms[:, :, lo : lo + chunk], masses[part], work)
        vmin = np.minimum.reduce(vals, axis=None)
        if vmin < best:
            best, ties = vmin, []
        if vmin == best:
            ties.append((part, np.flatnonzero(vals == vmin)))
    return best, ties, n_all * ((1 << (u - 1)) - 1)


def _min_pair(root, masses):
    """Exact min over disjoint nonempty pairs A, B of the p slots of the
    root form (_reduce) of Cap(A, B)/(m(A) ^ m(B)); every slot outside
    A u B is free.  A holds the smallest slot of the union.

    Witness rule: among the minimal-value splits (exact float equality),
    the smallest (A, B) pair of slot tuples in Python tuple order.  Each
    chunk that holds the least value so far keeps the flat indices of its
    tied entries (_level_best); the key is built once, at the end, over the
    chunks of the final minimum (_first_tied_split, with no sorting).
    Raises InputError when no split value is a number.

    Evaluation order: the unions go by size from p down to 2, a level of
    _level_plan at a time.  The root is the form of the p-slot union; every
    other one is one rank-one step from its parent's (_union_forms, on the
    level's cached offsets), so a fixed chain of steps from the root.
    Split forms and A-masses are then doubled over A's slots in ascending
    order (_split_values): no bit depends on the visit order or the chunk
    size.

    Workspace: two levels of C(p, u) * u^2 floats, the parents and the
    unions of one size (at most 7.4 MB at p = 16, growing with the budget),
    the tied indices, and one buffer of at most _SOLVE_ELEMENTS floats for
    every array of _split_values (_workspace), sized for the largest level
    and reused by all of them.  The levels' plans are shared, not
    workspace: 7.0 MB at p = 16, held by _level_plan's cache.
    """
    p = len(masses)
    work = _workspace([(math.comb(p, u), u - 1) for u in range(2, p + 1)], 1)
    forms = np.array(root, dtype=float).reshape(p, p, 1)
    best, ties, examined = math.inf, [], 0
    for u in range(p, 1, -1):
        level = _level_plan(p, u)
        if u < p:
            forms = _union_forms(forms, level)
        best, ties, count = _level_best(forms, level.combos, masses, best, ties, work)
        examined += count
    if not ties:
        raise InputError("non-finite values in every pair split")
    return float(best), _first_tied_split(ties), examined


def _levels(vec):
    """Superlevel slot sets of a signed field, largest value first: for each
    distinct value x > 1e-12, in descending order, the ascending slots i
    with vec[i] >= x - 1e-15.  Each set is a prefix of the stable
    descending order of vec (a NaN sorts last and is in none), so one
    searchsorted on the negated sorted values gives every prefix length."""
    order = np.argsort(-vec, kind="stable")
    thresh = np.unique(vec[vec > 1e-12])[::-1]
    counts = np.searchsorted(-vec[order], -(thresh - 1e-15), side="right")
    return [tuple(np.sort(order[:c]).tolist()) for c in counts.tolist()]


def _screen_single(root, masses, order, cands):
    """The candidates of _heuristic_single that may be the exact minimum.

    With G = root^{-1}, Cap(A) = 1^T (G_AA)^{-1} 1.  The superlevel sets
    are the prefixes of order, so with L the lower Cholesky factor of
    G[order, order] and z = L^{-1} 1, Cap(prefix_k) = z_1^2 + ... + z_k^2;
    a singleton's capacity is 1 / G_ii.  One factorization of root, its
    inverse, one of the chain and one triangular solve screen them all.

    Margin: delta = _SCREEN_SLACK * n * kappa^2 * u, kappa the condition
    number of root (LAPACK's estimate on the same factor) and u the unit
    roundoff; kappa is squared because G is formed explicitly.  If every
    screened value is within a relative delta of its exact value, the exact
    minimum, and every candidate tied with it, has a screened value of at
    most vmin * (1 + delta) / (1 - delta), vmin the least screened value;
    those candidates are kept.  Everything is kept when a factorization
    fails, a screened value is not finite or delta >= 1/4.
    """
    keep_all = np.ones(len(cands), dtype=bool)
    n = root.shape[0]
    upper, info = lapack.dpotrf(root)
    if info:
        return keep_all
    rcond, info = lapack.dpocon(upper, np.abs(root).sum(axis=0).max())
    # delta >= 1/4 exactly when rcond^2 <= 4 * slack * n * u
    if info or not rcond * rcond > 4 * _SCREEN_SLACK * n * _UNIT_ROUNDOFF:
        return keep_all
    delta = _SCREEN_SLACK * n * _UNIT_ROUNDOFF / (rcond * rcond)
    g, _ = lapack.dpotri(upper)
    g = np.triu(g) + np.triu(g, 1).T
    sizes = np.array([len(slots) for slots in cands])
    chain = order[: sizes.max()]
    lower, info = lapack.dpotrf(g[np.ix_(chain, chain)], lower=1)
    if info:
        return keep_all
    z, _ = lapack.dtrtrs(lower, np.ones(len(chain)), lower=1)
    caps = np.cumsum(z * z)
    mass = np.cumsum(masses[chain])
    first = np.array([slots[0] for slots in cands])
    vals = np.where(sizes == 1,
                    1.0 / (g.diagonal()[first] * masses[first]),
                    caps[sizes - 1] / mass[sizes - 1])
    if not np.isfinite(vals).all():
        return keep_all
    return vals <= vals.min() * ((1 + delta) / (1 - delta))


def _heuristic_single(root, masses, field):
    """Certified upper bound from superlevel sets of a guiding field plus
    singletons: screen them all, then evaluate the survivors exactly.

    Screen (_screen_single): one O(n^3) pass gives every candidate's
    capacity from a factorization of root, and keeps each candidate whose
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
    vec = np.asarray(field, dtype=float)
    if vec.sum() < 0:
        vec = -vec
    cands = list(dict.fromkeys(_levels(vec) + [(i,) for i in range(len(masses))]))
    # every superlevel set is a prefix of the slots in descending field order
    order = np.argsort(-vec, kind="stable")
    keep = _screen_single(root, masses, order, cands)
    kept = [cands[c] for c in np.flatnonzero(keep)]
    vals = _by_shape([(c,) for c in kept],
                     lambda a: _capacity_ratios(root, a, masses[a].sum(axis=1)))
    best = None
    for slots, val in zip(kept, vals):
        best = _better(best, val, slots)
    return best[0], best[1], len(cands)


def _heuristic_pair(root, masses, field):
    """Upper bound for a pair constant on the slots of its root form:
    positive and negative superlevel sets of a guiding field plus
    singletons, all disjoint combinations.  Pairs of one shape share
    _capacity_ratios solves and the running best takes them in candidate
    order: the bits of solving each pair on its own."""
    vec = np.asarray(field, dtype=float)
    singles = [(i,) for i in range(len(masses))]
    cands_a = list(dict.fromkeys(_levels(vec) + singles))
    cands_b = [(cb, set(cb)) for cb in dict.fromkeys(_levels(-vec) + singles)]
    # A holds the smaller first slot (candidates are ascending slot tuples)
    pairs = [(ca, cb) if ca[0] < cb[0] else (cb, ca)
             for ca in cands_a for cb, set_b in cands_b if set_b.isdisjoint(ca)]

    def ratios(a, b):
        mass = np.minimum(masses[a].sum(axis=1), masses[b].sum(axis=1))
        return _capacity_ratios(root, a, mass, b)

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
        raise BudgetError((message + "; the heuristic (heuristic=True, or --heuristic on "
                           "the command line) gives a certified upper bound") % (size, limit))
    return True


def _reduce(graph, ids, free=None):
    """(root, masses) of a constant over its universe, the vertices ids of
    graph: the Schur complement of the stiffness onto ids, the vertices free
    eliminated (all others when None) as spectra._eliminate does and every
    other vertex grounded, and their masses as a float array.  Schur
    complements compose, so a candidate eliminates only root slots."""
    if free is None:
        inside = set(ids)
        elim = [i for i, v in enumerate(graph.vertices) if v not in inside]
    else:
        elim = [graph.index[v] for v in free]
    root = schur_solver(block_stiffness(graph, elim), [graph.index[v] for v in ids], elim)[0]
    return root, np.array([graph.mass[v] for v in ids])


def _alpha_d_raw(graph, subset, budget, heuristic):
    """alpha_D of a subset against its own vertex boundary: the subset's
    block of the stiffness, everything outside it grounded."""
    inside = set(subset)
    order = [v for v in graph.vertices if v in inside]
    over = _over_budget(len(order), budget.single, _SINGLE, heuristic)
    root, masses = _reduce(graph, order, ())
    if over:
        field = dirichlet_spectrum(graph, order, 1).vectors[:, 0]
        val, slots, n = _heuristic_single(root, masses, field)
    else:
        val, slots, n = _min_single(root, masses)
    return ConstantResult(val, _ids(order, slots), n, heuristic=over)


@_finite
def alpha_dirichlet(domain, budget=None, heuristic=False):
    """alpha_D(Omega) = min over nonempty A in Omega of Cap_Omega(A)/m(A).

    Exact within budget; ties go to the lexicographically smallest index set.
    Rows of Omega agree in G and G_Omega, so the block of G serves.
    """
    budget = budget or DEFAULT_BUDGET
    return _alpha_d_raw(domain.graph, domain.interior, budget, heuristic)


def _pair_constant(root, masses, order, over, field, connected=False):
    """The pair constant on the slots of its root form (_reduce): by the
    heuristic when over (_over_budget), else exactly.

    connected: the root comes from a connected closure, so every pair
    capacity is positive; a minimal value <= 0 then means the Schur
    complement cancelled in floating point (say weights over 1e-300..1e300),
    and raises SingularMatrixError instead of being reported."""
    if over:
        val, (sa, sb), n = _heuristic_pair(root, masses, field())
    else:
        val, (sa, sb), n = _min_pair(root, masses)
    if connected and val <= 0:
        raise SingularMatrixError(
            "minimal pair value %r on a connected closure, where every capacity is "
            "positive: the eliminated block cancelled in floating point" % val)
    return ConstantResult(val, Parts((_ids(order, sa), _ids(order, sb))), n, heuristic=over)


@_finite
def alpha_neumann(domain, budget=None, heuristic=False):
    """alpha_N(Omega): pairs of disjoint nonempty subsets of Omega, capacity
    within G_Omega (the boundary free, eliminated onto Omega's root form).
    A minimal value <= 0 (only cancellation gives one) is a SingularMatrixError."""
    budget = budget or DEFAULT_BUDGET
    n = len(domain.interior)
    if n < 2:
        raise InputError("alpha_N needs |Omega| >= 2")
    over = _over_budget(n, budget.pair, _PAIR, heuristic)
    root, masses = _reduce(domain.induced, domain.interior)

    def field():
        return neumann_spectrum(domain, 2).vectors[:, 1]

    return _pair_constant(root, masses, domain.interior, over, field, connected=True)


@_finite
def alpha_steklov(domain, budget=None, heuristic=False):
    """alpha_S(Omega): pairs of disjoint nonempty boundary subsets, capacity
    within G_Omega (the interior eliminated onto the DtN form).  A minimal
    value <= 0 (only cancellation gives one) is a SingularMatrixError."""
    budget = budget or DEFAULT_BUDGET
    if len(domain.boundary) < 2:
        raise InputError("alpha_S needs |delta Omega| >= 2")
    over = _over_budget(len(domain.boundary), budget.pair, _PAIR, heuristic)
    root, masses = _reduce(domain.induced, domain.boundary)

    def field():
        return steklov_spectrum(domain, 2).vectors[:, 1]

    return _pair_constant(root, masses, domain.boundary, over, field, connected=True)


@_finite
def alpha_ds(domain, Y, budget=None):
    """alpha_DS for Y inside the domain: min over nonempty A in Y cap dOmega
    of Cap_Omega(A, boundary-of-Y-in-G_Omega)/m(A).

    INFINITE when Y has no boundary vertex.  When Y is the whole closure the
    sink is empty and the constant is 0 (a constant test function).  The
    equilibrium potential vanishes beyond the sink, so grounding everything
    outside Y is exact; Y minus dOmega is eliminated (_reduce).
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
    free = [v for v in order if v not in domain.boundary_index]
    val, slots, n = _min_single(*_reduce(domain.induced, inner, free))
    return ConstantResult(val, _ids(inner, slots), n)


@_finite
def beta_steklov(graph, omega, budget=None, heuristic=False):
    """beta_S(Omega): pair constant with full-graph capacities (no edges
    removed, everything outside the pair free): the rest of the graph is
    eliminated onto the root form of Omega, the variant DtN form.  On a
    connected graph a minimal value <= 0 (only cancellation gives one) is a
    SingularMatrixError; on a disconnected one, 0 can be the true value."""
    budget = budget or DEFAULT_BUDGET
    graph.check_vertices(omega, "Omega")
    oset = set(omega)
    if len(oset) < 2:
        raise InputError("beta_S needs |Omega| >= 2")
    if len(oset) == len(graph.vertices):
        raise InputError("Omega must be a proper subset")
    order = [v for v in graph.vertices if v in oset]
    over = _over_budget(len(order), budget.pair, _PAIR, heuristic)
    root, masses = _reduce(graph, order)

    def field():
        return hm_dtn_spectrum(graph, order, 2).vectors[:, 1]

    return _pair_constant(root, masses, order, over, field, connected=is_connected(graph))


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


@functools.lru_cache(maxsize=16)  # all n <= 12 (the tuple budget): 64 kB
def _lex_masks(n):
    """The nonempty slot masks of n slots in the Python order of their
    ascending slot tuples, shared read-only.  Over slots b..n-1 they are
    {b}, then {b} with each mask over the slots above b, then those."""
    out = np.zeros(0, dtype=np.int64)
    for b in range(n - 1, -1, -1):
        out = np.concatenate([[1 << b], out | (1 << b), out])
    out.flags.writeable = False
    return out


def _min_tuple(arity, part_table, budget, slot_ids):
    """Min over disjoint arity-tuples of nonempty parts of the max part
    value over the slots of slot_ids; parts capped at budget.part_cap
    slots when set.  part_table(cap), called once after the checks, returns
    (values, infinite) by slot mask: each part's float value and whether it
    is INFINITE, read for parts of at most cap slots.  Every part counts as
    one evaluation.

    The part values are ranked as integers: the sorted distinct floats (of
    the parts by size, then in _combinations order), then INFINITE, and
    one rank past that for a slot mask that is no part (the empty mask
    included).  best[j][M] is the least rank, over packings of j disjoint
    parts inside slot mask M, of the largest part: best[0] is -1, best[1]
    the subset minimum of the ranks, and best[j][M] the min over submasks
    P of M of max(rank[P], best[j - 1][M ^ P]) (_submask_pairs).  The
    optimum is that recurrence for j = arity at the full mask only,
    returned as the value of the first part of its rank.  The witness is
    the lexicographically smallest optimal packing (parts sorted by slot
    tuple), found depth first over the parts of rank at most the optimum
    in _lex_masks order, with best[j] as the test that j more parts fit.
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
    cap = min(cap, n_slots)
    masks = np.concatenate([(1 << _combinations(n_slots, s).astype(np.int64)).sum(axis=1)
                            for s in range(1, cap + 1)])
    values, infinite = part_table(cap)
    infinite = infinite[masks]
    finite = values[masks[~infinite]]
    _, first, ranks = np.unique(finite, return_index=True, return_inverse=True)
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
    lex = _lex_masks(n_slots)
    allowed = lex[rank[lex] <= opt].tolist()

    def dfs(start, need, free):
        if need == 0:
            return ()
        for i in range(start, len(allowed)):
            pmask = allowed[i]
            rest = free & ~pmask
            if rest | pmask == free and best[need - 1][rest] <= opt:
                sub = dfs(i + 1, need - 1, rest)
                if sub is not None:
                    return (pmask,) + sub
        return None

    witness = Parts(tuple(slot_ids[i] for i in range(n_slots) if pmask >> i & 1)
                    for pmask in dfs(0, arity, size - 1))
    return ConstantResult(INFINITE if opt == top else float(finite[first[opt]]), witness,
                          len(masks))


def _tuple_constant(graph, W, what, arity, budget, inner=None):
    """_min_tuple over the window W of graph (checked as `what`; slots in
    vertex order), each part grounded outside itself in graph: its alpha_DS
    with A inside the vertices of inner, from the table of every part's
    value (_ds_table; INFINITE for a part with no inner slot), or with
    inner None its first Dirichlet eigenvalue, one batched eigensolve per
    part size.  The window's block and masses are taken (_reduce), and the
    table built, when _min_tuple asks for it after its checks, so a window
    past the tuple budget assembles nothing."""
    graph.check_vertices(W, what)
    wset = set(W)
    order = [v for v in graph.vertices if v in wset]
    budget = budget or DEFAULT_BUDGET

    def part_table(cap):
        n = len(order)
        block, masses = _reduce(graph, order, ())
        if inner is not None:
            slots = [i for i, v in enumerate(order) if v in inner]
            table = _ds_table(block, masses, slots, _closed_parts(graph, order), cap)
            return table, np.arange(1 << n) & sum(1 << i for i in slots) == 0
        table = np.empty(1 << n)
        for s in range(1, cap + 1):
            parts = _combinations(n, s)
            d = 1.0 / np.sqrt(masses[parts])
            sub = block[parts[:, :, None], parts[:, None, :]] * d[:, :, None] * d[:, None, :]
            table[(1 << parts.astype(np.int64)).sum(axis=1)] = np.linalg.eigvalsh(sub)[:, 0]
        return table, np.zeros(1 << n, dtype=bool)

    return _min_tuple(arity, part_table, budget, order)


def _closed_parts(graph, order):
    """By slot mask of the window order (vertices of graph): whether no edge
    of graph leaves the part.  Such a part's alpha_DS is 0, the value of
    its empty sink (alpha_ds), decided here from the edges."""
    n = len(order)
    slot = dict(zip(order, range(n)))
    masks = np.arange(1 << n)
    closed = np.ones(1 << n, dtype=bool)
    for i, v in enumerate(order):
        # slot i's window neighbours, and bit n for one outside the window
        reach = sum({1 << slot.get(y, n) for y, _ in graph.adjacency[v]})
        closed &= (masks >> i & 1 == 0) | (reach & ~masks == 0)
    return closed


def _ds_table(block, masses, inner, closed, cap):
    """alpha_DS of every part of an n-slot window, by slot mask: the min
    over nonempty A inside the part's inner slots of the energy of A, with
    the rest of the part free and everything outside it grounded, over
    m(A).  block is the window's stiffness block, grounded outside the
    window, masses its slot masses, inner the slots that A may use and
    closed the mask table of _closed_parts; a closed part with an inner
    slot is 0.  Only parts of at most cap slots are exact; the others, and
    those without an inner slot, hold inf or a partial min, read by no one.

    Union lattice: with U = A | (W - P), the candidate (P, A) is 1_A^T S_U
    1_A, S_U the Schur complement of block onto U, so every candidate of a
    union U is read from its one form.  The unions go by size from n down
    to n - cap + 1, a level of _level_plan at a time; the block is the
    root, and every other form is one rank-one step from its parent's
    (_union_forms on the level's cached offsets, strict: a pivot <= 0 with
    a nonzero column raises SingularMatrixError).  Each level hands its
    forms on the inner slots of each union to the group of unions with the
    same number r of inner slots; each group is then doubled in chunks, all
    in one _workspace buffer sized for the largest, the 2^r - 1 subsets A
    of a union over its inner slots in ascending order (_subset_values).
    A candidate's part P = A | (W - U) takes the min by np.minimum.at,
    which is exact, so no bit depends on the order of the candidates.
    """
    n = len(masses)
    full = (1 << n) - 1
    bit = np.left_shift(1, np.arange(n, dtype=np.int64))
    is_inner = np.zeros(n, dtype=bool)
    is_inner[inner] = True
    forms = np.array(block, dtype=float).reshape(n, n, 1)
    groups = [[] for _ in range(n + 1)]  # by r: (forms on the inner slots, slots, rest)
    for u in range(n, n - cap, -1):
        level = _level_plan(n, u)
        combos = level.combos
        if u < n:
            forms = _union_forms(forms, level, strict=True)
        masks = bit[combos].sum(axis=1)
        flags = is_inner[combos]
        counts = flags.sum(axis=1)
        by_count = np.argsort(counts, kind="stable")
        ends = np.cumsum(np.bincount(counts, minlength=u + 1)).tolist()
        for r in range(1, u + 1):
            sel = by_count[ends[r - 1] : ends[r]]
            if len(sel):
                p = np.nonzero(flags[sel])[1].reshape(-1, r).T  # inner positions in U
                groups[r].append((forms[p[:, None], p, sel], combos[sel, p].T,
                                  full ^ masks[sel]))
    table = np.full(full + 1, np.inf)
    work = _workspace([(sum(len(rest) for _, _, rest in group), r)
                       for r, group in enumerate(groups) if group], 2, spare=1)
    for r, group in enumerate(groups):
        if not group:
            continue
        s_a, slots, rest = zip(*group)
        s_a, slots, rest = np.concatenate(s_a, axis=2), np.concatenate(slots), np.concatenate(rest)
        step = _chunk(r, 2, spare=1)
        for lo in range(0, len(rest), step):
            part = slots[lo : lo + step]
            vals, parts = _subset_values(s_a[:, :, lo : lo + step], masses[part], bit[part],
                                         rest[lo : lo + step], work)
            np.minimum.at(table, parts, vals)
    table[closed & (np.arange(full + 1) & bit[is_inner].sum() != 0)] = 0.0
    return table


def _subset_values(s_a, m_a, bits, rest, work):
    """(values, parts), each (2^r - 1, N): the energy over the mass of
    every nonempty subset A of the r slots of N unions, and the slot mask
    of its part A | rest.  s_a (r, r, N) are the forms on those slots, m_a
    and bits (N, r) their masses and slot bits, rest (N,) the masks of the
    window outside each union; doubled in work (_slabs, r steps, two
    columns: the mass and the part mask, a float exact below 2^53) as slots
    0..r-1 join an empty A, so row j holds slot t when bit t of j is set.
    The row sum of slot k starts as S_kk and a slot s before it adds 2 S_sk."""
    r, _, n = s_a.shape
    q, e, cols = _slabs(work, n, r, 2)
    q[0], cols[0, 0], cols[1, 0] = 0.0, 0.0, rest
    _doubling(q, e, cols, s_a.diagonal().T, s_a + s_a, np.stack([m_a.T, bits.T], axis=1))
    return np.divide(q[1:], cols[0, 1:], out=q[1:]), cols[1, 1:].astype(np.intp)


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
