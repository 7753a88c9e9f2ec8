"""The vectorized enumerators against per-candidate reference loops.

The references below are the straightforward loops: every tied minimum
builds its witness tuple and is offered to the running best one by one, and
every tuple-constant part is evaluated on its own.  The library must agree
with them bit for bit on value, witness and evaluation count, because both
perform the same per-candidate arithmetic and only the selection differs.
The single-set and pair references also run with their sizes and rows in a
seeded shuffled order, against the library's one fixed order: visit order
must decide nothing.  The pair reference takes the library's recursions
(one rank-one step per union, doubled split sums) union by union; the
per-union elimination it replaced, ref_min_pair_solve, is kept as the one
value oracle compared within a tolerance.  In the same way the tuple part
reference, ref_lattice_objective, takes the library's union lattice part by
part, and the per-part elimination it replaced, ref_ds_objective, is the
value oracle.  The tuple packing reference, ref_min_tuple, is the
scan over parts in sorted value order that the library's min-max table
replaced.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

import isocap.constants as constants
from isocap import (INFINITE, Budget, BudgetError, ConstantResult, InputError,
                    SingularMatrixError, WeightedGraph, alpha_ds,
                    alpha_steklov, beta_tuple, cap, dirichlet_spectrum, gamma_k_dirichlet,
                    gamma_k_steklov, gamma_tilde_dirichlet, is_infinite, kappa_steklov,
                    make_domain, neumann_spectrum, steklov_spectrum)
from isocap.constants import (_CHUNK, _SOLVE_ELEMENTS, DEFAULT_BUDGET, _better,
                              _closed_parts, _combinations, _complement, _ds_table,
                              _first_tied_split, _grounded_values, _levels, _lex_first,
                              _min_pair, _min_single, _min_tuple, _reduce, _split_table,
                              _split_values, _subset_values)
from isocap.infinite_families import line_domain, t3_example
from isocap.linear_core import stiffness_matrix, sym_eig_generalized
from isocap.spectra import _finite, dtn_operator
from isocap.testing import random_domain
from isocap.verify import EqualityReport, _span_patterns, check_equality_case

SEEDS = (None, 0, 1, 2, 3)


# ---------------------------------------------------------------------------
# reference implementations


def ref_grounded_values(k_amb, combos):
    n, s = combos.shape
    d_amb = k_amb.shape[0]
    kaa = k_amb[combos[:, :, None], combos[:, None, :]]
    tops = kaa.sum(axis=(1, 2))
    d = d_amb - s
    if d == 0:
        return tops
    mask = np.ones((n, d_amb), dtype=bool)
    mask[np.arange(n)[:, None], combos] = False
    free = np.nonzero(mask)[1].reshape(n, d)
    kfa = k_amb[free[:, :, None], combos[:, None, :]]
    c = kfa.sum(axis=2)
    kff = k_amb[free[:, :, None], free[:, None, :]]
    x = np.linalg.solve(kff, c[..., None])[..., 0]
    return tops - np.einsum("nd,nd->n", c, x)


def ref_min_single(k_amb, universe, masses, rng=None):
    """Returns (value, witness, evaluations, most tied rows in one chunk)."""
    p = len(universe)
    universe = np.asarray(universe, dtype=int)
    masses = np.asarray(masses, dtype=float)
    best = None
    examined = most_tied = 0
    sizes = list(range(1, p + 1))
    if rng is not None:
        rng.shuffle(sizes)
    for s in sizes:
        combos = np.array(list(itertools.combinations(range(p), s)), dtype=int)
        if rng is not None:
            combos = combos[rng.permutation(len(combos))]
        for lo in range(0, len(combos), _CHUNK):
            part = combos[lo : lo + _CHUNK]
            vals = ref_grounded_values(k_amb, universe[part]) / masses[part].sum(axis=1)
            examined += len(part)
            vmin = vals.min()
            tied = np.nonzero(vals == vmin)[0]
            most_tied = max(most_tied, len(tied))
            for row in tied:
                best = _better(best, float(vmin), tuple(int(i) for i in part[row]))
    return best[0], best[1], examined, most_tied


def ref_split_rows(u):
    """The 0/1 rows of the splits of a u-slot union (1.0 for A) in
    _split_table's order: slot 0 in A, slot j + 1 in A when bit j of the
    row number is set, the all-A row left out."""
    bits = np.arange((1 << (u - 1)) - 1)
    t = np.zeros((len(bits), u))
    t[:, 0] = 1.0
    for j in range(u - 1):
        t[:, j + 1] = (bits >> j) & 1
    return t


def ref_union_forms(root, lowest=2):
    """The Schur form of every union of the root's slots with at least
    lowest slots, by slot mask, from the top down: each one drops v, the
    smallest slot missing from it, from its parent by one rank-one step (v
    is the parent's position v)."""
    p = len(root)
    forms = {(1 << p) - 1: np.array(root, dtype=float)}
    for u in range(p - 1, lowest - 1, -1):
        for combo in itertools.combinations(range(p), u):
            mask = sum(1 << i for i in combo)
            v = next(i for i in range(p) if not mask >> i & 1)
            parent = forms[mask | 1 << v]
            keep = [i for i in range(u + 1) if i != v]
            b = parent[keep, v]
            forms[mask] = parent[np.ix_(keep, keep)] - np.outer(b, b) / parent[v, v]
    return forms


def ref_split_values(s, m):
    """One union's split values in _split_table's order, with the floating
    point operations of _split_values: the forms, A-masses and the row
    sums e_k = (2 S_0k + S_kk) + 2 S_ik + ... doubled as slots join A."""
    u = len(m)
    q, m_a = s[:1, 0], m[:1]
    cols = ((s[0, 1:] + s[0, 1:]) + s.diagonal()[1:])[:, None]
    for j in range(1, u):
        h = 1 << (j - 1)
        k = h - (j == u - 1)
        q = np.concatenate([q, q[:k] + cols[0, :k]])
        cols = np.hstack([cols[1:], cols[1:, :k] + (s[j, j + 1:] + s[j, j + 1:])[:, None]])
        m_a = np.concatenate([m_a, m_a[:k] + m[j]])
    return q / np.minimum(m_a, m[None].sum(axis=1) - m_a)


def ref_min_pair(root, masses, rng=None):
    """Returns (value, witness, evaluations, most splits of one size tied
    at that size's minimum)."""
    p = len(masses)
    masses = np.asarray(masses, dtype=float)
    forms = ref_union_forms(root)
    best = None
    examined = most_tied = 0
    sizes = list(range(2, p + 1))
    if rng is not None:
        rng.shuffle(sizes)
    for u in sizes:
        t_in_a = ref_split_rows(u) > 0
        combos = list(itertools.combinations(range(p), u))
        if rng is not None:
            combos = [combos[i] for i in rng.permutation(len(combos))]
        level = []
        for slots in combos:
            slots = np.array(slots)
            vals = ref_split_values(forms[sum(1 << int(i) for i in slots)], masses[slots])
            level.append(vals)
            examined += len(vals)
            vmin = vals.min()
            for pi in np.nonzero(vals == vmin)[0]:
                key = (tuple(int(i) for i in slots[t_in_a[pi]]),
                       tuple(int(i) for i in slots[~t_in_a[pi]]))
                best = _better(best, float(vmin), key)
        level = np.concatenate(level)
        most_tied = max(most_tied, int((level == level.min()).sum()))
    return best[0], best[1], examined, most_tied


def ref_min_pair_solve(k_amb, universe, masses):
    """The pair minimum with every union's Schur form solved from the
    ambient rows of k_amb, in chunks of one batched solve, and the split
    forms and masses summed by einsum: a value oracle for _min_pair on the
    root form of the same rows.  Returns (value, witness, evaluations)."""
    p = len(universe)
    universe = np.asarray(universe, dtype=int)
    masses = np.asarray(masses, dtype=float)
    d_amb = k_amb.shape[0]
    best = None
    examined = 0
    for u in range(2, p + 1):
        t = ref_split_rows(u)
        combos = np.array(list(itertools.combinations(range(p), u)), dtype=int)
        chunk = max(1, min(_CHUNK, _SOLVE_ELEMENTS // (len(t) + 1)))
        for lo in range(0, len(combos), chunk):
            part = combos[lo : lo + chunk]
            rows = universe[part]
            kuu = k_amb[rows[:, :, None], rows[:, None, :]]
            if d_amb > u:
                elim = _complement(rows, d_amb)
                kue = k_amb[rows[:, :, None], elim[:, None, :]]
                kee = k_amb[elim[:, :, None], elim[:, None, :]]
                s_u = kuu - kue @ np.linalg.solve(kee, kue.transpose(0, 2, 1))
            else:
                s_u = kuu
            quad = np.einsum("ps,nst,pt->np", t, s_u, t)
            m_u = masses[part]
            m_a = np.einsum("ps,ns->np", t, m_u)
            vals = quad / np.minimum(m_a, m_u.sum(axis=1)[:, None] - m_a)
            examined += vals.size
            vmin = vals.min()
            for ui, pi in zip(*np.nonzero(vals == vmin)):
                in_a = t[pi] > 0
                key = (tuple(part[ui][in_a].tolist()), tuple(part[ui][~in_a].tolist()))
                best = _better(best, float(vmin), key)
    return best[0], best[1], examined


def _grounded_value(k_amb, positions):
    rows = np.array([positions], dtype=int)
    return float(_grounded_values(k_amb, rows, _complement(rows, k_amb.shape[0]))[0])


def _pair_value(k_amb, a_rows, b_rows):
    """Cap(A, B) for one explicit pair: ground B, then one grounded solve."""
    drop = set(b_rows)
    keep = [i for i in range(k_amb.shape[0]) if i not in drop]
    sub = k_amb[np.ix_(keep, keep)]
    remap = {r: i for i, r in enumerate(keep)}
    return _grounded_value(sub, [remap[r] for r in a_rows])


def ref_heuristic_pair(root, masses, field):
    """Upper bound for a pair constant on the slots of its root form:
    positive and negative superlevel sets of a guiding field plus
    singletons, all disjoint combinations."""
    masses = np.asarray(masses, dtype=float)
    vec = np.asarray(field, dtype=float)
    singles = [(i,) for i in range(len(masses))]
    cands_a = list(dict.fromkeys(_levels(vec) + singles))
    cands_b = list(dict.fromkeys(_levels(-vec) + singles))
    best = None
    examined = 0
    for ca in cands_a:
        for cb in cands_b:
            if set(ca) & set(cb):
                continue
            a, b = (ca, cb) if min(ca) < min(cb) else (cb, ca)
            val = _pair_value(root, list(a), list(b))
            val /= min(masses[list(a)].sum(), masses[list(b)].sum())
            examined += 1
            best = _better(best, val, (a, b))
    return best[0], best[1], examined


def ref_heuristic_values(k_amb, universe, masses, field):
    """Superlevel sets and singletons in candidate order, each with the value
    of one _grounded_value solve."""
    universe = np.asarray(universe, dtype=int)
    masses = np.asarray(masses, dtype=float)
    vec = np.asarray(field, dtype=float)
    if vec.sum() < 0:
        vec = -vec
    cands = _levels(vec) + [(i,) for i in range(len(universe))]
    return {slots: _grounded_value(k_amb, universe[list(slots)]) / masses[list(slots)].sum()
            for slots in dict.fromkeys(cands)}


def ref_heuristic_single(k_amb, universe, masses, field):
    """Every candidate solved, offered to the running best in candidate
    order."""
    values = ref_heuristic_values(k_amb, universe, masses, field)
    best = None
    for slots, val in values.items():
        best = _better(best, val, slots)
    return best[0], best[1], len(values)


def per_part(objective):
    """Batched objective from a one-part objective on a slot tuple."""
    return lambda parts: [objective(tuple(row)) for row in parts.tolist()]


def ref_closed(graph, order):
    """Whether no edge of graph leaves a part, a slot tuple of the window
    order, read from the edge list."""
    def closed(slots):
        part = {order[i] for i in slots}
        return not any((u in part) != (v in part) for u, v, _ in graph.edges)

    return closed


def ref_ds_objective(k_amb, boundary_slots, masses, closed):
    """A part's alpha_DS by one elimination per (part, A): ref_min_single
    on the part's block, every other window slot grounded."""
    def objective(slots):
        inner = [i for i, s in enumerate(slots) if s in boundary_slots]
        if not inner:
            return INFINITE
        if closed(slots):
            return 0.0
        sub = k_amb[np.ix_(slots, slots)]
        return ref_min_single(sub, inner, masses[[slots[i] for i in inner]])[0]

    return per_part(objective)


def ref_subset_value(s, m):
    """1^T s 1 / (sum of m) with the floating point operations of
    _subset_values: the slots join in order, slot j adding S_jj + 2 S_0j +
    ... + 2 S_(j-1)j to the energy and m_j to the mass."""
    q = mass = 0.0
    for j in range(len(m)):
        e = s[j, j]
        for i in range(j):
            e = e + (s[i, j] + s[i, j])
        q, mass = q + e, mass + m[j]
    return float(q / mass)


def ref_lattice_objective(k_amb, boundary_slots, masses, closed):
    """A part's alpha_DS on the union lattice of constants._ds_table, part
    by part: the candidate A of part P reads the form of U = A | (W - P)
    (ref_union_forms) and is summed by ref_subset_value, so the bits are the
    library's."""
    n = len(masses)
    forms = ref_union_forms(k_amb, lowest=1)

    def objective(slots):
        inner = [s for s in slots if s in boundary_slots]
        if not inner:
            return INFINITE
        if closed(slots):
            return 0.0
        rest = set(range(n)) - set(slots)
        best = np.inf
        for a in range(1, len(inner) + 1):
            for A in itertools.combinations(inner, a):
                union = sorted(rest | set(A))
                pos = [union.index(i) for i in A]
                form = forms[sum(1 << i for i in union)]
                best = min(best, ref_subset_value(form[np.ix_(pos, pos)], masses[list(A)]))
        return best

    return per_part(objective)


def ref_kappa(domain, k, budget, part=ref_lattice_objective):
    order = list(domain.closure)
    kmat = stiffness_matrix(domain.induced)
    masses = np.array([domain.graph.mass[v] for v in order])
    bnd = {domain.closure_index[v] for v in domain.boundary}
    objective = part(kmat, bnd, masses, ref_closed(domain.induced, order))
    return ref_min_tuple(k + 1, objective, budget, order)


def ref_beta_tuple(graph, omega, k, budget, part=ref_lattice_objective):
    order = list(graph.vertices)
    kmat = stiffness_matrix(graph)
    masses = np.array([graph.mass[v] for v in order])
    objective = part(kmat, {graph.index[v] for v in omega}, masses, ref_closed(graph, order))
    return ref_min_tuple(k + 1, objective, budget, order)


def ref_gamma_k_steklov(domain, W, k, budget, part=ref_lattice_objective):
    order, kmat, pos, masses = _window(domain.induced, W)
    bnd = {i for i, v in enumerate(order) if v in domain.boundary_index}
    objective = part(kmat[np.ix_(pos, pos)], bnd, masses, ref_closed(domain.induced, order))
    return ref_min_tuple(k, objective, budget, order)


def _window(graph, W):
    order = [v for v in graph.vertices if v in set(W)]
    kmat = stiffness_matrix(graph)
    pos = np.array([graph.index[v] for v in order])
    masses = np.array([graph.mass[v] for v in order])
    return order, kmat, pos, masses


def ref_gamma_k_dirichlet(graph, W, k, budget, part=ref_lattice_objective):
    order, kmat, pos, masses = _window(graph, W)
    objective = part(kmat[np.ix_(pos, pos)], set(range(len(order))), masses,
                     ref_closed(graph, order))
    return ref_min_tuple(k, objective, budget, order)


def ref_gamma_tilde_dirichlet(graph, W, k, budget):
    order, kmat, pos, masses = _window(graph, W)

    def objective(slots):
        rows = pos[list(slots)]
        sub = kmat[np.ix_(rows, rows)]
        d = 1.0 / np.sqrt(masses[list(slots)])
        return float(np.linalg.eigvalsh(sub * d[:, None] * d[None, :])[0])

    return ref_min_tuple(k, per_part(objective), budget, order)


def _reach_update(reach, arity, all_masks, pmask):
    dis = (all_masks & pmask) == 0
    for j in range(arity, 0, -1):
        src = reach[j - 1] & dis
        if src.any():
            reach[j][all_masks[src] | pmask] = True


def _subset_or(flags, n_slots):
    out = flags.copy()
    idx = np.arange(len(out))
    for b in range(n_slots):
        hit = np.nonzero(idx & (1 << b))[0]
        out[hit] |= out[hit ^ (1 << b)]
    return out


def _sort_key(item):
    val, key, _ = item
    return (is_infinite(val), val if not is_infinite(val) else 0.0, key)


# the scan over sorted parts that constants._min_tuple's min-max table replaced
def ref_min_tuple(arity, objective, budget, slot_ids):
    """Min over disjoint arity-tuples of nonempty parts of the max part
    objective over the slots of slot_ids; parts capped at budget.part_cap
    slots when set.

    objective is batched: it takes an (N, s) integer array holding every
    part of one size s, one ascending slot tuple per row in
    itertools.combinations order, and returns the N part values (floats or
    INFINITE) in row order.  Every part counts as one evaluation.

    Parts are scanned in ascending objective order while a reachability table
    tracks which slot unions admit j disjoint parts; the first time an
    arity-packing exists fixes the optimum.  The witness is the
    lexicographically smallest optimal packing (parts sorted by slot tuple).
    """
    n_slots = len(slot_ids)
    if arity < 1:
        raise InputError("tuple arity must be positive")
    if arity > n_slots:
        raise InputError("arity %d exceeds universe size %d" % (arity, n_slots))
    if n_slots > budget.tuples:
        raise BudgetError(
            "universe size %d exceeds tuple budget %d" % (n_slots, budget.tuples)
        )
    cap = budget.part_cap if budget.part_cap is not None else n_slots
    if cap < 1:
        raise InputError("part cap must be positive")
    parts = []
    for s in range(1, min(cap, n_slots) + 1):
        slot_sets = list(itertools.combinations(range(n_slots), s))
        combos = np.array(slot_sets, dtype=int)
        masks = (1 << combos).sum(axis=1).tolist()
        parts.extend(zip(objective(combos), slot_sets, masks))
    parts.sort(key=_sort_key)
    size = 1 << n_slots
    all_masks = np.arange(size)
    reach = np.zeros((arity + 1, size), dtype=bool)
    reach[0, 0] = True
    opt = None
    for i, (val, _, pmask) in enumerate(parts):
        _reach_update(reach, arity, all_masks, pmask)
        if reach[arity].any():
            opt = val
            break
    if opt is None:  # singletons always pack, so this cannot happen
        raise InputError("no disjoint %d-tuple exists" % arity)
    within = [j for j, (val, _, _) in enumerate(parts)
              if is_infinite(opt) or (not is_infinite(val) and val <= opt)]
    # the table of unions does not depend on the order parts are added, so
    # it grows over the allowed parts after the scan instead of being rebuilt
    for j in within:
        if j > i:
            _reach_update(reach, arity, all_masks, parts[j][2])
    allowed = sorted((parts[j] for j in within), key=lambda x: x[1])
    any_reach = [_subset_or(reach[j], n_slots) for j in range(arity + 1)]

    def dfs(start, need, free):
        if need == 0:
            return ()
        for i in range(start, len(allowed)):
            _, slots, pmask = allowed[i]
            if pmask & ~free:
                continue
            rest = free & ~pmask
            if any_reach[need - 1][rest]:
                sub = dfs(i + 1, need - 1, rest)
                if sub is not None:
                    return (slots,) + sub
        return None

    packing = dfs(0, arity, size - 1)
    witness = tuple(tuple(slot_ids[i] for i in slots) for slots in packing)
    return ConstantResult(opt, witness, len(parts))


def ref_sign_patterns(b):
    pats = np.array(list(itertools.product((-1.0, 0.0, 1.0), repeat=b)))
    keep = []
    for row in pats:
        nz = np.nonzero(row)[0]
        if len(nz) and row[nz[0]] > 0:
            keep.append(row)
    return np.array(keep)


def ref_split_keys(slots, in_a):
    """Rows [A's slots, -1 padding, B's slots, -1 padding], each side u
    wide, for splits of unions given as (k, u) slot rows and boolean rows
    in_a (True for A).  The rows order like Python (A, B) tuples of
    ascending slot tuples: -1 sorts a shorter tuple before its extensions.
    Slots must stay below the maximum of their integer type."""
    pad = np.iinfo(slots.dtype).max
    sides = []
    for side in (in_a, ~in_a):
        keys = np.sort(np.where(side, slots, pad), axis=1)
        keys[keys == pad] = -1
        sides.append(keys)
    return np.hstack(sides)


def ref_first_tied_split(part, t_in_a, tied, key_type):
    """The smallest (A, B) pair of slot tuples, in Python tuple order, among
    the True entries of tied, a (unions, splits) mask over the rows of part
    (ascending union slots) and of t_in_a (True for A): every tied row is
    sorted into its key, and the keys are ordered by lexsort."""
    ui, pi = np.nonzero(tied)
    if len(ui) == 1:  # a single winner needs no ordering
        slots, in_a = part[ui[0]], t_in_a[pi[0]]
        return tuple(slots[in_a].tolist()), tuple(slots[~in_a].tolist())
    # slices of _CHUNK tied splits bound the memory of the keys
    slots = part.astype(key_type)
    firsts = [
        _lex_first(ref_split_keys(slots[ui[lo : lo + _CHUNK]], t_in_a[pi[lo : lo + _CHUNK]]))
        for lo in range(0, len(ui), _CHUNK)
    ]
    row = _lex_first(np.array(firsts)).tolist()
    u = part.shape[1]
    return tuple(i for i in row[:u] if i >= 0), tuple(i for i in row[u:] if i >= 0)


@_finite
def ref_check_equality_case(domain, budget=None):
    """The certifier that tries every sign pattern of {-1, 0, 1}^b against
    the eigenspace, undecided past b = 13 or multiplicity 3."""
    if len(domain.boundary) < 2:
        raise InputError("equality case needs at least two boundary vertices")
    op = dtn_operator(domain)
    spec = sym_eig_generalized(op.form, op.mass)
    sigma = spec.eigenvalues[1]
    alpha = alpha_steklov(domain, budget=budget).value
    tol = 1e-8 * max(1.0, abs(sigma))
    equal = bool(abs(sigma - 2.0 * alpha) <= tol)
    gap = 2.0 * alpha - sigma
    mult = sum(1 for s in spec.eigenvalues[1:] if abs(s - sigma) <= tol)
    if not equal:
        return EqualityReport(sigma, alpha, False, "strict", gap, mult)
    b = len(domain.boundary)
    if mult > 3 or b > 13:
        return EqualityReport(sigma, alpha, True, "undecided", gap, mult)
    basis = spec.vectors[:, 1:1 + mult]
    pats = ref_sign_patterns(b)
    balanced = np.abs(pats @ op.mass) <= 1e-7 * (np.abs(pats) @ op.mass)
    pats = pats[balanced]
    if len(pats):
        coef, *_ = np.linalg.lstsq(basis, pats.T, rcond=None)
        resid = np.linalg.norm(basis @ coef - pats.T, axis=0)
        norms = np.linalg.norm(pats, axis=1)
        for j in np.nonzero(resid <= 1e-7 * norms)[0]:
            t = pats[j]
            rayleigh = float(t @ op.form @ t) / float(t @ (op.mass * t))
            if abs(rayleigh - sigma) <= tol:
                witness = {v: float(t[i]) for i, v in enumerate(domain.boundary)}
                return EqualityReport(sigma, alpha, True, "equal", gap, mult, witness)
    return EqualityReport(sigma, alpha, True, "undecided", gap, mult)


# ---------------------------------------------------------------------------
# instances


def _unit_graph(n_vertices, edges):
    verts = list(range(n_vertices))
    return WeightedGraph(verts, {v: 1.0 for v in verts}, [(u, v, 1.0) for u, v in edges])


def unit_star(p, leaves_inside=False):
    """Centre 0 and leaves 1..p; the leaves are the boundary, or with
    leaves_inside the interior (then every nonempty leaf set ties for
    alpha_D)."""
    g = _unit_graph(p + 1, [(0, v) for v in range(1, p + 1)])
    return make_domain(g, list(range(1, p + 1)) if leaves_inside else [0])


def two_level_tree(c, leaves):
    """Root 0 with c children of `leaves` leaves each; the leaves are the
    boundary."""
    edges, interior, n = [], [0], 1
    for _ in range(c):
        child = n
        interior.append(child)
        edges.append((0, child))
        for leaf in range(child + 1, child + 1 + leaves):
            edges.append((child, leaf))
        n = child + 1 + leaves
    return make_domain(_unit_graph(n, edges), interior)


def random_star(p, rng):
    """Centre 0 and boundary leaves 1..p, weights and masses log-uniform
    over e^-3..e^3."""
    verts = list(range(p + 1))
    mass = dict(zip(verts, np.exp(rng.uniform(-3, 3, p + 1)).tolist()))
    weights = np.exp(rng.uniform(-3, 3, p)).tolist()
    g = WeightedGraph(verts, mass, [(0, v, weights[v - 1]) for v in range(1, p + 1)])
    return make_domain(g, [0])


TIED = [unit_star(p) for p in range(3, 10)] + [
    two_level_tree(c, l) for c, l in [(2, 2), (2, 3), (3, 2), (2, 4), (3, 3)]]
TIED_SINGLE = [unit_star(p, leaves_inside=True) for p in range(3, 10)]
RANDOM = [random_domain(np.random.default_rng(40 + i), max_closure=9)
          for i in range(20)]
# universes of 10 to 12 slots, whose larger levels take several chunks;
# the unit star's exact ties are decided there too
LARGE = [unit_star(10)] + [random_star(p, np.random.default_rng(60 + p))
                           for p in (10, 11, 12)]


def single_inputs(dom):
    """(root, masses) as alpha_dirichlet passes them."""
    return _reduce(dom.graph, dom.interior, ())


def every_slot(root, masses, *rest):
    """A reference's arguments for the library's (root, masses, ...): the
    universe is every slot of the root form."""
    return (root, range(len(masses)), masses) + rest


def closure_inputs(dom):
    """(k_amb, universe, masses): alpha_S's universe in the rows of the
    closure stiffness, before the interior is eliminated."""
    n = len(dom.interior)
    masses = [dom.graph.mass[v] for v in dom.boundary]
    return (stiffness_matrix(dom.induced),
            list(range(n, n + len(dom.boundary))), masses)


def pair_inputs(dom):
    """(root, masses) as alpha_steklov passes them."""
    return _reduce(dom.induced, dom.boundary)


def neumann_inputs(dom):
    """(root, masses) as alpha_neumann passes them: the interior universe,
    the boundary rows eliminated."""
    return _reduce(dom.induced, dom.interior)


def _rng(seed):
    return None if seed is None else np.random.default_rng(seed)


def _same(got, want):
    assert repr(got[0]) == repr(want[0])
    assert got[1:3] == want[1:3]


# ---------------------------------------------------------------------------
# single-set and pair enumerators


@pytest.mark.parametrize("seed", SEEDS)
def test_min_single_matches_reference(seed):
    most_tied = []
    for dom in TIED_SINGLE + TIED + RANDOM:
        args = single_inputs(dom)
        want = ref_min_single(*every_slot(*args), rng=_rng(seed))
        _same(_min_single(*args), want)
        most_tied.append(want[3])
    # both the tied path and the single-winner path ran
    assert min(most_tied[: len(TIED_SINGLE)]) > 1
    assert 1 in most_tied


def test_alpha_ds_matches_the_ambient_block():
    # the value oracle: ref_min_single on the block K[Y, Y] of the closure
    # stiffness, the universe Y cap dOmega and the rest of Y free, where
    # alpha_ds reduces onto the universe first; random values have no exact
    # ties, so the witnesses agree as well (the largest relative value gap
    # on these 77 windows was 1.7e-14, and 35 values were bit-equal)
    shapes = set()
    for i in range(40):
        rng = np.random.default_rng([24, i])
        dom = random_domain(rng, max_closure=12)
        k_amb = stiffness_matrix(dom.induced)
        closure = list(dom.closure)
        for size in (len(closure) // 2, len(closure) - 1):
            ys = set(rng.choice(len(closure), size=size, replace=False).tolist())
            order = [v for j, v in enumerate(closure) if j in ys]
            universe = [j for j, v in enumerate(order) if v in dom.boundary_index]
            if not universe:
                continue
            pos = [dom.closure_index[v] for v in order]
            want = ref_min_single(k_amb[np.ix_(pos, pos)], universe,
                                  [dom.graph.mass[order[j]] for j in universe])
            got = alpha_ds(dom, order)
            assert got.value == pytest.approx(want[0], rel=SOLVE_REL, abs=0)
            assert got.witness == tuple(order[universe[j]] for j in want[1])
            assert got.evaluations == want[2]
            shapes.add((len(universe) > 1, len(universe) < len(order)))
    # several slots, and some of Y eliminated onto them
    assert (True, True) in shapes


@pytest.mark.parametrize("seed", SEEDS)
def test_min_pair_matches_reference(seed):
    most_tied = []
    for dom in TIED + RANDOM + LARGE:
        args = pair_inputs(dom)
        want = ref_min_pair(*args, rng=_rng(seed))
        _same(_min_pair(*args), want)
        most_tied.append(want[3])
    assert min(most_tied[: len(TIED)]) > 1
    assert 1 in most_tied
    assert most_tied[-len(LARGE)] > 1  # the unit star


def test_min_pair_neumann_universe_matches_reference():
    # interior universe with boundary rows eliminated, as alpha_neumann
    # passes it
    for dom in TIED_SINGLE + RANDOM[:8]:
        if len(dom.interior) < 2:
            continue
        args = neumann_inputs(dom)
        _same(_min_pair(*args), ref_min_pair(*args))


# the largest relative value gap seen against ref_min_pair_solve on these
# inputs was 3.8e-14
SOLVE_REL = 1e-12


def test_min_pair_matches_the_per_union_solve():
    # the value oracle: every union eliminated from the closure on its own;
    # random values have no exact ties, so the witnesses agree as well
    for dom in TIED + RANDOM + LARGE:
        got = _min_pair(*pair_inputs(dom))
        want = ref_min_pair_solve(*closure_inputs(dom))
        assert got[0] == pytest.approx(want[0], rel=SOLVE_REL, abs=0)
        assert got[2] == want[2]
        if dom not in TIED and dom is not LARGE[0]:
            assert got[1] == want[1]
    for dom in RANDOM[:8]:
        if len(dom.interior) >= 2:
            k_amb = stiffness_matrix(dom.induced)
            masses = [dom.graph.mass[v] for v in dom.interior]
            want = ref_min_pair_solve(k_amb, list(range(len(dom.interior))), masses)
            got = _min_pair(*neumann_inputs(dom))
            assert got[0] == pytest.approx(want[0], rel=SOLVE_REL, abs=0)
            assert got[1:] == want[1:]


@pytest.mark.parametrize("p", range(2, DEFAULT_BUDGET.pair + 1))
def test_unit_star_witness_is_a_true_minimizer(p):
    # Cap(A, B) / min(m(A), m(B)) = max(a, b) / (a + b) on the unit star, for
    # a = |A| and b = |B|: the value is 1/2 exactly when a = b, so a
    # witness with a = b minimizes in real arithmetic, whichever split
    # rounding ranked first among the ties
    res = alpha_steklov(unit_star(p))
    a, b = res.witness
    assert len(a) == len(b)
    assert res.value == pytest.approx(0.5, rel=1e-14, abs=0)


def test_min_single_and_min_pair_reject_all_nan_values():
    k_amb = np.full((3, 3), np.nan)
    with np.errstate(all="ignore"):
        with pytest.raises(InputError, match="every subset"):
            _min_single(k_amb, np.array([1.0, 1.0, 1.0]))
        with pytest.raises(InputError, match="every pair split"):
            _min_pair(k_amb, np.array([1.0, 1.0, 1.0]))


# ---------------------------------------------------------------------------
# split forms and masses: doubling against the einsum


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def _symmetric_forms(rng, n, u):
    """(u, u, n) symmetric entries over e^-30..e^30 with both signs and
    some zeros, so that the order of the adds shows in the sums."""
    x = rng.standard_normal((n, u, u)) * np.exp(rng.uniform(-30, 30, (n, u, u)))
    x[rng.random((n, u, u)) < 0.05] = 0.0
    return np.ascontiguousarray((x + x.transpose(0, 2, 1)).transpose(1, 2, 0))


def _doubled(s_u, m_u):
    """_split_values on a fresh buffer: (values, split forms, A-masses).  The
    A-masses are left in the one column of the doubling.  Masses over
    e^-30..e^30 can leave m(B) = 0 after the subtraction, and the value
    infinite or NaN."""
    u, n = len(s_u), len(m_u)
    rows = 1 << (u - 1)
    work = np.empty(3 * rows * n)
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = _split_values(s_u, m_u, work)
    q, _, cols = constants._slabs(work, n, u - 1, 1)
    return vals, q[: rows - 1], cols[0, : rows - 1]


def ref_subset_rows(r):
    """The 0/1 rows of the nonempty subsets of r slots in _subset_values'
    order: row j - 1 holds slot t when bit t of j is set."""
    j = np.arange(1, 1 << r)
    return ((j[:, None] >> np.arange(r)) & 1).astype(float)


@pytest.mark.parametrize("u", range(2, DEFAULT_BUDGET.pair + 1))
def test_cube_forms_are_bit_equal_to_the_einsum(u):
    # the splits of a u-slot union are the corners of a (u - 1)-cube, and
    # the doubling walks it slot by slot.  On integer forms and masses every
    # partial sum is exact, so any add order gives the same bits: a split
    # that got another split's sum, or a missed term, shows as a bit change
    rng = np.random.default_rng(u)
    t = ref_split_rows(u)
    chunk = max(1, min(_CHUNK, _SOLVE_ELEMENTS // (1 << (u - 1))))
    sizes = [1, 2, 5]
    if u <= 9:  # a chunk of about 2^20 split entries, while the einsum stays cheap
        sizes.append(chunk)
    for n in sizes:
        x = rng.integers(-(1 << 20), 1 << 20, (n, u, u)).astype(float)
        s_u = np.ascontiguousarray((x + x.transpose(0, 2, 1)).transpose(1, 2, 0))
        m_u = rng.integers(1, 1 << 20, (n, u)).astype(float)
        vals, q, m_a = _doubled(s_u, m_u)
        forms = np.einsum("ps,stn,pt->pn", t, s_u, t)
        masses = np.einsum("ps,ns->pn", t, m_u)
        want = forms / np.minimum(masses, m_u.sum(axis=1) - masses)
        # + 0.0 folds a zero's sign, which the add order may decide
        for got, ref in ((q, forms), (m_a, masses), (vals, want)):
            assert got.shape == (len(t), n)
            assert np.array_equal(_bits(got + 0.0), _bits(ref + 0.0)), (u, n)
    # the tuple caller of the same kernel, on r = u - 1 slots within the
    # tuple budget: every nonempty subset's energy, mass, value and part
    r = u - 1
    if r > DEFAULT_BUDGET.tuples:
        return
    t = ref_subset_rows(r)
    # _ds_table's chunk for r inner slots (constants._workspace)
    chunk = _SOLVE_ELEMENTS // ((5 << r) + r * (r + 3))
    for n in (1, 2, 5, chunk):
        x = rng.integers(-(1 << 20), 1 << 20, (n, r, r)).astype(float)
        s_a = np.ascontiguousarray((x + x.transpose(0, 2, 1)).transpose(1, 2, 0))
        bits = np.left_shift(1, rng.permuted(np.tile(np.arange(12), (n, 1)), axis=1)[:, :r])
        rest = rng.integers(0, 1 << 12, n) & ~bits.sum(axis=1)
        energies = np.einsum("ps,stn,pt->pn", t, s_a, t)
        # unit masses leave the energies as the values
        for m_a in (rng.integers(1, 1 << 20, (n, r)).astype(float), np.ones((n, r))):
            work = np.empty((4 * n) << r)
            vals, parts = _subset_values(s_a, m_a, bits, rest, work)
            masses = np.einsum("ps,ns->pn", t, m_a)
            mass = constants._slabs(work, n, r, 2)[2][0, 1:]
            for got, ref in ((vals, energies / masses), (mass, masses)):
                assert got.shape == (len(t), n)
                assert np.array_equal(_bits(got + 0.0), _bits(ref + 0.0)), (r, n)
            assert np.array_equal(parts, rest + (t @ bits.T).astype(int)), (r, n)


@pytest.mark.parametrize("u", range(2, DEFAULT_BUDGET.pair + 1))
def test_doubled_split_forms_and_masses_match_the_einsum(u):
    # each doubled sum and each einsum is within gamma_N of the exact sum of
    # the absolute terms, N <= u^2 adds for a form and u for a mass
    rng = np.random.default_rng(u)
    t = ref_split_rows(u)
    s_u = _symmetric_forms(rng, 3, u)
    m_u = np.exp(rng.uniform(-30, 30, (3, u)))
    vals, q, m_a = _doubled(s_u, m_u)
    eps = np.finfo(float).eps
    forms = np.einsum("ps,stn,pt->pn", t, s_u, t)
    scale = np.einsum("ps,stn,pt->pn", t, np.abs(s_u), t)
    assert (np.abs(q - forms) <= 2 * u * u * eps * scale).all()
    masses = np.einsum("ps,ns->pn", t, m_u)
    assert (np.abs(m_a - masses) <= 2 * u * eps * masses).all()
    with np.errstate(divide="ignore", invalid="ignore"):
        want = q / np.minimum(m_a, m_u.sum(axis=1) - m_a)
    assert np.array_equal(_bits(vals), _bits(want))


@pytest.mark.parametrize("u", range(2, DEFAULT_BUDGET.pair + 1))
def test_split_values_do_not_depend_on_the_chunk(u):
    # a union's forms, masses and values are the same bits in a chunk of
    # any size and at any place in it, so the chunk size decides no bit
    rng = np.random.default_rng(100 + u)
    chunk = max(1, min(_CHUNK, _SOLVE_ELEMENTS // (1 << (u - 1))))
    s_u = _symmetric_forms(rng, chunk, u)
    m_u = np.exp(rng.uniform(-30, 30, (chunk, u)))
    whole = _doubled(s_u, m_u)
    for n in (1, 2, 7, 64, 513):
        if n > chunk:
            break
        for part in (slice(None, n), slice(chunk - n, None)):
            for got, want in zip(_doubled(s_u[:, :, part], m_u[part]), whole):
                assert np.array_equal(_bits(got), _bits(want[:, part])), (u, n)


@pytest.mark.parametrize("dom, value, witness", [
    (unit_star(16), "0.5", ((1, 2, 3, 4, 5, 6, 7, 8), (9, 10, 11, 12, 13, 14, 15, 16))),
    (random_star(16, np.random.default_rng(16)), "0.00480173331311997", ((7, 9, 11), (14,))),
], ids=["unit", "random"])
def test_pair_workspace_at_the_pair_budget(dom, value, witness):
    p = DEFAULT_BUDGET.pair
    for u in range(2, p + 1):  # the shared read-only tables are not workspace
        _split_table(u)
        _combinations(p, u)
    tracemalloc.start()
    try:
        res = alpha_steklov(dom)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # three union x split arrays of at most _SOLVE_ELEMENTS entries (8 MB)
    # and two levels of union forms (at most 7.4 MB): the peak is near 35 MB
    assert peak < 64 * 2 ** 20
    assert (repr(res.value), res.witness, res.evaluations) == (value, witness, 21457825)


# ---------------------------------------------------------------------------
# tuple constants


def _result(res):
    return repr(res.value), res.witness, res.evaluations


TUPLE_DOMAINS = TIED[:3] + [two_level_tree(2, 2)] + RANDOM[:10]


@pytest.mark.parametrize("budget", [DEFAULT_BUDGET, Budget(part_cap=2)],
                         ids=["uncapped", "cap2"])
def test_tuple_constants_match_per_part_reference(budget):
    for dom in TUPLE_DOMAINS:
        g, interior = dom.graph, dom.interior
        W = list(dom.closure)[:8]
        for k in (1, 2, 3):
            if k <= len(dom.boundary) - 1:
                assert _result(kappa_steklov(dom, k, budget)) == \
                    _result(ref_kappa(dom, k, budget))
            if k <= len(interior) - 1:
                assert _result(beta_tuple(g, interior, k, budget)) == \
                    _result(ref_beta_tuple(g, interior, k, budget))
            if k <= len(interior):
                assert _result(gamma_k_dirichlet(g, interior, k, budget)) == \
                    _result(ref_gamma_k_dirichlet(g, interior, k, budget))
                assert _result(gamma_tilde_dirichlet(g, interior, k, budget)) == \
                    _result(ref_gamma_tilde_dirichlet(g, interior, k, budget))
            if k <= len(W):
                assert _result(gamma_k_steklov(dom, W, k, budget)) == \
                    _result(ref_gamma_k_steklov(dom, W, k, budget))


# closures of 7 to 10 slots
WIDE = [dom for dom in (random_domain(np.random.default_rng(70 + i), max_closure=10)
                        for i in range(40)) if len(dom.closure) >= 7][:6]


def tuple_windows(dom):
    """(graph, window, inner vertices) of kappa_{k+1}, beta_{k+1}, Gamma_k^D
    and Gamma_k^S on dom, as the library's entry points pass them."""
    g = dom.graph
    return [(dom.induced, dom.closure, dom.boundary_index), (g, g.vertices, set(dom.interior)),
            (g, dom.interior, g.index), (dom.induced, list(dom.closure)[:8], dom.boundary_index)]


def window_inputs(graph, W, inner):
    """(order, block, masses, inner slots) of a window, as _tuple_constant
    gathers them."""
    order, kmat, pos, masses = _window(graph, W)
    slots = [i for i, v in enumerate(order) if v in inner]
    return order, kmat[np.ix_(pos, pos)], masses, slots


def test_tuple_part_values_match_the_per_part_solve():
    # the value oracle: every part of every window against its own
    # eliminations; a closed part is 0.0 on both sides, from the edges
    for dom in TUPLE_DOMAINS + WIDE:
        for graph, W, inner in tuple_windows(dom):
            order, block, masses, slots = window_inputs(graph, W, inner)
            n = len(order)
            table = _ds_table(block, masses, slots, _closed_parts(graph, order), n)
            want = ref_ds_objective(block, set(slots), masses, ref_closed(graph, order))
            parts = [c for s in range(1, n + 1) for c in itertools.combinations(range(n), s)]
            for part, value in zip(parts, want(np.array(parts, dtype=object))):
                got = table[sum(1 << i for i in part)]
                if is_infinite(value):
                    assert got == np.inf
                else:
                    assert got == pytest.approx(value, rel=SOLVE_REL, abs=0), (order, part)


def test_tuple_constants_match_the_per_part_solve():
    # random values have no exact ties, so the witnesses agree as well
    budget = DEFAULT_BUDGET
    solve = {"part": ref_ds_objective}
    for dom in TUPLE_DOMAINS + WIDE:
        g, interior = dom.graph, dom.interior
        W = list(dom.closure)[:8]
        pairs = []
        for k in (1, 2, 3):
            if k <= len(dom.boundary) - 1:
                pairs.append((kappa_steklov(dom, k), ref_kappa(dom, k, budget, **solve)))
            if k <= len(interior) - 1:
                pairs.append((beta_tuple(g, interior, k),
                              ref_beta_tuple(g, interior, k, budget, **solve)))
            if k <= len(interior):
                pairs.append((gamma_k_dirichlet(g, interior, k),
                              ref_gamma_k_dirichlet(g, interior, k, budget, **solve)))
            if k <= len(W):
                pairs.append((gamma_k_steklov(dom, W, k),
                              ref_gamma_k_steklov(dom, W, k, budget, **solve)))
        for got, want in pairs:
            if is_infinite(want.value):
                assert is_infinite(got.value)
            else:
                assert got.value == pytest.approx(want.value, rel=SOLVE_REL, abs=0)
            assert got.evaluations == want.evaluations
            if dom not in TIED:
                assert got.witness == want.witness


def test_closed_parts_match_the_edge_list():
    # two components, 0-1-2 and 3-4: the closed parts of the whole vertex
    # set are its unions of components
    split = _unit_graph(5, [(0, 1), (1, 2), (3, 4)])
    windows = [(split, split.vertices), (split, [0, 1, 3, 4])]
    for dom in TUPLE_DOMAINS[:4] + WIDE[:2]:
        windows += [(graph, W) for graph, W, _ in tuple_windows(dom)]
    for graph, W in windows:
        order = _window(graph, W)[0]
        got = _closed_parts(graph, order)
        want = ref_closed(graph, order)
        for mask in range(1, 1 << len(order)):
            assert got[mask] == want([i for i in range(len(order)) if mask >> i & 1])
    closed = _closed_parts(split, split.vertices)
    assert np.flatnonzero(closed).tolist() == [0, 0b00111, 0b11000, 0b11111]


def test_zero_pivot_is_a_singular_matrix_error():
    # a - b - c with masses 1e-300, 1, 1e300 and weights 1e300, 1e-300:
    # b's diagonal 1e300 + 1e-300 rounds to 1e300, so eliminating a leaves
    # b's entry 1e300 - (1e300)^2 / 1e300, 0 in exact arithmetic and -inf
    # in the rank-one step, whose product overflows: the pivot that removes
    # b is not positive, where the true Schur entry is 1e-300
    g = WeightedGraph("abc", {"a": 1e-300, "b": 1.0, "c": 1e300},
                      [("a", "b", 1e300), ("b", "c", 1e-300)])
    dom = make_domain(g, ["b"])
    order, block, masses, slots = window_inputs(dom.induced, dom.closure, dom.boundary_index)
    assert block[1, 1] == -block[0, 1] == block[0, 0] == 1e300
    with np.errstate(over="ignore"):
        with pytest.raises(SingularMatrixError, match="^Singular matrix$"):
            _ds_table(block, masses, slots, _closed_parts(dom.induced, order), 3)
    for call in (lambda: kappa_steklov(dom, 1), lambda: gamma_k_steklov(dom, order, 2)):
        with pytest.raises(SingularMatrixError, match="^Singular matrix$"):
            call()
    # an exact 0 over a zero column is no error: the component 3 - 4 of the
    # vertex window has no edge out, so eliminating both its slots meets the
    # pivot 1 - 1 * 1 / 1 = 0 of a slot coupled to nothing (the part
    # {0, 3, 4} with A = {0} frees the whole component), and that step
    # subtracts nothing.  beta_2 = 0 from the two closed components; beta_3
    # = 1, since the parts of 0 and 1 are apart and Cap({0}) >= w(0, 1) = 1
    split = _unit_graph(5, [(0, 1), (1, 2), (3, 4)])
    order, block, masses, slots = window_inputs(split, split.vertices, {0, 1, 3})
    table = _ds_table(block, masses, slots, _closed_parts(split, order), 5)
    assert not np.isnan(table).any()
    assert table[0b11001] == 0.0  # {0, 3, 4}: A = {3} reaches no sink
    res = [beta_tuple(split, [0, 1, 3], k) for k in (1, 2)]
    assert [(r.value, r.witness) for r in res] == [
        (0.0, ((0, 1, 2), (3, 4))), (1.0, ((0,), (1, 2), (3,)))]


def test_parts_without_boundary_slot_are_infinite():
    # a window of interior vertices only: every part's alpha_DS is vacuous
    dom = two_level_tree(2, 2)
    W = list(dom.interior)
    res = gamma_k_steklov(dom, W, 2)
    assert res.value is INFINITE
    assert _result(res) == _result(ref_gamma_k_steklov(dom, W, 2, DEFAULT_BUDGET))


# ---------------------------------------------------------------------------
# heuristic single-set bound: screened, survivors batched by size


def _segment(n, rng, spread=2):
    """Interior 1..n-1 of a segment with weights and masses log-uniform over
    e^-spread..e^spread."""
    w = np.exp(rng.uniform(-spread, spread, n)).tolist()
    m = np.exp(rng.uniform(-spread, spread, n + 1)).tolist()
    graph, dom = line_domain(n, weight_rule=lambda u, v: w[u],
                             mass_rule=lambda v: m[v])
    return dom


def heuristic_inputs():
    """(root, masses, field) as alpha_dirichlet's heuristic path passes
    them, plus fields with tied and negative levels."""
    rng = np.random.default_rng(90)
    doms = (RANDOM + TIED_SINGLE + [line_domain(40)[1]]
            + [_segment(n, rng) for n in (40, 150)])
    for dom in doms:
        root, masses = single_inputs(dom)
        p = len(masses)
        yield root, masses, dirichlet_spectrum(dom.graph, dom.interior, 1).vectors[:, 0]
        yield root, masses, rng.integers(-2, 3, p).astype(float)
        yield root, masses, np.ones(p)


def _record_batches(monkeypatch):
    """The (candidate rows, d_amb) of every exact batch, as lists."""
    batches = []
    solve = constants._grounded_values

    def recording(k_amb, combos, free):
        batches.append((combos.tolist(), k_amb.shape[0]))
        return solve(k_amb, combos, free)

    monkeypatch.setattr(constants, "_grounded_values", recording)
    return batches


@pytest.mark.parametrize("cap", [None, 3 * 39 ** 2, 1])
def test_heuristic_single_matches_reference(cap, monkeypatch):
    if cap is not None:
        monkeypatch.setattr(constants, "_SOLVE_ELEMENTS", cap)
    cap = constants._SOLVE_ELEMENTS
    cases = list(heuristic_inputs())
    want = [ref_heuristic_single(*every_slot(*case)) for case in cases]
    batches = _record_batches(monkeypatch)
    got, kept = [], []
    for case in cases:
        batches.clear()
        got.append(constants._heuristic_single(*case))
        kept.append(list(batches))
    for g, w in zip(got, want):
        _same(g, w)
    for case, w, runs in zip(cases, want, kept):
        # no kept batch over the element budget, unless it is a single candidate
        assert all(len(rows) == 1 or len(rows) * d * d <= cap for rows, d in runs)
        # every candidate tied with the reference minimum was solved exactly
        solved = {tuple(r) for rows, _ in runs for r in rows}
        for slots, val in ref_heuristic_values(*every_slot(*case)).items():
            if val == w[0]:
                assert slots in solved
    # an infinite margin keeps every candidate, batched by size
    monkeypatch.setattr(constants, "_SCREEN_SLACK", np.inf)
    batches.clear()
    got = [constants._heuristic_single(*case) for case in cases]
    for g, w in zip(got, want):
        _same(g, w)
    assert all(len(rows) == 1 or len(rows) * d * d <= cap for rows, d in batches)
    assert sum(len(rows) for rows, _ in batches) == sum(w[2] for w in want)
    if cap > 1:
        assert max(len(rows) for rows, _ in batches) > 1
        assert len(batches) < sum(w[2] for w in want)


def test_heuristic_single_screen_solves_few_candidates(monkeypatch):
    # the guiding eigenfunction of the unit 40-edge segment: of its 39
    # superlevel sets and 39 singletons, one survives the screen
    dom = line_domain(40)[1]
    root, masses = single_inputs(dom)
    field = dirichlet_spectrum(dom.graph, dom.interior, 1).vectors[:, 0]
    want = ref_heuristic_single(*every_slot(root, masses, field))
    batches = _record_batches(monkeypatch)
    _same(constants._heuristic_single(root, masses, field), want)
    assert sum(len(rows) for rows, _ in batches) == 1 < want[2]


@pytest.mark.parametrize("seed", [93, 95])
def test_heuristic_single_keeps_every_candidate_when_ill_conditioned(seed, monkeypatch):
    # weights and masses over e^-30..e^30 on a 10-edge segment: with seed 95
    # the estimated kappa is about 6e18, so delta >= 1/4; with seed 93 the
    # Cholesky factorization of k_amb fails.  Either way every candidate is
    # solved exactly, and the result is the reference's, however inaccurate
    dom = _segment(10, np.random.default_rng(seed), spread=30)
    root, masses = single_inputs(dom)
    field = dirichlet_spectrum(dom.graph, dom.interior, 1).vectors[:, 0]
    want = ref_heuristic_single(*every_slot(root, masses, field))
    batches = _record_batches(monkeypatch)
    _same(constants._heuristic_single(root, masses, field), want)
    assert sum(len(rows) for rows, _ in batches) == want[2]


def _scaled_star(p, weight, mass):
    """unit_star(p, leaves_inside=True) with every weight and mass scaled:
    the leaf sets tie up to rounding, and the screen rounds differently from
    the exact solves."""
    verts = list(range(p + 1))
    g = WeightedGraph(verts, {v: mass for v in verts},
                      [(0, v, weight) for v in range(1, p + 1)])
    return make_domain(g, list(range(1, p + 1)))


def test_heuristic_single_ties_take_the_smallest_candidate():
    # every nonempty leaf set of the unit star ties (the scaled stars up to
    # rounding); the singleton (0,) is the smallest candidate tuple whatever
    # the field's levels are
    stars = TIED_SINGLE + [_scaled_star(p, 3.0, m) for p in (3, 6, 9)
                           for m in (0.3, 0.7, 1.0)]
    for dom in stars:
        root, masses = single_inputs(dom)
        field = np.arange(len(masses), 0, -1, dtype=float)
        got = constants._heuristic_single(root, masses, field)
        assert got[1] == (0,)
        _same(got, ref_heuristic_single(*every_slot(root, masses, field)))


# ---------------------------------------------------------------------------
# heuristic pair bound: pairs of one shape batched


def heuristic_pair_inputs():
    """(root, masses, field) as alpha_steklov's and alpha_neumann's
    heuristic paths pass them, on random domains."""
    for seed in range(40):
        dom = random_domain(np.random.default_rng(seed))
        yield pair_inputs(dom) + (steklov_spectrum(dom, 2).vectors[:, 1],)
        yield neumann_inputs(dom) + (neumann_spectrum(dom, 2).vectors[:, 1],)


@pytest.mark.parametrize("cap", [None, 2 * 12 ** 2])
def test_heuristic_pair_matches_reference(cap, monkeypatch):
    if cap is not None:  # about two rows per solve on the largest domains
        monkeypatch.setattr(constants, "_SOLVE_ELEMENTS", cap)
    batches = []
    solve = constants._grounded_values

    def recording(k_amb, combos, free):
        batches.append((combos.shape, free.shape[1]))
        return solve(k_amb, combos, free)

    monkeypatch.setattr(constants, "_grounded_values", recording)
    split = 0
    for case in heuristic_pair_inputs():
        batches.clear()
        got = constants._heuristic_pair(*case)
        _same(got, ref_heuristic_pair(*case))
        assert sum(rows for (rows, _), _ in batches) == got[2]
        step = max(1, constants._SOLVE_ELEMENTS // case[0].shape[0] ** 2)
        assert all(rows <= step for (rows, _), _ in batches)
        # a pair shape (|A|, |B|) solved in more than one chunk
        shapes = [(width, free) for (_, width), free in batches]
        split += len(set(shapes)) < len(shapes)
    assert (split > 0) == (cap is not None)


# ---------------------------------------------------------------------------
# tuple packing: the min-max table against the scan over sorted parts


def synthetic_objective(rng, n, levels, infinite):
    """A batched objective over n slots that looks its part values up by
    slot mask: floats drawn from `levels` distinct values (heavy ties when
    few), INFINITE with probability `infinite`.  It records the rows of
    every call."""
    floats = (rng.integers(0, levels, 1 << n) * 0.25).tolist()
    table = [INFINITE if r < infinite else v
             for v, r in zip(floats, rng.random(1 << n).tolist())]
    calls = []

    def objective(parts):
        calls.append(parts.tolist())
        return [table[m] for m in (1 << parts.astype(np.int64)).sum(axis=1).tolist()]

    return objective, calls


def synthetic_table(rng, n, levels, infinite):
    """synthetic_objective's part values on an rng in the same state, as
    _min_tuple reads them: (values, INFINITE mask) by slot mask.  It
    records the cap of every call."""
    values = rng.integers(0, levels, 1 << n) * 0.25
    infinite = rng.random(1 << n) < infinite
    caps = []

    def part_table(cap):
        caps.append(cap)
        return values, infinite

    return part_table, caps


def tuple_cases():
    """(n, arity, part cap): every arity and cap up to 6 slots, then a
    spread of them up to 12, so that every level of the table runs."""
    for n in range(1, 13):
        if n <= 6:
            arities, caps = range(1, n + 1), range(1, n + 1)
        else:
            arities = sorted({1, 2, 3, n // 2, n - 1, n})
            caps = sorted({1, 2, n // 2, n})
        for arity in arities:
            for cap_ in caps:
                if n <= 10 or (arity + cap_) % 3 == 0 or arity == 3:
                    yield n, arity, cap_


def test_min_tuple_matches_the_sorted_scan():
    kinds = [(3, 0.0), (2, 0.3), (50, 0.0), (5, 0.8), (1000, 0.1), (1, 1.0)]
    seen_infinite = seen_arity = 0
    for i, (n, arity, cap_) in enumerate(tuple_cases()):
        levels, infinite = kinds[i % len(kinds)]
        budget = Budget(part_cap=cap_)
        slot_ids = ["s%d" % j for j in range(n)]
        got_fn, got_caps = synthetic_table(np.random.default_rng([500, i]), n, levels,
                                           infinite)
        want_fn, want_calls = synthetic_objective(np.random.default_rng([500, i]), n, levels,
                                                  infinite)
        got = _min_tuple(arity, got_fn, budget, slot_ids)
        want = ref_min_tuple(arity, want_fn, budget, slot_ids)
        assert _result(got) == _result(want), (n, arity, cap_, levels, infinite)
        # one table for every part size that the reference evaluates
        assert got_caps == [len(want_calls)] == [min(cap_, n)]
        seen_infinite += got.value is INFINITE
        seen_arity += n == 12 and arity >= 3
    assert seen_infinite and seen_arity


def test_min_tuple_keeps_its_checks_in_order():
    ids = list(range(4))
    for args, error, message in [
            ((0, None, Budget(tuples=2, part_cap=0), ids), InputError, "arity must be positive"),
            ((5, None, Budget(tuples=2, part_cap=0), ids), InputError, "arity 5 exceeds"),
            ((2, None, Budget(tuples=3, part_cap=0), ids), BudgetError, "tuple budget 3"),
            ((2, None, Budget(part_cap=0), ids), InputError, "part cap must be positive")]:
        for fn in (_min_tuple, ref_min_tuple):
            with pytest.raises(error, match=message):
                fn(*args)


# ---------------------------------------------------------------------------
# tie selection: key columns gathered through the split positions


def test_combinations_are_read_only_itertools_rows():
    for p, s_ in [(1, 1), (5, 2), (9, 4), (16, 8), (20, 1), (20, 20)]:
        got = _combinations(p, s_)
        assert got.dtype == np.int8 and not got.flags.writeable
        assert got.tolist() == [list(c) for c in itertools.combinations(range(p), s_)]
    assert _combinations(200, 1).dtype == np.int16


@pytest.mark.parametrize("u", range(2, DEFAULT_BUDGET.pair + 1))
def test_split_positions_list_each_side_in_ascending_order(u):
    t, pos = ref_split_rows(u), _split_table(u)
    assert pos.dtype == np.int8 and pos.shape == (len(t), 2 * u) and not pos.flags.writeable
    rows = np.arange(len(t))[:, None]
    for side, want in ((pos[:, :u], t), (pos[:, u:], 1.0 - t)):
        assert (np.diff(side.astype(int), axis=1) >= 0).all()
        hit = np.zeros((len(t), u + 1))
        hit[rows, side] = 1.0
        assert np.array_equal(hit[:, :u], want)
        assert np.array_equal((side < u).sum(axis=1), want.sum(axis=1))


def _tie_masks(rng, n, splits):
    """All tied, one tie, a sparse mask, and ties only in the last union."""
    sparse = rng.random((n, splits)) < 0.01
    sparse[rng.integers(n), rng.integers(splits)] = True
    single = np.zeros((n, splits), dtype=bool)
    single[rng.integers(n), rng.integers(splits)] = True
    last = np.zeros((n, splits), dtype=bool)
    last[-1, rng.random(splits) < 0.5] = True
    last[-1, -1] = True
    return [np.ones((n, splits), dtype=bool), single, sparse, last]


@pytest.mark.parametrize("u", range(2, DEFAULT_BUDGET.pair + 1))
def test_first_tied_split_matches_reference(u):
    rng = np.random.default_rng(200 + u)
    pos = _split_table(u)
    t_in_a = ref_split_rows(u) > 0
    for p in sorted({u, min(u + 2, DEFAULT_BUDGET.pair)}):
        combos = _combinations(p, u)
        key_type = np.min_scalar_type(-(p + 1))
        # chunks of at most about 2^17 (union, split) entries, in
        # combinations order and shuffled, as _min_pair sees them
        n = max(1, min(len(combos), (1 << 17) // len(pos)))
        parts = [combos[:n], combos[rng.permutation(len(combos))[:n]]]
        for part in parts:
            for tied in _tie_masks(rng, len(part), len(pos)):
                got = _first_tied_split([(part, np.flatnonzero(tied.T))])
                assert got == ref_first_tied_split(part, t_in_a, tied, key_type), (u, p)
                assert all(isinstance(i, int) for side in got for i in side)


def _recording_ties(monkeypatch):
    """Record the tie records of every _first_tied_split call as (union
    size, tied entries) pairs, one list per call."""
    calls = []
    first = constants._first_tied_split

    def recording(ties):
        calls.append([(part.shape[1], len(idx)) for part, idx in ties])
        return first(ties)

    monkeypatch.setattr(constants, "_first_tied_split", recording)
    return calls


def test_the_tie_key_is_built_once_per_pair_minimum(monkeypatch):
    # random stars: the best so far drops level after level, and the key
    # is still built only once, at the end, for the one tied split
    calls = _recording_ties(monkeypatch)
    for p in range(10, 14):
        for seed in range(3):
            calls.clear()
            _min_pair(*pair_inputs(random_star(p, np.random.default_rng([80, p, seed]))))
            assert len(calls) == 1 and calls[0][0][1] == 1, (p, seed, calls)


def test_a_tie_class_over_several_chunks_and_levels(monkeypatch):
    # chunks of one or two unions: the unit stars' exact ties spread over
    # many chunks, and over two union sizes at p = 4 and p = 10, and the
    # witness is still ref_min_pair's
    monkeypatch.setattr(constants, "_SOLVE_ELEMENTS", 64)
    calls = _recording_ties(monkeypatch)
    spread = set()
    for p in range(3, 11):
        calls.clear()
        args = pair_inputs(unit_star(p))
        _same(_min_pair(*args), ref_min_pair(*args))
        (records,) = calls
        spread.add((len(records) > 1, len({u for u, _ in records}) > 1))
    assert (True, True) in spread


# ---------------------------------------------------------------------------
# equality-case candidates from the eigenspace


def _random_eigenbasis(rng, b, mult):
    """An orthonormal basis of the span of mult random {-1, 0, 1} rows
    (rank mult), rotated by a random orthogonal matrix."""
    while True:
        gens = rng.integers(-1, 2, size=(mult, b)).astype(float)
        if np.linalg.matrix_rank(gens) == mult:
            break
    q, _ = np.linalg.qr(gens.T)
    rot, _ = np.linalg.qr(rng.standard_normal((mult, mult)))
    return q @ rot, gens


@pytest.mark.parametrize("b", range(1, 9))
def test_sign_patterns_match_reference(b):
    rng = np.random.default_rng(300 + b)
    pats = ref_sign_patterns(b)
    for mult in range(1, min(b, 3) + 1):
        for _ in range(5):
            basis, gens = _random_eigenbasis(rng, b, mult)
            got = _span_patterns(basis)
            assert got.dtype == np.int8
            assert len(got) <= 3 ** mult - 1
            # first nonzero entry +1, rows strictly increasing lexicographically
            lead = got[np.arange(len(got)), (got != 0).argmax(axis=1)]
            assert (lead == 1).all()
            assert [tuple(r) for r in got.tolist()] == sorted(set(map(tuple, got.tolist())))
            # every pattern of the span is a candidate, and the candidates
            # in the span are exactly those patterns
            resid = pats.T - basis @ (basis.T @ pats.T)
            in_span = pats[np.linalg.norm(resid, axis=0) <= 1e-9]
            assert len(in_span) >= 1  # the generators, up to sign
            got_resid = got.T - basis @ (basis.T @ got.T)
            got_in_span = got[np.linalg.norm(got_resid, axis=0) <= 1e-9]
            assert np.array_equal(got_in_span.astype(float), in_span)


# domains where the pattern certifier decides (equal or strict)
DECIDED = ([line_domain(n)[1] for n in range(2, 14)] + [t3_example()[1]]
           + [unit_star(p) for p in (2, 3, 4)]
           + [two_level_tree(c, l) for c, l in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (2, 4),
                                       (4, 1), (4, 2), (3, 3), (2, 5)]]
           + [random_domain(np.random.default_rng([5, i]), max_closure=10)
              for i in range(40)])


def test_equality_case_matches_reference_on_the_decided_set():
    statuses = set()
    for dom in DECIDED:
        want = ref_check_equality_case(dom)
        if want.status == "undecided":
            continue
        statuses.add(want.status)
        assert repr(check_equality_case(dom)) == repr(want)
    assert statuses == {"equal", "strict"}


@pytest.mark.parametrize("c, leaves, mult", [(2, 7, 1), (3, 5, 2), (4, 4, 3)])
def test_equality_witness_past_thirteen_boundary_vertices(c, leaves, mult):
    # b = 14, 15, 16: undecided under the 3^b pattern certifier
    dom = two_level_tree(c, leaves)
    rep = check_equality_case(dom)
    assert rep.status == "equal" and rep.equal and rep.multiplicity == mult
    A = [v for v, x in rep.witness.items() if x == 1.0]
    B = [v for v, x in rep.witness.items() if x == -1.0]
    assert len(A) == len(B) == leaves
    ratio = cap(dom, A, B).value / dom.graph.mass_of(A)
    assert ratio == pytest.approx(rep.sigma1 / 2.0, rel=1e-12, abs=0)
