"""The one-pass CLI path against the two-pass code it replaced.

The graph file parser validates in its single line pass, the report emitter
appends to one list, the pair theorems of verify enumerate their constant on
the spectrum's own DtN form (the graph's one cached elimination), the
eigenvector signs are fixed for the whole
array at once and the superlevel sets come from one sorted order.  Each is
checked here against the code it replaced, kept below as an oracle: the same
graphs, the same error texts, the same report bytes and the same bits.
"""

import contextlib
import io
import json as _json
import math

import numpy as np
import pytest

from isocap import INFINITE, InputError, WeightedGraph, make_domain
from isocap import cli_io as cli
from isocap import constants
from isocap.cli_io import EXIT_INPUT, emit_graph, parse_graph, run_command, to_json
from isocap.constants import (Budget, _levels, alpha_neumann, alpha_steklov,
                              beta_steklov)
from isocap.infinity import is_infinite
from isocap.linear_core import _fix_signs
from isocap.testing import random_domain
from isocap.verify import check

# ---------------------------------------------------------------------------
# oracles: the two-pass parser and the recursive emitter


def _positive(token, lineno, what):
    try:
        value = float(token)
    except ValueError:
        raise InputError("line %d: %s %r is not a number" % (lineno, what, token))
    if not math.isfinite(value) or value <= 0.0:
        raise InputError("line %d: %s must be a positive finite number" % (lineno, what))
    return value


def oracle_parse_graph(text):
    """Parse, then build through the validating WeightedGraph constructor."""
    order = []
    masses = {}
    edges = []
    seen_edges = set()
    omega = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        kind = parts[0]
        if kind == "v":
            if len(parts) != 3:
                raise InputError("line %d: expected 'v <id> <mass>'" % lineno)
            vid = parts[1]
            if vid in masses:
                raise InputError("line %d: duplicate vertex %r" % (lineno, vid))
            masses[vid] = _positive(parts[2], lineno, "mass")
            order.append(vid)
        elif kind == "e":
            if len(parts) != 4:
                raise InputError("line %d: expected 'e <id> <id> <weight>'" % lineno)
            u, v = parts[1], parts[2]
            for end in (u, v):
                if end not in masses:
                    raise InputError("line %d: undeclared endpoint %r" % (lineno, end))
            if u == v:
                raise InputError("line %d: self-loop at %r" % (lineno, u))
            key = (u, v) if u < v else (v, u)
            if key in seen_edges:
                raise InputError("line %d: duplicate edge %r-%r" % (lineno, u, v))
            seen_edges.add(key)
            edges.append((u, v, _positive(parts[3], lineno, "weight")))
        elif kind == "omega":
            if omega is not None:
                raise InputError("line %d: second omega line" % lineno)
            if len(parts) == 1:
                raise InputError("line %d: empty omega line" % lineno)
            ids = parts[1:]
            if len(set(ids)) != len(ids):
                raise InputError("line %d: repeated id in omega" % lineno)
            for vid in ids:
                if vid not in masses:
                    raise InputError("line %d: omega id %r not declared" % (lineno, vid))
            omega = tuple(ids)
        else:
            raise InputError("line %d: unknown record %r" % (lineno, kind))
    if not order:
        raise InputError("no vertices declared")
    return WeightedGraph(order, masses, edges), omega


def _oracle_num(x):
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int,)):
        return str(x)
    if not math.isfinite(x):
        raise InputError("non-finite number %r in report" % x)
    return "%.17g" % x


def oracle_to_json(obj):
    if is_infinite(obj):
        return '"infinite"'
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return _json.dumps(obj)
    if isinstance(obj, bool) or isinstance(obj, (int, float)):
        return _oracle_num(obj)
    if isinstance(obj, dict):
        items = ("%s: %s" % (_json.dumps(str(k)), oracle_to_json(v)) for k, v in obj.items())
        return "{" + ", ".join(items) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(oracle_to_json(v) for v in obj) + "]"
    raise InputError("unserializable object %r" % (obj,))


def oracle_levels(vec):
    """Superlevel slot sets of a signed field, largest value first."""
    out = []
    for thresh in sorted({x for x in vec if x > 1e-12}, reverse=True):
        out.append(tuple(int(i) for i in np.nonzero(vec >= thresh - 1e-15)[0]))
    return out


def oracle_fix_signs(vectors):
    for j in range(vectors.shape[1]):
        col = vectors[:, j]
        big = np.abs(col) > 1e-12 * max(np.abs(col).max(), 1e-300)
        if big.any():
            lead = col[np.argmax(big)]
            if lead < 0:
                vectors[:, j] = -col
    return vectors


def _outcome(fn, *args):
    """('ok', value) or ('error', type name, message)."""
    try:
        return ("ok", fn(*args))
    except InputError as exc:
        return ("error", type(exc).__name__, str(exc))


# ---------------------------------------------------------------------------
# the parser


def _same_graph(a, b):
    assert a.vertices == b.vertices and a.index == b.index
    assert list(a.mass.items()) == list(b.mass.items())
    assert a.pairs == b.pairs and a.weights == b.weights
    assert a.edges == b.edges and a.adjacency == b.adjacency
    assert a.ends.tobytes() == b.ends.tobytes()
    assert a.edge_weights.tobytes() == b.edge_weights.tobytes()
    assert a == b and hash(a) == hash(b)


# one file per error kind, each fault placed after valid lines
HOSTILE = {
    "unknown record": "v a 1\nq what\n",
    "arity v short": "v a\n",
    "arity v long": "v a 1 2\n",
    "arity e short": "v a 1\nv b 1\ne a b\n",
    "arity e long": "v a 1\nv b 1\ne a b 1 2\n",
    "duplicate vertex": "v a 1\nv b 1\nv a 2\n",
    "bad mass": "v a x\n",
    "zero mass": "v a 0\n",
    "negative mass": "v a -1\n",
    "nan mass": "v a nan\n",
    "inf mass": "v a inf\n",
    "overflowing mass": "v a 1e400\n",
    "bad weight": "v a 1\nv b 1\ne a b x\n",
    "zero weight": "v a 1\nv b 1\ne a b 0\n",
    "negative weight": "v a 1\nv b 1\ne a b -2\n",
    "nan weight": "v a 1\nv b 1\ne a b nan\n",
    "inf weight": "v a 1\nv b 1\ne a b inf\n",
    "undeclared first endpoint": "v a 1\ne z a 1\n",
    "undeclared second endpoint": "v a 1\ne a z 1\n",
    "undeclared both endpoints": "v a 1\ne z y 1\n",
    "undeclared self-loop": "e z z 1\n",
    "self-loop": "v a 1\ne a a 1\n",
    "duplicate edge": "v a 1\nv b 1\ne a b 1\ne a b 2\n",
    "duplicate edge reversed": "v a 1\nv b 1\ne a b 1\ne b a 2\n",
    "second omega": "v a 1\nv b 1\ne a b 1\nomega a\nomega b\n",
    "empty omega": "v a 1\nomega\n",
    "repeated omega id": "v a 1\nomega a a\n",
    "undeclared omega id": "v a 1\nomega z\n",
    "no vertices": "# only a comment\n\n   \n",
    "empty file": "",
    "isolated vertex": "v a 1\nv b 1\nv c 1\ne b c 1\n",
    "isolated last vertex": "v a 1\nv b 1\nv c 1\ne a b 1\nomega a\n",
    "single vertex": "v a 1\n",
    "line fault before isolation": "v a 1\nv b 1\nv c 1\ne a b 1\nq x\n",
    "first of two faults": "v a 1\nv a 0\nq x\n",
    "omega before isolation": "v a 1\nv b 1\nv c 1\ne a b 1\nomega z\n",
    "comment after fields": "v a 1\nv b 1\ne a b 1 # note\n",
    # two faults on one line: the earlier check of the line wins
    "duplicate vertex with a bad mass": "v a 1\nv a 0\n",
    "undeclared endpoint with a bad weight": "v a 1\ne a z x\n",
    "self-loop with a bad weight": "v a 1\ne a a 0\n",
    "duplicate edge with a bad weight": "v a 1\nv b 1\ne a b 1\ne b a nan\n",
    "undeclared and repeated omega ids": "v a 1\nomega z z\n",
}

VALID = {
    "whitespace and comments": "  v a 1  \n\tv b 1\n# e a b 7\ne a b 1\n#omega a\n",
    "crlf": "v a 1\r\nv b 2\r\ne b a 0.5\r\nomega a\r\n",
    "numeric ids": "v 1 1\nv 10 1\nv 2 1\ne 10 1 1\ne 2 10 3\nomega 1\n",
    "float spellings": "v a 1e-310\nv b 1_0\nv c 1.5E2\ne a b 1e-320\ne c b 7.\ne c a .5\n",
    "omega first": "v a 1\nomega a\nv b 1\ne a b 1\n",
    "declared after use elsewhere": "v b 1\nv a 1\ne a b 1\nv c 2\ne c a 3\n",
}


@pytest.mark.parametrize("name", sorted(HOSTILE))
def test_hostile_files_raise_the_oracle_error(name):
    text = HOSTILE[name]
    want = _outcome(oracle_parse_graph, text)
    assert want[0] == "error", want
    assert _outcome(parse_graph, text) == want


@pytest.mark.parametrize("name", sorted(VALID))
def test_valid_files_build_the_oracle_graph(name):
    want, want_omega = oracle_parse_graph(VALID[name])
    graph, omega = parse_graph(VALID[name])
    _same_graph(graph, want)
    assert omega == want_omega


def test_mutated_files_match_the_oracle():
    # random edits of a valid file: each first fault, in file order, and
    # every graph that survives, as the two-pass parser gives them
    rng = np.random.default_rng(11)
    base = ["v a 1", "v b 2", "v c 0.5", "v d 1", "e a b 1", "e b c 2", "e c d 1",
            "e a d 0.25", "omega a b"]
    tokens = ["v", "e", "omega", "q", "#", "a", "b", "c", "d", "z", "1", "0", "-1",
              "nan", "inf", "x", "2.5"]
    kinds = set()
    for _ in range(400):
        lines = list(base)
        for _ in range(int(rng.integers(1, 4))):
            op, k = int(rng.integers(5)), int(rng.integers(len(lines)))
            if op == 0:
                size = int(rng.integers(1, 6))
                lines.insert(k, " ".join(rng.choice(tokens, size=size).tolist()))
            elif op == 1 and len(lines) > 1:
                del lines[k]
            elif op == 2:
                parts = lines[k].split() or ["#"]
                parts[int(rng.integers(len(parts)))] = str(rng.choice(tokens))
                lines[k] = " ".join(parts)
            elif op == 3:
                lines.insert(k, lines[int(rng.integers(len(lines)))])
            else:
                rng.shuffle(lines)
        text = "\n".join(lines) + "\n"
        want = _outcome(oracle_parse_graph, text)
        got = _outcome(parse_graph, text)
        if want[0] == "ok":
            assert got[0] == "ok", text
            _same_graph(got[1][0], want[1][0])
            assert got[1][1] == want[1][1]
        else:
            assert got == want, text
        kinds.add(want[0] if want[0] == "ok" else want[2].split(":")[-1].split()[0])
    assert len(kinds) >= 8, kinds


def test_emitted_graphs_parse_back_to_the_oracle_graph():
    for i in range(30):
        dom = random_domain(np.random.default_rng([17, i]))
        text = emit_graph(dom.graph, dom.interior)
        graph, omega = parse_graph(text)
        want, want_omega = oracle_parse_graph(text)
        _same_graph(graph, want)
        assert graph.vertices == tuple(map(str, dom.graph.vertices))
        assert graph.weights == dom.graph.weights
        assert omega == want_omega


# ---------------------------------------------------------------------------
# the emitter


class _Str(str):
    def __str__(self):
        return "shown"


class _Dict(dict):
    pass


VALUES = [
    INFINITE, None, True, False, 0, -7, 2 ** 70, 1.0 / 3.0, -0.0, 5e-324, 1.7976931348623157e308,
    np.float64(0.1), np.float64(-2.5e-300), "plain", "quote\" and \\ and é \n",
    _Str("sub"), {_Str("k"): 1.0}, {1: "int key", None: "none key", 2.5: [1, 2]},
    (1, (2.0, ("x", (None, INFINITE)))), [], {}, (), [[], {}, ()], _Dict(a=[True]),
    {"a": {"b": {"c": [1.5, {"d": INFINITE}]}}},
]
BAD = [float("nan"), float("inf"), -float("inf"), np.float64("nan"), object(), np.int64(3),
       np.bool_(True), np.float32(1.5), {1, 2}, b"bytes",
       [1.0, {"k": float("inf")}, object()], {"a": object(), "b": float("nan")},
       (1, [2, (3, np.nan)])]


@pytest.mark.parametrize("value", VALUES, ids=range(len(VALUES)))
def test_emitter_matches_the_recursive_one(value):
    assert to_json(value) == oracle_to_json(value)
    assert to_json({"v": value, "w": [value, (value,)]}) == oracle_to_json(
        {"v": value, "w": [value, (value,)]})


@pytest.mark.parametrize("value", BAD, ids=range(len(BAD)))
def test_emitter_raises_the_recursive_ones_first_error(value):
    want = _outcome(oracle_to_json, [1, value])
    assert want[0] == "error"
    assert _outcome(to_json, [1, value]) == want


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run_command(argv)
    return code, out.getvalue()


def _commands(dom, path):
    ids = [str(v) for v in dom.closure]
    cap_source = ids[0]
    window = ",".join(ids[:3])
    field = ",".join("%s=%r" % (v, 0.25 * i - 1.0) for i, v in enumerate(ids))
    out = [["verify", t, path] for t in ("dirichlet_1", "neumann_1", "steklov_1",
                                         "hm_steklov_1", "higher_dirichlet(1)",
                                         "higher_steklov_finite(1)", "hm_higher(1)")]
    out += [["spectrum", m, path] for m in ("dirichlet", "neumann", "steklov", "hm")]
    out += [["spectrum", "steklov", "-k", "2", path]]
    out += [["cap", "-A", cap_source, path], ["cap", "-A", cap_source, "-B", ids[-1], path]]
    out += [["alpha", w, path] for w in ("d", "n", "s")]
    out += [["alpha", "ds", "-Y", window, path], ["alpha", "s", "--heuristic", path]]
    out += [["gamma", "d", "-k", "1", path], ["gamma", "s", "-k", "1", path],
            ["kappa", "-k", "1", path], ["coarea", path, "--field", field],
            ["verify", "steklov_1", "--budget-pair", "1", path]]
    return out


def test_reports_of_every_command_match_the_two_pass_code(tmp_path, monkeypatch):
    # every subcommand on 50 random domains: the same exit codes and bytes
    # as the two-pass parser with the recursive emitter
    cases = []
    for i in range(50):
        dom = random_domain(np.random.default_rng([23, i]), max_closure=9)
        path = str(tmp_path / ("d%02d.graph" % i))
        with open(path, "w") as fh:
            fh.write(emit_graph(dom.graph, dom.interior))
        cases += _commands(dom, path)
    got = [_run(argv) for argv in cases]
    monkeypatch.setattr(cli, "parse_graph", oracle_parse_graph)
    monkeypatch.setattr(cli, "to_json", oracle_to_json)
    want = [_run(argv) for argv in cases]
    assert got == want
    codes = {code for code, _ in got}
    assert {0, 3} <= codes, codes


def test_hostile_files_give_the_two_pass_reports(tmp_path, monkeypatch):
    cases = []
    for i, text in enumerate(list(HOSTILE.values()) + list(VALID.values())):
        path = str(tmp_path / ("h%02d.graph" % i))
        with open(path, "w", newline="") as fh:
            fh.write(text)
        cases += [["spectrum", "dirichlet", path], ["verify", "neumann_1", path]]
    got = [_run(argv) for argv in cases]
    monkeypatch.setattr(cli, "parse_graph", oracle_parse_graph)
    monkeypatch.setattr(cli, "to_json", oracle_to_json)
    assert got == [_run(argv) for argv in cases]
    assert sum(code == EXIT_INPUT for code, _ in got) >= len(HOSTILE)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "Infinity"])
def test_coarea_rejects_a_non_finite_field_value_by_id(tmp_path, value):
    path = tmp_path / "path.graph"
    path.write_text("v a 1\nv b 1\nv c 1\ne a b 1\ne b c 1\nomega b\n")
    code, out = _run(["coarea", str(path), "--field", "a=1,b=%s,c=0" % value])
    assert code == EXIT_INPUT
    error = _json.loads(out)["error"]
    assert error["kind"] == "input"
    assert error["message"] == ("field value of 'b' must be a finite number, got %r" % value)


# ---------------------------------------------------------------------------
# verify: the pair constant on the spectrum's form


@pytest.mark.parametrize("theorem,constant", [
    ("neumann_1", lambda dom: alpha_neumann(dom)),
    ("steklov_1", lambda dom: alpha_steklov(dom)),
    ("hm_steklov_1", lambda dom: beta_steklov(dom.graph, dom.interior)),
])
def test_pair_theorems_enumerate_on_the_spectrum_form(theorem, constant, eliminations):
    # the spectrum and the pair constant of one check share one elimination,
    # counted on freshly built domains, and the constant is the one its own
    # function computes
    def doms():
        return [random_domain(np.random.default_rng([29, i]), max_closure=11)
                for i in range(30)]

    want = [constant(dom) for dom in doms()]
    for dom, res in zip(doms(), want):
        eliminations.clear()
        rep = check(theorem, dom)
        assert len(eliminations) == 1
        assert repr(rep.constant) == repr(res.value)
        assert rep.witness == res.witness


@pytest.mark.parametrize("theorem,constant", [
    ("neumann_1", lambda dom, b: alpha_neumann(dom, budget=b, heuristic=True)),
    ("steklov_1", lambda dom, b: alpha_steklov(dom, budget=b, heuristic=True)),
    ("hm_steklov_1", lambda dom, b: beta_steklov(dom.graph, dom.interior, budget=b,
                                                 heuristic=True)),
])
def test_pair_theorems_keep_the_budget_error_and_the_heuristic(theorem, constant):
    tight = Budget(pair=1)
    for i in range(10):
        dom = random_domain(np.random.default_rng([31, i]), max_closure=10)
        res = constant(dom, tight)
        rep = check(theorem, dom, budget=tight, heuristic=True)
        assert res.heuristic
        assert repr(rep.constant) == repr(res.value) and rep.witness == res.witness
        with pytest.raises(constants.BudgetError, match="exceeds pair budget 1; "):
            check(theorem, dom, budget=tight)


# ---------------------------------------------------------------------------
# linear_core: whole-array signs


def test_fix_signs_matches_the_per_column_loop():
    rng = np.random.default_rng(37)
    cases = [rng.normal(size=(6, 4)), np.zeros((5, 3)), np.zeros((0, 0)), np.zeros((4, 0))]
    # entries at the 1e-12 cut: the first is exactly at it, not above
    cut = np.array([[-1e-12, 1e-12, -2e-12, 0.0],
                    [1.0, -1.0, 1.0, -0.0],
                    [0.5, 0.5, -1.0, -1e-300]])
    cases.append(cut)
    nan = rng.normal(size=(4, 3))
    nan[2, 1] = np.nan
    nan[:, 2] = -np.abs(nan[:, 2])
    cases.append(nan)
    inf = -np.abs(rng.normal(size=(3, 3)))
    inf[1, 0], inf[2, 1] = -np.inf, np.inf
    cases.append(inf)
    neg = -np.abs(rng.normal(size=(5, 2)))
    neg[0] = 0.0
    cases.append(neg)
    tiny = rng.normal(size=(4, 3)) * 1e-310
    cases.append(tiny)
    for a in cases:
        want = oracle_fix_signs(a.copy())
        got = _fix_signs(a.copy())
        assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# constants: superlevel sets from one sorted order


def test_levels_match_the_per_value_definition():
    rng = np.random.default_rng(41)
    fields = [
        rng.normal(size=12),
        np.array([1.0, 1.0 - 5e-16, 1.0 - 2e-15, 1.0 + 4e-16, 0.5, 0.5, -1.0]),
        np.array([1e-12, 2e-12, 1.0000001e-12, 5e-13, 0.0, -0.0, -1e-12, 3.0]),
        np.array([1e-12, 5e-13, 0.0, -3.0]),
        np.array([np.nan, 2.0, np.nan, 1.0, 2.0]),
        np.array([np.inf, 1.0, -np.inf, 1.0]),
        np.zeros(5),
        np.round(rng.normal(size=40), 1),
        1e-12 + rng.integers(0, 3, size=20) * 1e-15,
    ]
    for vec in fields:
        for v in (vec, -vec):
            assert _levels(v) == oracle_levels(v)
    for i in range(100):
        vec = rng.normal(size=int(rng.integers(1, 30))) * 10.0 ** rng.integers(-14, 3)
        assert _levels(vec) == oracle_levels(vec)


# ---------------------------------------------------------------------------
# graph_core: lock-free edge caches


def test_edge_caches_are_built_once_and_bit_identical():
    g = WeightedGraph("abcd", {v: 1.0 + i for i, v in enumerate("abcd")},
                      [("b", "a", 0.5), ("c", "b", 2.0), ("a", "d", 3.0)])
    assert g.ends is g.ends and g.edge_weights is g.edge_weights
    assert g.ends.tolist() == [[0, 1], [1, 2], [0, 3]] and not g.ends.flags.writeable
    assert g.edges is g.edges and g.adjacency is g.adjacency
    dom = make_domain(g, ["a"])
    assert dom.induced.pairs == ((0, 1), (0, 2)) and dom.induced.pairs is dom.induced.pairs
    for attr in ("pairs", "weights", "ends", "edge_weights", "edges", "adjacency"):
        assert attr in vars(g)
    big = random_domain(np.random.default_rng(3)).graph
    arrays = WeightedGraph(big.vertices, big.mass, big.edges)
    assert arrays.ends.tobytes() == big.ends.tobytes()
    assert arrays.edge_weights.tobytes() == big.edge_weights.tobytes()

