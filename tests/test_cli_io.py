import json
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import isocap
from isocap import INFINITE, BoundReport, InputError, SingularMatrixError
from isocap.cli_io import (EXIT_BUDGET, EXIT_FAILED, EXIT_INPUT, EXIT_OK,
                           _parser, emit_graph, parse_family_spec, parse_graph,
                           project, run_command, to_json)
from isocap.infinite_families import generate_steps, t3_example
from isocap.verify import K_THEOREMS, REGISTRY, STEPS, THEOREMS, check

LINE5 = """# five-edge segment
v 0 1
v 1 1
v 2 1
v 3 1
v 4 1
v 5 1
e 0 1 1
e 1 2 1
e 2 3 1
e 3 4 1
e 4 5 1
omega 1 2 3 4
"""

T3 = None  # built lazily from the library example


def t3_text():
    global T3
    if T3 is None:
        g, dom = t3_example()
        T3 = emit_graph(g, dom.interior)
    return T3


@pytest.fixture
def line5(tmp_path):
    p = tmp_path / "line5.graph"
    p.write_text(LINE5)
    return str(p)


@pytest.fixture
def t3_file(tmp_path):
    p = tmp_path / "t3.graph"
    p.write_text(t3_text())
    return str(p)


def test_round_trip_identity():
    g, omega = parse_graph(LINE5)
    text = emit_graph(g, omega)
    g2, omega2 = parse_graph(text)
    assert g2 == g and tuple(omega2) == tuple(omega)
    assert emit_graph(g2, omega2) == text


@pytest.mark.parametrize("line,fragment", [
    ("v 0 0", "line 2"),
    ("v a 1\nv a 1", "line 3"),
    ("e a b 1", "line 2"),
    ("v a 1\ne a a 1", "line 3"),
    ("q what", "line 2"),
    ("v a 1\nomega a a", "line 3"),
    ("v a 1\nv b 1\nomega a\nomega b", "line 5"),
])
def test_parse_errors_carry_line_numbers(line, fragment):
    with pytest.raises(InputError, match=fragment):
        parse_graph("# header\n" + line + "\n")


def test_parse_rejects_empty_and_weird_ids():
    with pytest.raises(InputError):
        parse_graph("# nothing\n")
    with pytest.raises(InputError):
        parse_graph("v 0 1\nv 1 1\ne 0 2 1\n")  # undeclared endpoint


def test_json_formatting():
    doc = {"a": 1.0 / 3.0, "b": INFINITE, "c": [1, 2.5, "x"],
           "d": {"nested": None}, "e": True}
    text = to_json(doc)
    parsed = json.loads(text)
    assert parsed["a"] == pytest.approx(1.0 / 3.0, rel=1e-16)
    assert parsed["b"] == "infinite"
    assert parsed["c"] == [1, 2.5, "x"]
    assert parsed["d"]["nested"] is None
    assert parsed["e"] is True
    assert list(parsed) == ["a", "b", "c", "d", "e"]
    assert "0.33333333333333331" in text


def test_family_spec_parsing():
    spec = parse_family_spec("lattice_box:3:quotient")
    assert spec.kind == "lattice_box" and spec.dim == 3 and spec.quotient
    spec2 = parse_family_spec("binary_tree:full")
    assert not spec2.quotient
    spec3 = parse_family_spec("lattice_box:2:quotient:summable")
    assert spec3.mass_rule is not None
    assert spec3.mass_rule((2, -3)) == pytest.approx(2.0**-3)
    with pytest.raises(InputError):
        parse_family_spec("binary_tree:summable")
    with pytest.raises(InputError):
        parse_family_spec("")


def run_json(capsys, argv):
    code = run_command(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_spectrum_command(capsys, line5):
    code, doc = run_json(capsys, ["spectrum", "steklov", line5])
    assert code == EXIT_OK
    assert doc["tool_version"]
    res = doc["results"][0]
    assert res["type"] == "spectrum"
    assert res["eigenvalues"][1] == pytest.approx(0.4, rel=1e-11)


def test_cap_command(capsys, line5):
    code, doc = run_json(capsys, ["cap", "-A", "2", line5])
    assert code == EXIT_OK
    res = doc["results"][0]
    assert res["value"] == pytest.approx(1.0 / 2.0 + 1.0 / 3.0, rel=1e-11)


def test_alpha_and_verify_commands(capsys, t3_file):
    code, doc = run_json(capsys, ["alpha", "s", t3_file])
    assert code == EXIT_OK
    assert doc["results"][0]["value"] == pytest.approx(1.0 / 6.0, rel=1e-11)
    code, doc = run_json(capsys, ["verify", "steklov_1", t3_file])
    assert code == EXIT_OK
    rep = doc["results"][0]
    assert rep["type"] == "bound"
    assert rep["lower_ok"] is True and rep["upper_ok"] is True
    assert rep["eigenvalue"] == pytest.approx(1.0 / 3.0, rel=1e-11)


def test_verify_k_in_name(capsys, t3_file):
    code, doc = run_json(capsys, ["verify", "higher_steklov_finite(2)", t3_file])
    assert code == EXIT_OK
    rep = doc["results"][0]
    assert rep["theorem"] == "higher_steklov_finite(2)"
    assert rep["upper_ok"] is True and "empirical_c" in rep
    code, doc = run_json(capsys,
                         ["verify", "higher_steklov_finite(2)", t3_file,
                          "-k", "3"])
    assert code == EXIT_INPUT
    assert "disagrees" in doc["error"]["message"]


def test_family_commands(capsys):
    code, doc = run_json(capsys, ["family", "binary_tree:quotient",
                                  "--steps", "1..6", "--emit", "cap"])
    assert code == EXIT_OK
    seq = doc["results"][0]
    assert list(seq) == ["type", "name", "indices", "values", "limit_estimate",
                         "error_bar", "monotone", "heuristic"]
    assert seq["type"] == "limit" and seq["name"] == "cap_exhaustion"
    assert seq["values"][0] == pytest.approx(2.0 / 3.0, rel=1e-11)
    assert seq["monotone"] is True and seq["heuristic"] is False
    code, doc = run_json(capsys, ["family", "binary_tree:quotient",
                                  "--steps", "1,3,5", "--emit", "sigma"])
    assert code == EXIT_OK
    code, doc = run_json(capsys, ["verify", "dtn_bottom",
                                  "--family", "binary_tree:quotient",
                                  "--steps", "1..6"])
    assert code == EXIT_OK
    assert doc["results"][0]["upper_ok"] is True


@pytest.mark.parametrize("argv", [["family", "t3", "--emit", "cap"],
                                  ["verify", "bottom", "--family", "t3"]])
def test_t3_family_takes_one_step(capsys, argv):
    # t3 has a single snapshot: three steps would be three copies of it
    code, doc = run_json(capsys, argv + ["--steps", "1..3"])
    assert code == EXIT_INPUT
    assert doc["error"] == {"kind": "input", "message":
                            "family kind 't3' has a single snapshot; pass one step index"}
    code, doc = run_json(capsys, argv + ["--steps", "1..1"])
    assert code == EXIT_OK
    assert doc["diagnostics"] == {"steps": [0]}


def test_family_cap_on_path_segments(capsys):
    # Cap({1}, {0, n}) on the unit path 0..n: one edge in parallel with n - 1
    # edges in series
    code, doc = run_json(capsys, ["family", "path_segment", "--steps", "2..8",
                                  "--emit", "cap"])
    assert code == EXIT_OK
    rep = doc["results"][0]
    assert rep["indices"] == list(range(2, 9))
    assert rep["values"] == pytest.approx([1.0 + 1.0 / (n - 1) for n in range(2, 9)],
                                          rel=1e-12)


PATH4 = "v 0 1\nv 1 1\nv 2 1\nv 3 1\ne 0 1 1\ne 1 2 1\ne 2 3 1\nomega 1 2\n"


@pytest.mark.parametrize("argv", [["alpha", "d", "--budget-single"],
                                  ["alpha", "s", "--budget-pair"]])
def test_budget_zero_leaves_only_the_heuristic(capsys, tmp_path, argv):
    path = tmp_path / "path4.graph"
    path.write_text(PATH4)
    code, doc = run_json(capsys, argv + ["0", str(path)])
    assert code == EXIT_BUDGET
    assert doc["error"]["kind"] == "budget"
    code, doc = run_json(capsys, argv + ["0", "--heuristic", str(path)])
    assert code == EXIT_OK
    assert doc["results"][0]["heuristic"] is True
    exact = run_json(capsys, argv[:2] + [str(path)])[1]["results"][0]["value"]
    assert doc["results"][0]["value"] >= exact


@pytest.mark.parametrize("flag", ["--budget-single", "--budget-pair", "--budget-tuple"])
def test_negative_budget_is_an_input_error(capsys, tmp_path, flag):
    path = tmp_path / "path4.graph"
    path.write_text(PATH4)
    code, doc = run_json(capsys, ["kappa", "-k", "1", flag, "-1", str(path)])
    assert code == EXIT_INPUT
    assert doc["error"]["kind"] == "input"
    assert "must be nonnegative" in doc["error"]["message"]
    if flag == "--budget-tuple":
        code, doc = run_json(capsys, ["kappa", "-k", "1", flag, "0", str(path)])
        assert code == EXIT_BUDGET


def test_coarea_command(capsys, line5):
    code, doc = run_json(capsys, ["coarea", line5, "--field",
                                  "0=0,1=1,2=2,3=1,4=0,5=0"])
    assert code == EXIT_OK
    res = doc["results"][0]
    assert res["holds"] is True
    assert res["value"] <= 2.0 * res["energy"] + 1e-12


def test_exit_codes(capsys, tmp_path, t3_file, monkeypatch):
    assert run_command(["spectrum", "steklov", str(tmp_path / "nope")]) == \
        EXIT_INPUT
    capsys.readouterr()
    bad = tmp_path / "bad.graph"
    bad.write_text("v 0 0\n")
    code, doc = run_json(capsys, ["spectrum", "steklov", str(bad)])
    assert code == EXIT_INPUT
    assert "line 1" in doc["error"]["message"]
    code, doc = run_json(capsys, ["alpha", "s", "--budget-pair", "1", t3_file])
    assert code == EXIT_BUDGET
    assert doc["error"]["kind"] == "budget"

    import isocap.cli_io as cli

    def failing_check(*a, **kw):
        return BoundReport("steklov_1", 1.0, 0.1, 0.0125, 0.2, True, False,
                           10.0, ())

    monkeypatch.setattr(cli, "check", failing_check)
    code, doc = run_json(capsys, ["verify", "steklov_1", t3_file])
    assert code == EXIT_FAILED
    assert doc["results"][0]["upper_ok"] is False


HOSTILE = """# masses and weights spanning 1e-300..1e300
v a 1e-300
v b 1
v c 1e300
e a b 1e300
e b c 1e-300
omega b
"""


def test_non_finite_report_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "hostile.graph"
    path.write_text(HOSTILE)
    with np.errstate(all="ignore"):
        code, doc = run_json(capsys, ["verify", "steklov_1", str(path)])
    assert code == EXIT_INPUT
    assert doc["error"]["kind"] == "input"
    assert "non-finite" in doc["error"]["message"]


@pytest.mark.parametrize("argv", [["spectrum", "steklov"],
                                  ["spectrum", "steklov", "-k", "1"],
                                  ["verify", "steklov_1"]])
def test_overflow_is_an_input_error_without_warnings(capsys, tmp_path, argv):
    path = tmp_path / "hostile.graph"
    path.write_text(HOSTILE)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_command(argv + [str(path)])
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert code == EXIT_INPUT
    assert doc["error"]["kind"] == "input"
    assert "non-finite" in doc["error"]["message"]
    assert "harmonic_extension" in doc["error"]["message"]
    assert captured.err == ""


def test_cancelled_pair_value_is_a_numerical_error(capsys, tmp_path):
    # the Schur entry of a is 1e300 - (1e300)^2 / (1e300 + 1e-300) = 0 in
    # floating point; a pair capacity on a connected closure is positive
    path = tmp_path / "hostile.graph"
    path.write_text(HOSTILE)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_command(["alpha", "s", str(path)])
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert code == EXIT_INPUT
    assert doc["error"]["kind"] == "numerical"
    assert "minimal pair value 0.0" in doc["error"]["message"]
    assert captured.err == ""


@pytest.mark.parametrize("exc", [SingularMatrixError("pivot 0 is not positive"),
                                 np.linalg.LinAlgError("Singular matrix")])
def test_numerical_failure_is_a_numerical_error(capsys, t3_file, monkeypatch, exc):
    import isocap.cli_io as cli

    def failing_check(*a, **kw):
        raise exc

    monkeypatch.setattr(cli, "check", failing_check)
    code, doc = run_json(capsys, ["verify", "steklov_1", t3_file])
    assert code == EXIT_INPUT
    assert doc["error"] == {"kind": "numerical", "message": str(exc)}


def test_parser_is_built_once_and_keeps_no_state(capsys, line5, t3_file):
    assert _parser() is _parser()
    sequence = [
        ["spectrum", "steklov", line5],
        ["alpha", "zzz", t3_file],                 # bad choice
        ["cap", line5],                            # missing -A
        ["cap", "-A", "2", line5],
        ["--help"],
        ["alpha", "s", "--heuristic", t3_file],
        ["spectrum", "steklov", "-k", "1", line5],
        ["spectrum", "steklov", line5],            # no -k: every eigenvalue
        ["alpha", "s", t3_file],                   # no --heuristic
    ]

    def run_all(fresh):
        runs = []
        for argv in sequence:
            if fresh:
                _parser.cache_clear()
            code = run_command(argv)
            captured = capsys.readouterr()
            runs.append((code, captured.out, captured.err))
        return runs

    fresh = run_all(fresh=True)
    assert run_all(fresh=False) == fresh
    assert [code for code, _, _ in fresh] == [EXIT_OK, EXIT_INPUT, EXIT_INPUT,
                                              EXIT_OK, EXIT_OK, EXIT_OK, EXIT_OK,
                                              EXIT_OK, EXIT_OK]
    assert len(json.loads(fresh[6][1])["results"][0]["eigenvalues"]) == 1
    assert len(json.loads(fresh[7][1])["results"][0]["eigenvalues"]) == 2


def test_usage_errors_return_input_code(capsys, t3_file):
    assert run_command([]) == EXIT_INPUT
    capsys.readouterr()
    assert run_command(["alpha", "zzz", "x"]) == EXIT_INPUT
    capsys.readouterr()
    # enumeration has one visit order, with no option to change it
    assert run_command(["alpha", "s", "--seed", "3", t3_file]) == EXIT_INPUT
    assert "unrecognized arguments: --seed" in capsys.readouterr().err
    assert run_command(["--help"]) == EXIT_OK
    capsys.readouterr()


def test_output_is_deterministic(capsys, t3_file):
    argv = ["alpha", "s", t3_file]
    run_command(argv)
    first = capsys.readouterr().out
    run_command(argv)
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert doc["instance"]["source"].endswith("t3.graph")


def test_enumerator_overflow_is_reported_without_warnings(capsys, tmp_path):
    hostile = tmp_path / "hostile.graph"
    hostile.write_text(HOSTILE)
    # every mass and weight tiny or huge: alpha_D itself overflows to inf
    tiny = tmp_path / "tiny.graph"
    tiny.write_text("v a 1e-300\nv b 1e-300\nv c 1e-300\n"
                    "e a b 1e300\ne b c 1e300\nomega b\n")
    cases = [(["kappa", "-k", "1", str(hostile)], "numerical", "Singular matrix"),
             (["gamma", "s", "-k", "2", str(hostile)], "numerical", "Singular matrix"),
             (["alpha", "d", str(tiny)], "input",
              "non-finite values in alpha_dirichlet")]
    for argv, kind, message in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_command(argv)
        captured = capsys.readouterr()
        assert code == EXIT_INPUT, argv
        assert json.loads(captured.out)["error"] == {"kind": kind, "message": message}
        assert captured.err == ""


# the degree of a overflows, so every alpha_S split value is NaN
NAN_SPLITS = """v a 1
v b1 1
v b2 1
v c 1
e a b1 1e308
e a b2 1e308
e b1 c 1
e b2 c 1
omega b1 b2
"""


def test_pair_constant_without_a_finite_split_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "nan_splits.graph"
    path.write_text(NAN_SPLITS)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_command(["alpha", "s", str(path)])
    captured = capsys.readouterr()
    assert code == EXIT_INPUT
    assert json.loads(captured.out)["error"] == {
        "kind": "input", "message": "non-finite values in every pair split"}
    assert captured.err == ""


def test_dense_budget_is_an_exit_3_report_before_any_allocation(capsys, tmp_path):
    # a unit path of 5,001 vertices: the dense stiffness would take 200 MB
    n = 5000
    path = tmp_path / "long.graph"
    path.write_text("".join("v %d 1\n" % v for v in range(n + 1))
                    + "".join("e %d %d 1\n" % (v, v + 1) for v in range(n))
                    + "omega " + " ".join(map(str, range(1, n))) + "\n")
    tracemalloc.start()
    try:
        # every pair is asked for: the dense route
        code, doc = run_json(capsys, ["spectrum", "dirichlet", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_BUDGET
    assert doc["error"]["kind"] == "budget"
    assert "dense budget" in doc["error"]["message"]
    assert peak < 50 * 2 ** 20
    # one pair: the sparse route answers
    code, doc = run_json(capsys, ["spectrum", "dirichlet", "-k", "1", str(path)])
    assert code == EXIT_OK
    assert doc["results"][0]["eigenvalues"] == pytest.approx(
        [2.0 - 2.0 * np.cos(np.pi / n)], rel=1e-12)


def test_reports_do_not_depend_on_the_hash_seed(tmp_path):
    line5 = tmp_path / "line5.graph"
    line5.write_text(LINE5)
    t3 = tmp_path / "t3.graph"
    t3.write_text(t3_text())
    line5, t3 = str(line5), str(t3)
    family = ["--family", "binary_tree:quotient", "--steps", "1..6"]
    argvs = (
        [["spectrum", mode, line5] for mode in ("dirichlet", "neumann", "steklov", "hm")]
        + [["cap", "-A", "2", line5], ["cap", "-A", "1,2", "-B", "0,5", line5]]
        + [["alpha", which, t3] for which in ("d", "n", "s", "ds")]
        + [["gamma", "d", "-k", "2", t3], ["gamma", "s", "-k", "2", t3],
           ["kappa", "-k", "2", t3]]
        + [["verify", "steklov_1", t3], ["verify", "dtn_bottom"] + family]
        + [["family", "binary_tree:quotient", "--steps", "1..6", "--emit", emit]
           for emit in ("alpha", "cap", "sigma")]
        + [["coarea", line5, "--field", "0=0,1=1,2=2,3=1,4=0,5=0"]]
    )
    script = ("import json, sys\n"
              "from isocap.cli_io import run_command\n"
              "for argv in json.load(sys.stdin):\n"
              "    print('exit', run_command(argv))\n")
    src = os.path.dirname(os.path.dirname(isocap.__file__))
    outputs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", script], input=json.dumps(argvs),
                              capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.count("exit %d\n" % EXIT_OK) == len(argvs)
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


def _parity_cases():
    """(CLI theorem word, library id, k, instance kind) for every registry id:
    the k-indexed ones at k = 1 and 2, written as id(k)."""
    for theorem in THEOREMS:
        kind = REGISTRY[theorem].kind
        if theorem in K_THEOREMS:
            for k in (1, 2):
                yield "%s(%d)" % (theorem, k), theorem, k, kind
        else:
            yield theorem, theorem, None, kind


@pytest.mark.parametrize("word,theorem,k,kind", list(_parity_cases()))
def test_verify_cli_matches_the_library(capsys, t3_file, word, theorem, k, kind):
    if kind == STEPS:
        argv = ["verify", word, "--family", "binary_tree:quotient", "--steps", "1..6"]
        instance = generate_steps(parse_family_spec("binary_tree:quotient"), range(1, 7))
    else:
        argv = ["verify", word, t3_file]
        graph, omega = parse_graph(t3_text())
        instance = isocap.make_domain(graph, omega)
    code = run_command(argv)
    out = capsys.readouterr().out
    assert code == EXIT_OK
    report = to_json(project(check(theorem, instance, k=k)))
    assert '"results": [%s]' % report in out


def test_unknown_theorem_lists_every_id(capsys, t3_file):
    code, doc = run_json(capsys, ["verify", "nonsense", t3_file])
    assert code == EXIT_INPUT
    assert doc["error"]["kind"] == "input"
    message = doc["error"]["message"]
    assert message.startswith("unknown theorem 'nonsense'")
    assert message.endswith(", ".join(THEOREMS))


def test_python_dash_m_runs_the_command_line(capsys, t3_file):
    # python -m isocap prints what run_command prints, and nothing on stderr
    assert run_command(["alpha", "s", t3_file]) == EXIT_OK
    want = capsys.readouterr().out
    src = os.path.dirname(os.path.dirname(isocap.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "isocap", "alpha", "s", t3_file],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == EXIT_OK
    assert proc.stdout == want
    assert proc.stderr == ""
