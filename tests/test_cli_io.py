import contextlib
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import isocap
from isocap import INFINITE, BoundReport, InputError, SingularMatrixError
from isocap.cli_io import (EXIT_BUDGET, EXIT_FAILED, EXIT_INPUT, EXIT_OK,
                           _parser, emit_graph, parse_family_spec, parse_graph,
                           project, run_command, to_json)
from isocap.infinite_families import generate_steps, t3_example
from isocap.linear_core import SPARSE_MIN_DIM
from isocap.spectra import DOMAIN_SPECTRA
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
    # the specs the benchmark runs
    for text in ("path_segment", "binary_tree", "binary_tree:quotient", "lattice_box:2",
                 "lattice_box:3", "lattice_box:2:quotient", "lattice_box:3:quotient",
                 "half_space:3"):
        assert parse_family_spec(text).kind == text.split(":")[0]
    # a token that would do nothing: a dimension of a kind without one, or a
    # second value of one option
    for text, message in [("binary_tree:7", "gives a dimension to 'binary_tree'"),
                          ("path_segment:1", "gives a dimension to 'path_segment'"),
                          ("lattice_box:2:3", "sets its dim twice"),
                          ("lattice_box:quotient:full", "sets its quotient twice"),
                          ("lattice_box:2:summable:summable", "sets its mass_rule twice")]:
        with pytest.raises(InputError, match=message):
            parse_family_spec(text)


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


@pytest.mark.parametrize("theorem", [t for t in K_THEOREMS if REGISTRY[t].kind != STEPS])
def test_verify_takes_k_anywhere(capsys, t3_file, theorem):
    # -k after the file, before it, or in the theorem word: one report
    runs = []
    for argv in ([theorem, t3_file, "-k", "1"], [theorem, "-k", "1", t3_file],
                 ["%s(1)" % theorem, t3_file]):
        code = run_command(["verify"] + argv)
        runs.append((code, capsys.readouterr().out))
    assert runs[0] == runs[1] == runs[2]
    assert runs[0][0] == EXIT_OK
    assert json.loads(runs[0][1])["results"][0]["theorem"] == "%s(1)" % theorem


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


@pytest.mark.parametrize("extra,message", [
    (["--family", "path_segment", "--steps", "2..3"],
     "verify takes a graph file or --family, not both"),
    (["--steps", "1..3"], "--steps needs --family")])
def test_verify_takes_a_file_or_a_family(capsys, tmp_path, extra, message):
    path = tmp_path / "path4.graph"
    path.write_text(PATH4)
    theorem = "bottom" if "--family" in extra else "dirichlet_1"
    alone = extra if "--family" in extra else [str(path)]
    assert run_command(["verify", theorem] + alone) == EXIT_OK
    capsys.readouterr()
    code, doc = run_json(capsys, ["verify", theorem, str(path)] + extra)
    assert code == EXIT_INPUT
    assert doc["error"] == {"kind": "input", "message": message}


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


def test_budget_error_names_the_heuristic_flag(capsys):
    # a 5 x 5 window: 25 interior vertices, over the single-set budget of 20
    code, doc = run_json(capsys, ["family", "lattice_box:2", "--steps", "2..3",
                                  "--emit", "alpha"])
    assert code == EXIT_BUDGET
    assert doc["error"]["kind"] == "budget"
    assert "--heuristic" in doc["error"]["message"]


@pytest.mark.parametrize("flag", ["--budget-single", "--budget-pair", "--budget-tuple"])
def test_negative_budget_is_an_input_error(capsys, tmp_path, flag):
    path = tmp_path / "path4.graph"
    path.write_text(PATH4)
    # a subcommand that reads the flag
    command = {"--budget-single": ["alpha", "d"], "--budget-pair": ["alpha", "s"],
               "--budget-tuple": ["kappa", "-k", "1"]}[flag]
    code, doc = run_json(capsys, command + [flag, "-1", str(path)])
    assert code == EXIT_INPUT
    assert doc["error"]["kind"] == "input"
    assert "must be nonnegative" in doc["error"]["message"]
    if flag == "--budget-tuple":
        code, doc = run_json(capsys, command + [flag, "0", str(path)])
        assert code == EXIT_BUDGET


# subcommand -> the budget and heuristic flags it takes: those that the
# constants it computes read
BUDGET_FLAGS = ("--budget-single", "--budget-pair", "--budget-tuple", "--part-cap",
                "--heuristic")
FLAGS_TAKEN = {
    "spectrum": (),
    "cap": (),
    "alpha": ("--budget-single", "--budget-pair", "--heuristic"),
    "gamma": ("--budget-tuple", "--part-cap"),
    "kappa": ("--budget-tuple", "--part-cap"),
    "verify": BUDGET_FLAGS,
    "family": ("--budget-single", "--heuristic"),
    "coarea": (),
}


def test_each_subcommand_takes_only_the_flags_it_reads(capsys, tmp_path):
    sub = next(a for a in _parser()._actions if a.dest == "command")
    assert set(sub.choices) == set(FLAGS_TAKEN)
    taken = {}
    for command, parser in sub.choices.items():
        options = {o for a in parser._actions for o in a.option_strings}
        taken[command] = tuple(f for f in BUDGET_FLAGS if f in options)
    assert taken == FLAGS_TAKEN
    assert sum(len(flags) for flags in taken.values()) == 14
    path = tmp_path / "path4.graph"
    path.write_text(PATH4)
    file = str(path)
    # one invocation per subcommand that exits 0 without the flag
    runs = {"spectrum": ["spectrum", "steklov", file], "cap": ["cap", "-A", "1", file],
            "alpha": ["alpha", "s", file], "gamma": ["gamma", "s", "-k", "1", file],
            "kappa": ["kappa", "-k", "1", file], "verify": ["verify", "steklov_1", file],
            "family": ["family", "path_segment", "--steps", "2..3", "--emit", "cap"],
            "coarea": ["coarea", file, "--field", "0=0,1=1,2=1,3=0"]}
    for command, argv in runs.items():
        assert run_command(argv) == EXIT_OK, argv
        capsys.readouterr()
        for flag in BUDGET_FLAGS:
            if flag in FLAGS_TAKEN[command]:
                continue
            code = run_command(argv + ([flag] if flag == "--heuristic" else [flag, "3"]))
            out, err = capsys.readouterr()
            assert code == EXIT_INPUT, (command, flag)
            assert json.loads(out)["error"] == {
                "kind": "input", "message": "isocap: unrecognized arguments: %s"
                % (flag if flag == "--heuristic" else flag + " 3")}
            assert err == ""


def test_coarea_command(capsys, line5):
    code, doc = run_json(capsys, ["coarea", line5, "--field",
                                  "0=0,1=1,2=2,3=1,4=0,5=0"])
    assert code == EXIT_OK
    res = doc["results"][0]
    assert res["holds"] is True
    assert res["value"] <= 2.0 * res["energy"] + 1e-12


@pytest.mark.parametrize("field,message", [
    ("0=0,1=1,2=1,3=0,zz=7", "field id 'zz' is not a vertex of the closure"),
    ("0=0,1=1,2=1,3=0,1=5", "field id '1' is given twice")])
def test_coarea_field_ids_are_each_a_closure_vertex_once(capsys, tmp_path, field, message):
    path = tmp_path / "path4.graph"
    path.write_text(PATH4)
    code, doc = run_json(capsys, ["coarea", str(path), "--field", "0=0,1=1,2=1,3=0"])
    assert code == EXIT_OK and doc["results"][0]["value"] == pytest.approx(1.0, rel=1e-12)
    code, doc = run_json(capsys, ["coarea", str(path), "--field", field])
    assert code == EXIT_INPUT
    assert doc["error"] == {"kind": "input", "message": message}


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
    # a usage error prints the JSON error report on stdout, nothing on stderr
    # (enumeration has one visit order, with no option to change it)
    for argv, message in [([], "required: command"),
                          (["alpha", "zzz", "x"], "invalid choice: 'zzz'"),
                          (["alpha", "s", "--seed", "3", t3_file],
                           "unrecognized arguments: --seed"),
                          (["cap", t3_file], "required: -A")]:
        assert run_command(argv) == EXIT_INPUT
        out, err = capsys.readouterr()
        assert json.loads(out)["error"]["kind"] == "input"
        assert message in json.loads(out)["error"]["message"]
        assert err == ""
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


def _unit_path(tmp_path, n, omega):
    """The file of a unit path of n vertices, omega its interior."""
    path = tmp_path / ("path%d.graph" % n)
    path.write_text("".join("v %d 1\n" % v for v in range(n))
                    + "".join("e %d %d 1\n" % (v, v + 1) for v in range(n - 1))
                    + "omega " + " ".join(map(str, omega)) + "\n")
    return str(path)


def test_verify_hm_steklov_1_past_the_dense_budget(capsys, tmp_path):
    # a unit path of 5,000 vertices with 12 middle vertices as Omega: beta_S
    # reduces onto Omega through the sparse factor, as the hm spectrum does,
    # so no dense 5,000 x 5,000 stiffness is assembled; the minimum is three
    # end vertices of Omega against the other three, 1 / (7 * 3)
    path = _unit_path(tmp_path, 5000, range(2494, 2506))
    t0 = time.perf_counter()
    code, doc = run_json(capsys, ["verify", "hm_steklov_1", path])
    elapsed = time.perf_counter() - t0
    assert code == EXIT_OK
    res = doc["results"][0]
    assert res["upper_ok"] and res["lower_ok"]
    assert res["constant"] == pytest.approx(1 / 21, rel=1e-12)
    assert res["witness"] == [["2494", "2495", "2496"], ["2503", "2504", "2505"]]
    assert elapsed < 10.0  # about 0.15 s on a 2-core x86-64 host


def test_every_constant_answers_past_the_dense_budget(capsys, tmp_path):
    # every constant takes its operator from the Schur form of its universe,
    # so a small universe on a graph past the dense budget of 4,096 rows
    # answers.  On the 5,000-vertex unit path with 12 middle Omega vertices,
    # alpha_D is Cap(A) / m(A) = (1/4 + 1/4) / 6 = 1/12 (A the middle six);
    # the 12-vertex window's lambda_1 is 2 - 2 cos(pi / 13)
    t0 = time.perf_counter()
    path = _unit_path(tmp_path, 5000, range(2494, 2506))
    code, doc = run_json(capsys, ["alpha", "d", path])
    assert code == EXIT_OK
    assert doc["results"][0]["value"] == pytest.approx(1 / 12, rel=1e-12)
    code, doc = run_json(capsys, ["verify", "dirichlet_1", path])
    assert code == EXIT_OK
    assert doc["results"][0]["constant"] == pytest.approx(1 / 12, rel=1e-12)
    code, doc = run_json(capsys, ["gamma", "d", "-k", "1", path])
    assert code == EXIT_OK
    tilde, gamma = (res["value"] for res in doc["results"])
    assert tilde == pytest.approx(2 - 2 * np.cos(np.pi / 13), rel=1e-12)
    assert gamma == pytest.approx(1 / 12, rel=1e-12)
    # binary_tree step 12, 8,192 vertices: the alpha_DS universe is the root,
    # and alpha_DS = Cap = 2^12 / (2^13 - 1) with both sides of dtn_bottom
    family = ["--family", "binary_tree", "--steps", "12..12"]
    code, doc = run_json(capsys, ["verify", "dtn_bottom"] + family)
    assert code == EXIT_OK
    assert doc["results"][0]["constant"] == pytest.approx(4096 / 8191, rel=1e-12)
    code, doc = run_json(capsys, ["family", "binary_tree", "--steps", "12..12", "--emit", "alpha"])
    assert code == EXIT_OK
    assert doc["results"][0]["values"] == pytest.approx([4096 / 8191], rel=1e-12)
    # the universe itself is still held to the dense budget: a 4,097-vertex
    # window names its own size, not the graph's 4,099
    path = _unit_path(tmp_path, 4099, range(1, 4098))
    code, doc = run_json(capsys, ["alpha", "d", "--heuristic", path])
    assert code == EXIT_BUDGET
    assert doc["error"] == {"kind": "budget", "message": "a dense 4097 x 4097 operator "
                            "exceeds the dense budget of 4096 rows"}
    assert time.perf_counter() - t0 < 20.0  # about 1 s on a 2-core x86-64 host


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


# ---------------------------------------------------------------------------
# hostile inputs: graph files and argv built from the grammars' tokens

_FINITE = ("1", "0.5", "3", "1e-300", "5e-324", "1e300", "1.7976931348623157e308")
_NUMBERS = _FINITE + ("1.8e308", "0", "-1", "nan", "inf", "x")
_IDS = ("0", "1", "2", "3")
_FILE = "FILE"  # stands for the fuzzed graph file in a fuzzed argv


def _sometimes(draw):
    # one draw in four; hypothesis favours the small end of a range
    return draw(st.integers(0, 3)) == 3


@st.composite
def _graph_texts(draw):
    """A graph on 2-4 vertices that holds a path through them, masses and
    weights from _FINITE (from _NUMBERS, and with stray records, sometimes)."""
    ids = _IDS[:draw(st.integers(2, len(_IDS)))]
    number = st.sampled_from(_NUMBERS if _sometimes(draw) else _FINITE)
    lines = ["v %s %s" % (v, draw(number)) for v in ids]
    pairs = [(u, v) for i, u in enumerate(ids) for v in ids[i + 1:]]
    path = list(zip(ids, ids[1:]))
    extra = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    for u, v in path + [p for p in extra if p not in path]:
        lines.append("e %s %s %s" % (u, v, draw(number)))
    if not _sometimes(draw):
        omega = draw(st.lists(st.sampled_from(ids), min_size=1, unique=True))
        lines.append("omega " + " ".join(omega))
    if _sometimes(draw):
        tokens = st.sampled_from(("v", "e", "omega", "#") + ids + _NUMBERS)
        record = " ".join(draw(st.lists(tokens, min_size=1, max_size=4)))
        lines.insert(draw(st.integers(0, len(lines))), record)
    return "\n".join(lines) + "\n"


@st.composite
def _argvs(draw):
    """A subcommand with its positionals in order, its required options and
    up to two others (sometimes one it does not take), each option at any
    place among them."""
    ids = st.lists(st.sampled_from(_IDS), min_size=1, max_size=3).map(",".join)
    small = st.sampled_from(("1", "2", "3", "0", "-1", "x"))
    field = st.lists(st.tuples(st.sampled_from(_IDS), st.sampled_from(_NUMBERS)),
                     min_size=1, max_size=4).map(lambda kv: ",".join("%s=%s" % p for p in kv))
    specs = st.sampled_from(("binary_tree:quotient", "path_segment", "t3",
                             "lattice_box:2", "half_space:2:quotient"))
    steps = ["--steps", st.sampled_from(("1..2", "1,3", "2..1", "x"))]
    theorems = THEOREMS + tuple("%s(%d)" % (t, k) for t in K_THEOREMS for k in (1, 2))
    k, heuristic = ["-k", small], ["--heuristic"]
    single, pair = ["--budget-single", small], ["--budget-pair", small]
    tuples, part_cap = ["--budget-tuple", small], ["--part-cap", small]
    # command -> (positionals, required options, other options it takes)
    grammar = {
        "spectrum": ([st.sampled_from(tuple(DOMAIN_SPECTRA))], [], [k]),
        "cap": ([], [["-A", ids]], [["-B", ids]]),
        "alpha": ([st.sampled_from(("d", "n", "s", "ds"))], [],
                  [["-Y", ids], heuristic, single, pair]),
        "gamma": ([st.sampled_from(("d", "s"))], [k], [["-W", ids], tuples, part_cap]),
        "kappa": ([], [k], [tuples, part_cap]),
        "verify": ([st.sampled_from(theorems)], [],
                   [k, heuristic, single, pair, tuples, part_cap]),
        "family": ([specs], [steps, ["--emit", st.sampled_from(("alpha", "cap", "sigma"))]],
                   [heuristic, single]),
        "coarea": ([], [["--field", field]], []),
    }
    command = draw(st.sampled_from(tuple(grammar)))
    positional, required, pool = grammar[command]
    groups = [[draw(word)] for word in positional]
    if command == "verify" and _sometimes(draw):
        required = [["--family", specs], steps]
    elif command != "family":
        groups.append([_FILE])
    if _sometimes(draw):
        pool = [g for spec in grammar.values() for g in spec[1] + spec[2]]
    options = required
    if pool:
        options = options + draw(st.lists(st.sampled_from(pool), max_size=2,
                                          unique_by=lambda g: g[0]))
    for option in options:
        group = [t if isinstance(t, str) else draw(t) for t in option]
        groups.insert(draw(st.integers(0, len(groups))), group)
    return [command] + [t for g in groups for t in g]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(text=_graph_texts(), argv=_argvs())
@example(text="v 0 1e-200\nv 1 1\ne 0 1 5e-324\nomega 0 1\n",
         argv=["verify", "dirichlet_1", _FILE])
@example(text="v 0 0.5\nv 1 2\nv 2 3\ne 0 1 1e300\ne 0 2 5e-324\ne 1 2 5e-324\n"
              "omega 1 2\n",
         argv=["verify", "higher_dirichlet", "-k", "1", _FILE])
@example(text="v 0 1e-200\nv 1 0.5\nv 2 2\nv 3 3\ne 0 1 1e300\n"
              "e 0 2 1.7976931348623157e308\ne 1 2 1\ne 2 3 3\nomega 0 1 2\n",
         argv=["coarea", "--field", "0=1,1=0.5,2=0.5,3=0", _FILE])
def test_hostile_inputs_end_in_a_json_report(fuzz_dir, text, argv):
    # any graph file parses or raises InputError; any argv prints one JSON
    # report on stdout, nothing on stderr, and exits with a documented code
    try:
        parse_graph(text)
    except InputError:
        pass
    path = fuzz_dir / "fuzz.graph"
    path.write_text(text)
    argv = [str(path) if t == _FILE else t for t in argv]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = run_command(argv)
    doc = json.loads(out.getvalue())
    assert err.getvalue() == ""
    assert code in (EXIT_OK, EXIT_INPUT, EXIT_BUDGET, EXIT_FAILED)
    if code in (EXIT_INPUT, EXIT_BUDGET):
        assert doc["error"]["kind"] in ("input", "numerical", "budget")
    else:
        assert "results" in doc


def _hanging_path(tmp_path, n, ends):
    """A unit path on the vertices 1..n whose ends hang on edges of weight
    5e-324 to the vertices in ends (0 and n + 1): each degree rounds back to
    its unit sum, so the block of 1..n is exactly singular.  Every vertex but
    n + 1 is in Omega."""
    ids = [v for v in range(n + 2) if v in ends or 1 <= v <= n]
    path = tmp_path / "hanging.graph"
    path.write_text("".join("v %d 1\n" % v for v in ids)
                    + ("e 0 1 5e-324\n" if 0 in ends else "")
                    + "".join("e %d %d 1\n" % (v, v + 1) for v in range(1, n))
                    + "e %d %d 5e-324\n" % (n, n + 1)
                    + "omega " + " ".join(str(v) for v in ids if v <= n) + "\n")
    return str(path)


@pytest.mark.parametrize("n", [SPARSE_MIN_DIM - 1, SPARSE_MIN_DIM])
def test_a_singular_factored_block_is_a_numerical_error(capsys, tmp_path, n):
    # a block of n rows: the dense route below SPARSE_MIN_DIM, the sparse one
    # at it; either way the singular block is a numerical error
    code, doc = run_json(capsys, ["cap", "-A", "0", _hanging_path(tmp_path, n, (0, n + 1))])
    assert code == EXIT_INPUT and doc["error"]["kind"] == "numerical"
    # Steklov eliminates the interior 1..n
    code, doc = run_json(capsys, ["spectrum", "steklov", _hanging_path(tmp_path, n, (n + 1,))])
    assert code == EXIT_INPUT
    assert doc["error"] == {"kind": "numerical", "message": "eliminated block is not SPD"}


@pytest.mark.parametrize("family,steps", [("path_segment", "2..3"), ("t3", "0..0")])
def test_dtn_bottom_needs_a_grounded_window(capsys, family, steps):
    # the grounded DtN operator of a window that misses the boundary of U is
    # empty: a bound on it would hold vacuously, with ratio infinite/infinite
    code, doc = run_json(capsys, ["verify", "dtn_bottom", "--family", family,
                                  "--steps", steps])
    assert code == EXIT_INPUT
    assert doc["error"]["kind"] == "input"
    assert "does not meet the boundary of U" in doc["error"]["message"]
    code, doc = run_json(capsys, ["verify", "dtn_bottom", "--family", "half_space:2",
                                  "--steps", "1..3"])
    assert code == EXIT_OK and doc["results"][0]["upper_ok"] is True


def test_witness_nesting_follows_the_constant(capsys):
    # alpha_D's witness is one set: of lattice points, each id as one string
    code, doc = run_json(capsys, ["verify", "bottom", "--family", "lattice_box:1",
                                  "--steps", "1..2"])
    assert code == EXIT_OK
    assert doc["results"][0]["witness"] == ["(-1,)", "(0,)", "(1,)"]
    # a tuple constant's witness is a list of parts, whatever its ids are
    code, doc = run_json(capsys, ["verify", "higher_steklov_infinite", "-k", "1",
                                  "--family", "half_space:2", "--steps", "1..1"])
    witness = doc["results"][0]["witness"]
    assert len(witness) == 1 and all(isinstance(v, str) for v in witness[0])
