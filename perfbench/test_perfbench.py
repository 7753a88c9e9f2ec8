"""Tests of the benchmark itself:  python3 -m pytest perfbench -q"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import pytest  # noqa: E402

import isocap  # noqa: E402
import workloads as wl  # noqa: E402
from compare import judge  # noqa: E402
from run import best_of_rounds  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402
from worker import run_phase  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


@pytest.fixture(scope="module")
def cli_round(tmp_path_factory):
    return wl.build_ops(isocap, "cli_campaign", 3, str(tmp_path_factory.mktemp("work")))


def test_seeded_inputs_repeat_and_differ(tmp_path):
    a = wl.build_ops(isocap, "enum_ties", 1, str(tmp_path))
    b = wl.build_ops(isocap, "enum_ties", 1, str(tmp_path))
    c = wl.build_ops(isocap, "enum_ties", 2, str(tmp_path))
    assert [op.expected for op in a] == [op.expected for op in b]
    assert [op.expected for op in a] != [op.expected for op in c]
    assert sorted(op.label for op in a) == sorted(op.label for op in c)


def test_real_ops_pass(cli_round):
    lat, failures, messages, rounds, _ = run_phase(cli_round[:24], 0)
    assert (failures, messages, rounds, len(lat)) == (0, [], 1, 24)


def test_planted_wrong_value_is_a_failure(cli_round):
    ops = list(cli_round[:12])
    ops[5] = ops[5]._replace(expected=[x * (1 + 1e-6) + 1e-9 for x in ops[5].expected])
    _, failures, messages, _, _ = run_phase(ops, 0)
    assert failures == 1
    assert messages[0].startswith(ops[5].label)


def test_planted_exit_code_and_exception_are_failures(cli_round):
    good = cli_round[0]
    bad_exit = good._replace(run=lambda: (4, good.run()[1]))

    def boom():
        raise isocap.InputError("planted")

    _, failures, _, _, _ = run_phase([good, bad_exit, good._replace(run=boom)], 0)
    assert failures == 2


def test_planted_wrong_equality_status_is_a_failure(tmp_path):
    ops = [op for op in wl.build_ops(isocap, "enum_ties", 1, str(tmp_path))
           if op.label == "equality tree2x3 unit"][:2]
    wrong = wl.library_op(isocap, "planted", "equality",
                          wl.two_level_tree(2, 3), [0.0], status="strict")
    _, failures, _, _, _ = run_phase(ops + [wrong], 0)
    assert failures == 1


def test_workloads_match_benchmark_json():
    assert tuple(w["name"] for w in SPEC["workloads"]) == wl.WORKLOADS


def test_trace_reports_every_per_layer_metric(cli_round):
    tracer = Tracer()
    lat, failures, _, rounds, _ = run_phase(cli_round[:12], 0, tracer)
    assert (failures, rounds) == (0, 2)  # one untraced round, one traced
    metrics = layer_metrics(tracer.spans, sum(lat[12:]), 1)
    metrics["trace.overhead_ratio"] = 1.0
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert metrics["cli_io.calls"] > 0 and metrics["linear_core.assemble_calls"] > 0
    assert 0.9 <= metrics["trace.coverage"] <= 1.0
    assert isocap.stiffness_matrix.__module__ == "isocap.linear_core"
    assert not hasattr(isocap.constants.stiffness_matrix, "__wrapped__")


def test_best_of_rounds_takes_each_ops_fastest_run():
    # two rounds of three ops, in seconds
    assert best_of_rounds([0.003, 0.001, 0.010, 0.002, 0.004, 0.012], 3) == [2.0, 1.0, 10.0]


def test_judge_gain_regression_and_unresolved():
    parent = [100.0 + i * 0.1 for i in range(10)]
    assert judge(parent, [p * 1.3 for p in parent], "higher", 0.1)["verdict"] == "gain"
    assert judge(parent, [p * 0.8 for p in parent], "higher", 0.1)["verdict"] == "REGRESSION"
    assert judge(parent, [p * 0.97 for p in parent], "higher", 0.1)["verdict"] == "ok"
    wide = [50.0, 150.0] * 5
    assert judge(wide, [w * 0.85 for w in wide], "higher", 0.1)["verdict"] == "unresolved"
    # nine pairs are too few to claim a gain
    assert judge(parent[:9], [p * 1.3 for p in parent[:9]], "higher", 0.1)["verdict"] == "ok"
