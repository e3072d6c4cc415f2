"""Self-tests of the benchmark harness, at tiny sizes.

Run from the repository root: python3 -m pytest perfbench
"""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

import layers
import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _run(capsys, workload: str, trace: int, seed: int = 1):
    code = run.main(
        ["--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
        tiny=True,
    )
    lines = capsys.readouterr().out.splitlines()
    return code, json.loads(lines[-2])["report"], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_emits_every_metric_with_its_unit(capsys, workload, trace):
    code, report, result = _run(capsys, workload, trace)
    assert code == 0
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if trace:
        assert "cli.self_ms" not in report["absent"]["metrics"]
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        named = {"setup_s", "wall_s", "peak_rss_mb", "failed_ratio"}
        named |= ({"analytic_trials_per_s", "dense_trials_per_s"}
                  if workload == "quantum_trials" else set())
        named |= {"search_k4_s", "search_k13_s"} if workload == "classical_search" else set()
        assert named <= set(report["end_to_end"])
        assert report["end_to_end"]["failed_ratio"]["value"] == 0
        assert report["metadata"]["src_py_lines"] > 0


def test_wrong_expected_value_fails_the_run(capsys, monkeypatch):
    monkeypatch.setitem(run.PINNED_SEARCH, 4, Fraction(1, 2))
    code, report, result = _run(capsys, "classical_search", 0)
    assert code != 0
    assert result["correct"] is False and result["failed"] > 0
    assert report["end_to_end"]["failed_ratio"]["value"] > 0
    assert "pinned 1/2" in report["first_failure"]


def test_classes_do_not_depend_on_the_seed(capsys):
    assert run.build_commands("classical_profiles", 1) != run.build_commands("classical_profiles", 2)
    classes = [
        _run(capsys, "classical_profiles", 1, seed)[2]["metrics"]["classical.classes"]["value"]
        for seed in (1, 2)
    ]
    expected = 0
    for _, groups, _, _ in run.TINY_PROFILES:
        product = 1
        for _, s in groups:
            product *= (s + 1) * (s + 2) // 2
        expected += product
    assert classes == [expected, expected]


def test_trit_shift_keeps_a_strategy_valid_and_cycles_back():
    base = "021021"
    shifted = [run._shift_trits(base, c) for c in range(3)]
    assert shifted[0] == base and len(set(shifted)) == 3
    assert run._shift_trits(shifted[1], 2) == base


def test_missing_source_tree_exits_without_a_result(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    code = run.main(["--workload", "quantum_trials", "--seed", "1", "--seconds", "1", "--trace", "0"])
    assert code != 0
    assert capsys.readouterr().out == ""


def test_missing_layers_are_absent_not_errors(monkeypatch):
    monkeypatch.setattr(layers, "TARGETS", (
        ("gone", "tritgame_module_that_does_not_exist", "f"),
        ("renamed", "json", "function_that_does_not_exist"),
    ))
    tracer = layers.Tracer()
    tracer.install()
    assert tracer.absent == [
        "tritgame_module_that_does_not_exist.f", "json.function_that_does_not_exist",
    ]
    values, absent = layers.layer_metrics([tracer.to_json()])
    assert set(absent) == set(values) and all(v == 0.0 for v in values.values())
