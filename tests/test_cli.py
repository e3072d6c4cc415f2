import csv
import hashlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from tritgame import cli, protocol, qudit
from tritgame.classical import (
    EXHAUSTIVE_METHOD, Strategy, StrategyProfile, evaluate_exhaustive,
)
from tritgame.combinat import grouped_sum

from helpers import full_scan_value


DENSE_COUNTERS = ("half_states_evolved", "gates_applied", "rows_evolved", "row_gates_applied")
#: Metrics no run reports: counts are exact integers, with no prime set or CRT bound.
PRIME_METRICS = {"primes", "crt_bound_bits", "prime_class_products"}

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
SRC = ROOT / "src"
#: Every ``tritgame ...`` line of README's ``sh`` blocks, without the program name.
README_COMMANDS = [
    line.split(None, 1)[1]
    for block in re.findall(r"^```sh\n(.*?)^```", README.read_text(), flags=re.M | re.S)
    for line in block.splitlines()
    if line.startswith("tritgame ")
]


#: Payload digests of fixed command lines.
PINNED_PAYLOADS = [
    (["classical", "example"],
     "ef9fca9ddabaf2e8732200a879e2e1cda8c4596bec151b7da01ccc17bd151e67"),
    (["classical", "eval", "--k", "7", "--profile", "A:3,F:4"],
     "2749c993f6727ce548052c806b3c66c8cfa4e3e1b7860bc478fecb51cb54c79f"),
    (["classical", "eval", "--k", "10", "--profile", "021201:3,210012:3,220011:4"],
     "99304f47ba61032350d98fa512ce7b5da340701293e9581b3756e3dfb69bddca"),
    (["classical", "search", "--k", "13"],
     "9365a35f94ccde740d6d7f07fa9829c7f5ff37fd5a687b665ded2f70cc0305ce"),
    (["bounds", "--family", "A"],
     "3968edaf6143e6406dff2ce03a9d831c8a68783f524e1647e3f2a8bcd65a0cda"),
    (["bounds", "--family", "F"],
     "c916b87a5c30d0faab05f53d36499023c527bc5cbc220244192f66573f17799e"),
    (["bounds", "--family", "L"],
     "2b4c44ae9c8cfe2090964f81f551b910f5c5d26bc55175f0c38cf479475f4ed5"),
    (["bounds", "--family", "N"],
     "0e35dee9bcea432a7803fd5aedfbd9de5e7c525fcd844204d033d0e426b2a7e8"),
    (["gap-report", "--k", "4", "13", "--trials", "50"],
     "c27d55449a423273da5e78c5570a2af715885bafc9fe5758f4b506f8d8df47d3"),
    (["quantum-run", "--k", "7", "--trials", "200", "--seed", "3"],
     "453651a301c5488acd4abe578e9588a782581da0d6a604b6122ab0e82799af12"),
    (["quantum-run", "--k", "100", "--engine", "analytic", "--trials", "1000", "--seed", "4"],
     "bb88ef234b3d7f2263772d873e8d53d01776c1c0cbb638ebd0976242c4939b7a"),
    # With --records the payload holds every drawn input and outcome, so these
    # pin the sampler's and each engine's random stream.
    (["quantum-run", "--k", "7", "--trials", "20", "--seed", "5", "--records"],
     "495f50236e39b6a0d8232d73e98e515a4d338b2ac8453d1c8d69b59459ba4eed"),
    # The dense engine's stack holds 81 rows at k=10, so 300 trials take four flushes.
    (["quantum-run", "--k", "10", "--trials", "300", "--seed", "5", "--records"],
     "922d6ba9fff4fc957fc46db28e0ae1b16476b6368b247289a45e580873c1bff6"),
    (["quantum-run", "--k", "10", "--engine", "analytic", "--trials", "20", "--seed", "5",
      "--records"],
     "384474e9f57f14890d6f7a7347f3f9b14638f2b3c449bb0c4c95bebd13600ced"),
    (["quantum-verify"],
     "e28717fdc5af62636efee61416279384454601b33e58b2a998f5b1d08c5144d2"),
]


def run_cli(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, argv):
    code, out = run_cli(capsys, argv)
    return code, json.loads(out)


class TestQuantumVerify:
    def test_default_passes(self, capsys):
        code, env = run_json(capsys, ["quantum-verify"])
        assert code == 0
        assert env["payload"]["ok"] is True
        names = [c["name"] for c in env["payload"]["checks"]]
        assert names == ["root-cube-and-class-step", "dim2-swap", "class-sweep"]
        assert "token" not in env["payload"]
        assert env["config"] == {"k": [4, 7]}

    def test_default_sweep_is_k_4_and_7(self):
        # The parser holds the one definition of the default sweep.
        args = cli.build_parser().parse_args(["quantum-verify"])
        assert args.k == [4, 7]

    def test_class_sweep_reports_worst_deviation_per_k(self, capsys):
        code, env = run_json(capsys, ["quantum-verify"])
        assert code == 0
        sweep = env["payload"]["checks"][2]
        assert sweep["k"] == [4, 7]
        deviations = env["metrics"]["class-sweep"]["max_deviation"]
        assert len(deviations) == 2
        assert all(0.0 <= d <= 1e-10 for d in deviations)
        assert sweep["ok"] is True

    def test_failed_branch_search_writes_a_failing_payload(self, capsys, failed_root_check):
        code, env = run_json(capsys, ["quantum-verify"])
        assert code == 1
        assert env["payload"] == {
            "ok": False, "error": "root gate failed: (3G)^3 != 27X in Z[zeta_9][X]"
        }

    def test_metrics_report_the_gate_deviation_and_time_each_stage(self, capsys):
        _, env = run_json(capsys, ["quantum-verify"])
        metrics = env["metrics"]
        # The identities are decided on integers: the one measured float
        # outside the sweep is the float gate's distance from the exact one.
        assert set(metrics) == {"root-cube-and-class-step", "class-sweep", "stage_seconds"}
        assert set(metrics["root-cube-and-class-step"]) == {"gate_deviation"}
        assert 0.0 <= metrics["root-cube-and-class-step"]["gate_deviation"] <= 1e-10
        stages = metrics["stage_seconds"]
        assert set(stages) == {"identities", "sweep", "render"}
        assert stages["sweep"] > 0.0 and stages["identities"] > 0.0 and stages["render"] >= 0.0
        assert "stage_seconds" not in env["payload"]

    def test_sweep_evolves_every_admissible_vector(self, capsys, monkeypatch):
        # The dense sweep left the analytic engine's path but not this command.
        built = []
        evolve_state = protocol.dense_pre_measurement_state

        def counted(k, bits):
            built.append(k)
            return evolve_state(k, bits)

        monkeypatch.setattr(protocol, "dense_pre_measurement_state", counted)
        argv = ["quantum-verify"]
        code, env = run_json(capsys, argv)
        assert code == 0
        assert env["payload"]["checks"][2]["bit_vectors_checked"] == [5, 43]
        assert sorted(built) == [4] * 5 + [7] * 43
        assert env["payload_sha256"] == next(d for a, d in PINNED_PAYLOADS if a == argv)

    def test_tolerance_option_is_gone(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["quantum-verify", "--tolerance", "1e-6"])
        assert excinfo.value.code == 2

    def test_sweep_beyond_dense_bound_is_usage_error(self, capsys):
        code = cli.main(["quantum-verify", "--k", "100"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: verification needs dense states; k=100")

    @pytest.mark.parametrize("argv, message", [
        (["--k", "4", "5"], "party count must be >= 4 and 1 mod 3, got 5"),
        (["--k", "16"], "verification needs dense states; k=16 exceeds 13"),
    ], ids=["party-count", "dense-bound"])
    def test_bad_k_fails_before_any_gate(self, capsys, monkeypatch, argv, message):
        # Every k is checked before the root gate is built or checked.
        def fail():
            raise AssertionError("the root gate was used before the k check")

        monkeypatch.setattr(protocol, "root_gate", fail)
        monkeypatch.setattr(protocol, "verify_root_gate", fail)
        assert cli.main(["quantum-verify", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


class TestQuantumRun:
    def test_dense_run_all_successes(self, capsys):
        code, env = run_json(
            capsys, ["quantum-run", "--k", "7", "--trials", "100", "--seed", "5"]
        )
        assert code == 0
        assert env["payload"]["successes"] == 100
        assert env["payload"]["failures"] == 0

    def test_config_is_the_parsed_options(self, capsys):
        _, env = run_json(capsys, ["quantum-run", "--k", "4", "--trials", "5", "--records"])
        assert env["config"] == {"engine": "dense", "k": 4, "records": True, "seed": 0, "trials": 5}

    def test_fixed_seed_is_byte_identical(self, capsys):
        argv = ["quantum-run", "--k", "7", "--trials", "60", "--seed", "9"]
        _, env_a = run_json(capsys, argv)
        _, env_b = run_json(capsys, argv)
        assert env_a["payload"] == env_b["payload"]
        assert env_a["payload_sha256"] == env_b["payload_sha256"]

    def test_records_include_seed(self, capsys):
        code, env = run_json(
            capsys,
            ["quantum-run", "--k", "4", "--trials", "3", "--seed", "2", "--records"],
        )
        assert code == 0
        records = env["payload"]["records"]
        assert len(records) == 3
        assert all(r["seed"] == 2 and r["engine"] == "dense" for r in records)
        assert all(r["decoded"] == r["expected"] for r in records)

    def test_analytic_engine_self_verifies(self, capsys):
        code, env = run_json(
            capsys,
            ["quantum-run", "--k", "100", "--engine", "analytic",
             "--trials", "500", "--seed", "1"],
        )
        assert code == 0
        assert env["payload"]["successes"] == 500

    def test_dense_k_bound_is_usage_error(self, capsys):
        # At --trials 0 the engine never runs, so the command checks the size itself.
        for trials in ("1", "0"):
            code = cli.main(["quantum-run", "--k", "16", "--trials", trials])
            assert code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: dense engine supports k <= 13")

    @pytest.mark.parametrize("argv", [
        ["--k", "5", "--trials", "0"],
        ["--engine", "analytic", "--k", "2", "--trials", "0"],
        ["--engine", "analytic", "--k", "5", "--trials", "10"],
    ], ids=["dense-no-trials", "analytic-no-trials", "analytic"])
    def test_bad_k_fails_before_any_work(self, capsys, monkeypatch, argv):
        # At --trials 0 nothing samples, so the command checks k itself, first.
        def fail():
            raise AssertionError("verification ran before the k check")

        monkeypatch.setattr(protocol, "verify_class_stepping", fail)
        assert cli.main(["quantum-run", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        k = argv[argv.index("--k") + 1]
        assert captured.err == f"error: party count must be >= 4 and 1 mod 3, got {k}\n"

    def test_metrics_sit_outside_the_hashed_payload(self, capsys):
        code, env = run_json(
            capsys, ["quantum-run", "--k", "7", "--trials", "100", "--seed", "5"]
        )
        assert code == 0
        canonical = json.dumps(env["payload"], sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(canonical.encode()).hexdigest() == env["payload_sha256"]
        metrics = env["metrics"]
        assert metrics["engine"] == "dense"
        assert metrics["trials"] == 100
        assert metrics["blocks"] == 1
        assert 1 <= metrics["half_states_evolved"] <= 2**3
        # Full-size gates act on the first three parties only: at most the
        # 12 zeros of all eight 3-bit patterns.
        assert 1 <= metrics["gates_applied"] <= 12
        assert metrics["rows_evolved"] == 100
        assert metrics["row_gates_applied"] >= 1
        assert metrics["first_failure"] is None
        assert set(metrics["stage_seconds"]) == {"sample", "engine", "render"}
        assert all(v >= 0.0 for v in metrics["stage_seconds"].values())

    def test_dense_counters_leave_the_payload_hash_unchanged(self, capsys, per_vector_outcomes):
        # The payload is rebuilt from the per-vector reference with the same
        # random stream.  Its hash must be the one the command reports, and
        # the dense counters must sit only in the metrics.
        k, trials, seed = 7, 400, 1
        code, env = run_json(
            capsys,
            ["quantum-run", "--k", str(k), "--trials", str(trials),
             "--seed", str(seed), "--records"],
        )
        assert code == 0
        rng = np.random.default_rng([seed, 0])
        trits, bits = protocol.sample_admissible_batch(k, trials, rng)
        outcomes, distinct = per_vector_outcomes(bits, rng.random(trials))
        records = []
        for t, b, o in zip(trits.tolist(), bits.tolist(), outcomes.tolist()):
            sent = [(y + x) % 3 for y, x in zip(t, o)]
            records.append({"k": k, "trits": t, "bits": b, "outcomes": o, "transmissions": sent,
                            "decoded": sum(sent) % 3, "expected": (sum(t) + b.count(0) // 3) % 3,
                            "engine": "dense", "seed": seed})
        payload = {"k": k, "engine": "dense", "trials": trials,
                   "successes": trials, "failures": 0, "records": records}
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        assert env["payload_sha256"] == hashlib.sha256(canonical.encode()).hexdigest()

        metrics = env["metrics"]
        h = k // 2
        vectors = {tuple(row) for row in bits.tolist()}
        halves = {v[:h] for v in vectors}
        assert distinct == len(vectors)
        assert metrics["half_states_evolved"] == len(halves) == 2**h
        # Every first half is present, so the Gray-code walk applies 7 gates, one per step.
        assert metrics["gates_applied"] == 7
        assert metrics["rows_evolved"] == trials
        assert metrics["row_gates_applied"] == sum(row[h:].count(0) for row in bits.tolist())
        for name in DENSE_COUNTERS:
            assert name not in env["payload"]

    def test_trials_run_in_blocks(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "BLOCK_TRIALS", 7)
        code, env = run_json(
            capsys,
            ["quantum-run", "--k", "10", "--engine", "analytic",
             "--trials", "20", "--seed", "3", "--records"],
        )
        assert code == 0
        assert env["payload"]["successes"] == 20
        assert len(env["payload"]["records"]) == 20
        assert env["metrics"]["blocks"] == 3
        assert env["metrics"]["trials"] == 20
        for name in DENSE_COUNTERS:
            assert name not in env["metrics"]
        # The engine's own check of the root gate counts under the engine stage.
        assert set(env["metrics"]["stage_seconds"]) == {"sample", "engine", "render"}
        assert env["metrics"]["stage_seconds"]["engine"] > 0.0

    def test_negative_trials_is_usage_error(self, capsys, monkeypatch):
        # Rejected while parsing: nothing is sampled and no payload is written.
        monkeypatch.setattr(protocol, "sample_admissible_batch", None)
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["quantum-run", "--k", "4", "--trials", "-3"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "non-negative trial count" in captured.err

    def test_token_option_is_gone(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["quantum-run", "--k", "4", "--engine", "analytic", "--token", "x"])
        assert excinfo.value.code == 2


class TestClassical:
    def test_example_payload(self, capsys):
        code, env = run_json(capsys, ["classical", "example"])
        assert code == 0
        payload = env["payload"]
        assert payload["total"] == 341
        assert payload["per_m_counts"] == {"0": 1, "3": 120, "6": 210, "9": 10}
        assert payload["g_totals"] == {"0": 11, "1": 120, "2": 210}
        assert payload["majority_count"] == 210
        assert payload["success"] == {
            "numerator": 210,
            "denominator": 341,
            "float": 210 / 341,
        }

    def test_example_metrics_time_each_stage(self, capsys):
        argv = ["classical", "example"]
        _, env = run_json(capsys, argv)
        stages = env["metrics"]["stage_seconds"]
        assert set(stages) == {"example", "render"}
        assert stages["example"] > 0.0 and stages["render"] >= 0.0
        assert env["payload_sha256"] == next(d for a, d in PINNED_PAYLOADS if a == argv)

    def test_eval_homogeneous_division(self, capsys):
        code, env = run_json(capsys, ["classical", "eval", "--strategy", "A", "--k", "4"])
        assert code == 0
        payload = env["payload"]
        assert payload["collapsed"]["numerator"] == 4
        assert payload["collapsed"]["denominator"] == 5
        assert payload["exhaustive"] == payload["collapsed"]
        assert payload["evaluators_agree"] is True

    def test_eval_profile_spec(self, capsys):
        code, env = run_json(
            capsys,
            ["classical", "eval", "--profile", "A:3,100122", "--k", "4"],
        )
        assert code == 0
        assert env["payload"]["profile"] == ["001122"] * 3 + ["100122"]

    def test_eval_large_k_skips_exhaustive(self, capsys):
        code, env = run_json(capsys, ["classical", "eval", "--strategy", "A", "--k", "13"])
        assert code == 0
        assert "exhaustive" not in env["payload"]

    def test_eval_cross_checks_below_the_cap_without_a_flag(self, capsys):
        code, env = run_json(capsys, ["classical", "eval", "--k", "10",
                                      "--profile", "021201:3,210012:3,220011:4"])
        assert code == 0
        assert env["payload"]["evaluators_agree"] is True
        assert env["payload"]["exhaustive"]["numerator"] == 88486

    def test_eval_long_run_cross_checks_at_the_cap(self, capsys):
        code, env = run_json(capsys, ["classical", "eval", "--strategy", "A", "--k", "13",
                                      "--long-run"])
        assert code == 0
        assert env["payload"]["evaluators_agree"] is True
        assert env["payload"]["exhaustive"] == env["payload"]["collapsed"]

    def test_eval_long_run_above_the_cap_is_usage_error(self, capsys, monkeypatch):
        # The cross-check it asks for cannot run, so nothing runs.
        monkeypatch.setattr(cli, "evaluate_collapsed", None)
        code = cli.main(["classical", "eval", "--strategy", "A", "--k", "16", "--long-run"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: --long-run cross-checks up to k = 13, got 16\n"

    def test_eval_bad_strategy_is_usage_error(self, capsys):
        assert cli.main(["classical", "eval", "--strategy", "01", "--k", "4"]) == 2
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["classical", "eval", "--k", "4"])
        assert excinfo.value.code == 2
        assert cli.main(
            ["classical", "eval", "--profile", "A:2", "--k", "4"]
        ) == 2
        # A count below 1 would drop A without a word and evaluate B x 4.
        for profile in ("A:-1,B:4", "A:0,B:4"):
            assert cli.main(["classical", "eval", "--profile", profile, "--k", "4"]) == 2

    def test_eval_takes_a_strategy_or_a_profile_not_both(self, capsys):
        # One of the two would go unused without a word.
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["classical", "eval", "--k", "4", "--strategy", "A", "--profile", "B:4"])
        assert excinfo.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    def test_search(self, capsys):
        code, env = run_json(capsys, ["classical", "search", "--k", "4"])
        assert code == 0
        assert env["payload"]["best_strategy"] == "001122"
        assert env["payload"]["probability"]["numerator"] == 4
        assert env["payload"]["probability"]["denominator"] == 5

    def test_metrics_sit_outside_the_hashed_payload(self, capsys):
        _, env = run_json(capsys, ["classical", "search", "--k", "13"])
        metrics = env["metrics"]
        assert not PRIME_METRICS & set(metrics)
        assert metrics["strategy_orbits"] == 22
        # The character bound leaves one orbit to evaluate: its 105 classes.
        assert metrics["orbits_evaluated"] == 1
        assert metrics["transcript_classes"] == 105
        assert "collapsed" in metrics["evaluator"]
        assert "metrics" not in env["payload"]
        canonical = json.dumps(env["payload"], sort_keys=True, separators=(",", ":"))
        assert env["payload_sha256"] == hashlib.sha256(canonical.encode()).hexdigest()

    @pytest.mark.parametrize("k, scanned", [(31, 1), (61, 1)])
    def test_search_metrics_count_the_scan(self, capsys, k, scanned):
        # Only the orbit the character bound keeps is scanned, division A's.
        # Its three cells are shifts of one another, so all its compositions
        # merge into one class.
        _, env = run_json(capsys, ["classical", "search", "--k", str(k)])
        metrics = env["metrics"]
        assert metrics["orbits_evaluated"] == 1
        assert metrics["classes_scanned"] == scanned
        assert not PRIME_METRICS & set(metrics)
        assert metrics["transcript_classes"] == (k + 1) * (k + 2) // 2
        assert "classes_scanned" not in env["payload"]
        probability = env["payload"]["probability"]
        value = Fraction(probability["numerator"], probability["denominator"])
        assert value == full_scan_value([(Strategy.from_string("001122"), k)], k)

    def test_search_metrics_time_each_stage(self, capsys):
        _, env = run_json(capsys, ["classical", "search", "--k", "13"])
        stages = env["metrics"]["stage_seconds"]
        assert set(stages) == {"search", "render"}
        assert stages["search"] > 0.0
        assert stages["render"] >= 0.0
        assert "stage_seconds" not in env["payload"]
        canonical = json.dumps(env["payload"], sort_keys=True, separators=(",", ":"))
        assert env["payload_sha256"] == hashlib.sha256(canonical.encode()).hexdigest()

    def test_eval_metrics_count_profile_classes(self, capsys):
        _, env = run_json(capsys, ["classical", "eval", "--profile", "A:3,100122", "--k", "4"])
        assert env["metrics"]["transcript_classes"] == 10 * 3
        # Only a search reports its orbits.
        assert "strategy_orbits" not in env["metrics"]
        assert "orbits_evaluated" not in env["metrics"]
        # A's 10 compositions merge into one class; 100122's cells are no
        # shifts of one another, so its 3 stay.
        assert env["metrics"]["classes_scanned"] == 1 * 3
        assert not PRIME_METRICS & set(env["metrics"])
        a, other = Strategy.from_string("001122"), Strategy.from_string("100122")
        profile = StrategyProfile((a,) * 3 + (other,))
        collapsed = env["payload"]["collapsed"]
        value = Fraction(collapsed["numerator"], collapsed["denominator"])
        assert value == evaluate_exhaustive(profile) == full_scan_value([(a, 3), (other, 1)], 4)

    def test_eval_accepts_a_profile_of_few_merged_classes(self, capsys):
        # Each party's message is a bijection of its trit (001122 and 220011
        # are both in division A's orbit), so the referee reads the trit sum
        # and adds the most likely number of zero triples.  The 5,829,810
        # transcript classes merge into one.
        code, env = run_json(capsys, ["classical", "eval", "--k", "136",
                                      "--profile", "001122:67,220011:69"])
        assert code == 0
        assert env["metrics"]["classes_scanned"] == 1
        assert env["metrics"]["transcript_classes"] == math.comb(69, 2) * math.comb(71, 2)
        collapsed = env["payload"]["collapsed"]
        assert Fraction(collapsed["numerator"], collapsed["denominator"]) == max(
            Fraction(grouped_sum(136, 3 * r, 9), grouped_sum(136, 0, 3)) for r in range(3))

    def test_eval_metrics_name_the_exhaustive_method(self, capsys):
        _, env = run_json(capsys, ["classical", "eval", "--strategy", "F", "--k", "7"])
        exhaustive = env["metrics"]["exhaustive"]
        assert exhaustive["method"] == EXHAUSTIVE_METHOD
        assert exhaustive["admissible_inputs"] == 3**7 * grouped_sum(7, 0, 3)
        assert "admissible_inputs" not in json.dumps(env["payload"])
        _, env = run_json(capsys, ["classical", "eval", "--strategy", "F", "--k", "13"])
        assert "exhaustive" not in env["metrics"]

    def test_eval_metrics_time_each_stage(self, capsys):
        _, env = run_json(capsys, ["classical", "eval", "--strategy", "F", "--k", "7"])
        stages = env["metrics"]["stage_seconds"]
        assert set(stages) == {"collapsed", "exhaustive", "render"}
        assert all(v >= 0.0 for v in stages.values())
        assert stages["exhaustive"] > 0.0
        assert "stage_seconds" not in env["payload"]
        canonical = json.dumps(env["payload"], sort_keys=True, separators=(",", ":"))
        assert env["payload_sha256"] == hashlib.sha256(canonical.encode()).hexdigest()
        _, env = run_json(capsys, ["classical", "eval", "--strategy", "F", "--k", "13"])
        assert env["metrics"]["stage_seconds"]["exhaustive"] == 0.0
        assert env["metrics"]["stage_seconds"]["collapsed"] > 0.0

    def test_determinism(self, capsys):
        argv = ["classical", "eval", "--strategy", "F", "--k", "7"]
        _, env_a = run_json(capsys, argv)
        _, env_b = run_json(capsys, argv)
        assert env_a["payload_sha256"] == env_b["payload_sha256"]


class TestBounds:
    def test_json_rows(self, capsys):
        code, env = run_json(capsys, ["bounds", "--family", "N", "--j", "1", "5"])
        assert code == 0
        rows = env["payload"]["rows"]
        constant = [r for r in rows if r["a"] == 1]
        assert all(r["value_num"] == 1 and r["value_den"] == 3 for r in constant)
        assert all(r["gap_float"] == 0.0 for r in constant)

    def test_csv_format(self, capsys):
        code, out = run_cli(
            capsys,
            ["bounds", "--family", "A", "--j", "5", "10", "--format", "csv"],
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 2 * 7  # six grid points plus a headline per j
        assert set(rows[0]) == {
            "family", "j", "i", "m", "a", "im_rule",
            "value_num", "value_den", "value_float", "gap_float",
        }

    def test_metrics_sit_outside_the_hashed_payload(self, capsys):
        code, env = run_json(capsys, ["bounds", "--family", "L", "--j", "5", "60"])
        assert code == 0
        metrics = env["metrics"]
        assert metrics["rows"] == len(env["payload"]["rows"]) == 2 * 4
        assert set(metrics["stage_seconds"]) == {"tables", "render"}
        assert metrics["stage_seconds"]["tables"] > 0.0
        assert metrics["stage_seconds"]["render"] >= 0.0
        assert "metrics" not in env["payload"]
        canonical = json.dumps(env["payload"], sort_keys=True, separators=(",", ":"))
        assert env["payload_sha256"] == hashlib.sha256(canonical.encode()).hexdigest()

    def test_im_rule_echoed(self, capsys):
        code, env = run_json(
            capsys, ["bounds", "--family", "L", "--j", "2", "--im-rule", "0"]
        )
        assert code == 0
        assert env["config"]["im_rule"] == "0"
        assert all(r["im_rule"] == "0" for r in env["payload"]["rows"])


class TestGapReport:
    def test_quantum_beats_classical(self, capsys):
        code, env = run_json(
            capsys, ["gap-report", "--k", "4", "13", "--trials", "40", "--seed", "6"]
        )
        assert code == 0
        rows = env["payload"]["rows"]
        assert [r["k"] for r in rows] == [4, 13]
        for row in rows:
            assert row["quantum"]["successes"] == row["quantum"]["trials"] == 40
            classical = row["classical_best"]
            assert classical["numerator"] / classical["denominator"] < 1
            assert row["baseline"]["float"] == pytest.approx(1 / 3)
        values = [r["classical_best"]["float"] for r in rows]
        assert values[0] >= values[1]
        metrics = env["metrics"]
        assert metrics["engine"] == "analytic"
        assert metrics["trials"] == 80
        assert metrics["blocks"] == 2
        assert metrics["first_failure"] is None
        assert set(metrics["stage_seconds"]) == {"sample", "engine", "search", "render"}

    def test_search_metrics_sit_outside_the_hashed_payload(self, capsys):
        argv = ["gap-report", "--k", "4", "13", "--trials", "50"]
        digest = next(d for a, d in PINNED_PAYLOADS if a == argv)
        _, env = run_json(capsys, argv)
        metrics = env["metrics"]
        # Summed over k = 4 and 13: one orbit each, 15 + 105 transcript classes.
        assert metrics["orbits_evaluated"] == 2
        assert metrics["transcript_classes"] == 120
        assert metrics["classes_scanned"] > 0
        assert not PRIME_METRICS & set(metrics)
        assert env["payload_sha256"] == digest

    def test_negative_trials_is_usage_error(self, capsys, monkeypatch):
        # Rejected while parsing: no verification, sampling or search runs.
        monkeypatch.setattr(cli, "best_homogeneous", None)
        for name in ("verify_class_stepping", "sample_admissible_batch"):
            monkeypatch.setattr(protocol, name, None)
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["gap-report", "--k", "4", "--trials", "-5"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "non-negative trial count" in captured.err

    def test_bad_k_fails_before_any_work(self, capsys, monkeypatch):
        # Every k is checked before verification, trials or searches start.
        def fail():
            raise AssertionError("verification ran before the k check")

        monkeypatch.setattr(protocol, "verify_class_stepping", fail)
        assert cli.main(["gap-report", "--k", "31", "61", "5", "--trials", "10"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: party count must be >= 4 and 1 mod 3, got 5\n"

    def test_determinism(self, capsys):
        argv = ["gap-report", "--k", "4", "--trials", "25", "--seed", "3"]
        _, env_a = run_json(capsys, argv)
        _, env_b = run_json(capsys, argv)
        assert env_a["payload_sha256"] == env_b["payload_sha256"]

    def test_csv_format(self, capsys):
        code, out = run_cli(
            capsys,
            ["gap-report", "--k", "4", "--trials", "10", "--seed", "1",
             "--format", "csv"],
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 1
        assert rows[0]["k"] == "4"
        assert rows[0]["quantum_successes"] == "10"
        assert rows[0]["classical_strategy"] == "001122"


class TestHarness:
    @pytest.mark.parametrize("argv", [
        ["quantum-run", "--k", "7", "--engine", "analytic", "--trials", "10"],
        ["gap-report", "--k", "4", "--trials", "10"],
    ])
    def test_failed_unlock_exits_one(self, capsys, monkeypatch, argv):
        def fail():
            raise protocol.VerificationError("tampered")

        monkeypatch.setattr(protocol, "verify_class_stepping", fail)
        code = cli.main(argv)
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: tampered\n"

    @pytest.mark.parametrize("argv", [
        ["quantum-run", "--k", "7", "--engine", "analytic", "--trials", "10"],
        ["gap-report", "--k", "4", "--trials", "10"],
    ], ids=["analytic", "gap-report"])
    def test_failed_branch_search_exits_one(self, capsys, failed_root_check, argv):
        code = cli.main(argv)
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: root gate failed: (3G)^3 != 27X in Z[zeta_9][X]\n"

    @pytest.mark.parametrize("argv", [
        ["quantum-run", "--k", "7", "--engine", "analytic", "--trials", "0"],
        ["gap-report", "--k", "4", "--trials", "0"],
    ], ids=["analytic", "gap-report"])
    def test_zero_trials_run_no_check(self, capsys, failed_root_check, argv):
        # The engine checks the root gate when it runs; at --trials 0 it never
        # runs, so a failed identity goes unnoticed and the command exits 0.
        # quantum-verify still fails.
        code, env = run_json(capsys, argv)
        assert code == 0
        assert env["metrics"]["trials"] == 0
        assert cli.main(["quantum-verify"]) == 1
        assert json.loads(capsys.readouterr().out)["payload"]["ok"] is False

    def test_analytic_path_builds_no_dense_state(self, capsys, monkeypatch):
        # The analytic engine checks the exact identities alone: no class
        # state, no dense evolution.
        def refuse(*args):
            raise AssertionError("the analytic path built a dense state")

        for module, name in ((protocol, "dense_pre_measurement_state"),
                             (protocol, "make_sum_class_state"),
                             (qudit, "make_sum_class_state")):
            monkeypatch.setattr(module, name, refuse)
        for argv in (
            ["quantum-run", "--k", "100", "--engine", "analytic", "--trials", "1000", "--seed", "4"],
            ["gap-report", "--k", "4", "13", "--trials", "50"],
        ):
            code, env = run_json(capsys, argv)
            assert code == 0
            assert env["payload_sha256"] == next(d for a, d in PINNED_PAYLOADS if a == argv)

    def test_bad_gate_fails_the_dense_run_by_measurement(self, capsys, monkeypatch):
        # The dense engine runs no root check: a wrong gate shows up as
        # measured failures, with the first one reported.
        monkeypatch.setattr(protocol, "root_gate", lambda: qudit.LocalGate(np.eye(3)))
        code, env = run_json(capsys, ["quantum-run", "--k", "7", "--trials", "200"])
        assert code == 1
        assert env["payload"]["failures"] > 0
        assert env["metrics"]["first_failure"] is not None

    @pytest.mark.parametrize("command", README_COMMANDS)
    def test_readme_example_runs(self, capsys, tmp_path, command):
        path = tmp_path / "out"
        assert cli.main([*shlex.split(command), "--output", str(path)]) == 0
        assert capsys.readouterr().out == ""
        assert path.stat().st_size > 0

    @pytest.mark.parametrize("argv", [
        ["bounds", "--family", "F", "--j", "5", "10", "--format", "csv"],
        ["gap-report", "--k", "4", "13", "--trials", "10", "--seed", "2", "--format", "csv"],
    ])
    def test_csv_output_file_matches_stdout(self, capsys, tmp_path, argv):
        code, out = run_cli(capsys, argv)
        assert code == 0
        path = tmp_path / "table.csv"
        assert cli.main([*argv, "--output", str(path)]) == 0
        assert capsys.readouterr().out == ""
        assert path.read_bytes() == out.encode()

    @pytest.mark.parametrize("argv, digest", PINNED_PAYLOADS,
                             ids=[" ".join(argv) for argv, _ in PINNED_PAYLOADS])
    def test_payload_hash_pinned(self, capsys, argv, digest):
        # These payloads hold flags, counts, exact fractions and floats rounded
        # from them, so their hashes do not depend on the platform.
        code, env = run_json(capsys, argv)
        assert code == 0
        assert env["payload_sha256"] == digest

    @pytest.mark.parametrize("argv, digest", PINNED_PAYLOADS,
                             ids=[" ".join(argv) for argv, _ in PINNED_PAYLOADS])
    def test_written_payload_is_the_hashed_bytes(self, capsys, monkeypatch, tmp_path,
                                                 argv, digest):
        # A stopped clock makes every duration 0, so two runs write the same bytes.
        monkeypatch.setattr(cli, "time", SimpleNamespace(perf_counter=lambda: 0.0))
        code, out = run_cli(capsys, argv)
        assert code == 0
        path = tmp_path / "report.json"
        assert cli.main([*argv, "--output", str(path)]) == 0
        assert capsys.readouterr().out == ""
        assert path.read_bytes() == out.encode()

        env = json.loads(out)
        assert set(env) == {"command", "config", "duration_seconds", "metrics", "payload",
                            "payload_sha256", "version"}
        lines = out.split("\n")
        (i,) = [n for n, line in enumerate(lines) if line.startswith('  "payload": ')]
        raw = lines[i].removeprefix('  "payload": ').removesuffix(",")
        assert hashlib.sha256(raw.encode()).hexdigest() == env["payload_sha256"] == digest
        assert json.loads(raw) == env["payload"]
        # Outside its payload line the envelope is laid out as json.dumps(...,
        # indent=2, sort_keys=True) lays out the whole of it.
        lines[i] = '  "payload": null,'
        assert "\n".join(lines) == json.dumps({**env, "payload": None}, indent=2,
                                              sort_keys=True) + "\n"

    def test_one_parser_serves_every_call(self, capsys):
        cli.build_parser.cache_clear()
        code, env = run_json(capsys, ["bounds", "--family", "A", "--j", "5", "--im-rule", "0"])
        assert code == 0
        assert (env["config"]["j"], env["config"]["im_rule"]) == ([5], "0")
        # A list default is one object shared by every parse: it must come
        # back unchanged after a call that gave --j.
        code, env = run_json(capsys, ["bounds", "--family", "F"])
        assert code == 0
        assert (env["config"]["j"], env["config"]["im_rule"]) == ([5, 10, 20, 40, 60], "max")

        code, env = run_json(capsys, ["classical", "eval", "--k", "7", "--strategy", "A"])
        assert code == 0
        assert (env["config"]["strategy"], env["config"]["profile"]) == ("A", None)
        # The mutually exclusive group starts afresh: --strategy was seen last call.
        code, env = run_json(capsys, ["classical", "eval", "--k", "7", "--profile", "A:7"])
        assert code == 0
        assert (env["config"]["strategy"], env["config"]["profile"]) == (None, "A:7")

        for argv, exit_code in ((["classical", "eval", "--k", "7"], 2),
                                (["quantum-run", "--k"], 2),
                                (["--help"], 0),
                                (["--version"], 0)):
            with pytest.raises(SystemExit) as excinfo:
                cli.main(argv)
            assert excinfo.value.code == exit_code
        capsys.readouterr()
        argv, digest = PINNED_PAYLOADS[1]
        code, env = run_json(capsys, argv)
        assert code == 0
        assert env["payload_sha256"] == digest
        assert cli.build_parser.cache_info().misses == 1

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code = cli.main(["classical", "example", "--output", str(path)])
        assert code == 0
        env = json.loads(path.read_text())
        assert env["command"] == "classical"

    def test_unwritable_output_exits_one_with_an_error(self, capsys, tmp_path):
        path = tmp_path / "missing" / "out.json"
        code = cli.main(["classical", "search", "--k", "4", "--output", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert not path.parent.exists()

    @pytest.mark.parametrize("argv", [
        ["classical", "example", "--k", "13"],
        ["classical", "example", "--profile", "A:13"],
        ["classical", "search", "--strategy", "A"],
        ["classical", "search", "--k", "4", "--long-run"],
        ["quantum-verify", "--debug-tamper"],
    ], ids=" ".join)
    def test_option_the_command_does_not_read_exits_two(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
        assert excinfo.value.code == 2

    def test_classical_search_does_not_load_openssl(self, tmp_path):
        # The payload digest comes from the builtin SHA-256: importing
        # hashlib would load OpenSSL (_hashlib) into every command.
        script = (
            "import sys\n"
            "from tritgame.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print(code, '_hashlib' in sys.modules)\n"
        )
        argv = ["classical", "search", "--k", "4", "--output", str(tmp_path / "search.json")]
        result = subprocess.run(
            [sys.executable, "-c", script, *argv], capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["0", "False"]
        env = json.loads((tmp_path / "search.json").read_text())
        canonical = json.dumps(env["payload"], sort_keys=True, separators=(",", ":"))
        assert env["payload_sha256"] == hashlib.sha256(canonical.encode()).hexdigest()

    def test_closed_stdout_exits_one_quietly(self):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = subprocess.run(
                [sys.executable, "-m", "tritgame", "gap-report", "--k", "4", "--trials", "10"],
                stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120,
                env={**os.environ, "PYTHONPATH": str(SRC)},
            )
        finally:
            os.close(write_end)
        assert result.returncode == 1
        assert "Traceback" not in result.stderr
        assert "Exception ignored" not in result.stderr

    @pytest.mark.parametrize("unbuffered", [None, "1"], ids=["buffered", "PYTHONUNBUFFERED=1"])
    def test_stdout_closed_mid_stream_exits_one_quietly(self, unbuffered):
        # The reader takes 10 bytes of a 1.4 MB report and closes the pipe.
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered is not None:
            env["PYTHONUNBUFFERED"] = unbuffered
        argv = ["quantum-run", "--k", "4", "--trials", "3000", "--records"]
        with subprocess.Popen([sys.executable, "-m", "tritgame", *argv], env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            assert len(proc.stdout.read(10)) == 10
            proc.stdout.close()
            stderr = proc.stderr.read().decode()
            code = proc.wait(timeout=120)
        assert code == 1
        assert "Traceback" not in stderr
        assert "Exception ignored" not in stderr

    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["frobnicate"])
        assert excinfo.value.code == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["--version"])
        assert excinfo.value.code == 0
