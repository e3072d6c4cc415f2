"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.  Every tolerance is pinned here; derived constants
were computed once with the validated implementation (cross-checked
against independent oracles where one exists) and frozen.
"""

import itertools
import json
from fractions import Fraction

import numpy as np

from tritgame import cli
from tritgame.bounds import bound_A, bound_F, bound_L, bound_N
from tritgame.classical import (
    DIVISION_NAMES,
    StrategyProfile,
    best_homogeneous,
    canonical_division,
    evaluate_collapsed,
    evaluate_exhaustive,
    ten_player_worked_example,
)
from tritgame.combinat import grouped_sum
from tritgame.protocol import (
    admissible_bit_vectors,
    decode_batch,
    global_function_batch,
    run_analytic_batch,
    run_dense_batch,
    sample_admissible_batch,
)
from tritgame.qudit import permutation_gate, root_gate, verify_root_gate

from helpers import ramus, random_profile, three_party_class_step

TOL = 1e-10
THIRD = Fraction(1, 3)


def report(criterion: str, ok: bool, detail: str = "") -> None:
    suffix = f"  ({detail})" if detail else ""
    print(f"{'PASS' if ok else 'FAIL'}: {criterion}{suffix}")
    assert ok, f"{criterion}{suffix}"


def test_criterion_1_root_gate_step_law():
    # The exact certificate decides (3G)^3 = 27X on integers and returns the
    # float gate's distance from the exact G; it raises on a failure.  The
    # float cube and the 3-party class step are computed here.
    gate_dev = verify_root_gate()
    gate = root_gate().matrix
    cube_dev = float(np.max(np.abs(gate @ gate @ gate - permutation_gate().matrix)))
    phase, step_dev = three_party_class_step(root_gate())
    dev = max(gate_dev, cube_dev, step_dev)
    ok = dev <= TOL and abs(abs(phase) - 1.0) <= TOL
    report(
        "1. root gate: (3G)^3 = 27X exactly, U^3 = shift, classes step with one phase",
        ok,
        f"max dev {dev:.2e}",
    )


def test_criterion_2_dimension_two_analog():
    # Computed here, from the definitions: R is the principal square root of
    # NOT, and R (x) R acts on the Bell pairs over |00>, |01>, |10>, |11>.
    root = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]])
    even = np.array([1, 0, 0, 1]) / np.sqrt(2)
    target = np.array([0, 1, 1, 0]) / np.sqrt(2)
    root_dev = float(np.max(np.abs(root @ root - np.array([[0, 1], [1, 0]]))))
    state = np.kron(root, root) @ even
    c = complex(np.vdot(target, state))
    dev = max(root_dev, float(np.max(np.abs(state - c * target))))
    ok = dev <= TOL and abs(abs(c) - 1.0) <= TOL
    report(
        "2. dimension-2 root swaps the parity classes up to a unit phase",
        ok,
        f"dev {dev:.2e}",
    )


def test_criterion_3_quantum_perfect_success():
    rng = np.random.default_rng(2026)
    failures = 0
    counts = {}

    def check(trits, bits, outcomes):
        wrong = decode_batch(trits, outcomes) != global_function_batch(trits, bits)
        return int(np.count_nonzero(wrong))

    for k in (4, 7):
        # Every admissible input: bit vectors outer, trits inner.
        vectors = admissible_bit_vectors(k)
        trit_rows = np.array(list(itertools.product((0, 1, 2), repeat=k)), dtype=np.int8)
        bits = np.repeat(vectors, len(trit_rows), axis=0)
        trits = np.tile(trit_rows, (len(vectors), 1))
        assert len(np.unique(np.hstack([trits, bits]), axis=0)) == grouped_sum(k, 0, 3) * 3**k
        outcomes, _ = run_dense_batch(bits, rng)
        failures += check(trits, bits, outcomes)
        counts[f"k={k} dense exhaustive"] = len(bits)
    trits, bits = sample_admissible_batch(10, 1_000, rng)
    outcomes, _ = run_dense_batch(bits, rng)
    failures += check(trits, bits, outcomes)
    counts["k=10 dense sampled"] = len(bits)
    trits, bits = sample_admissible_batch(100, 100_000, rng)
    failures += check(trits, bits, run_analytic_batch(bits, rng))
    counts["k=100 analytic sampled"] = len(bits)
    ok = failures == 0
    report(
        "3. quantum protocol decodes the global value on every run",
        ok,
        ", ".join(f"{v} @ {k}" for k, v in counts.items()) + f"; failures={failures}",
    )


def test_criterion_4_ten_player_worked_example():
    rep = ten_player_worked_example()
    ok = (
        rep.per_m_counts == {9: 10, 6: 210, 3: 120, 0: 1}
        and rep.total == 341
        and rep.success == Fraction(210, 341)
        and rep.majority_count == 210
    )
    report(
        "4. ten-player example: counts (10, 210, 120, 1), 210/341 success",
        ok,
        f"counts={tuple(rep.per_m_counts[m] for m in (9, 6, 3, 0))}, success={rep.success}",
    )


def test_criterion_5_evaluator_equivalence():
    mismatches = []
    for k in (4, 7):
        for name in DIVISION_NAMES:
            profile = StrategyProfile.homogeneous(canonical_division(name), k)
            if evaluate_exhaustive(profile) != evaluate_collapsed(profile):
                mismatches.append((name, k))
    rng = np.random.default_rng(20240811)
    for index in range(10):
        profile = random_profile(4, rng, n_groups=2)
        if evaluate_exhaustive(profile) != evaluate_collapsed(profile):
            mismatches.append(("random", index))
    report(
        "5. exhaustive and collapsed evaluators agree as exact rationals",
        not mismatches,
        f"14 divisions at k=4,7 plus 10 two-group profiles; mismatches={mismatches}",
    )


def test_criterion_6_classical_collapse():
    # Frozen from the first validated search (the maximizer is the
    # trit-revealing division, whose value has an independent closed form).
    pinned = {
        4: Fraction(4, 5),
        13: Fraction(1716, 2731),
        31: Fraction(303906051, 715827883),
        61: Fraction(267037541015397434, 768614336404564651),
    }
    values = {}
    ok = True
    for k in (4, 13, 31, 61):
        _, value = best_homogeneous(k)
        values[k] = value
        ok = ok and value == pinned[k]
    sequence = [values[k] for k in (4, 13, 31, 61)]
    ok = ok and all(a >= b for a, b in zip(sequence, sequence[1:]))
    ok = ok and values[61] - THIRD < Fraction(1, 10)
    report(
        "6. best homogeneous classical success is non-increasing and near 1/3",
        ok,
        f"values={[f'{float(v):.4f}' for v in sequence]}, gap(61)={float(values[61] - THIRD):.4f}",
    )


def test_criterion_7_closed_form_identity():
    worst_rel = 0.0
    mismatches = 0
    for n in range(0, 61):
        for p in range(2, 10):
            for q in range(p):
                exact = grouped_sum(n, q, p)
                approx = ramus(n, q, p)
                mismatches += round(approx) != exact
                rel = abs(float(approx - exact)) / max(1, exact)
                worst_rel = max(worst_rel, rel)
    ok = mismatches == 0 and worst_rel <= 1e-9
    report(
        "7. grouped-sum closed form rounds exactly for n <= 60, p <= 9",
        ok,
        f"mismatches={mismatches}, worst relative error {worst_rel:.2e}",
    )


def test_criterion_8_bound_convergence():
    gaps = []
    ok = True
    worst_a = max(abs(bound_A(60, i, m) - THIRD) for i in (0, 1) for m in (0, 3, 6))
    ok = ok and worst_a < Fraction(1, 1000)
    gaps.append(f"A:{float(worst_a):.1e}")
    for a in (1, 2):
        ok = ok and bound_N(60, a) == THIRD
    n0_gap = abs(bound_N(60, 0) - THIRD)
    ok = ok and n0_gap < Fraction(1, 10**6)
    gaps.append(f"N0:{float(n0_gap):.1e}")
    worst_f = max(abs(bound_F(60, a, "max") - THIRD) for a in (0, 1, 2))
    worst_l = max(abs(bound_L(60, a, "max") - THIRD) for a in (0, 1, 2))
    ok = ok and worst_f < Fraction(1, 100) and worst_l < Fraction(1, 100)
    gaps.append(f"F:{float(worst_f):.1e}")
    gaps.append(f"L:{float(worst_l):.1e}")
    report(
        "8. all bound families sit at 1/3 for j=60 (N exactly, for a >= 1)",
        ok,
        ", ".join(gaps),
    )


def test_criterion_9_report_determinism(capsys):
    def payload_region(argv):
        assert cli.main(argv) == 0
        env = json.loads(capsys.readouterr().out)
        canonical = json.dumps(env["payload"], sort_keys=True, separators=(",", ":"))
        return canonical.encode(), env["payload_sha256"]

    quantum = ["quantum-run", "--k", "7", "--trials", "150", "--seed", "42", "--records"]
    classical = ["classical", "eval", "--strategy", "A", "--k", "7"]
    q_first, q_hash_first = payload_region(quantum)
    q_second, q_hash_second = payload_region(quantum)
    c_first, c_hash_first = payload_region(classical)
    c_second, c_hash_second = payload_region(classical)
    ok = (
        q_first == q_second
        and c_first == c_second
        and q_hash_first == q_hash_second
        and c_hash_first == c_hash_second
    )
    with capsys.disabled():
        report(
            "9. fixed-seed reports are byte-identical in the hashed region",
            ok,
            f"quantum payload {len(q_first)} bytes, classical payload {len(c_first)} bytes",
        )
