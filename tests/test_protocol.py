import itertools
import json
import weakref
from collections import Counter

import numpy as np
import pytest

from tritgame import cli, protocol, qudit
from tritgame.combinat import binomial
from tritgame.protocol import (
    admissible_bit_vectors,
    decode_batch,
    dense_pre_measurement_state,
    global_function_batch,
    run_analytic_batch,
    run_dense_batch,
    sample_admissible_batch,
    verify_class_stepping,
    zero_triples_mod3,
)
from tritgame.qudit import (
    LocalGate,
    QuditState,
    digit_sums,
    make_sum_class_state,
    root_gate,
)

from helpers import classify_sum_class, unpacked_admissible_sample

CHI2_99_DF3 = 11.345
CHI2_99_DF26 = 45.642

RECORD_KEYS = {
    "k", "trits", "bits", "outcomes", "transmissions", "decoded", "expected", "engine", "seed",
}


def rows(*values):
    """An int8 array with one row per tuple."""
    return np.array(values, dtype=np.int8)


def admissible_inputs(k):
    """Every admissible input once, as int8 (trits, bits): bit vectors outer, trits inner."""
    vectors = admissible_bit_vectors(k)
    trit_rows = np.array(list(itertools.product((0, 1, 2), repeat=k)), dtype=np.int8)
    return np.tile(trit_rows, (len(vectors), 1)), np.repeat(vectors, len(trit_rows), axis=0)


def apply_local(state, matrix, party):
    """Reference gate application: one einsum on the (3^p, 3, rest) view, validated."""
    k = state.k
    view = state.amplitudes.reshape(3**party, 3, 3 ** (k - party - 1))
    return QuditState(k, np.einsum("ij,ajb->aib", matrix, view).reshape(-1))


def row_norms(state, h):
    """Squared norms of the rows of the (3^h, 3^(k-h)) view of a state's amplitudes."""
    return np.sum(np.abs(state.amplitudes.reshape(3**h, -1)) ** 2, axis=1)


def gray_zero_sets(h):
    """The zero sets of h parties in reflected Gray-code order: step t visits t ^ (t >> 1)."""
    return [frozenset(p for p in range(h) if (t ^ t >> 1) >> p & 1) for t in range(2**h)]


def record_run(capsys, argv):
    code = cli.main(argv)
    assert code == 0
    return json.loads(capsys.readouterr().out)["payload"]["records"]


class TestZeroTriples:
    def test_examples(self):
        assert zero_triples_mod3(rows((1, 1, 1, 1), (0, 0, 0, 1))).tolist() == [0, 1]
        assert zero_triples_mod3(rows((0,) * 9 + (1,))).tolist() == [0]  # nine zeros wrap around

    def test_inadmissible_rejected(self):
        with pytest.raises(ValueError, match="inadmissible"):
            zero_triples_mod3(rows((0, 1, 1, 1)))

    def test_batch_rows_validated(self):
        trits = np.zeros((2, 4), dtype=np.int8)
        good = np.array([[1, 1, 1, 1], [0, 0, 0, 1]], dtype=np.int8)
        assert global_function_batch(trits, good).tolist() == [0, 1]
        for bits, match in [
            (np.array([[1, 1, 1, 1], [0, 1, 1, 1]], dtype=np.int8), "inadmissible"),
            (np.array([[1, 1, 1, 2]], dtype=np.int8), "bits"),
            (np.array([[1, 1, 1, -1]], dtype=np.int8), "bits"),
            (np.array([[0.5, 1, 1, 1]]), "bits"),
            (np.array([[1.0, 1.0, 1.0, 1.0]]), "bits"),
            (np.ones((2, 5), dtype=np.int8), "party count"),
            (np.ones(4, dtype=np.int8), "shape"),
        ]:
            with pytest.raises(ValueError, match=match):
                run_dense_batch(bits, np.random.default_rng(0))


class TestRegisterInput:
    """Input validation of the batch API, one row per input."""

    def test_bad_party_counts(self):
        for trits, bits in [((0,) * 3, (1,) * 3), ((0,) * 5, (1,) * 5), ((0,), (1,))]:
            with pytest.raises(ValueError, match="party count"):
                global_function_batch(rows(trits), rows(bits))
            with pytest.raises(ValueError, match="party count"):
                decode_batch(rows(trits), rows(bits))

    def test_values_validated(self):
        with pytest.raises(ValueError, match="trits"):
            global_function_batch(rows((0, 1, 2, 3)), rows((1, 1, 1, 1)))
        with pytest.raises(ValueError, match="trits"):
            global_function_batch(rows((0, 1, -1, 0)), rows((1, 1, 1, 1)))
        with pytest.raises(ValueError, match="trits"):
            decode_batch(rows((0, 1, 2, 3)), rows((0, 0, 0, 0)))
        with pytest.raises(ValueError, match="bits"):
            global_function_batch(rows((0, 1, 2, 0)), rows((1, 1, 1, 2)))
        with pytest.raises(ValueError, match="inadmissible"):
            global_function_batch(rows((0, 1, 2, 0)), rows((0, 1, 1, 1)))

    def test_float_trits_rejected(self):
        # 1.5 lies in 0..2, so only the dtype tells it from a trit; it must not truncate to 1.
        trits = np.array([[1.5, 0, 0, 0]])
        with pytest.raises(ValueError, match="trits"):
            global_function_batch(trits, rows((1, 1, 1, 1)))
        with pytest.raises(ValueError, match="trits"):
            decode_batch(trits, rows((0, 0, 0, 0)))

    def test_outcomes_validated(self):
        # An outcome of 3 or -1 would decode like 0 or 2; 1.5 is no digit at all.
        trits = rows((0, 0, 0, 0))
        for outcomes in [rows((3, 0, 0, 0)), rows((0, -1, 0, 0)), np.array([[1.5, 0, 0, 0]])]:
            with pytest.raises(ValueError, match="outcomes"):
                decode_batch(trits, outcomes)

    def test_trit_shape_must_match_the_rows(self):
        # A single trit row must not broadcast against five bit rows.
        trits = np.zeros((1, 4), dtype=np.int8)
        bits = np.ones((5, 4), dtype=np.int8)
        with pytest.raises(ValueError, match="trits"):
            global_function_batch(trits, bits)
        with pytest.raises(ValueError, match="trits"):
            decode_batch(trits, np.zeros((5, 4), dtype=np.int8))
        with pytest.raises(ValueError, match="trits"):
            global_function_batch(np.zeros((5, 7), dtype=np.int8), bits)

    def test_zero_count(self):
        trits, bits = rows((0, 0, 0, 0)), rows((0, 0, 0, 1))
        assert bits.shape[1] == 4
        assert np.count_nonzero(bits == 0) == 3
        assert global_function_batch(trits, bits).tolist() == [1]  # one zero triple


class TestGlobalFunction:
    def test_examples(self):
        assert global_function_batch(rows((0, 0, 0, 0)), rows((1, 1, 1, 1))).tolist() == [0]
        assert global_function_batch(rows((1, 2, 0, 1)), rows((0, 0, 0, 1))).tolist() == [2]
        # Six zeros at k=10: two zero triples, trit sum 0.
        bits = (0,) * 6 + (1,) * 4
        assert global_function_batch(rows((0,) * 10), rows(bits)).tolist() == [2]


class TestEnumeration:
    def test_counts(self):
        trits, bits = admissible_inputs(4)
        assert trits.shape == bits.shape == (405, 4)

    def test_no_duplicates_and_all_admissible(self):
        trits, bits = admissible_inputs(4)
        seen = {(tuple(t), tuple(b)) for t, b in zip(trits.tolist(), bits.tolist())}
        assert len(seen) == 405
        assert np.all(np.count_nonzero(bits == 0, axis=1) % 3 == 0)
        assert global_function_batch(trits, bits).shape == (405,)

    def test_deterministic_order(self):
        vectors = admissible_bit_vectors(4)
        assert vectors.dtype == np.int8
        assert vectors.tolist() == [
            [1, 1, 1, 1], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0],
        ]
        trits, bits = admissible_inputs(4)
        assert trits[0].tolist() == [0, 0, 0, 0]
        assert bits[0].tolist() == [1, 1, 1, 1]

    def test_k_validated(self):
        with pytest.raises(ValueError, match="party count"):
            admissible_bit_vectors(5)


class TestSampling:
    def test_samples_are_admissible_and_deterministic(self):
        trits, bits = sample_admissible_batch(7, 25, np.random.default_rng(5))
        again = sample_admissible_batch(7, 25, np.random.default_rng(5))
        assert np.array_equal(trits, again[0]) and np.array_equal(bits, again[1])
        assert np.all(np.count_nonzero(bits == 0, axis=1) % 3 == 0)
        assert global_function_batch(trits, bits).shape == (25,)
        assert sample_admissible_batch(7, 0, np.random.default_rng(5))[1].shape == (0, 7)

    def test_zero_count_distribution_at_ten_parties(self):
        # Weights C(10, m) for m in {0, 3, 6, 9} are (1, 120, 210, 10)/341.
        rng = np.random.default_rng(17)
        draws = 100_000
        trits, bits = sample_admissible_batch(10, draws, rng)
        assert trits.shape == bits.shape == (draws, 10)
        assert trits.dtype == bits.dtype == np.int8
        zeros = np.count_nonzero(bits == 0, axis=1)
        counts = {m: int(np.count_nonzero(zeros == m)) for m in (0, 3, 6, 9)}
        assert sum(counts.values()) == draws
        total_weight = sum(binomial(10, m) for m in counts)
        chi2 = 0.0
        for m, observed in counts.items():
            expected = draws * binomial(10, m) / total_weight
            chi2 += (observed - expected) ** 2 / expected
        assert chi2 < CHI2_99_DF3

    def test_every_admissible_vector_appears_at_four_parties(self):
        trits, bits = sample_admissible_batch(4, 2_000, np.random.default_rng(4))
        assert np.array_equal(np.unique(bits, axis=0), np.unique(admissible_bit_vectors(4), axis=0))
        assert set(np.unique(trits).tolist()) == {0, 1, 2}

    @pytest.mark.parametrize("k", [4, 7, 10, 13, 16, 19, 22, 25, 100])
    def test_packed_zero_count_matches_the_unpacked_rows(self, k):
        # These k cover every k mod 8, so every number of unused bits in the
        # last packed byte.  Counting zeros on the bytes keeps exactly the
        # rows, trits and random stream of counting them on unpacked bits.
        for seed in (0, 1):
            rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
            trits, bits = sample_admissible_batch(k, 500, rng)
            ref_trits, ref_bits = unpacked_admissible_sample(k, 500, reference)
            assert np.array_equal(bits, ref_bits) and np.array_equal(trits, ref_trits)
            assert rng.random() == reference.random()

    def test_large_k_is_cheap(self):
        trits, bits = sample_admissible_batch(100, 1, np.random.default_rng(0))
        assert trits.shape == bits.shape == (1, 100)


class TestDecode:
    def test_examples(self):
        zeros = rows((0, 0, 0, 0))
        assert decode_batch(zeros, zeros).tolist() == [0]
        assert decode_batch(rows((1, 1, 1, 1)), zeros).tolist() == [1]
        # Transmissions (0, 1, 0, 0): each party sends trit plus outcome, mod 3.
        assert decode_batch(rows((2, 2, 1, 0)), rows((1, 2, 2, 0))).tolist() == [1]
        # A hundred parties each transmit (2 + 2) mod 3 = 1, which sum to 100 = 1 (mod 3).
        twos = rows((2,) * 100)
        assert decode_batch(twos, twos).tolist() == [1]


class TestDenseEngine:
    def test_no_gates_when_all_bits_one(self):
        trits = rows((0, 0, 0, 0), (1, 2, 0, 1), (2, 2, 2, 2))
        bits = np.ones_like(trits)
        outcomes, counts = run_dense_batch(bits, np.random.default_rng(11))
        assert counts.gates_applied == 0
        decoded = decode_batch(trits, outcomes)
        assert decoded.tolist() == [sum(t) % 3 for t in trits.tolist()]
        assert np.array_equal(decoded, global_function_batch(trits, bits))

    def test_pre_measurement_state_is_the_predicted_class(self):
        state = dense_pre_measurement_state(4, (0, 0, 0, 1))
        result = classify_sum_class(state, tol=1e-10)
        assert result is not None
        j, c = result
        assert j == 1
        assert abs(abs(c) - 1.0) <= 1e-10

    def test_run_consistency_fields(self, capsys):
        trits, bits = rows((1, 0, 2, 1)), rows((0, 1, 0, 0))
        outcomes, _ = run_dense_batch(bits, np.random.default_rng(2))
        assert decode_batch(trits, outcomes).tolist() == [(4 + 1) % 3]
        # On real records: one trit per party, and the decoder sees nothing
        # but the transmissions.
        records = record_run(
            capsys, ["quantum-run", "--k", "4", "--trials", "200", "--seed", "2", "--records"]
        )
        assert len(records) == 200
        for r in records:
            assert len(r["transmissions"]) == r["k"] == 4
            assert r["transmissions"] == [(y + x) % 3 for y, x in zip(r["trits"], r["outcomes"])]
            assert r["decoded"] == sum(r["transmissions"]) % 3
            assert r["expected"] == (sum(r["trits"]) + r["bits"].count(0) // 3) % 3
            assert r["decoded"] == r["expected"]
            assert r["engine"] == "dense"

    def test_exhaustive_sweep_at_four_parties(self):
        trits, bits = admissible_inputs(4)
        outcomes, _ = run_dense_batch(bits, np.random.default_rng(123))
        assert len(outcomes) == 405
        assert np.array_equal(decode_batch(trits, outcomes), global_function_batch(trits, bits))

    def test_outcome_sum_equals_zero_triple_count(self):
        _, bits = admissible_inputs(4)
        outcomes, _ = run_dense_batch(bits, np.random.default_rng(8))
        expected = [b.count(0) // 3 % 3 for b in bits.tolist()]
        assert (outcomes.sum(axis=1) % 3).tolist() == expected

    def test_k_bound(self):
        with pytest.raises(ValueError, match="dense"):
            dense_pre_measurement_state(16, (1,) * 16)

    def test_evolution_matches_apply_local_chain_at_ten_parties(self):
        # Reference: one validated einsum per zero-bit party.
        gate = root_gate()
        start = make_sum_class_state(10, 0)
        vectors = admissible_bit_vectors(10).tolist()
        assert len(vectors) == 341
        worst = 0.0
        for bits in vectors:
            ref = start
            for party, bit in enumerate(bits):
                if bit == 0:
                    ref = apply_local(ref, gate.matrix, party)
            state = dense_pre_measurement_state(10, bits)
            worst = max(worst, float(np.max(np.abs(state.amplitudes - ref.amplitudes))))
        assert worst <= 1e-12

    def test_batch_evolves_each_distinct_vector_once(self, monkeypatch):
        # The only full-size states are the half states, built in one walk
        # in reflected Gray-code order of their zero sets: each distinct
        # first half once, from the half state just built or from the
        # class-0 state, with the root gate on each party that enters the
        # zero set and its inverse on each that leaves it.  With every
        # first half present each step is one gate: 7, 31 and 63 gates.
        # The conditional rows then share stacks of at most stack_rows rows
        # across half states: every stack but the last is full, and it goes
        # through each second-half party's gate in one call, on the rows
        # whose bit is 0 there, with parties counted from party h.
        for k, walk_gates in [(7, 7), (10, 31), (13, 63)]:
            self.check_gray_walk_and_stacks(k, walk_gates, monkeypatch)

    @staticmethod
    def track_walk(k, monkeypatch):
        """Records the dense engine's gate calls at k parties.

        Returns ``built``, the zero set and party count of each full-size
        call in order, and ``events``: ("gate", party, rows) per stack gate
        call and ("draw", rows) per stack drawn.  A full-size call must
        start from the class-0 state or the state it built last, and put
        the root gate on parties outside the zero set or its inverse on
        parties inside it.
        """
        h = k // 2
        gate = root_gate()
        start = make_sum_class_state(k, 0)
        zero_sets = weakref.WeakKeyDictionary({start: frozenset()})
        built = []
        last = [weakref.ref(start)]  # the state built last, held weakly
        events = []
        evolve, inverse_cdf = qudit.evolve, qudit.inverse_cdf

        def counting_evolve(state, applied, parties):
            parties = list(parties)
            if isinstance(state, QuditState):
                assert state is start or state is last[0](), "a step starts from an older state"
                below = zero_sets[state]
                assert parties and parties == sorted(set(parties)) and max(parties) < h
                if applied is gate:
                    assert below.isdisjoint(parties)
                    zeros = below | set(parties)
                else:
                    assert np.array_equal(applied.matrix, gate.matrix.conj().T)
                    assert below.issuperset(parties)
                    zeros = below - set(parties)
                out = evolve(state, applied, parties)
                zero_sets[out] = zeros
                built.append((zeros, len(parties)))
                last[0] = weakref.ref(out)
                return out
            assert applied is gate
            assert state.shape[1] == 3 ** (k - h) and len(parties) == 1
            events.append(("gate", parties[0], len(state)))
            return evolve(state, applied, parties)

        def counting_inverse_cdf(cumulative, uniforms):
            if np.ndim(cumulative) == 2:
                events.append(("draw", len(cumulative)))
            return inverse_cdf(cumulative, uniforms)

        monkeypatch.setattr(protocol, "evolve", counting_evolve)
        monkeypatch.setattr(protocol, "inverse_cdf", counting_inverse_cdf)
        return built, events

    @classmethod
    def check_gray_walk_and_stacks(cls, k, walk_gates, monkeypatch):
        h = k // 2
        stack_rows = 3 ** max(h - 1, 9 - (k - h))
        built, events = cls.track_walk(k, monkeypatch)
        _, sampled = sample_admissible_batch(k, 300, np.random.default_rng(12))
        # One more trial per first half, its suffix completing the zero count.
        every = np.ones((2**h, k), dtype=np.int8)
        every[:, :h] = list(itertools.product((0, 1), repeat=h))
        for row in every:
            row[h:h + (-np.count_nonzero(row == 0)) % 3] = 0
        bits = np.concatenate([sampled, every])
        trits = np.random.default_rng(14).integers(0, 3, size=bits.shape, dtype=np.int8)
        outcomes, counts = run_dense_batch(bits, np.random.default_rng(13))
        n = len(bits)

        # Step 0, the empty zero set, is the class-0 state itself.
        gray = gray_zero_sets(h)
        halves = {frozenset(np.flatnonzero(row[:h] == 0).tolist()) for row in bits}
        assert halves == set(gray)
        assert built == [(zeros, 1) for zeros in gray[1:]]
        assert counts.half_states_evolved == len(halves) == 2**h
        assert counts.gates_applied == walk_gates == 2**h - 1

        stacks, gated, parties = [], Counter(), []
        for event in events:
            if event[0] == "gate":
                _, party, rows = event
                parties.append(party)
                gated[party] += rows
            else:
                assert parties == sorted(set(parties))  # one call per party and stack
                stacks.append(event[1])
                parties = []
        assert parties == []
        assert sum(stacks) == n and max(stacks) <= stack_rows
        assert stacks[:-1] == [stack_rows] * (len(stacks) - 1)
        for q in range(k - h):
            assert gated[q] == np.count_nonzero(bits[:, h + q] == 0)
        assert counts.rows_evolved == n
        assert counts.row_gates_applied == sum(gated.values())
        assert outcomes.shape == (n, k) and outcomes.dtype == np.int8
        assert np.array_equal(decode_batch(trits, outcomes), global_function_batch(trits, bits))

    def test_sparse_batch_applies_no_more_gates_than_evolving_each_half(
        self, monkeypatch, per_vector_outcomes
    ):
        # With few first halves present, consecutive ones in Gray order may
        # differ in many parties; a step then starts from the class-0 state
        # when that takes fewer gates, so the walk never applies more gates
        # than evolving every half state from the class-0 state.
        k, h = 13, 6
        trits, bits = sample_admissible_batch(k, 10, np.random.default_rng(31))
        uniforms = np.random.default_rng(32).random(len(bits))
        expected, _ = per_vector_outcomes(bits, uniforms)
        built, _ = self.track_walk(k, monkeypatch)
        outcomes, counts = run_dense_batch(bits, np.random.default_rng(32))

        halves = {frozenset(np.flatnonzero(row[:h] == 0).tolist()) for row in bits}
        assert counts.half_states_evolved == len(halves)
        assert halves - {frozenset()} <= {zeros for zeros, _ in built}
        walk = sorted(halves, key=gray_zero_sets(h).index)
        shortest = sum(min(len(z), len(y ^ z)) for y, z in zip([frozenset(), *walk], walk))
        assert counts.gates_applied == sum(gates for _, gates in built) == shortest
        assert counts.gates_applied <= sum(len(zeros) for zeros in halves)
        assert np.array_equal(outcomes, expected)
        assert np.array_equal(decode_batch(trits, outcomes), global_function_batch(trits, bits))

    @pytest.mark.parametrize("k", [4, 7, 10, 13])
    def test_batch_matches_per_vector_reference(self, k, per_vector_outcomes):
        # Measuring the first half from its half state and the rest from the
        # drawn row draws what the full CDF of each fully evolved vector
        # draws with the same uniforms, so the outcomes agree element for
        # element.
        n = 40 if k == 13 else 400
        trits, bits = sample_admissible_batch(k, n, np.random.default_rng(k))
        extremes = np.ones((2, k), dtype=np.int8)
        extremes[1, : 3 * (k // 3)] = 0  # all ones, and the most zeros
        bits = np.concatenate([bits, extremes])
        outcomes, counts = run_dense_batch(bits, np.random.default_rng(100 + k))
        uniforms = np.random.default_rng(100 + k).random(len(bits))
        expected, _ = per_vector_outcomes(bits, uniforms)
        assert counts.half_states_evolved == len({tuple(row[: k // 2]) for row in bits.tolist()})
        assert counts.rows_evolved == len(bits)
        assert np.array_equal(outcomes, expected)

    @pytest.mark.parametrize("k", [7, 10])
    def test_second_half_gates_leave_the_first_half_marginal_unchanged(self, k):
        # No-signalling: for every second-half bit pattern, the first-half
        # marginal of the fully evolved state is the half state's row norms.
        h = k // 2
        gate = root_gate()
        if k == 7:
            prefixes = list(itertools.product((0, 1), repeat=h))
        else:
            prefixes = [(1,) * h, (0,) * h, (0, 1, 0, 1, 0)]
        worst = 0.0
        for prefix in prefixes:
            half = dense_pre_measurement_state(k, prefix + (1,) * (k - h))
            norms = row_norms(half, h)
            for suffix in itertools.product((0, 1), repeat=k - h):
                zeros = [h + q for q, bit in enumerate(suffix) if bit == 0]
                full = qudit.evolve(half, gate, zeros)
                worst = max(worst, float(np.max(np.abs(row_norms(full, h) - norms))))
        assert worst <= 1e-12

    def test_identity_gate_mutation_is_caught(self, monkeypatch, capsys):
        # Success is measured, not assumed: with the root gate replaced by
        # the identity, the state never leaves class 0 and inputs with zero
        # bits decode wrongly.
        monkeypatch.setattr(protocol, "root_gate", lambda: LocalGate(np.eye(3)))
        trits, bits = sample_admissible_batch(7, 300, np.random.default_rng(21))
        outcomes, _ = run_dense_batch(bits, np.random.default_rng(22))
        wrong = decode_batch(trits, outcomes) != global_function_batch(trits, bits)
        assert np.count_nonzero(wrong) > 0
        assert np.array_equal(wrong, np.count_nonzero(bits == 0, axis=1) > 0)

        code = cli.main(["quantum-run", "--k", "7", "--trials", "300", "--seed", "5"])
        env = json.loads(capsys.readouterr().out)
        assert code == 1
        assert env["payload"]["failures"] > 0
        failure = env["metrics"]["first_failure"]
        assert failure is not None
        assert set(failure) == {"k", "trits", "bits", "outcomes", "decoded", "expected"}
        assert failure["decoded"] != failure["expected"]
        assert failure["bits"].count(0) in (3, 6)
        assert failure["expected"] == (sum(failure["trits"]) + failure["bits"].count(0) // 3) % 3
        transmissions = [(y + x) % 3 for y, x in zip(failure["trits"], failure["outcomes"])]
        assert failure["decoded"] == sum(transmissions) % 3


class FixedUniforms:
    """Stands in for a Generator: ``random(n)`` returns the given n uniforms."""

    def __init__(self, uniforms):
        self.uniforms = np.asarray(uniforms, dtype=float)

    def random(self, n):
        assert n == len(self.uniforms)
        return self.uniforms


class TestRowSampler:
    def test_never_draws_an_impossible_row(self):
        # Exact zeros and rounding dust of about 1e-34 are impossible rows.
        # Uniform 0, the largest uniform below 1, uniforms exactly on the
        # cumulative edges, and a uniform of 1 (clipped) all draw a row of
        # positive probability; the clip goes to row 4, the last possible
        # one, not to the last row.
        probabilities = np.array([1e-34, 0.25, 0.0, 0.5, 0.25, 0.0, 1e-34])
        uniforms = np.array([0.0, 1 - 2**-53, 0.25, 0.75, 1.0])
        rows, remainders = protocol._sample_rows(probabilities, uniforms)
        assert rows.tolist() == [1, 4, 3, 4, 4]
        assert remainders.tolist() == [0.0, 1 - 2**-51, 0.0, 0.0, 1.0]
        assert np.all(probabilities[rows] >= 0.25)

    def test_remainder_drives_the_draw_inside_the_row(self):
        probabilities = np.full(3, 1 / 3)
        rows, remainders = protocol._sample_rows(probabilities, np.array([0.1, 0.5, 0.9]))
        assert rows.tolist() == [0, 1, 2]
        assert np.allclose(remainders, [0.3, 0.5, 0.7], rtol=0, atol=1e-15)

    @pytest.mark.parametrize("k", [7, 10])
    def test_edge_uniforms_decode_correctly(self, k):
        # For vectors of every class, uniforms 0 and 1 - 2^-53, and uniforms
        # landing exactly on each cumulative row edge of the vector's half
        # state (the second-half draw then starts from a remainder of 0):
        # every trial reads a possible outcome, so it decodes correctly.
        h = k // 2
        vectors = admissible_bit_vectors(k)
        picks = [vectors[0], vectors[1], vectors[len(vectors) // 2], vectors[-1]]
        bits, uniforms = [], []
        for vector in picks:
            prefix = np.concatenate([vector[:h], np.ones(k - h, dtype=np.int8)])
            half = dense_pre_measurement_state(k, prefix)
            cumulative = np.cumsum(row_norms(half, h))
            edges = cumulative[:-1] / cumulative[-1]
            assert np.array_equal(edges * cumulative[-1], cumulative[:-1])  # exactly on the edges
            row_uniforms = [0.0, 1 - 2**-53, *edges]
            uniforms += row_uniforms
            bits += [vector] * len(row_uniforms)
        bits = np.array(bits, dtype=np.int8)
        trits = np.zeros_like(bits)
        outcomes, _ = run_dense_batch(bits, FixedUniforms(uniforms))
        assert np.array_equal(decode_batch(trits, outcomes), global_function_batch(trits, bits))
        assert np.array_equal(outcomes.sum(axis=1) % 3, zero_triples_mod3(bits))


class TestAnalyticEngine:
    def test_runs_without_a_sweep(self, monkeypatch):
        # The exact identities prove the class step at every k: no dense
        # sweep is needed.
        def refuse(ks):
            raise AssertionError("the analytic engine ran the dense sweep")

        monkeypatch.setattr(protocol, "sweep_class_states", refuse)
        rng = np.random.default_rng(0)
        outcomes = run_analytic_batch(rows((0, 0, 0, 1), (1, 1, 1, 1)), rng)
        assert (outcomes.sum(axis=1) % 3).tolist() == [1, 0]

    def test_every_call_checks_the_root_gate(self, request):
        # A call that succeeded is no evidence for the next: once the
        # identity fails, every call raises, before it validates or draws.
        rng = np.random.default_rng(0)
        assert run_analytic_batch(rows((0, 0, 0, 1)), rng).sum() % 3 == 1
        request.getfixturevalue("failed_root_check")
        state = rng.bit_generator.state
        for bits in (rows((0, 0, 0, 1)), np.ones((3, 4), dtype=np.int8)):
            with pytest.raises(protocol.VerificationError, match=r"root gate failed: \(3G\)"):
                run_analytic_batch(bits, rng)
        assert rng.bit_generator.state == state

    def test_always_correct_at_large_k(self):
        rng = np.random.default_rng(31)
        trits, bits = sample_admissible_batch(100, 2000, rng)
        outcomes = run_analytic_batch(bits, rng)
        assert np.array_equal(decode_batch(trits, outcomes), global_function_batch(trits, bits))
        zeros = np.count_nonzero(bits == 0, axis=1)
        assert np.array_equal(outcomes.sum(axis=1) % 3, zeros // 3 % 3)
        trits, bits = sample_admissible_batch(1000, 200, rng)
        outcomes = run_analytic_batch(bits, rng)
        assert np.array_equal(decode_batch(trits, outcomes), global_function_batch(trits, bits))

    def test_sweep_beyond_dense_bound_fails_before_enumerating(self, monkeypatch):
        # k=100 would mean enumerating about 2^100/3 bit vectors: the size
        # check must come first.
        def enumerate_vectors(k):
            raise AssertionError(f"enumerated the bit vectors of k={k}")

        monkeypatch.setattr(protocol, "admissible_bit_vectors", enumerate_vectors)
        with pytest.raises(ValueError, match="k=100 exceeds 13"):
            protocol.sweep_class_states((100,))

    def test_certificate_contents(self):
        # The exact identities return one measured float: the float gate's
        # distance from the exact one.
        gate_deviation = verify_class_stepping()
        assert type(gate_deviation) is float
        assert 0.0 <= gate_deviation <= 1e-10
        sweep_deviations = protocol.sweep_class_states((4, 7))
        assert len(sweep_deviations) == 2
        assert max(sweep_deviations) <= 1e-10

    def test_outcome_distribution_matches_dense(self):
        # Same fixed input, two-sample chi-square over the 27 strings of the
        # predicted class, 10,000 trials per engine.
        trials = 10_000
        bits = np.tile(np.array([[0, 0, 0, 1]], dtype=np.int8), (trials, 1))
        dense, evolved = run_dense_batch(bits, np.random.default_rng(777))
        analytic = run_analytic_batch(bits, np.random.default_rng(778))
        assert evolved.half_states_evolved == 1 and evolved.rows_evolved == trials
        dense_counts: dict[tuple, int] = {}
        analytic_counts: dict[tuple, int] = {}
        for counts, outcomes in ((dense_counts, dense), (analytic_counts, analytic)):
            for row in outcomes.tolist():
                counts[tuple(row)] = counts.get(tuple(row), 0) + 1
        support = set(dense_counts) | set(analytic_counts)
        assert len(support) == 27
        assert all(sum(outcome) % 3 == 1 for outcome in support)
        chi2 = 0.0
        for outcome in support:
            o1 = dense_counts.get(outcome, 0)
            o2 = analytic_counts.get(outcome, 0)
            chi2 += (o1 - o2) ** 2 / (o1 + o2)
        assert chi2 < CHI2_99_DF26


class TestVerification:
    def test_tamper_hook_fails(self, failed_root_check):
        with pytest.raises(protocol.VerificationError, match=r"root gate failed: \(3G\)"):
            verify_class_stepping()

    def test_dim2_check_can_fail(self, monkeypatch):
        # With R replaced by NOT, (2R)^2 = 4 I, not 4 NOT: R (x) R keeps the
        # even Bell pair even, so the parity swap fails.
        monkeypatch.setattr(qudit, "_SQRT_NOT_SQUARE", (2, {(0, 1): 2}, 2, {(0, 1): 4}))
        with pytest.raises(protocol.VerificationError, match="dimension-2 swap check failed"):
            verify_class_stepping()

    def test_nan_sweep_deviation_fails(self, monkeypatch):
        # A NaN compares false with everything, so only a test written as
        # "not (dev <= tol)" rejects it.
        monkeypatch.setattr(protocol, "sum_class_deviation", lambda state, j: (1.0, float("nan")))
        with pytest.raises(protocol.VerificationError, match="is not class"):
            protocol.sweep_class_states((4, 7))

    def test_certificate_unchanged_by_class_state_cache(self):
        qudit.make_sum_class_state.cache_clear()
        cold = protocol.sweep_class_states((4, 7))
        warm = protocol.sweep_class_states((4, 7))
        assert warm == cold
        assert verify_class_stepping() <= 1e-10
        # The sweep's worst deviations, recomputed against freshly built
        # class patterns, are exactly the cached ones'.
        for k, reported in zip((4, 7), cold):
            worst = 0.0
            for bits in admissible_bit_vectors(k).tolist():
                amps = dense_pre_measurement_state(k, bits).amplitudes
                mask = digit_sums(k) % 3 == bits.count(0) // 3 % 3
                target = np.where(mask, 3 ** (-(k - 1) / 2), 0.0).astype(complex)
                c = np.vdot(target, amps)
                worst = max(worst, float(np.max(np.abs(amps - c * target))))
            assert reported == worst
        assert max(cold) <= 1e-10

    def test_record_serialization(self, capsys):
        records = record_run(capsys, ["quantum-run", "--k", "7", "--engine", "analytic",
                                      "--trials", "5", "--seed", "4", "--records"])
        assert len(records) == 5
        for record in records:
            assert set(record) == RECORD_KEYS
            assert record["k"] == 7 and record["engine"] == "analytic" and record["seed"] == 4
            for key in ("trits", "bits", "outcomes", "transmissions"):
                assert len(record[key]) == 7
                assert all(type(v) is int for v in record[key])
            assert type(record["decoded"]) is type(record["expected"]) is int
