import numpy as np
import pytest

from tritgame import qudit
from tritgame.protocol import verify_class_stepping
from tritgame.qudit import (
    LocalGate,
    VerificationError,
    digit_sums,
    evolve,
    inverse_cdf,
    make_sum_class_state,
    permutation_gate,
    root_gate,
    sum_class_deviation,
    verify_dim2_swap,
    verify_root_gate,
)

from helpers import branch_root_matrix, classify_sum_class, three_party_class_step

CHI2_99_DF8 = 20.090  # chi-square 99th percentile, 8 degrees of freedom
NOT = np.array([[0, 1], [1, 0]])
#: The two-qubit analog, from its definitions: R = ((1 + i) I + (1 - i) NOT) / 2,
#: the principal square root of NOT, and the even- and odd-parity Bell pairs
#: over the basis |00>, |01>, |10>, |11>.
SQRT_NOT = ((1 + 1j) * np.eye(2) + (1 - 1j) * NOT) / 2
BELL_EVEN = np.array([1, 0, 0, 1]) / np.sqrt(2)
BELL_ODD = np.array([0, 1, 1, 0]) / np.sqrt(2)


def exact_root(exponents):
    """3G as {(e, t): 1} for the root with eigenvalue zeta^exponents[r] on Fourier vector r.

    3G = sum_(r,t) zeta^(exponents[r] - 3rt) X^t, zeta = exp(2 pi i / 9): the
    principal root has exponents (0, 1, 2).
    """
    return {((exponents[r] - 3 * r * t) % 9, t): 1 for r in range(3) for t in range(3)}


def evaluate(element, p):
    """An element of Z[Z_(p^2) x Z_p] in floats, as a p x p matrix."""
    zeta = np.exp(2j * np.pi / p**2)
    shift = np.roll(np.eye(p), 1, axis=0)
    return sum(c * zeta**e * np.linalg.matrix_power(shift, t) for (e, t), c in element.items())


def basis_state(digits):
    k = len(digits)
    amps = np.zeros(3**k, dtype=complex)
    index = 0
    for t in digits:
        index = index * 3 + t
    amps[index] = 1.0
    return amps


def label(state, index):
    """The basis string of ``index`` in a state's basis, party 1's digit first."""
    return np.base_repr(int(index), 3).zfill(qudit._qutrit_count(len(state)))


def peak(state):
    """The basis string of a state's largest amplitude."""
    return label(state, np.argmax(np.abs(state)))


def measure_all(state, rng):
    """One basis string drawn with probability |amplitude|^2, by inverse CDF."""
    cumulative = np.cumsum(np.abs(state) ** 2)
    return label(state, inverse_cdf(cumulative, rng.random()))


class TestQuditState:
    """What a qudit state is, a unit (3^m,) array, checked by :func:`evolve` on every result."""

    def test_rejects_unnormalized(self):
        for parties in ([], [0]):
            with pytest.raises(ValueError, match="not normalized"):
                evolve(np.array([1.0, 1.0, 0.0]), permutation_gate(), parties)

    def test_rejects_wrong_length(self):
        for length in (0, 1, 4, 10, 3**5 + 1):
            with pytest.raises(ValueError, match="amplitudes"):
                evolve(np.eye(1, length, dtype=complex).reshape(-1), permutation_gate(), [])

    def test_rejects_oversized_register(self):
        with pytest.raises(ValueError, match="cap"):
            make_sum_class_state(16, 0)
        # The cap is DENSE_MAX_K = 13 qutrits, checked before any amplitude is
        # read: the zeros of 3^14 amplitudes are never touched.
        with pytest.raises(ValueError, match="cap"):
            make_sum_class_state(14, 0)
        with pytest.raises(ValueError, match="cap"):
            evolve(np.zeros(3**14, dtype=complex), permutation_gate(), [])

    # A gate's zero entries times an infinite amplitude make NaN, with a warning.
    @pytest.mark.filterwarnings("ignore:invalid value encountered in matmul")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
    def test_rejects_non_finite_amplitudes(self, bad):
        for parties in ([], [0], [1, 0]):
            with pytest.raises(ValueError, match="not finite"):
                evolve(np.full(9, bad, dtype=complex), permutation_gate(), parties)
            # One bad entry beside a unit amplitude fails as well.
            with pytest.raises(ValueError, match="not finite"):
                evolve(np.r_[1.0, np.zeros(7), bad], permutation_gate(), parties)

    def test_amplitudes_are_frozen(self):
        state = make_sum_class_state(2, 0)
        with pytest.raises(ValueError):
            state[0] = 0.5

    def test_adopted_arrays_are_validated_not_copied(self):
        # With no gate to apply, evolve checks the caller's array and returns
        # it as it is, read-only when it was.
        amps = np.zeros(3, dtype=complex)
        amps[1] = 1.0
        assert np.shares_memory(evolve(amps, permutation_gate(), []), amps)
        with pytest.raises(ValueError, match="not finite"):
            evolve(np.array([np.nan, 0, 0], dtype=complex), permutation_gate(), [])
        with pytest.raises(ValueError, match="not normalized"):
            evolve(np.ones(3, dtype=complex), permutation_gate(), [])
        start = make_sum_class_state(3, 1)
        out = evolve(start, permutation_gate(), [])
        assert np.shares_memory(out, start)
        assert not out.flags.writeable

    def test_input_is_left_as_it_was(self):
        state = basis_state((0, 1))
        out = evolve(state, permutation_gate(), [0, 1])
        assert peak(out) == "12"
        assert np.array_equal(state, basis_state((0, 1)))

    def test_equality_returns_a_bool(self):
        gate_a, gate_b = permutation_gate(), permutation_gate()
        assert (gate_a == gate_b) is False
        assert (gate_a == gate_a) is True

    def test_basis_labels_party_one_first(self):
        state = basis_state((0, 1, 2))
        assert peak(state) == "012"
        assert np.base_repr(5, 3).zfill(3) == "012"


class TestSumClassStates:
    def test_three_party_class_one_listing(self):
        state = make_sum_class_state(3, 1)
        support = {label(state, i) for i in np.nonzero(state)[0]}
        assert support == {"001", "010", "100", "211", "121", "112", "220", "202", "022"}
        np.testing.assert_allclose(state[state != 0], 1 / 3, atol=1e-15)

    def test_single_party_class_is_basis_state(self):
        state = make_sum_class_state(1, 0)
        np.testing.assert_allclose(state, [1, 0, 0], atol=1e-15)

    def test_two_qubit_even_class_is_bell_pair(self):
        # The parity classes of two qubits are the Bell pairs, and they are
        # sums over NOT's eigenvectors f_b = (1, (-1)^b) / sqrt(2), the
        # qubit analog of the Fourier vectors: the even pair is
        # sum_b f_b (x) f_b / sqrt(2), the odd one weighs f_b (x) f_b by
        # NOT's eigenvalue (-1)^b.
        parity = np.array([a ^ b for a in (0, 1) for b in (0, 1)])
        np.testing.assert_allclose(BELL_EVEN, (parity == 0) / np.sqrt(2), atol=1e-15)
        np.testing.assert_allclose(BELL_ODD, (parity == 1) / np.sqrt(2), atol=1e-15)
        f = [np.array([1, (-1) ** b]) / np.sqrt(2) for b in (0, 1)]
        np.testing.assert_allclose(
            sum(np.kron(v, v) for v in f) / np.sqrt(2), BELL_EVEN, atol=1e-15
        )
        np.testing.assert_allclose(
            sum((-1) ** b * np.kron(v, v) for b, v in enumerate(f)) / np.sqrt(2), BELL_ODD,
            atol=1e-15,
        )

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("j", [0, 1, 2])
    def test_support_size_and_uniformity(self, k, j):
        state = make_sum_class_state(k, j)
        assert state.shape == (3**k,)
        nonzero = state[state != 0]
        assert nonzero.size == 3 ** (k - 1)
        np.testing.assert_allclose(nonzero, nonzero[0], atol=1e-15)
        sums = digit_sums(k)
        assert np.all(sums[state != 0] % 3 == j)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            make_sum_class_state(3, 3)

    def test_cached_state_is_shared_and_read_only(self):
        state = make_sum_class_state(4, 1)
        assert make_sum_class_state(4, 1) is state
        assert not state.flags.writeable
        with pytest.raises(ValueError):
            state[0] = 1.0


class TestGates:
    def test_shift_gate_cycles_digits(self):
        gate = permutation_gate()
        for start, want in ((0, 1), (1, 2), (2, 0)):
            out = evolve(basis_state((start,)), gate, [0])
            assert peak(out) == str(want)

    def test_not_gate(self):
        # NOT takes |1> to |0>, and on one qubit of the even Bell pair it
        # gives the odd pair.
        np.testing.assert_allclose(NOT @ [0, 1], [1, 0], atol=1e-15)
        np.testing.assert_allclose(np.kron(NOT, np.eye(2)) @ BELL_EVEN, BELL_ODD, atol=1e-15)

    def test_gate_must_be_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            LocalGate([[1, 0, 0], [1, 1, 0], [0, 0, 1]])
        with pytest.raises(ValueError, match="3x3"):
            LocalGate(NOT)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_gate_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="not finite"):
            LocalGate(np.full((3, 3), bad))
        matrix = np.eye(3, dtype=complex)
        matrix[1, 2] = bad
        with pytest.raises(ValueError, match="not finite"):
            LocalGate(matrix)

    def test_lifted_transpose_is_gate_kron_identity(self):
        gate = root_gate()
        for block in (1, 3, 9):
            lifted = gate.lifted_transpose(block)
            assert np.array_equal(lifted, np.kron(gate.matrix, np.eye(block)).T)
            assert gate.lifted_transpose(block) is lifted  # built once, then kept
            assert not lifted.flags.writeable

    def test_root_gate_is_built_once_per_branch(self):
        # The dense batches and the certificate share one gate, so its
        # lifted matrices are built once per process.
        assert root_gate() is root_gate()

    def test_root_gate_is_the_principal_branch(self):
        # Bit for bit the (0, 0) matrix of the nine-branch formula.
        assert np.array_equal(root_gate().matrix, branch_root_matrix(0, 0))

    def test_dim2_root_is_the_explicit_matrix(self):
        # Both the polynomial in NOT and the certificate's exact 2R, evaluated
        # at i, are the explicit matrix.
        expected = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]])
        np.testing.assert_allclose(SQRT_NOT, expected, atol=1e-15)
        p, root, power, target = qudit._SQRT_NOT_SQUARE
        np.testing.assert_allclose(evaluate(root, p) / 2, expected, atol=1e-15)
        assert (p, power, target) == (2, 2, {(0, 1): 4})

    def test_dim2_root_squares_to_not(self):
        np.testing.assert_allclose(SQRT_NOT @ SQRT_NOT, NOT, atol=1e-12)
        assert qudit._holds(qudit._SQRT_NOT_SQUARE)

    @pytest.mark.parametrize("r1", [0, 1, 2])
    @pytest.mark.parametrize("r2", [0, 1, 2])
    def test_every_branch_cubes_to_the_shift(self, r1, r2):
        m = branch_root_matrix(r1, r2)
        np.testing.assert_allclose(
            m @ m @ m, permutation_gate().matrix, atol=1e-10
        )


class TestRootBranchSearch:
    """Why the protocol fixes one root gate: no branch behaves differently."""

    def test_returned_branch_steps_all_classes_with_one_phase(self):
        assert verify_root_gate() <= 1e-10
        phase, dev = three_party_class_step(root_gate())
        assert dev <= 1e-10
        assert abs(abs(phase) - 1.0) <= 1e-10

    def test_every_branch_passes_the_step_law(self, monkeypatch):
        # A consequence of taking roots in the shift's own eigenbasis: the
        # cubed per-party root is the original eigenvalue, so the tensor
        # cube acts identically for every root choice.  Each branch's exact
        # 3G, with eigenvalue exponents (0, 1 + 3 r1, 2 + 3 r2), goes through
        # the certificate, with the branch's float gate in place of the gate.
        for r1 in range(3):
            for r2 in range(3):
                gate = LocalGate(branch_root_matrix(r1, r2))
                p, _, power, target = qudit._ROOT_CUBE
                root = exact_root((0, 1 + 3 * r1, 2 + 3 * r2))
                monkeypatch.setattr(qudit, "_ROOT_CUBE", (p, root, power, target))
                monkeypatch.setattr(qudit, "root_gate", lambda: gate)
                assert verify_root_gate() <= 1e-10, (r1, r2)
                phase, dev = three_party_class_step(gate)
                assert dev <= 1e-10
                assert abs(abs(phase) - 1.0) <= 1e-10

    def test_dim2_swap(self):
        assert verify_dim2_swap() is None


class TestExactCertificate:
    """The identities are decided on integers, and every listed mutant fails them.

    NOT in place of R fails in ``test_protocol.TestVerification.test_dim2_check_can_fail``.
    """

    def test_principal_root_table(self):
        p, root, power, target = qudit._ROOT_CUBE
        assert root == exact_root((0, 1, 2))
        assert (p, power, target) == (3, 3, {(0, 1): 27})
        np.testing.assert_allclose(evaluate(root, p) / 3, root_gate().matrix, atol=1e-15)

    def test_identities_hold_though_the_raw_products_differ(self):
        # The products are not the targets term by term: only the reduction
        # by the cyclotomic polynomial makes them equal.
        for p, root, power, target in (qudit._ROOT_CUBE, qudit._SQRT_NOT_SQUARE):
            assert qudit._holds((p, root, power, target))
            value = root
            for _ in range(power - 1):
                value = qudit._times(value, root, p)
            assert {key: c for key, c in value.items() if c} != target

    @pytest.mark.parametrize("p", [2, 3])
    def test_vanishes_decides_zero_in_the_cyclotomic_ring(self, p):
        # Against float evaluation: multiples of Phi_(p^2) = sum_(i<p) zeta^(ip)
        # vanish, and random elements off them do not.
        rng = np.random.default_rng(p)
        phi = {(i * p, 0): 1 for i in range(p)}
        assert qudit._vanishes(phi, p)
        assert not qudit._vanishes({(i, 0): 1 for i in range(p)}, p)
        for _ in range(200):
            b = {(e, t): int(c) for (e, t), c in np.ndenumerate(rng.integers(-3, 4, (p, p)))}
            multiple = qudit._times(phi, b, p)
            assert qudit._vanishes(multiple, p)
            assert np.max(np.abs(evaluate(multiple, p))) <= 1e-12
            a = {(e, t): int(c) for (e, t), c in np.ndenumerate(rng.integers(-3, 4, (p * p, p)))}
            is_zero = bool(np.max(np.abs(evaluate(a, p))) <= 1e-9)
            assert qudit._vanishes(a, p) == is_zero

    @pytest.mark.parametrize("term", sorted(exact_root((0, 1, 2))))
    def test_every_moved_exponent_fails(self, monkeypatch, term):
        p, root, power, target = qudit._ROOT_CUBE
        for shift in range(1, 9):
            moved = {key: c for key, c in root.items() if key != term}
            key = ((term[0] + shift) % 9, term[1])
            moved[key] = moved.get(key, 0) + 1
            monkeypatch.setattr(qudit, "_ROOT_CUBE", (p, moved, power, target))
            with pytest.raises(VerificationError, match="root gate failed"):
                verify_class_stepping()

    def test_transposed_shift_fails(self, monkeypatch):
        # X^T = X^2: 27 in the wrong cell.
        p, root, power, _ = qudit._ROOT_CUBE
        monkeypatch.setattr(qudit, "_ROOT_CUBE", (p, root, power, {(0, 2): 27}))
        with pytest.raises(VerificationError, match="root gate failed"):
            verify_class_stepping()

    def test_perturbed_float_gate_fails(self, monkeypatch):
        # The gate times the phase exp(1e-9 i), unitary, 8.4e-10 from the exact
        # gate entrywise: the identities still hold, but the dense engine's
        # gate is no longer the certified one.
        gate = LocalGate(np.exp(1e-9j) * root_gate().matrix)
        monkeypatch.setattr(qudit, "root_gate", lambda: gate)
        with pytest.raises(VerificationError, match="float gate deviates by 8.440e-10"):
            verify_class_stepping()


class TestApplyLocal:
    """Single-party gates through :func:`evolve`; parties count from 0."""

    def test_identity_gate_keeps_amplitudes(self):
        state = make_sum_class_state(3, 2)
        out = evolve(state, LocalGate(np.eye(3)), [1])
        np.testing.assert_allclose(out, state, atol=1e-15)

    def test_shift_on_party_one(self):
        out = evolve(basis_state((0, 1, 2)), permutation_gate(), [0])
        assert peak(out) == "112"

    def test_norm_preserved_on_random_state(self):
        rng = np.random.default_rng(42)
        raw = rng.normal(size=27) + 1j * rng.normal(size=27)
        state = raw / np.linalg.norm(raw)
        gate = LocalGate(branch_root_matrix(1, 2))
        for party in (0, 1, 2):
            state = evolve(state, gate, [party])
        assert abs(np.sum(np.abs(state) ** 2) - 1.0) <= 1e-10

    def test_dimension_and_index_errors(self):
        state = make_sum_class_state(2, 0)
        with pytest.raises(ValueError, match="party"):
            evolve(state, permutation_gate(), [2])
        with pytest.raises(ValueError, match="party"):
            evolve(state, permutation_gate(), [-1])

    def test_root_gate_on_both_qubits_swaps_parity_classes(self):
        state = np.kron(SQRT_NOT, SQRT_NOT) @ BELL_EVEN
        c = np.vdot(BELL_ODD, state)
        assert abs(abs(c) - 1.0) <= 1e-10
        np.testing.assert_allclose(state, c * BELL_ODD, atol=1e-10)


class TestEvolveStack:
    """A stack of states goes through the same party loop as a single state."""

    def test_stack_rows_match_single_state_evolution(self):
        # Five parties cover both branches of the loop (blocks of 81 and 27,
        # then 9, 3 and 1); each row equals its own evolution bit for bit.
        rng = np.random.default_rng(7)
        raw = rng.normal(size=(6, 3**5)) + 1j * rng.normal(size=(6, 3**5))
        stack = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        gate = root_gate()
        parties = [0, 1, 3, 4, 2, 4]
        out = evolve(stack, gate, parties)
        assert out.shape == stack.shape
        for row, evolved in zip(stack, out):
            single = evolve(row, gate, parties)
            assert single.shape == row.shape
            assert np.array_equal(evolved, single)

    def test_every_row_is_checked(self):
        stack = np.zeros((3, 9), dtype=complex)
        stack[:, 4] = 1.0
        gate = permutation_gate()
        assert evolve(stack, gate, [1]).shape == (3, 9)
        unnormalized = stack.copy()
        unnormalized[2, 4] = 1.1
        with pytest.raises(ValueError, match="not normalized"):
            evolve(unnormalized, gate, [0])
        broken = stack.copy()
        broken[1, 0] = np.nan
        with pytest.raises(ValueError, match="not finite"):
            evolve(broken, gate, [0])

    @pytest.mark.filterwarnings("ignore:invalid value encountered in matmul")
    def test_one_bad_state_fails_in_either_shape(self):
        # A 1-D state with one NaN fails, and so does a stack in which one
        # row of six is bad; the good rows alone pass.
        rng = np.random.default_rng(11)
        raw = rng.normal(size=(6, 27)) + 1j * rng.normal(size=(6, 27))
        stack = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        gate = root_gate()
        for parties in ([], [2], [0, 1, 2]):
            assert evolve(stack, gate, parties).shape == (6, 27)
            state = stack[3].copy()
            state[5] = np.nan
            with pytest.raises(ValueError, match="not finite"):
                evolve(state, gate, parties)
            for bad, message in ((np.inf, "not finite"), (2.0, "not normalized")):
                broken = stack.copy()
                broken[3, 5] = bad
                with pytest.raises(ValueError, match=message):
                    evolve(broken, gate, parties)

    def test_shape_and_index_errors(self):
        gate = permutation_gate()
        for bad in (np.ones((2, 10), dtype=complex), np.ones((2, 1), dtype=complex),
                    np.ones(10, dtype=complex), np.ones((1, 1, 9), dtype=complex)):
            with pytest.raises(ValueError, match=r"3\^m"):
                evolve(bad, gate, [])
        # One state is a 1-D array of 3^m amplitudes.
        assert peak(evolve(np.eye(9, dtype=complex)[4], gate, [1])) == "12"
        with pytest.raises(ValueError, match="party"):
            evolve(np.eye(9, dtype=complex), gate, [2])
        with pytest.raises(ValueError, match="party"):
            evolve(np.eye(9, dtype=complex)[4], gate, [2])


class TestInverseCdf:
    def test_rows_match_one_distribution_at_a_time(self):
        rng = np.random.default_rng(3)
        cumulative = np.cumsum(rng.random((5, 12)), axis=1)
        uniforms = rng.random(5)
        stacked = inverse_cdf(cumulative, uniforms)
        assert stacked.tolist() == [int(inverse_cdf(c, u)) for c, u in zip(cumulative, uniforms)]

    def test_clips_to_the_last_possible_outcome(self):
        # The last two outcomes have probability zero; a uniform of 1 (what
        # rounding can produce) must not draw them.
        cumulative = np.cumsum([0.0, 0.5, 0.5, 0.0, 0.0])
        assert inverse_cdf(cumulative, np.array([0.0, 0.5, 1 - 2**-53, 1.0])).tolist() == [
            1, 2, 2, 2,
        ]
        stacked = np.array([cumulative, np.cumsum([0.25, 0.0, 0.75, 0.0, 0.0])])
        assert inverse_cdf(stacked, np.array([1.0, 1.0])).tolist() == [2, 2]
        assert inverse_cdf(stacked, np.array([0.0, 0.25])).tolist() == [1, 2]


class TestMeasurement:
    def test_basis_state_is_deterministic(self):
        rng = np.random.default_rng(0)
        state = basis_state((2, 1))
        assert all(measure_all(state, rng) == "21" for _ in range(20))

    def test_samples_stay_in_class(self):
        rng = np.random.default_rng(1)
        state = make_sum_class_state(3, 1)
        for _ in range(200):
            outcome = measure_all(state, rng)
            assert sum(int(c) for c in outcome) % 3 == 1

    def test_uniform_over_class_support(self):
        rng = np.random.default_rng(2)
        state = make_sum_class_state(3, 1)
        counts: dict[str, int] = {}
        for _ in range(9000):
            outcome = measure_all(state, rng)
            counts[outcome] = counts.get(outcome, 0) + 1
        assert len(counts) == 9
        chi2 = sum((n - 1000.0) ** 2 / 1000.0 for n in counts.values())
        assert chi2 < CHI2_99_DF8

    def test_fixed_seed_reproduces_bit_for_bit(self):
        state = make_sum_class_state(4, 2)
        runs = [
            [measure_all(state, np.random.default_rng(99)) for _ in range(50)]
            for _ in range(2)
        ]
        assert runs[0] == runs[1]


class TestClassify:
    def test_constructor_round_trip(self):
        result = classify_sum_class(make_sum_class_state(4, 2))
        assert result is not None
        j, c = result
        assert j == 2
        assert c == pytest.approx(1.0, abs=1e-12)

    def test_basis_state_is_not_a_class(self):
        assert classify_sum_class(basis_state((0, 0, 1))) is None

    def test_recovers_global_phase(self):
        phase = np.exp(0.7j)
        state = make_sum_class_state(3, 0)
        phased = phase * state
        result = classify_sum_class(phased)
        assert result is not None
        assert result[0] == 0
        assert result[1] == pytest.approx(phase, abs=1e-12)

    def test_deviation_helper_reports_mismatch(self):
        _, dev = sum_class_deviation(make_sum_class_state(3, 0), 1)
        assert dev > 0.1
