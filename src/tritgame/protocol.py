"""The entanglement-assisted protocol, end to end.

k parties (k = 4, 7, 10, ...) each hold a register with one trit and one
bit; admissible inputs have a multiple of three zero bits.  The jointly
computed value is the trit sum plus the number of zero-bit triples, mod 3.
Sharing the digit-sum-0 superposition, each zero-bit party applies the
cube root of the cyclic shift; everyone measures and transmits their own
trit plus their measured digit.  The transcript's digit sum is the global
value, on every input and every measurement outcome.

The API works on whole arrays only.  Trials are int8 arrays with one
row per trial and one column per party: :func:`sample_admissible_batch`
draws (trits, bits), an engine draws the measurement outcomes, and
:func:`decode_batch` and :func:`global_function_batch` give each row's
decoded and expected values; both validate the rows they are given.
Two interchangeable engines produce the outcomes:

* :func:`run_dense_batch` simulates the state vector (k <= 13) and
  samples a measurement from it.  Only the first h = k // 2 parties'
  gates touch full-size states: each distinct first-half bit pattern is
  evolved once (a half state).  The half states are built in one walk in
  Gray-code order of their zero sets, each from the one before: the root
  gate acts on each party that enters the zero set, its inverse on each
  that leaves it.  Gates on different parties commute, so any path to a
  zero set gives its half state.  The second-half parties' gates act on
  their own qudits only, so they cannot change the distribution of the
  first half's outcomes (no-signalling).  The engine therefore draws the
  first-half digits from each half state's row norms as soon as it is
  built, and puts the drawn rows on one stack shared by all half states.
  A full stack goes through each second-half party's gate in one call,
  on the rows whose bit is 0 there, and all its digits are drawn at
  once.  It reports the half states and the full-size gates actually
  applied, and the conditional rows and the gates applied to them
  (:class:`DenseCounts`).  Every gate goes through :func:`qudit.evolve`,
  the one routine that applies gates to amplitudes, whether to a full
  state or to a stack of rows.
* :func:`run_analytic_batch` skips the state entirely and samples the
  outcome string uniformly from the digit-sum class the evolution provably
  lands in.  Every call first runs :func:`verify_class_stepping`, whose
  exact identities prove the class step at every k, and a failure raises;
  it builds no dense state.

:func:`admissible_bit_vectors` enumerates the admissible bit vectors, and
:func:`zero_triples_mod3` gives each row's class, for the dense sweep.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple, Sequence

import numpy as np

from .combinat import check_party_count
from .qudit import (
    DENSE_MAX_K,
    LocalGate,
    QuditState,
    TOL,
    VerificationError,
    evolve,
    inverse_cdf,
    make_sum_class_state,
    root_gate,
    sum_class_deviation,
    verify_dim2_swap,
    verify_root_gate,
)


def admissible_bit_vectors(k: int) -> np.ndarray:
    """All bit vectors of length k whose zero count is a multiple of 3.

    Returns an int8 (N, k) array.  Vectors come in order of zero count,
    then lexicographically by the positions of the zeros; the first is all
    ones.
    """
    check_party_count(k)
    zero_sets = [z for m in range(0, k + 1, 3) for z in itertools.combinations(range(k), m)]
    bits = np.ones((len(zero_sets), k), dtype=np.int8)
    for row, zeros in zip(bits, zero_sets):
        row[list(zeros)] = 0
    return bits


# ---------------------------------------------------------------------------
# Batches: int8 arrays with one row per trial
# ---------------------------------------------------------------------------

def zero_triples_mod3(bits: np.ndarray) -> np.ndarray:
    """Zero-triple count mod 3 of every row of an (n, k) bit array.

    That is the digit-sum class the shared state lands in.  Validates the
    array: two dimensions, a valid party count, integer bits in {0, 1} and
    a multiple of three zeros in every row.
    """
    if bits.ndim != 2:
        raise ValueError(f"need an (n, k) bit array, got shape {bits.shape}")
    check_party_count(bits.shape[1])
    if bits.dtype.kind not in "biu" or bits.size and (bits.min() < 0 or bits.max() > 1):
        raise ValueError("bits out of range: every entry must be the integer 0 or 1")
    zeros = np.count_nonzero(bits == 0, axis=1)
    if np.any(zeros % 3):
        raise ValueError("inadmissible bit vector: zero count is not a multiple of 3")
    return (zeros // 3) % 3


def _check_digits(name: str, digits: np.ndarray) -> None:
    """Rejects ``digits`` that are not integers or lie outside 0..2, by name."""
    if digits.dtype.kind not in "biu" or digits.size and (digits.min() < 0 or digits.max() > 2):
        raise ValueError(f"{name} out of range: every entry must be the integer 0, 1 or 2")


def _check_trits(trits: np.ndarray, rows: np.ndarray) -> None:
    """Rejects trits shaped unlike ``rows``, not integers, or outside 0..2."""
    if trits.shape != rows.shape:
        raise ValueError(f"trits of shape {trits.shape} do not match rows of shape {rows.shape}")
    _check_digits("trits", trits)


#: Set bits of each byte value.
_POPCOUNT = np.array([bin(byte).count("1") for byte in range(256)], dtype=np.uint8)


def sample_admissible_batch(
    k: int, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """n independent uniform samples from the admissible set.

    Returns int8 ``(trits, bits)``, both of shape (n, k).  The bits are
    exact rejection samples: uniform bit rows are drawn and kept when their
    zero count is a multiple of 3, which makes every admissible bit vector
    equally likely (about a third of the rows are kept).  Zeros are counted
    on the packed bytes, and only the kept rows are unpacked.  The trits are
    drawn uniformly after the bits.
    """
    check_party_count(k)
    if n < 0:
        raise ValueError(f"need a non-negative sample count, got {n}")
    # Row i's bits are the first k bits of packed[i], most significant
    # first; the unused low bits of the last byte are masked out of the count.
    tail_mask = (0xFF << (-k % 8)) & 0xFF
    kept = [np.empty((0, k), dtype=np.int8)]
    have = 0
    while have < n:
        draws = 3 * (n - have) + 8
        packed = rng.integers(0, 256, size=(draws, (k + 7) // 8), dtype=np.uint8)
        packed[:, -1] &= tail_mask
        zeros = k - _POPCOUNT[packed].sum(axis=1)
        rows = np.unpackbits(packed[zeros % 3 == 0], axis=1, count=k).view(np.int8)
        kept.append(rows)
        have += len(rows)
    bits = np.concatenate(kept)[:n]
    trits = rng.integers(0, 3, size=(n, k), dtype=np.int8)
    return trits, bits


def global_function_batch(trits: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """Each row's global value: trit sum plus zero-triple count, mod 3.

    Validates the bits as the engines do and the trits against them.
    """
    zero_triples = zero_triples_mod3(bits)
    _check_trits(trits, bits)
    return (trits.sum(axis=1, dtype=np.int64) + zero_triples) % 3


def decode_batch(trits: np.ndarray, outcomes: np.ndarray) -> np.ndarray:
    """Each row's decoded value.

    Party i transmits (trit + outcome) mod 3; the referee sums the
    transmissions mod 3.  The trits must match the (n, k) outcomes, and
    both must be integers in 0..2.
    """
    if outcomes.ndim != 2:
        raise ValueError(f"need an (n, k) outcome array, got shape {outcomes.shape}")
    check_party_count(outcomes.shape[1])
    _check_trits(trits, outcomes)
    _check_digits("outcomes", outcomes)
    return (trits + outcomes).sum(axis=1, dtype=np.int64) % 3


# ---------------------------------------------------------------------------
# Dense engine
# ---------------------------------------------------------------------------

def dense_pre_measurement_state(k: int, bits: Sequence[int]) -> QuditState:
    """Shared state after every zero-bit party applied the root gate.

    The gates act on the digit-sum-0 class state, in party order, through
    :func:`qudit.evolve`, which validates the final state once.  A k above
    DENSE_MAX_K is rejected before any state is built.
    """
    if len(bits) != k:
        raise ValueError(f"need {k} bits, got {len(bits)}")
    zeros = [party for party, bit in enumerate(bits) if bit == 0]
    return evolve(make_sum_class_state(k, 0), root_gate(), zeros)


class DenseCounts(NamedTuple):
    """What one dense batch evolved."""

    half_states_evolved: int  # distinct first-half bit patterns: one full-size state each
    gates_applied: int  # root gates and inverses on full-size states: one per party a step moves
    rows_evolved: int  # conditional second-half rows: one per trial
    row_gates_applied: int  # root-gate applications to single rows (s rows through g gates: s * g)


#: An outcome this unlikely counts as impossible: its amplitude is within
#: 1e-10 of zero, the tolerance of every state check, and float evolution
#: leaves amplitudes of about 1e-17 where exact ones vanish.
_ZERO_PROBABILITY = 1e-20


def _possible(probabilities: np.ndarray) -> np.ndarray:
    """The probabilities with every impossible one set to exactly zero."""
    return np.where(probabilities > _ZERO_PROBABILITY, probabilities, 0.0)


def _sample_rows(
    probabilities: np.ndarray, uniforms: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Row indices drawn by inverse CDF, and what is left of each uniform.

    ``probabilities`` holds the squared row norms of a half state.  No row
    of impossible probability is ever drawn, so the drawn norms can be
    divided by.  The remainder (u * total - mass before the drawn row) /
    its mass is uniform on [0, 1) given the row (rounding can put it at or
    just past 1, which :func:`qudit.inverse_cdf` clips), so it drives the
    draw of the remaining digits.
    """
    probabilities = _possible(probabilities)
    edges = np.concatenate(([0.0], np.cumsum(probabilities)))
    rows = inverse_cdf(edges[1:], uniforms)
    remainders = (uniforms * edges[-1] - edges[rows]) / probabilities[rows]
    return rows, remainders


def _measure_tails(
    rows: np.ndarray, tail_bits: np.ndarray, remainders: np.ndarray, gate: LocalGate
) -> np.ndarray:
    """Second-half basis indices drawn from a stack of conditional rows.

    Row i goes through the gate of each party q whose bit ``tail_bits[i, q]``
    is 0, in party order: one :func:`qudit.evolve` call per party, on the
    rows whose bit is 0 there.  ``rows`` is overwritten.  One in-place
    cumsum and one inverse CDF then draw every row's index with its
    remainder.
    """
    for q in range(tail_bits.shape[1]):
        gated = np.flatnonzero(tail_bits[:, q] == 0)
        if len(gated):
            rows[gated] = evolve(rows[gated], gate, [q])
    cumulative = _possible(np.abs(rows) ** 2)
    np.cumsum(cumulative, axis=1, out=cumulative)
    return inverse_cdf(cumulative, remainders)


def run_dense_batch(
    bits: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, DenseCounts]:
    """Measurement outcomes of full state-vector runs, one row per trial.

    Only the first h = k // 2 parties' gates are applied to full-size
    states, the half states: the class-0 state after the gates of one
    distinct first-half bit pattern (suffix bits set to 1).  They are
    built in one walk, in reflected Gray-code order of their zero sets,
    each from the one before it (or from the class-0 state, where that
    takes fewer gates): the root gate acts on every party that enters the
    zero set, its inverse on every party that leaves it.  Gates on
    different parties commute, so every path gives the same state.  Each
    half state's (3^h, 3^(k-h)) matrix view is measured as soon as it
    exists, in two steps, both driven by the trial's one uniform:

    * The squared norm of row r is the probability that the first h
      parties read r.  The other parties' gates act on their own qudits
      only, so they cannot change it (no-signalling).  The first-half
      digits are drawn by inverse CDF over the row norms.
    * The drawn row divided by its norm is the conditional state of the
      last k-h parties.  These rows go onto one stack shared by all half
      states, of a third of a half state's amplitudes (3^(h-1) rows), or
      3^9 amplitudes where that is more.  When it is full, and once at
      the end, each second-half party's gate is applied in one
      :func:`qudit.evolve` call to the rows whose bit is 0 there, which
      checks every row, and the second-half digits are drawn from all
      rows at once with what is left of the uniforms.

    Only the current half state and the one built from it are alive at
    a time.  This draws what an inverse CDF over the fully evolved state
    draws with the same uniform, except at rounding edges, and no row of
    impossible probability is drawn.  Returns the int8 (n, k) outcomes
    and the :class:`DenseCounts`.
    """
    zero_triples_mod3(bits)
    n, k = bits.shape
    h = k // 2
    width = 3 ** (k - h)
    # A third of a half state's amplitudes, and never fewer than 3^9 (the
    # third at k = 10), so that short rows come in stacks long enough to
    # pay for the calls that measure them.
    stack_rows = 3 ** max(h - 1, 9 - (k - h))
    gate = root_gate()
    inverse = LocalGate(gate.matrix.conj().T)
    uniforms = rng.random(n)
    # Step t of the walk visits zero set gray[t], party p at bit p: the
    # reflected Gray code (Knuth, TAOCP vol. 4A, section 7.2.1.1).  Trials go
    # in walk order, then by trial; the arrays below are in this order.
    gray = np.arange(2**h) ^ (np.arange(2**h) >> 1)
    steps = np.argsort(gray)[(bits[:, :h] == 0) @ (1 << np.arange(h))]
    trials = np.argsort(steps, kind="stable")
    visited, counts = np.unique(steps, return_counts=True)
    tail_bits = bits[trials, h:]
    drawn = np.empty(n, dtype=np.int64)
    remainders = np.empty(n)
    tails = np.empty(n, dtype=np.int64)
    stack = np.empty((min(stack_rows, n), width), dtype=np.complex128)
    state = start = make_sum_class_state(k, 0)
    below = gates = end = 0
    for zeros, count in zip(gray[visited].tolist(), counts.tolist()):
        if zeros.bit_count() < (zeros ^ below).bit_count():
            state, below = start, 0
        for applied, moved in ((gate, zeros & ~below), (inverse, below & ~zeros)):
            parties = [p for p in range(h) if moved >> p & 1]
            if parties:
                state = evolve(state, applied, parties)
                gates += len(parties)
        below = zeros
        matrix = state.amplitudes.reshape(3**h, width)
        # Squared row norms in one pass: the real and imaginary parts' squares.
        parts = matrix.view(np.float64)
        norms = np.einsum("ij,ij->i", parts, parts)
        begin, end = end, end + count
        drawn[begin:end], remainders[begin:end] = _sample_rows(norms, uniforms[trials[begin:end]])
        # This half state's trials, in pieces that end where a stack fills.
        cuts = list(range(begin - begin % stack_rows + stack_rows, end, stack_rows))
        for lo, hi in zip([begin, *cuts], [*cuts, end]):
            picked, filled = drawn[lo:hi], slice(lo % stack_rows, (hi - 1) % stack_rows + 1)
            stack[filled] = matrix[picked] / np.sqrt(norms[picked])[:, None]
            if hi % stack_rows == 0 or hi == n:
                full = slice(lo - lo % stack_rows, hi)
                tails[full] = _measure_tails(
                    stack[:filled.stop], tail_bits[full], remainders[full], gate
                )
        del matrix, parts  # only `state` may carry a half state into the next step
    index = np.empty(n, dtype=np.int64)
    index[trials] = drawn * width + tails
    # Party 1 owns the most significant base-3 digit of the basis index.
    outcomes = index[:, None] // 3 ** np.arange(k - 1, -1, -1) % 3
    return outcomes.astype(np.int8), DenseCounts(
        half_states_evolved=len(visited),
        gates_applied=gates,
        rows_evolved=n,
        row_gates_applied=int(np.count_nonzero(bits[:, h:] == 0)),
    )


# ---------------------------------------------------------------------------
# Analytic engine, checked by exact identities on every call
# ---------------------------------------------------------------------------

def sweep_class_states(ks: Sequence[int]) -> tuple[float, ...]:
    """The dense sweep: the worst sum-class deviation at each k in ``ks``.

    Every admissible bit vector's dense state must be the class its zero
    triples predict, times a modulus-1 phase, within :data:`qudit.TOL`; a
    NaN deviation fails.  Every k is checked before any state is built.
    Raises VerificationError on a failure, ValueError on a bad k.
    """
    for k in ks:
        if k > DENSE_MAX_K:
            raise ValueError(f"verification needs dense states; k={k} exceeds {DENSE_MAX_K}")
        check_party_count(k)
    deviations = []
    for k in ks:
        worst = 0.0
        vectors = admissible_bit_vectors(k)
        for bits, expected in zip(vectors.tolist(), zero_triples_mod3(vectors).tolist()):
            phase, dev = sum_class_deviation(dense_pre_measurement_state(k, bits), expected)
            if not (dev <= TOL and abs(abs(phase) - 1.0) <= TOL):
                raise VerificationError(
                    f"evolved state at k={k}, bits={tuple(bits)} is not class {expected}"
                )
            worst = max(worst, dev)
        deviations.append(worst)
    return tuple(deviations)


def verify_class_stepping() -> float:
    """Check the root gate's exact identities, which prove the class step at every k.

    No dense sweep is needed (:func:`sweep_class_states` is one).  Returns
    the float gate's distance from the exact one.  Raises VerificationError
    on any failure; it changes no state.
    """
    gate_deviation = verify_root_gate()
    verify_dim2_swap()
    return gate_deviation


def run_analytic_batch(bits: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Measurement outcomes without state evolution, at any k.

    Samples each row's outcome string uniformly from the digit-sum class
    the dense evolution lands in (k-1 free digits, last digit forced),
    which is the exact measurement distribution.  Returns int8 (n, k)
    outcomes.  Runs :func:`verify_class_stepping` first, on every call, and
    lets its VerificationError through.
    """
    verify_class_stepping()
    target = zero_triples_mod3(bits)
    n, k = bits.shape
    outcomes = np.empty((n, k), dtype=np.int8)
    outcomes[:, :-1] = rng.integers(0, 3, size=(n, k - 1), dtype=np.int8)
    outcomes[:, -1] = (target - outcomes[:, :-1].sum(axis=1, dtype=np.int64)) % 3
    return outcomes

