"""Helpers that only the tests use.

Strategy cells, relabelings, register-trit shifts and canonical forms,
register-trit orbits and the 44 S3 x Z3 orbit representatives, a
set-based scan for the 22 S3 x Z3^2 representatives, per-row step
vectors and autocorrelations, random profiles, a
per-bit-vector enumeration that the exhaustive oracle is checked against,
a full scan over every composition, its class count and per-class
statistics of the collapsed evaluator, a sum-class classifier
for dense states, the nine cube-root branches of the shift gate and the
float class step of a gate at three parties, a
rejection sampler that unpacks every drawn row, the four bound
families summed term by term, and the trigonometric closed form of a
grouped sum that the exact summation is checked against.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from decimal import Decimal
from functools import cache
from fractions import Fraction
from typing import Sequence

import mpmath
import numpy as np

from tritgame.classical import REGISTER_VALUES, Strategy, StrategyProfile, strategy_groups
from tritgame.combinat import _check_spec, grouped_sum
from tritgame.protocol import admissible_bit_vectors, zero_triples_mod3
from tritgame.qudit import QuditState, digit_sums, evolve, make_sum_class_state, sum_class_deviation


def cells(strategy: Strategy) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The three preimage cells, indexed by sent trit."""
    out: list[list[tuple[int, int]]] = [[], [], []]
    for value, t in zip(REGISTER_VALUES, strategy.sent):
        out[t].append(value)
    return tuple(tuple(cell) for cell in out)


def relabel(strategy: Strategy, perm: Sequence[int]) -> Strategy:
    """The table with sent trit t replaced by perm[t]: a permutation of the sent alphabet."""
    return Strategy(tuple(perm[t] for t in strategy.sent))


def shift(strategy: Strategy, c0: int, c1: int | None = None) -> Strategy:
    """Shift the register trit by c0 where the bit is 0 and by c1 where it is 1.

    Sends for (y + c_x, x) what ``strategy`` sent for (y, x); ``c1``
    defaults to ``c0``, one shift of every register trit.  In every party
    at once the shift keeps each transcript and moves every global value
    by c1 (:func:`tritgame.classical.strategy_orbit_reps`).  In one party
    alone the global value moves by c0 or c1 with that party's bit, which
    the transcript does not fix, so only c0 = c1 keeps the success of
    every profile.
    """
    c = (c0, c0 if c1 is None else c1)
    return Strategy(tuple(strategy.sent[2 * ((i // 2 - c[i % 2]) % 3) + i % 2] for i in range(6)))


def canonical(strategy: Strategy) -> Strategy:
    """Lexicographically smallest relabeling of the sent alphabet."""
    return min(
        (relabel(strategy, perm) for perm in itertools.permutations(range(3))),
        key=lambda s: s.sent,
    )


#: The register-trit shifts (c0, c1) of :func:`shift`: by c0 where the bit
#: is 0 and by c1 where it is 1.
PER_BIT_SHIFTS = tuple(itertools.product(range(3), repeat=2))


def orbit(strategy: Strategy, shifts: Sequence[tuple[int, int]]) -> set[Strategy]:
    """The tables ``strategy`` reaches by one of ``shifts`` and a relabeling of the sent alphabet."""
    return {
        relabel(shift(strategy, c0, c1), perm)
        for c0, c1 in shifts
        for perm in itertools.permutations(range(3))
    }


#: The smallest table of each orbit under S3 x Z3, where Z3 shifts every
#: register trit by one c (c0 = c1), in lexicographic order: 44 tables.
#: :func:`strategy_orbit_reps` shifts by bit too and keeps 22 of them; the
#: tests that check values table by table iterate these.
S3_Z3_REPS = tuple(sorted(
    {min(orbit(Strategy(t), [(c, c) for c in range(3)]), key=lambda s: s.sent)
     for t in itertools.product(range(3), repeat=6)},
    key=lambda s: s.sent,
))


def division_type(strategy: Strategy) -> tuple[int, int, int]:
    """Cell sizes of the partition, sorted descending."""
    sizes = [0, 0, 0]
    for t in strategy.sent:
        sizes[t] += 1
    return tuple(sorted(sizes, reverse=True))


def random_profile(
    k: int, rng: np.random.Generator, n_groups: int = 2
) -> StrategyProfile:
    """Random profile with ``n_groups`` distinct strategies, parties shuffled."""
    if not 1 <= n_groups <= k:
        raise ValueError(f"need 1 <= n_groups <= {k}, got {n_groups}")
    tables: set[tuple[int, ...]] = set()
    while len(tables) < n_groups:
        tables.add(tuple(int(t) for t in rng.integers(0, 3, size=6)))
    strategies = [Strategy(t) for t in sorted(tables)]
    # Composition of k into n_groups positive parts, then a random assignment.
    cuts = sorted(rng.choice(np.arange(1, k), size=n_groups - 1, replace=False).tolist())
    sizes = np.diff([0, *cuts, k])
    assignment = np.repeat(np.arange(n_groups), sizes)
    assignment = assignment[rng.permutation(k)]
    return StrategyProfile(tuple(strategies[g] for g in assignment))


def _trit_vector_codes(strategies: Sequence[Strategy], bits: Sequence[int]) -> np.ndarray:
    """(3^n,): transcript code of every trit vector of n parties with fixed bits.

    Entry y is the trit vector read in base 3, party 1 most significant; the
    code is the sent trits read the same way.
    """
    codes = np.zeros(1, dtype=np.int64)
    for strategy, x in zip(strategies, bits):
        sent = [strategy.sent[REGISTER_VALUES.index((y, x))] for y in range(3)]
        codes = (3 * codes[:, None] + sent).reshape(-1)
    return codes


def per_vector_transcript_counts(profile: StrategyProfile) -> np.ndarray:
    """(3^k, 3) admissible counts per transcript and global value, one bit vector at a time.

    The reference for the exhaustive oracle, feasible to k = 10; it builds
    its own transcript codes.  The parties split at h = k // 2 and each
    half's codes are built once per half bit pattern.  Under a bit vector
    the code of the trit vector (y_hi, y_lo) is hi[y_hi] * 3^(k-h) +
    lo[y_lo], its global value is (trit sum + zero triples) mod 3 with the
    zero triples from :func:`zero_triples_mod3`, and one ``bincount`` adds
    the vector's 3^k inputs to the histogram.
    """
    k = profile.k
    h = k // 2
    # Histogram index code * 3 + g, with the factor 3 folded into the halves.
    hi = {bits: _trit_vector_codes(profile.strategies[:h], bits) * 3 ** (k - h + 1)
          for bits in itertools.product((0, 1), repeat=h)}
    lo = {bits: _trit_vector_codes(profile.strategies[h:], bits) * 3
          for bits in itertools.product((0, 1), repeat=k - h)}
    global_values = (digit_sums(k) + np.arange(3)[:, None]) % 3

    vectors = admissible_bit_vectors(k)
    acc = np.zeros(3**k * 3, dtype=np.int64)
    for bits, g in zip(vectors.tolist(), zero_triples_mod3(vectors).tolist()):
        index = hi[tuple(bits[:h])][:, None] + lo[tuple(bits[h:])]
        acc += np.bincount((index.reshape(-1) + global_values[g]), minlength=acc.size)
    return acc.reshape(-1, 3)


@dataclass(frozen=True)
class TranscriptClassStats:
    """Exact statistics of one transcript class of a profile.

    ``class_id`` lists, per strategy group, how many parties of the group
    sent 0, 1 and 2.  ``g_counts[v]`` is the number of admissible inputs
    with global value v that produce one fixed representative transcript of
    the class; ``multiplicity`` is the number of transcripts in the class.
    """

    class_id: tuple[tuple[int, int, int], ...]
    g_counts: tuple[int, int, int]
    multiplicity: int

    @property
    def admissible_total(self) -> int:
        return sum(self.g_counts)

    @property
    def best_guess(self) -> int:
        m = max(self.g_counts)
        return self.g_counts.index(m)


def orbit_reps_by_scan() -> tuple[Strategy, ...]:
    """The reference for :func:`strategy_orbit_reps`: a scan that collects each orbit as a set.

    The 729 tables are scanned in lexicographic order; a table not yet
    seen starts a new orbit, all of whose images under S3 x Z3^2 are
    then marked seen, so each orbit is represented by its smallest member.
    """
    seen: set[Strategy] = set()
    reps: list[Strategy] = []
    for sent in itertools.product(range(3), repeat=6):
        if Strategy(sent) not in seen:
            reps.append(Strategy(sent))
            seen |= orbit(Strategy(sent), PER_BIT_SHIFTS)
    return tuple(reps)


def autocorrelations(row: Sequence[int]) -> list[int]:
    """R_d = sum_r row[r] row[(r + d) mod 9], d = 0..4, one term at a time."""
    return [sum(row[r] * row[(r + d) % 9] for r in range(9)) for d in range(5)]


def step_vectors(strategy: Strategy) -> list[list[int]]:
    """Per sent trit, its cell's register values counted by residue [x = 0] + 3y: 9 ints."""
    steps = [[0] * 9 for _ in range(3)]
    for (y, x), t in zip(REGISTER_VALUES, strategy.sent):
        steps[t][(x == 0) + 3 * y] += 1
    return steps


def _cyclic_product(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Product in Z[Z9] = Z[x]/(x^9 - 1), term by term: x^r x^s = x^((r + s) mod 9)."""
    out = [0] * 9
    for r, x in enumerate(a):
        for s, y in enumerate(b):
            out[(r + s) % 9] += x * y
    return out


def _composition_vectors(strategy: Strategy, size: int) -> dict[tuple[int, int, int], list[int]]:
    """Each sent-count composition (c_0, c_1, c_2) of a group, and its count vector in Z[Z9].

    Each step vector's powers 0..size are tabulated once, one product per
    power, and a composition's vector is the product of one power of each.
    """
    powers = []
    for step in step_vectors(strategy):
        table = [[1] + [0] * 8]
        for _ in range(size):
            table.append(_cyclic_product(table[-1], step))
        powers.append(table)
    return {
        (c0, c1, size - c0 - c1): _cyclic_product(
            _cyclic_product(powers[0][c0], powers[1][c1]), powers[2][size - c0 - c1])
        for c0 in range(size + 1) for c1 in range(size - c0 + 1)
    }


def _sent_count_multinomial(counts: Sequence[int]) -> int:
    """Transcripts of a group whose parties send 0, 1 and 2 ``counts`` times."""
    return math.comb(sum(counts), counts[0]) * math.comb(counts[1] + counts[2], counts[1])


def transcript_class_stats(
    profile: StrategyProfile, class_id: Sequence[tuple[int, int, int]]
) -> TranscriptClassStats:
    """Exact per-value admissible counts for one transcript class.

    ``class_id`` gives, per strategy group (first-appearance order, see
    :func:`strategy_groups`), the number of parties that sent 0, 1 and 2.
    """
    groups = strategy_groups(profile)
    class_id = tuple(tuple(c) for c in class_id)
    if len(class_id) != len(groups):
        raise ValueError(f"expected counts for {len(groups)} group(s), got {len(class_id)}")

    vector = [1] + [0] * 8
    multiplicity = 1
    for (strategy, size), counts in zip(groups, class_id):
        if len(counts) != 3 or any(c < 0 for c in counts) or sum(counts) != size:
            raise ValueError(f"sent counts {counts!r} do not partition group of size {size}")
        vector = _cyclic_product(vector, _composition_vectors(strategy, size)[counts])
        multiplicity *= _sent_count_multinomial(counts)
    return TranscriptClassStats(class_id, (vector[0], vector[3], vector[6]), multiplicity)


def full_class_count(groups: list[tuple[Strategy, int]]) -> int:
    """Transcript classes of ``groups``, those that send an empty cell included."""
    return math.prod(math.comb(size + 2, 2) for _, size in groups)


def full_scan_value(groups: list[tuple[Strategy, int]], k: int) -> Fraction:
    """The collapsed evaluator's value from every transcript class, in exact integers.

    The reference for the evaluator's scan, which skips the classes that
    send a trit their group never sends and merges compositions by cell
    shape: here every composition of every group is scanned, with its
    ``math.comb`` multinomial, and each class's counts of global value g
    are its vector's coefficients at x^(3g), summed term by term.
    """
    *head, last = [[(vector, _sent_count_multinomial(counts))
                    for counts, vector in _composition_vectors(s, size).items()]
                   for s, size in groups]
    # Row g of a last-group class pairs x^r of the head with x^(3g - r).
    last = [([[u[(3 * g - r) % 9] for r in range(9)] for g in range(3)], mult) for u, mult in last]
    numerator = total = 0
    for pairs in itertools.product(*head):
        vector, head_mult = [1] + [0] * 8, 1
        for u, mult in pairs:
            vector, head_mult = _cyclic_product(vector, u), head_mult * mult
        for rows, mult in last:
            counts = [sum(map(operator.mul, vector, row)) for row in rows]
            numerator += head_mult * mult * max(counts)
            total += head_mult * mult * sum(counts)
    denominator = 3**k * grouped_sum(k, 0, 3)
    if total != denominator:
        raise ArithmeticError("transcript-class totals do not match the admissible input count")
    return Fraction(numerator, denominator)


def classify_sum_class(
    state: QuditState, tol: float = 1e-10
) -> tuple[int, complex] | None:
    """Recognize c times a sum-class state; None if nothing matches.

    The candidate class is read off the digit sum at the largest amplitude;
    the match must have every amplitude within ``tol`` of the phased class
    pattern and a phase of modulus 1 within ``tol``.
    """
    peak = np.base_repr(int(np.argmax(np.abs(state.amplitudes))), 3).zfill(state.k)
    candidate = sum(map(int, peak)) % 3
    c, dev = sum_class_deviation(state, candidate)
    if dev <= tol and abs(abs(c) - 1.0) <= tol:
        return candidate, c
    return None


def branch_root_matrix(r1: int, r2: int) -> np.ndarray:
    """The cube root of the shift gate on root branch (r1, r2), r1 and r2 in 0..2.

    Diagonalizes the shift in the discrete-Fourier basis, as
    :func:`tritgame.qudit.root_gate` does, and gives the eigenvalue
    exp(2*pi*i/3) the root exp(2*pi*i*(1+3*r1)/9) and its square the root
    exp(2*pi*i*(2+3*r2)/9); each cubes back to its eigenvalue.  Branch
    (0, 0) is the principal root.
    """
    w = np.exp(2j * np.pi / 3)
    s = np.array([[w ** (r * c) for c in range(3)] for r in range(3)])
    s_inv = s.conj() / 3.0
    roots = np.diag(
        [
            1.0,
            np.exp(2j * np.pi * (1 + 3 * r1) / 9),
            np.exp(2j * np.pi * (2 + 3 * r2) / 9),
        ]
    )
    return s_inv @ roots @ s


def three_party_class_step(gate) -> tuple[complex, float]:
    """The float class step of ``gate`` at three parties, from the definitions.

    The gate acts at all three parties of each 3-party sum-class state,
    which must become the next class times one modulus-1 phase shared by
    all three classes.  Returns the phase and the worst deviation: entrywise
    from each class pattern, and between the classes' phases.
    """
    phase, dev = None, 0.0
    for j in range(3):
        out = evolve(make_sum_class_state(3, j), gate, range(3))
        c, class_dev = sum_class_deviation(out, (j + 1) % 3)
        phase = c if phase is None else phase
        dev = max(dev, class_dev, abs(c - phase))
    return phase, dev


def unpacked_admissible_sample(
    k: int, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """The reference for :func:`sample_admissible_batch`: the same draws, every row unpacked.

    Each drawn bit row is unpacked in full and its zeros are counted on
    the unpacked bits, so the count never sees the packed bytes' unused
    bits.
    """
    kept = [np.empty((0, k), dtype=np.int8)]
    have = 0
    while have < n:
        draws = 3 * (n - have) + 8
        packed = rng.integers(0, 256, size=(draws, (k + 7) // 8), dtype=np.uint8)
        rows = np.unpackbits(packed, axis=1, count=k).view(np.int8)
        rows = rows[np.count_nonzero(rows == 0, axis=1) % 3 == 0]
        kept.append(rows)
        have += len(rows)
    bits = np.concatenate(kept)[:n]
    trits = rng.integers(0, 3, size=(n, k), dtype=np.int8)
    return trits, bits


@cache
def _direct_grouped_sum(n: int, q: int, p: int) -> int:
    """Sum of C(n, i) over i = q, q + p, ... <= n, one ``math.comb`` per term."""
    return sum(math.comb(n, i) for i in range(q, n + 1, p))


def _direct_primed(n: int, q: int) -> int:
    return 1 if n <= 0 else _direct_grouped_sum(n, q, 3)


def reference_bound(family: str, j: int, point, im_rule="max") -> Fraction:
    """The reference for :mod:`tritgame.bounds`: each family summed term by term.

    ``point`` is (i, m) for A and the residue a for F, L and N.  Every
    grouped sum is a direct sum of ``math.comb`` terms, every inner sum of
    L runs over the nine (b, c) pairs, and every power is computed afresh,
    so nothing is shared with the residue-row table the package reads.
    """
    n = 3 * j + 1
    if family == "A":
        i, m = point
        return Fraction(_direct_grouped_sum(n, 1 + i + m, 9), _direct_grouped_sum(n, 1 + i, 3))
    a = point
    residues = (0, 1, 2) if im_rule == "max" else (im_rule,)
    terms = range(a, n + 1, 3)
    if family == "F":
        numerator = 2 * math.comb(n, a) + sum(
            math.comb(n, am) * max(_direct_grouped_sum(am, r, 3) for r in residues)
            for am in terms if am >= a + 3)
        denominator = sum(math.comb(n, am) * 2**am for am in terms)
    elif family == "L":
        numerator = sum(
            math.comb(n, am) * max(
                sum(_direct_primed(am, b) * _direct_primed(n - am, c)
                    for b in range(3) for c in range(3) if (b + c) % 3 == r)
                for r in residues)
            for am in terms)
        denominator = sum(math.comb(n, am) * 2**n for am in terms)
    else:
        numerator = sum(math.comb(n, am) * 3 ** max(am - 1, 0) for am in terms)
        denominator = sum(math.comb(n, am) * 3**am for am in terms)
    return Fraction(numerator, denominator)


#: Decimal digits :func:`ramus` carries beyond the integer digits of 2^n.
_RAMUS_GUARD_DIGITS = 20


def ramus(n: int, q: int, p: int) -> Decimal:
    """Closed trigonometric form of :func:`grouped_sum`.

    Evaluates (1/p) * sum_{0<=i<p} (2 cos(i*pi/p))^n * cos(i*(n-2q)*pi/p)
    in :mod:`mpmath`, independent of tritgame's own arithmetic and of the
    platform's floating point.  Every term is at most 2^n in magnitude, so
    the working precision is the digit count of 2^n plus 20 guard digits.
    That keeps the error far below 1/2 at every n.  The result is returned
    as a Decimal of all its working digits, on which round() is exact, so
    rounding it recovers the exact sum.
    """
    _check_spec(n, q, p)
    with mpmath.workdps(len(str(2**n)) + _RAMUS_GUARD_DIGITS):
        total = mpmath.fsum(
            (2 * mpmath.cospi(mpmath.mpf(i) / p)) ** n
            * mpmath.cospi(mpmath.mpf(i * (n - 2 * q)) / p)
            for i in range(p)
        )
        return Decimal(str(total / p))
