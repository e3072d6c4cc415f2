"""Classical one-trit strategies and their exact success probability.

Each party partitions its six possible register values (trit, bit) into
three cells and transmits the cell label.  The referee sees the k-trit
transcript and guesses the value with the largest count of consistent
admissible inputs (uniform prior, ties toward the smallest value).  Two
independent evaluators compute the referee's exact success probability:

* :func:`evaluate_exhaustive` enumerates every admissible input and groups
  by full transcript (feasible up to k = 7; k = 10 behind ``long_run``).
* :func:`evaluate_collapsed` groups parties with identical strategies and
  scans transcript classes weighted by their multinomial multiplicity.
  Per-party contributions live on a 27-state residue ring (zero-bit count
  mod 9, trit sum mod 3), multiplied pointwise in its characters modulo
  word-size primes and rebuilt exactly by the Chinese remainder theorem.
  Exact at any k the class count allows.

Both return reduced fractions and must agree wherever both run.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from .combinat import binomial, grouped_sum
from .protocol import admissible_bit_vectors, check_party_count, zero_triples_mod3
from .qudit import digit_sums

#: Register values in serialization order; a strategy string lists the sent
#: trit for each of these six values in this order.
REGISTER_VALUES: tuple[tuple[int, int], ...] = (
    (0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1),
)

_PERMS3 = tuple(itertools.permutations(range(3)))

# Cap on the number of transcript classes the collapsed evaluator will scan.
_MAX_CLASSES = 5_000_000


@dataclass(frozen=True)
class Strategy:
    """A party's map from register value (trit, bit) to the sent trit.

    ``sent[i]`` is the trit transmitted when the register holds
    ``REGISTER_VALUES[i]``.
    """

    sent: tuple[int, int, int, int, int, int]

    def __post_init__(self) -> None:
        if len(self.sent) != 6 or any(t not in (0, 1, 2) for t in self.sent):
            raise ValueError(f"strategy table must be six trits, got {self.sent!r}")

    def relabel(self, perm: Sequence[int]) -> "Strategy":
        """Apply a permutation of the sent alphabet."""
        return Strategy(tuple(perm[t] for t in self.sent))

    def shift(self, c: int) -> "Strategy":
        """Shift the register trit: send for (y + c, x) what was sent for (y, x)."""
        return Strategy(tuple(self.sent[2 * ((i // 2 - c) % 3) + i % 2] for i in range(6)))

    def to_string(self) -> str:
        return "".join(str(t) for t in self.sent)

    @classmethod
    def from_string(cls, s: str) -> "Strategy":
        if len(s) != 6 or any(ch not in "012" for ch in s):
            raise ValueError(f"strategy string must be six trits, got {s!r}")
        return cls(tuple(int(ch) for ch in s))

    def lookup_array(self) -> np.ndarray:
        """(3, 2) array: row = register trit, column = register bit."""
        return np.array(self.sent, dtype=np.int64).reshape(3, 2)


# Named division families by their 0-cell, as (trit, bit) register values.
_DIVISION_FAMILIES: dict[str, tuple[tuple[int, int], ...]] = {
    "A": ((0, 0), (0, 1)),
    "B": ((0, 1), (1, 0)),
    "C": ((0, 1), (1, 1)),
    "D": ((0, 1), (2, 0)),
    "E": ((0, 1), (2, 1)),
    "F": ((0, 1), (1, 0), (1, 1)),
    "H": ((0, 0), (0, 1), (1, 1)),
    "I": ((0, 0), (0, 1), (1, 0)),
    "J": ((0, 1), (1, 1), (2, 1)),
    "K": ((0, 0), (1, 0), (2, 0)),
    "L": ((0, 0), (0, 1), (1, 0), (1, 1)),
    "M": ((0, 0), (0, 1), (1, 0), (1, 1)),
    "N": ((0, 0), (0, 1), (1, 1), (2, 1)),
    "O": ((0, 0), (0, 1), (1, 0), (2, 0)),
}

DIVISION_NAMES = tuple(_DIVISION_FAMILIES)


def canonical_division(name: str) -> Strategy:
    """Named division family, completed to a full strategy.

    The register values outside the family's 0-cell are assigned to cells 1
    and 2 in lexicographic order, cell 1 taking the larger half, which
    keeps the division of the advertised type.
    """
    if name not in _DIVISION_FAMILIES:
        raise ValueError(f"unknown division name {name!r}; expected one of {DIVISION_NAMES}")
    zero_cell = _DIVISION_FAMILIES[name]
    rest = [v for v in REGISTER_VALUES if v not in zero_cell]
    cell_2 = rest[(len(rest) + 1) // 2:]
    return Strategy(
        tuple(0 if v in zero_cell else 2 if v in cell_2 else 1 for v in REGISTER_VALUES)
    )


@dataclass(frozen=True)
class StrategyProfile:
    """One strategy per party; party count must be 4, 7, 10, ... (1 mod 3)."""

    strategies: tuple[Strategy, ...]

    def __post_init__(self) -> None:
        check_party_count(len(self.strategies))

    @property
    def k(self) -> int:
        return len(self.strategies)

    @classmethod
    def homogeneous(cls, strategy: Strategy, k: int) -> "StrategyProfile":
        return cls((strategy,) * k)


def strategy_groups(profile: StrategyProfile) -> list[tuple[Strategy, int]]:
    """Distinct strategies with party counts, in first-appearance order."""
    order: list[Strategy] = []
    counts: dict[Strategy, int] = {}
    for s in profile.strategies:
        if s not in counts:
            order.append(s)
            counts[s] = 0
        counts[s] += 1
    return [(s, counts[s]) for s in order]


# ---------------------------------------------------------------------------
# Exhaustive evaluator (enumeration oracle)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8)
def _shifted_trit_sums(k: int) -> np.ndarray:
    """(3, 3^k), read-only: row s holds (trit sum + s) mod 3 of every trit vector."""
    sums = ((digit_sums(3, k) + np.arange(3)[:, None]) % 3).astype(np.intp)
    sums.setflags(write=False)
    return sums


def _half_codes(luts: Sequence[np.ndarray]) -> np.ndarray:
    """(2^n, 3^n): transcript codes of n parties under every bit pattern.

    Row b is the bit pattern with party 1's bit most significant; column y
    is the trit vector read in base 3, party 1 most significant; the entry
    is the sent trits read the same way.  Each party extends the codes by
    one base-3 digit, an outer sum with its lookup column.
    """
    patterns = np.arange(2 ** len(luts))
    codes = np.zeros((len(patterns), 1), dtype=np.intp)
    for i, lut in enumerate(luts):
        sent = lut[:, (patterns >> (len(luts) - 1 - i)) & 1].T  # (2^n, 3)
        codes = (codes[:, :, None] * 3 + sent[:, None, :]).reshape(len(patterns), -1)
    return codes


def exhaustive_in_bound(k: int, long_run: bool) -> bool:
    """Whether the exhaustive oracle enumerates k parties: k <= 7, or k = 10 with ``long_run``."""
    return k <= 7 or (long_run and k == 10)


def exhaustive_transcript_counts(profile: StrategyProfile, long_run: bool = False) -> np.ndarray:
    """(3^k, 3) exact counts of admissible inputs per transcript and global value.

    Row c is the transcript whose sent trits, read in base 3 with party 1
    most significant, give c; column v counts the admissible (trit vector,
    bit vector) inputs that send it and have global value v = (trit sum +
    zero count / 3) mod 3.  Every input is enumerated, about 20 million at
    k = 10, vectorized: the parties split at h = k // 2, and each half's
    codes are built once per half bit pattern (:func:`_half_codes`).  Under
    a bit vector the code of the trit vector (y_hi, y_lo) is then
    hi[y_hi] * 3^(k-h) + lo[y_lo], one broadcast add, and one ``bincount``
    adds the vector's inputs to the histogram.  Bounded by
    :func:`exhaustive_in_bound`.
    """
    k = profile.k
    if not exhaustive_in_bound(k, long_run):
        raise ValueError(f"enumeration bound exceeded for k={k}; pass long_run=True for k=10")

    h = k // 2
    luts = [s.lookup_array() for s in profile.strategies]
    # Histogram index code * 3 + g, with the factor 3 folded into the halves.
    hi = _half_codes(luts[:h]) * 3 ** (k - h + 1)
    lo = _half_codes(luts[h:]) * 3
    global_values = _shifted_trit_sums(k)

    vectors = admissible_bit_vectors(k)
    codes = vectors @ (1 << np.arange(k - 1, -1, -1))  # party 1's bit most significant
    acc = np.zeros(3**k * 3, dtype=np.int64)
    index = np.empty((3**h, 3 ** (k - h)), dtype=np.intp)
    flat = index.reshape(-1)
    for code, g in zip(codes.tolist(), zero_triples_mod3(vectors).tolist()):
        np.add(hi[code >> (k - h), :, None], lo[code & ((1 << (k - h)) - 1)], out=index)
        flat += global_values[g]
        acc += np.bincount(flat, minlength=acc.size)
    return acc.reshape(-1, 3)


def evaluate_exhaustive(profile: StrategyProfile, long_run: bool = False) -> Fraction:
    """Referee success probability by full enumeration of admissible inputs.

    Groups every admissible (trit vector, bit vector) pair by its exact
    transcript (:func:`exhaustive_transcript_counts`); the per-transcript
    maximum count is exact integer arithmetic throughout.  Bounded to
    k <= 7 unless ``long_run`` admits k = 10 (about 20 million inputs,
    vectorized).
    """
    per_transcript = exhaustive_transcript_counts(profile, long_run)
    numerator = int(per_transcript.max(axis=1).sum())
    denominator = int(per_transcript.sum())
    return Fraction(numerator, denominator)


# ---------------------------------------------------------------------------
# Collapsed evaluator (characters of Z9 x Z3 modulo primes)
# ---------------------------------------------------------------------------
#
# A party's consistent register values form a vector in the group ring
# Z[Z9 x Z3]: state 3*u + w counts the values with u zero bits (mod 9) and
# trit sum w (mod 3), and a set of parties multiplies (convolves) their
# vectors.  The 27 characters chi(a, b)(u, w) = z^(a*u + 3*b*w), z a
# primitive 9th root of unity, turn that convolution into pointwise
# multiplication (Pollard, "The fast Fourier transform in a finite field",
# 1971).  Modulo a prime p = 1 (mod 9) z exists in Z/p, so a transcript
# class is a pointwise product of per-party character values, and one
# matrix product maps it back to the admissible counts per global value.
# Those counts are integers below 6^k.  The primes' product exceeds 6^k, and
# one redundant prime checks it: its Garner digit (Knuth, TAOCP vol. 2,
# section 4.3.2) is zero exactly when a value lies below the other primes'
# product, so a nonzero digit raises instead of returning a wrong count.

#: Transcript classes evaluated per numpy block; bounds the working set.
_BLOCK = 1024
#: Primes stay below 2^28, so a 27-term sum of products fits in int64.
_PRIME_LIMIT = 1 << 28


def _is_prime(n: int) -> bool:
    # Miller-Rabin with bases 2, 3, 5, 7 is deterministic below 3.2e9.
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=64)
def crt_primes(k: int) -> tuple[int, ...]:
    """Primes the collapsed evaluator works modulo at k parties.

    The largest primes p = 1 (mod 9) below 2^28, in descending order, until
    their product exceeds 6^k (which bounds every count and the numerator),
    then one more, redundant prime.
    """
    primes: list[int] = []
    product, bound = 1, 6**k
    p = _PRIME_LIMIT - 1 - (_PRIME_LIMIT - 2) % 18
    while True:
        if _is_prime(p):
            primes.append(p)
            if product > bound:
                return tuple(primes)
            product *= p
        p -= 18


def evaluator_metrics(k: int, classes: int, orbits: int) -> dict:
    """Report of a collapsed-evaluator run at k parties: evaluator, primes, exact range.

    ``classes`` and ``orbits`` are the transcript classes scanned and the
    strategy orbits evaluated, echoed into the report.
    """
    primes = crt_primes(k)
    return {
        "evaluator": "collapsed, characters of Z9xZ3 modulo primes",
        "primes": list(primes),
        # Counts below 2^crt_bound_bits are exact; the last prime is redundant.
        "crt_bound_bits": math.prod(primes[:-1]).bit_length() - 1,
        "transcript_classes": classes,
        "strategy_orbits": orbits,
    }


@dataclass(frozen=True)
class _PrimeTables:
    """Transform constants for a prime set, stacked along axis 0.

    Rows of ``characters`` are the characters 3a + b, columns the ring
    states 3u + w; ``inverse`` is the inverse transform (states by
    characters).  Each global value's admissible states form a coset of
    H = {(0, 0), (3, 2), (6, 1)}, so only the 9 characters trivial on H,
    listed in ``folded``, reach ``fold``, which maps their values to the
    admissible counts per global value.  ``garner[i][j]`` is the inverse
    of ``primes[j]`` modulo ``primes[i]``.
    """

    primes: tuple[int, ...]
    modulus: np.ndarray  # (P,)
    characters: np.ndarray  # (P, 27, 27)
    inverse: np.ndarray  # (P, 27, 27)
    folded: np.ndarray  # (9,)
    fold: np.ndarray  # (P, 9, 3)
    garner: tuple[tuple[int, ...], ...]


def _root_of_unity9(p: int) -> int:
    h = 2
    while pow(z := pow(h, (p - 1) // 9, p), 3, p) == 1:
        h += 1
    return z


@lru_cache(maxsize=8)
def _prime_tables(primes: tuple[int, ...]) -> _PrimeTables:
    u, w = np.divmod(np.arange(27), 3)
    exponent = (np.outer(u, u) + 3 * np.outer(w, w)) % 9
    onto = np.zeros((27, 3), dtype=np.int64)
    admissible = u % 3 == 0
    onto[admissible, ((w + u // 3) % 3)[admissible]] = 1
    folded = np.flatnonzero((u + 2 * w) % 3 == 0)
    characters, inverse = [], []
    for p in primes:
        z = _root_of_unity9(p)
        z_pow = np.array([pow(z, e, p) for e in range(9)], dtype=np.int64)
        characters.append(z_pow[exponent])
        inverse.append(z_pow[-exponent % 9].T * pow(27, -1, p) % p)
    modulus = np.array(primes, dtype=np.int64)
    inverse = np.stack(inverse)
    return _PrimeTables(
        primes=primes,
        modulus=modulus,
        characters=np.stack(characters),
        inverse=inverse,
        folded=folded,
        fold=inverse.transpose(0, 2, 1)[:, folded] @ onto % modulus[:, None, None],
        garner=tuple(tuple(pow(q, -1, p) for q in primes[:i]) for i, p in enumerate(primes)),
    )


def _step_polys(sent: tuple[int, ...]) -> np.ndarray:
    """(3, 27): per sent trit, the ring vector of the consistent register values.

    A register value (y, x) contributes one unit at ring state
    (u=1 if x==0 else 0, w=y); the vector for sent trit t sums the
    contributions of t's preimage cell.
    """
    polys = np.zeros((3, 27), dtype=np.int64)
    for (y, x), t in zip(REGISTER_VALUES, sent):
        polys[t, (1 if x == 0 else 0) * 3 + y] += 1
    return polys


def _group_powers(sent: tuple[int, ...], size: int, tables: _PrimeTables) -> np.ndarray:
    """(3, P, size + 1, 9): folded character values of each step vector to the powers 0..size."""
    p = tables.modulus[:, None]
    characters = tables.characters[:, tables.folded]
    base = (_step_polys(sent) @ characters.transpose(0, 2, 1)) % p[:, None]
    base = base.transpose(1, 0, 2)
    out = np.empty((3, len(tables.primes), size + 1, len(tables.folded)), dtype=np.int64)
    out[:, :, 0] = 1
    for e in range(1, size + 1):
        out[:, :, e] = out[:, :, e - 1] * base % p
    return out


def _multinomial(size: int, counts: tuple[int, int, int]) -> int:
    return binomial(size, counts[0]) * binomial(size - counts[0], counts[1])


@lru_cache(maxsize=16)
def _compositions(size: int, primes: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """A group's sent-count compositions (C, 3) and their multinomials mod each prime (P, C)."""
    comps = [(c0, c1, size - c0 - c1) for c0 in range(size + 1) for c1 in range(size - c0 + 1)]
    mults = [_multinomial(size, c) for c in comps]
    return (
        np.array(comps, dtype=np.intp),
        np.array([[m % p for m in mults] for p in primes], dtype=np.int64),
    )


def _class_counts(
    tables: _PrimeTables,
    powers: list[np.ndarray],
    comps: list[np.ndarray],
    index: Sequence[np.ndarray],
) -> np.ndarray:
    """(P, B, 3): admissible counts per global value of B transcript classes, mod each prime.

    In group g, class b sends the counts ``comps[g][index[g][b]]``; the
    group's step-vector powers are ``powers[g]``.  Each group multiplies
    out only the compositions that differ within the block.
    """
    groups = []
    for pw, comp, i in zip(powers, comps, index):
        distinct, back = np.unique(i, return_inverse=True)
        groups.append((pw, comp[distinct], back))
    out = np.empty((len(tables.primes), len(index[0]), 3), dtype=np.int64)
    for j, p in enumerate(tables.primes):  # one prime at a time keeps the working set small
        vec = None
        for pw, c, back in groups:
            group = (pw[0, j, c[:, 0]] * pw[1, j, c[:, 1]] % p * pw[2, j, c[:, 2]] % p)[back]
            vec = group if vec is None else vec * group % p
        out[j] = vec @ tables.fold[j] % p
    return out


def _mixed_radix(residues: np.ndarray, tables: _PrimeTables) -> list[np.ndarray]:
    """Garner digits of exact integers from their residues along axis 0.

    Digits come least significant first, without the redundant prime's
    digit; raises ArithmeticError when that digit is nonzero anywhere.
    """
    digits: list[np.ndarray] = []
    for p, x, inverses in zip(tables.primes, residues, tables.garner):
        for d, inv in zip(digits, inverses):
            x = (x - d) * inv % p
        digits.append(x)
    if np.any(digits[-1]):
        raise ArithmeticError(
            f"a count reached the CRT bound of primes {tables.primes[:-1]}; "
            "the redundant prime's digit is nonzero"
        )
    return digits[:-1]


def _from_digits(digits: Sequence[int], primes: Sequence[int]) -> int:
    value, radix = 0, 1
    for d, p in zip(digits, primes):
        value += int(d) * radix
        radix *= p
    return value


def _largest(digits: list[np.ndarray]) -> np.ndarray:
    """Per row of (B, 3) digit arrays, the column of the largest count (first on ties)."""

    def greater(i: int, j: int) -> np.ndarray:
        out = np.zeros(len(digits[0]), dtype=bool)
        for d in digits:  # a more significant digit that differs decides
            out = np.where(d[:, i] != d[:, j], d[:, i] > d[:, j], out)
        return out

    best = greater(1, 0).astype(np.intp)
    best[np.where(best == 1, greater(2, 1), greater(2, 0))] = 2
    return best


def transcript_class_count(profile: StrategyProfile) -> int:
    """Transcript classes the collapsed evaluator scans for ``profile``."""
    return math.prod((size + 1) * (size + 2) // 2 for _, size in strategy_groups(profile))


def evaluate_collapsed(profile: StrategyProfile) -> Fraction:
    """Referee success probability over transcript classes, in the character domain.

    Exactly equals :func:`evaluate_exhaustive` wherever both run; scales to
    large k for profiles with few distinct strategies because the scan is
    over transcript classes, not transcripts.
    """
    n_classes = transcript_class_count(profile)
    if n_classes > _MAX_CLASSES:
        raise ValueError(
            f"profile has too many transcript classes ({n_classes}); "
            "reduce the number of distinct strategies"
        )
    return _collapsed_value(strategy_groups(profile), crt_primes(profile.k))


def _collapsed_value(groups: list[tuple[Strategy, int]], primes: tuple[int, ...]) -> Fraction:
    """Success probability of the profile ``groups`` computed modulo ``primes``.

    The classes are the cartesian product of each group's sent-count
    compositions, taken in blocks of ``_BLOCK``.  The numerator is summed
    mod each prime and reconstructed once; the denominator is the number
    of admissible inputs, 3^k * sum_i C(k, 3i), which the summed class
    totals must match.
    """
    tables = _prime_tables(primes)
    p = tables.modulus[:, None]
    powers = [_group_powers(s.sent, size, tables) for s, size in groups]
    comps = [_compositions(size, primes) for _, size in groups]
    shape = tuple(len(c) for c, _ in comps)
    n_classes = math.prod(shape)
    numerator = total = np.zeros(len(primes), dtype=np.int64)
    for start in range(0, n_classes, _BLOCK):
        index = np.unravel_index(np.arange(start, min(start + _BLOCK, n_classes)), shape)
        mult = np.ones((len(primes), len(index[0])), dtype=np.int64)
        for (_, m), i in zip(comps, index):
            mult = mult * m[:, i] % p
        counts = _class_counts(tables, powers, [c for c, _ in comps], index)
        best = _largest(_mixed_radix(counts, tables))
        top = np.take_along_axis(counts, best[None, :, None], axis=2)[:, :, 0]
        numerator = (numerator + (mult * top % p).sum(axis=1)) % tables.modulus
        total = (total + (mult * (counts.sum(axis=2) % p) % p).sum(axis=1)) % tables.modulus

    k = sum(size for _, size in groups)
    denominator = 3**k * grouped_sum(k, 0, 3)
    if total.tolist() != [denominator % q for q in primes]:
        raise ArithmeticError("transcript-class totals do not match the admissible input count")
    return Fraction(_from_digits(_mixed_radix(numerator, tables), primes), denominator)


# ---------------------------------------------------------------------------
# Strategy search and the ten-player worked example
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def strategy_orbit_reps() -> tuple[Strategy, ...]:
    """One representative per orbit of the 729 tables under S3 x Z3.

    S3 relabels the sent alphabet.  Z3 shifts the register trit, y -> y + c,
    in every party at once: that maps admissible inputs one to one, keeps
    each transcript and moves every global value by k*c = c (mod 3), since
    k = 1 (mod 3).  Neither changes a homogeneous profile's success
    probability.  The tables are scanned in lexicographic order and a table
    not yet seen starts a new orbit, so each of the 44 orbits is
    represented by its lexicographically smallest member.
    """
    seen: set[Strategy] = set()
    reps: list[Strategy] = []
    for sent in itertools.product(range(3), repeat=6):
        strategy = Strategy(sent)
        if strategy not in seen:
            reps.append(strategy)
            seen.update(strategy.shift(c).relabel(perm) for c in range(3) for perm in _PERMS3)
    return tuple(reps)


def best_homogeneous(k: int) -> tuple[Strategy, Fraction]:
    """Best success probability over all single-strategy profiles at k parties.

    Evaluates the 44 :func:`strategy_orbit_reps` with the collapsed
    evaluator and returns the first maximizer.  Each orbit's representative
    is its smallest member, so this is also the first maximizer in
    lexicographic order among all 729 tables.
    """
    best_strategy: Strategy | None = None
    best_value: Fraction | None = None
    for strategy in strategy_orbit_reps():
        value = evaluate_collapsed(StrategyProfile.homogeneous(strategy, k))
        if best_value is None or value > best_value:
            best_strategy, best_value = strategy, value
    assert best_strategy is not None and best_value is not None
    return best_strategy, best_value


@dataclass(frozen=True)
class WorkedExampleReport:
    """The ten-player all-zero-transcript case under the y-cell division.

    ``per_m_counts`` maps the zero-bit count m to the number of admissible
    configurations consistent with the all-zero transcript; ``g_label_by_m``
    assigns each m its global value under the normative definition
    (trit sum + m/3 mod 3), and ``g_totals[v]`` sums the counts labelled v.
    A common rendition of this example labels the cases offset by +1 from
    that definition; counts and the success ratio do not depend on the
    labels.
    """

    k: int
    strategy: Strategy
    per_m_counts: dict[int, int]
    g_label_by_m: dict[int, int]
    g_totals: tuple[int, int, int]
    total: int
    majority_value: int
    majority_count: int
    success: Fraction
    label_note: str


def ten_player_worked_example() -> WorkedExampleReport:
    """Ten players, division A (cells by register trit), all-zero transcript.

    Every party sent 0, so each read (0,0) or (0,1): all register trits are
    zero and the admissible cases are classified by how many parties read
    (0,1).  That count c must be 1 mod 3 (zero-bit count m = 10 - c must be
    a multiple of 3), giving per-m counts C(10, c).
    """
    k = 10
    strategy = canonical_division("A")
    per_m: dict[int, int] = {}
    labels: dict[int, int] = {}
    for c in range(k + 1):
        m = k - c
        if m % 3 != 0:
            continue
        per_m[m] = binomial(k, c)
        labels[m] = (m // 3) % 3
    total = sum(per_m.values())
    g_totals = [0, 0, 0]
    for m, count in per_m.items():
        g_totals[labels[m]] += count
    majority_count = max(g_totals)
    majority_value = g_totals.index(majority_count)
    return WorkedExampleReport(
        k=k,
        strategy=strategy,
        per_m_counts=per_m,
        g_label_by_m=labels,
        g_totals=tuple(g_totals),
        total=total,
        majority_value=majority_value,
        majority_count=majority_count,
        success=Fraction(majority_count, total),
        label_note=(
            "global values follow the normative definition (trit sum + m/3 mod 3); "
            "a common rendition of this example prints every label offset by "
            "+1 mod 3, which leaves all counts and the success ratio unchanged"
        ),
    )

