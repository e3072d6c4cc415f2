"""Classical one-trit strategies and their exact success probability.

Each party partitions its six possible register values (trit, bit) into
three cells and transmits the cell label.  The referee sees the k-trit
transcript and guesses the value with the largest count of consistent
admissible inputs (uniform prior, ties toward the smallest value).

A register value (y, x) has residue s = [x = 0] + 3y (mod 9).  An
input's residues add up to s = m + 3T (mod 9), m its zero count and T
its trit sum, so it is admissible exactly when s = 0 (mod 3), and its
global value is then s / 3.  Two independent evaluators count on this
group Z9 and compute the referee's exact success probability:

* :func:`evaluate_exhaustive` counts every admissible input by full
  transcript, up to k = :data:`EXHAUSTIVE_MAX_K` (13).  Each half of the
  parties enumerates its inputs by register value into one histogram by
  half transcript and residue, and three integer matrix products join the
  halves into the counts per global value.  It alone computes on numpy
  arrays.
* :func:`evaluate_collapsed` groups parties with identical strategies and
  scans transcript classes weighted by their multinomial multiplicity.
  Per-party contributions are vectors over the residues, lists of 9 ints,
  multiplied exactly in the group ring Z[Z9], each vector packed into one
  Python int.  Compositions of a group whose counts differ only by a rotation
  of the global values (cells that are cyclic shifts x^e of one another)
  form one class, built from a generating function, so division A is
  one class at any size.  Exact at any k whose merged class count
  :data:`_MAX_CLASSES` allows.

Both return reduced fractions and must agree wherever both run.

:func:`best_homogeneous` searches the tables one party uses in every
seat, one per orbit (:func:`strategy_orbit_reps`, written out).  It
bounds each table's success exactly from its character sums
(:func:`_character_sums`, :func:`_character_bound`) and runs the
collapsed evaluator only on tables whose bound reaches the best value
found.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial, reduce
from typing import Iterator, Sequence

import numpy as np

from .combinat import binomial, check_party_count, grouped_sum

#: Register values in serialization order; a strategy string lists the sent
#: trit for each of these six values in this order.
REGISTER_VALUES: tuple[tuple[int, int], ...] = (
    (0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1),
)


@dataclass(frozen=True)
class Strategy:
    """A party's map from register value (trit, bit) to the sent trit.

    ``sent[i]`` is the trit transmitted when the register holds
    ``REGISTER_VALUES[i]``.  Entries are stored as plain ints; integer
    types such as numpy's and bool convert, floats are rejected.
    """

    sent: tuple[int, int, int, int, int, int]

    def __post_init__(self) -> None:
        try:
            sent = tuple(map(operator.index, self.sent))
        except TypeError:
            sent = ()
        if len(sent) != 6 or any(t not in (0, 1, 2) for t in sent):
            raise ValueError(f"strategy table must be six trits, got {self.sent!r}")
        object.__setattr__(self, "sent", sent)

    def to_string(self) -> str:
        return "".join(str(t) for t in self.sent)

    @classmethod
    def from_string(cls, s: str) -> "Strategy":
        if len(s) != 6 or any(ch not in "012" for ch in s):
            raise ValueError(f"strategy string must be six trits, got {s!r}")
        return cls(tuple(int(ch) for ch in s))


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
    return list(Counter(profile.strategies).items())


# ---------------------------------------------------------------------------
# Exhaustive evaluator (enumeration oracle)
# ---------------------------------------------------------------------------

def _half_histogram(strategies: Sequence[Strategy]) -> np.ndarray:
    """(3^n, 9): input counts of n parties by half transcript and residue.

    The 6^n inputs take one register value per party, party 1 most
    significant; each party appends its sent trit to the code and adds
    [x = 0] + 3y to the residue.
    """
    residue = [(x == 0) + 3 * y for y, x in REGISTER_VALUES]
    codes = residues = np.zeros(1, dtype=np.int64)
    for strategy in strategies:
        codes = (3 * codes[:, None] + strategy.sent).reshape(-1)
        residues = (residues[:, None] + residue).reshape(-1)
    return np.bincount(9 * codes + residues % 9, minlength=9 * 3 ** len(strategies)).reshape(-1, 9)


#: Largest party count the exhaustive oracle enumerates, the dense engine's
#: cap too; at k = 13 its (3^13, 3) int64 count array alone takes 38 MB.
EXHAUSTIVE_MAX_K = 13

#: How :func:`exhaustive_transcript_counts` covers the admissible inputs.
EXHAUSTIVE_METHOD = "half inputs enumerated by register value, half histograms joined by residue"


def exhaustive_transcript_counts(profile: StrategyProfile) -> np.ndarray:
    """(3^k, 3) exact counts of admissible inputs per transcript and global value.

    Row c is the transcript whose sent trits, read in base 3 with party 1
    most significant, give c; column v counts the admissible (trit vector,
    bit vector) inputs that send it and have global value v = (trit sum +
    zero count / 3) mod 3.  Every input is covered, about 4.4 billion at
    k = 13, without a loop over them: the parties split at h = k // 2, and
    each half counts its inputs, enumerated by register value, by half
    transcript and residue (:func:`_half_histogram`).  An input is a pair
    of half inputs, whose residues s and s' join into global value g
    exactly when s + s' = 3g (mod 9), so the counts of g are the integer
    product hi @ lo[:, (3g - s) mod 9].T, whose entry (c_hi, c_lo) is
    transcript c_hi * 3^(k-h) + c_lo.  Refuses k above :data:`EXHAUSTIVE_MAX_K`.
    """
    k = profile.k
    if k > EXHAUSTIVE_MAX_K:
        raise ValueError(f"enumeration bound exceeded for k={k} > {EXHAUSTIVE_MAX_K}")

    h = k // 2
    hi, lo = _half_histogram(profile.strategies[:h]), _half_histogram(profile.strategies[h:])
    counts = np.empty((len(hi) * len(lo), 3), dtype=np.int64)
    for g in range(3):  # one value's products at a time
        counts[:, g] = (hi @ lo[:, (3 * g - np.arange(9)) % 9].T).reshape(-1)
    return counts


def referee_success(per_transcript: np.ndarray) -> Fraction:
    """Success of the referee's best guess given (transcripts, 3) admissible counts."""
    best = np.maximum(per_transcript[:, 0], per_transcript[:, 1])
    numerator = int(np.maximum(best, per_transcript[:, 2], out=best).sum())
    denominator = int(per_transcript.sum())
    return Fraction(numerator, denominator)


def evaluate_exhaustive(profile: StrategyProfile) -> Fraction:
    """Referee success probability over every admissible input.

    Counts every admissible (trit vector, bit vector) pair by its exact
    transcript (:func:`exhaustive_transcript_counts`, two half histograms
    by register value joined by matrix products) and sums the
    per-transcript maximum, in exact integer arithmetic throughout.  Bounded to k <= :data:`EXHAUSTIVE_MAX_K`.
    """
    return referee_success(exhaustive_transcript_counts(profile))


# ---------------------------------------------------------------------------
# Collapsed evaluator (exact integers in the group ring Z[Z9])
# ---------------------------------------------------------------------------
#
# A party's consistent register values form a vector in the group ring
# Z[Z9] = Z[x]/(x^9 - 1): coefficient s counts the values of residue s, and
# a set of parties multiplies their vectors.  The admissible counts of
# global value g are a product's coefficients at x^(3g).  A vector is one
# Python int, coefficient s at bit w*s (Kronecker substitution; Knuth,
# TAOCP vol. 2, section 4.6.4), so a ring product is one integer product,
# folded.  The coefficients of a product of step vectors add up to the
# product of the parties' cell sizes, so with :func:`_slot_width` no slot
# carries: nothing is reduced, and nothing is reconstructed.

# Cap on the merged transcript classes the collapsed evaluator scans.  A
# class costs a few ring products of up to 9 k log2(3) bits: homogeneous
# 000112, whose classes do not merge, scans 45,753 classes in 1.2-1.5 s at
# k = 301 on a 2-core x86-64 machine, so a profile at the cap takes minutes.
_MAX_CLASSES = 5_000_000


def evaluator_metrics(work: Counter) -> dict:
    """Report of a collapsed-evaluator run: the evaluator and what it scanned.

    ``work`` is the counter the evaluator filled (:func:`_collapsed_value`,
    :func:`best_homogeneous`); a key it lacks reads 0.
    """
    return {
        "evaluator": "collapsed, exact integers in Z[Z9]",
        "transcript_classes": work["transcript_classes"],
        "strategy_orbits": work["strategy_orbits"],
        "orbits_evaluated": work["orbits_evaluated"],
        "classes_scanned": work["classes_scanned"],
    }


def _slot_width(groups: list[tuple[Strategy, int]]) -> int:
    """Bits w per packed coefficient: prod_g (largest cell of g)^(size of g) < 2^w.

    A product of step vectors, one per party, has coefficients that add up
    to the product of the parties' cell sizes, so each is below 2^w.
    """
    return math.prod(max(map(s.sent.count, range(3))) ** size for s, size in groups).bit_length()


def _ring_product(a: int, b: int, w: int) -> int:
    """Product in Z[Z9] of two vectors packed at slot width w.

    The integer product holds the 17 coefficients of the polynomial
    product; x^(9 + s) = x^s folds the top 8 onto the low 9.  Exact while
    every coefficient of the result is below 2^w.
    """
    n = a * b
    return (n & ((1 << 9 * w) - 1)) + (n >> 9 * w)


def _ring_power(a: int, n: int, w: int) -> int:
    """a^n in Z[Z9] by repeated squaring, left to right: every square is a^j, j <= n."""
    out = 1
    for bit in bin(n)[2:]:
        out = _ring_product(out, out, w)
        if bit == "1":
            out = _ring_product(out, a, w)
    return out


def _step_polys(sent: tuple[int, ...]) -> list[list[int]]:
    """Per sent trit, the vector of the consistent register values' residues: 9 ints.

    A register value (y, x) contributes one unit at state
    (x == 0) + 3y; the vector for sent trit t sums the contributions of
    t's preimage cell.
    """
    polys = [[0] * 9 for _ in range(3)]
    for (y, x), t in zip(REGISTER_VALUES, sent):
        polys[t][(x == 0) + 3 * y] += 1
    return polys


@lru_cache(maxsize=None)
def _group_shape(sent: tuple[int, ...]) -> tuple[list[list[int]], int, list[list[int]]]:
    """A strategy's bases P_u, then Q_v (m + 1 vectors); v's index; and the support of q_v^j.

    Step vector P_t (:func:`_step_polys`) of a sent trit t is x^(e_t) P_u,
    u the first trit it is a cyclic shift of, e_t the least such shift: the
    bases.  q_u = sum_t X^(e_t mod 3) over the trits that shift P_u is 1
    for a base of one trit, and at most one base v of three has more (the
    first base of the most trits); Q_v = sum_t x^(3 e_t) puts q_v in Z9.
    Support row j lists the exponents of q_v^j in Z3, j = 0, 1, 2: it holds
    0 and stops growing at j = 2.
    """
    polys = _step_polys(sent)
    rotations = [[p[-e:] + p[:-e] for e in range(9)] for p in polys]  # [u][e] is x^e P_u
    # Per sent trit t the first (u, e) with P_t = x^e P_u; (t, 0) always matches.
    pairs = [next((u, e) for u in range(3) for e in range(9) if rotations[u][e] == p)
             for p in polys if any(p)]
    bases = sorted({u for u, _ in pairs})
    shifts = [[e for u, e in pairs if u == b] for b in bases]
    v = max(range(len(bases)), key=lambda i: len(shifts[i]))
    q = [sum(e % 3 == r for e in shifts[v]) for r in range(3)]  # q_v(X) = sum_r q[r] X^r
    square = [sum(q[r] * q[(s - r) % 3] for r in range(3)) for s in range(3)]
    support = [[0], [r for r in range(3) if q[r]], [s for s in range(3) if square[s]]]
    q_v = [0 if s % 3 else q[s // 3] for s in range(9)]
    return [polys[b] for b in bases] + [q_v], v, support


def _class_count(sent: tuple[int, ...], size: int) -> int:
    """How many classes :func:`_group_classes` builds, from the group's shape alone.

    Per n_v = j, the width w_j of q_v^min(j, 2)'s support times the
    C(size - j + m - 2, m - 2) splits of size - j over the other bases;
    the splits sum over j to C(size + m - 1, m - 1), and with one base n_v = size.
    """
    vectors, _, support = _group_shape(sent)
    m, w = len(vectors) - 1, list(map(len, support))
    first = [math.comb(size - j + m - 2, m - 2) if m > 1 else int(j == size) for j in (0, 1)]
    return w[0] * first[0] + w[1] * first[1] + w[2] * (math.comb(size + m - 1, m - 1) - sum(first))


def _group_classes(sent: tuple[int, ...], size: int, w: int) -> Iterator[tuple[int, int]]:
    """A group's merged classes: (vector packed at slot width w, multiplicity) pairs.

    With the bases of :func:`_group_shape`, a composition (c_t parties
    send t) sends x^E prod_u P_u^(n_u), n_u the sum of c_t over the trits
    that shift P_u and E = sum_t e_t c_t; x^3 only rotates the global
    values, so a class (n_u, E mod 3) has one best count and total.  Its
    multiplicity is multinomial(size; n_u) [X^E] q_v^(n_v) (multinomial
    theorem), with no composition formed, for each n_u and each E in the
    support of q_v^(min(n_v, 2)); [X^E] q_v^n is Q_v^n's coefficient at
    x^(3E), whose coefficients add up to at most 3^size.  The multinomial
    is the product of C(n_1 + ... + n_i, n_i), 1 for one base.  A group of
    one base has one n_u, its power taken by repeated squaring; otherwise
    every power 0..size is taken along a walk, one product per step.  The
    classes are yielded one at a time, so none is held after its use.
    """
    vectors, v, support = _group_shape(sent)
    m = len(vectors) - 1
    w_q = (3**size).bit_length()

    def powers(vector: list[int], width: int) -> dict[int, int] | list[int]:
        packed = sum(c << width * s for s, c in enumerate(vector))
        if m == 1:
            return {size: _ring_power(packed, size, width)}
        walk = itertools.repeat(packed, size)
        return list(itertools.accumulate(walk, partial(_ring_product, w=width), initial=1))

    bases = [powers(row, w) for row in vectors[:m]]
    q = powers(vectors[m], w_q)
    for cuts in itertools.combinations_with_replacement(range(size + 1), m - 1):
        n = [b - a for a, b in itertools.pairwise((0, *cuts, size))]
        vector = reduce(partial(_ring_product, w=w), map(operator.getitem, bases, n))
        multinomial = math.prod(map(math.comb, (*cuts, size), n))
        for e in support[min(n[v], 2)]:
            coefficient = q[n[v]] >> 3 * e * w_q & (1 << w_q) - 1
            yield _ring_product(vector, 1 << e * w, w), multinomial * coefficient


def evaluate_collapsed(profile: StrategyProfile, work: Counter | None = None) -> Fraction:
    """Referee success probability over transcript classes, in exact integers.

    Exactly equals :func:`evaluate_exhaustive` wherever both run; scales to
    large k with few distinct strategies, scanning classes, not transcripts.
    ``work``, when given, counts what the scan did (:func:`_collapsed_value`).
    """
    return _collapsed_value(strategy_groups(profile), work)


def _collapsed_value(groups: list[tuple[Strategy, int]], work: Counter | None = None) -> Fraction:
    """Success probability of the profile ``groups``, summed over its merged classes.

    Refuses more than :data:`_MAX_CLASSES` merged classes (:func:`_class_count`)
    before any class is built.  The classes are the product of each group's
    (:func:`_group_classes`), the groups taken by increasing merged class
    count: the products of head classes, one per group but the last, are
    formed once and held, and each class of the last group, the one of
    most classes, meets every one of them as it is built, in one ring
    product, whose coefficients at x^0, x^3 and x^6 count global values 0,
    1 and 2.
    The best count and the total, times the multiplicity, are summed
    exactly.  The denominator, 3^k * sum_i C(k, 3i) admissible inputs, must
    match the summed totals.  ``work``, when given, gains the transcript
    classes before merging or skipping (``transcript_classes``) and the
    classes scanned (``classes_scanned``).
    """
    counts = [_class_count(s.sent, size) for s, size in groups]
    n_merged = math.prod(counts)
    if n_merged > _MAX_CLASSES:
        raise ValueError(f"profile has {n_merged} merged transcript classes; "
                         "reduce the number of distinct strategies")
    w = _slot_width(groups)
    mask = (1 << w) - 1
    by_count = sorted(zip(counts, groups), key=operator.itemgetter(0))
    *head, last = [_group_classes(s.sent, size, w) for _, (s, size) in by_count]
    heads = [(reduce(partial(_ring_product, w=w), (u for u, _ in pairs), 1),
              math.prod(m for _, m in pairs)) for pairs in itertools.product(*head)]
    numerator = total = scanned = 0
    for u, mult in last:
        best = inputs = 0
        for vector, head_mult in heads:
            n = _ring_product(vector, u, w)
            counts = (n & mask, n >> 3 * w & mask, n >> 6 * w & mask)
            best += head_mult * max(counts)
            inputs += head_mult * sum(counts)
        numerator += mult * best
        total += mult * inputs
        scanned += len(heads)
    if work is not None:
        n_classes = math.prod((size + 1) * (size + 2) // 2 for _, size in groups)
        work.update(transcript_classes=n_classes, classes_scanned=scanned)

    k = sum(size for _, size in groups)
    denominator = 3**k * grouped_sum(k, 0, 3)
    if total != denominator:
        raise ArithmeticError("transcript-class totals do not match the admissible input count")
    return Fraction(numerator, denominator)


# ---------------------------------------------------------------------------
# Character-sum bound on a table's success
# ---------------------------------------------------------------------------

#: Decimal digits of the cosine ceilings in :func:`_character_sums`.  More
#: digits make the bound tighter; with any number it stays an upper bound.
_BOUND_DIGITS = 30


@lru_cache(maxsize=1)
def _cosine_ceilings() -> tuple[int, ...]:
    """Per d = 1..4 (index d - 1), the least integer c_d with c_d / 10^D >= cos(2 pi d / 9).

    D is :data:`_BOUND_DIGITS` and S = 10^D.  cos(6 pi / 9) = -1/2, so
    c_3 = -S/2.  For d = 1, 2 and 4, 2 cos(2 pi d / 9) is the root of
    f(x) = x^3 - 3x + 1 in (1, 2], (0, 1] and (-2, -1], where f rises,
    falls and rises, and f has no rational root.  So c / S >= cos(2 pi d / 9)
    exactly when the integer S^3 f(2c / S) = (2c)^3 - 3 (2c) S^2 + S^3 has
    the sign of the slope, and bisection on that sign over (S/2, S],
    (0, S/2] and (-S, -S/2] finds c_d.  No float or decimal enters.
    """
    scale = 10**_BOUND_DIGITS
    ceilings = {3: -scale // 2}
    for d, lo, hi, slope in ((1, scale // 2, scale, 1), (2, 0, scale // 2, -1),
                             (4, -scale, -scale // 2, 1)):
        while hi - lo > 1:  # lo / S is below the cosine, hi / S is not
            mid = (lo + hi) // 2
            if slope * ((2 * mid) ** 3 - 6 * mid * scale**2 + scale**3) >= 0:
                hi = mid
            else:
                lo = mid
        ceilings[d] = hi
    return tuple(ceilings[d] for d in range(1, 5))


@lru_cache(maxsize=None)
def _character_sums(sent: tuple[int, ...]) -> tuple[int, int, int]:
    """Integers U_s with U_s / 10^D >= S_s = sum_t |chi_(1+3s)(P_t)|, for s = 0, 1, 2.

    P_t is row t of :func:`_step_polys`, chi_c(P) = sum_r P[r] z^(c*r) with
    z = exp(2 pi i / 9) is character c of Z9, and D is :data:`_BOUND_DIGITS`.
    With R_d = sum_r P[r] P[r + d mod 9], the cyclic autocorrelation of P,
    |chi_c(P)|^2 = R_0 + 2 sum_(d=1..4) R_d cos(2 pi c d / 9).  Every R_d is
    a nonnegative integer, so replacing each cosine by its ceiling from
    :func:`_cosine_ceilings` gives an integer T >= 10^D |chi_c(P)|^2, and
    isqrt(10^D T) + 1 > 10^D |chi_c(P)|.  No float enters.
    """
    ceilings = _cosine_ceilings()
    scale = 10**_BOUND_DIGITS
    autos = [[sum(p[r] * p[(r + d) % 9] for r in range(9)) for d in range(5)]
             for p in _step_polys(sent)]
    # Per c = 1 + 3s, the ceilings of cos(2 pi c d / 9) for d = 1..4.
    weights = [[ceilings[min(c * d % 9, -c * d % 9) - 1] for d in range(1, 5)] for c in (1, 4, 7)]
    return tuple(sum(math.isqrt((a[0] * scale + 2 * sum(map(operator.mul, a[1:], w))) * scale) + 1
                     for a in autos) for w in weights)


def _character_bound(sums: Sequence[int], k: int) -> Fraction:
    """U(k) = 1/3 + (2/9) sum_s (U_s / 10^D)^k / N(k): bounds a homogeneous profile's success.

    ``sums`` are a table's :func:`_character_sums` and N(k) = 3^k *
    sum_i C(k, 3i) counts the admissible inputs.  Proof: take a transcript
    t and let n_t(v) count the admissible inputs that send it with global
    value v, n_t their total and w = z^3.  For every v,
    3 n_t(v) = n_t + 2 Re(w^-v sum_u w^u n_t(u)), so the referee's count
    max_v n_t(v) is at most (n_t + 2 |sum_v w^v n_t(v)|) / 3.  An input
    whose register residues add up to r (mod 9) is admissible when
    r = 0 (mod 3), with w^v = z^r, and that test is (1/3) sum_s z^(3 s r),
    so sum_v w^v n_t(v) = (1/3) sum_s prod_i chi_(1+3s)(P_(t_i)), party i
    sending t_i.  Summed over all transcripts, the absolute values of the
    products factor into prod_i S_(i,s); for one table used by all k
    parties that is S_s^k.  With sum_t n_t = N(k) the success is at most
    1/3 + (2/9) sum_s S_s^k / N(k).
    """
    scale = 10 ** (_BOUND_DIGITS * k)
    admissible = 3**k * grouped_sum(k, 0, 3)
    return Fraction(3 * admissible * scale + 2 * sum(u**k for u in sums),
                    9 * admissible * scale)


# ---------------------------------------------------------------------------
# Strategy search and the ten-player worked example
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def strategy_orbit_reps() -> tuple[Strategy, ...]:
    """One representative per orbit of the 729 tables under S3 x Z3^2.

    S3 relabels the sent alphabet.  Z3^2 shifts the register trit by c0
    where the bit is 0 and by c1 where it is 1, sending for (y + c_x, x)
    what was sent for (y, x), in every party at once: an admissible input
    has m = 0 (mod 3) zero bits and k = 1 (mod 3), so the shift maps
    admissible inputs one to one, keeps each transcript and moves every
    global value by c0*m + c1*(k - m) = c1 (mod 3), a relabeling of the
    referee's guess.  Neither changes a homogeneous profile's success
    probability.  Each representative is its orbit's lexicographically
    smallest member, and they are listed in lexicographic order.

    The per-bit shift holds only when every party shifts at once.  A
    single party's tables reduce only under S3 x Z3 (c0 = c1), 44 orbits,
    so these 22 do not reduce the parties of a mixed profile.
    """
    return tuple(map(Strategy.from_string, (
        "000000 000001 000010 000011 000012 000101 000102 000111 000112 000121 000122 "
        "001010 001012 001020 001021 001022 001122 001212 001221 010101 010102 010121"
    ).split()))


def best_homogeneous(k: int, work: Counter | None = None) -> tuple[Strategy, Fraction]:
    """Best success probability over all single-strategy profiles at k parties.

    Searches the 22 :func:`strategy_orbit_reps`, one per orbit under
    S3 x Z3^2, whose tables all have one value, and returns the first
    maximizer; each representative is its orbit's smallest member, so
    this is also the first maximizer in lexicographic order of the 729.

    The search is bound first: each orbit gets the exact upper bound
    :func:`_character_bound` of its table's :func:`_character_sums`, and
    the orbits are evaluated with the collapsed evaluator, each as one
    group of k parties, in decreasing order of that bound, until one's
    bound is below the best value found.  The orbits not evaluated have
    bounds below it, so they cannot reach it.  ``work``, when given, sums
    the evaluated orbits' scan counters and gains the orbits searched
    (``strategy_orbits``) and evaluated (``orbits_evaluated``).
    """
    check_party_count(k)
    reps = strategy_orbit_reps()
    sums = [_character_sums(s.sent) for s in reps]
    # U(k) grows with sum_s U_s^k, so this visits the orbits by decreasing
    # bound, ties in representative order.
    order = sorted(range(len(reps)), key=lambda i: sum(u**k for u in sums[i]), reverse=True)
    values: dict[int, Fraction] = {}
    for i in order:
        if values and _character_bound(sums[i], k) < max(values.values()):
            break
        values[i] = _collapsed_value([(reps[i], k)], work)
    if work is not None:
        work.update(strategy_orbits=len(reps), orbits_evaluated=len(values))
    best = min(values, key=lambda i: (-values[i], i))  # the first maximizer
    return reps[best], values[best]


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
    per_m = {m: binomial(k, k - m) for m in range(k - k % 3, -1, -3)}
    labels = {m: (m // 3) % 3 for m in per_m}
    total = sum(per_m.values())
    g_totals = tuple(sum(c for m, c in per_m.items() if labels[m] == v) for v in range(3))
    majority_count = max(g_totals)
    majority_value = g_totals.index(majority_count)
    return WorkedExampleReport(
        k=k,
        strategy=strategy,
        per_m_counts=per_m,
        g_label_by_m=labels,
        g_totals=g_totals,
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

