"""Helpers that only the tests use.

Strategy cells and canonical forms, random profiles, per-class statistics
of the collapsed evaluator, and a sum-class classifier for dense states.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from tritgame.classical import (
    REGISTER_VALUES,
    Strategy,
    StrategyProfile,
    _class_counts,
    _from_digits,
    _group_powers,
    _mixed_radix,
    _multinomial,
    _prime_tables,
    crt_primes,
    strategy_groups,
)
from tritgame.qudit import QuditState, sum_class_deviation


def cells(strategy: Strategy) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The three preimage cells, indexed by sent trit."""
    out: list[list[tuple[int, int]]] = [[], [], []]
    for value, t in zip(REGISTER_VALUES, strategy.sent):
        out[t].append(value)
    return tuple(tuple(cell) for cell in out)


def canonical(strategy: Strategy) -> Strategy:
    """Lexicographically smallest relabeling of the sent alphabet."""
    return min(
        (strategy.relabel(perm) for perm in itertools.permutations(range(3))),
        key=lambda s: s.sent,
    )


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

    primes = crt_primes(profile.k)
    tables = _prime_tables(primes)
    powers = []
    multiplicity = 1
    for (strategy, size), counts in zip(groups, class_id):
        if len(counts) != 3 or any(c < 0 for c in counts) or sum(counts) != size:
            raise ValueError(f"sent counts {counts!r} do not partition group of size {size}")
        powers.append(_group_powers(strategy.sent, size, tables))
        multiplicity *= _multinomial(size, counts)
    zero = np.zeros(1, dtype=np.intp)
    residues = _class_counts(
        tables, powers, [np.array([c]) for c in class_id], [zero] * len(class_id)
    )[:, 0]
    digits = _mixed_radix(residues, tables)
    g_counts = tuple(_from_digits([d[v] for d in digits], primes) for v in range(3))
    return TranscriptClassStats(class_id, g_counts, multiplicity)


def classify_sum_class(
    state: QuditState, tol: float = 1e-10
) -> tuple[int, complex] | None:
    """Recognize c times a sum-class state; None if nothing matches.

    The candidate class is read off the digit sum at the largest amplitude;
    the match must have every amplitude within ``tol`` of the phased class
    pattern and a phase of modulus 1 within ``tol``.
    """
    if state.d != 3:
        raise ValueError("sum-class classification is defined for dimension 3 only")
    peak = np.base_repr(int(np.argmax(np.abs(state.amplitudes))), 3).zfill(state.k)
    candidate = sum(map(int, peak)) % 3
    c, dev = sum_class_deviation(state, candidate)
    if dev <= tol and abs(abs(c) - 1.0) <= tol:
        return candidate, c
    return None
