"""The collapsed evaluator's ring, its character-sum bound and the orbit search against direct oracles."""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tritgame.classical import (
    Strategy,
    StrategyProfile,
    _BOUND_DIGITS,
    _character_bound,
    _character_sums,
    _collapsed_value,
    _cosine_ceilings,
    _ring_power,
    _ring_product,
    best_homogeneous,
    canonical_division,
    evaluate_collapsed,
    evaluate_exhaustive,
    exhaustive_transcript_counts,
    strategy_groups,
    strategy_orbit_reps,
)

from helpers import (
    PER_BIT_SHIFTS, S3_Z3_REPS, autocorrelations, canonical, orbit, orbit_reps_by_scan, shift,
    step_vectors,
)


# One table per orbit under relabeling of the sent trit, in lexicographic order.
CANONICAL_REPS = sorted(
    {canonical(Strategy(t)) for t in itertools.product(range(3), repeat=6)},
    key=lambda s: s.sent,
)


def character_bound(sums, k):
    """The :func:`_character_bound` of a table's character sums, as a Fraction."""
    return Fraction(*_character_bound(sum(u**k for u in sums), k))


def convolve(a, b):
    """Reference product in Z[Z9 x Z3]; state 3u + w, both coordinates cyclic."""
    out = [0] * 27
    for s1, x in enumerate(a):
        for s2, y in enumerate(b):
            u = (s1 // 3 + s2 // 3) % 9
            w = (s1 % 3 + s2 % 3) % 3
            out[3 * u + w] += x * y
    return out


def explicit_fold(vec):
    """Admissible states (u = 0 mod 3) summed by global value (w + u/3) mod 3."""
    counts = [0, 0, 0]
    for u in range(0, 9, 3):
        for w in range(3):
            counts[(w + u // 3) % 3] += vec[3 * u + w]
    return counts


def convolve9(a, b):
    """Reference product in Z[Z9]."""
    out = [0] * 9
    for s1, x in enumerate(a):
        for s2, y in enumerate(b):
            out[(s1 + s2) % 9] += x * y
    return out


def explicit_fold9(vec):
    """Admissible states (s = 0 mod 3) by global value s/3."""
    return [vec[0], vec[3], vec[6]]


def onto_z9(vec):
    """Image of a Z[Z9 x Z3] vector under phi(u, w) = u + 3w (mod 9)."""
    out = [0] * 9
    for state, x in enumerate(vec):
        out[(state // 3 + 3 * (state % 3)) % 9] += x
    return out


def pack(vec, w):
    """A Z[Z9] vector as one int, coefficient s at bit w*s."""
    return sum(c << w * s for s, c in enumerate(vec))


def unpack(n, w):
    """The nine w-bit coefficients of a packed vector; n must fit in 9w bits."""
    assert 0 <= n < 1 << 9 * w
    return [n >> w * s & (1 << w) - 1 for s in range(9)]


#: The 729 tables as a (729, 6) array, in lexicographic order.
TABLES = np.array(list(itertools.product(range(3), repeat=6)))


def homogeneous_value(strategy, k):
    return evaluate_collapsed(StrategyProfile.homogeneous(strategy, k))


@lru_cache(maxsize=None)
def table_values(k):
    """Homogeneous value of each of the 729 tables at k, in lexicographic order.

    One evaluation per relabeling class (:data:`CANONICAL_REPS`): relabeling
    the sent trit relabels the transcripts and keeps the value.
    """
    values = {s: homogeneous_value(s, k) for s in CANONICAL_REPS}
    return tuple(values[canonical(Strategy(tuple(t)))] for t in TABLES.tolist())


#: The party counts of the bound's orbit checks: every k = 1 (mod 3) from 4 to 61.
BOUND_KS = range(4, 62, 3)


@lru_cache(maxsize=None)
def orbit_values(k):
    """Homogeneous value of each of the 22 :func:`strategy_orbit_reps` at k, in their order."""
    return tuple(homogeneous_value(s, k) for s in strategy_orbit_reps())


class TestTransform:
    def random_vectors(self, seed, size=9, n=20):
        rng = random.Random(seed)
        for _ in range(n):
            yield (
                [rng.randrange(1000) for _ in range(size)],
                [rng.randrange(1000) for _ in range(size)],
            )

    def test_ring_product_is_convolution(self):
        # At the least slot width w that holds the product's coefficients,
        # one folded integer product is the product in Z[Z9], also where
        # coefficients reach 2^w - 1: every one of them, one that folds
        # from x^16 onto x^7, and 9 * 7 * 1 = 63 = 2^6 - 1 summed over nine terms.
        cases = list(self.random_vectors(2))
        for top in (1, 31, 2**64 - 1):
            cases += [([top] * 9, [1] + [0] * 8),
                      ([0] * 8 + [top], [0] * 8 + [1]),
                      ([0] * 4 + [top] + [0] * 4, [0] * 7 + [1, 0])]
        cases += [([7] * 9, [1] * 9), ([1] * 9, [455] * 9)]
        for a, b in cases:
            expected = convolve9(a, b)
            w = max(expected).bit_length()
            assert unpack(_ring_product(pack(a, w), pack(b, w), w), w) == expected, (a, b)
        # Powers by repeated squaring are repeated products.
        for a, _ in self.random_vectors(3, n=5):
            power = [1] + [0] * 8
            for n in range(12):
                w = max(power).bit_length()
                assert unpack(_ring_power(pack(a, w), n, w), w) == power, (a, n)
                power = convolve9(power, a)

    def test_residue_map_carries_the_27_state_ring_onto_z9(self):
        # phi(u, w) = u + 3w (mod 9) is a homomorphism Z9 x Z3 -> Z9 whose
        # fibres over 0, 3 and 6 are the admissible states of global value
        # 0, 1 and 2, so it keeps products and folds.
        for a, b in self.random_vectors(4, size=27):
            product = convolve(a, b)
            assert onto_z9(product) == convolve9(onto_z9(a), onto_z9(b))
            assert explicit_fold(product) == explicit_fold9(onto_z9(product))
            w = max(onto_z9(product)).bit_length()
            packed = _ring_product(pack(onto_z9(a), w), pack(onto_z9(b), w), w)
            assert explicit_fold9(unpack(packed, w)) == explicit_fold(product)


@st.composite
def small_profiles(draw):
    """Profiles of 1 to 3 distinct strategies at k = 4, 7 or 10, each used at least once."""
    k = draw(st.sampled_from([4, 7, 10]))
    n_groups = draw(st.integers(1, 3))
    tables = draw(
        st.lists(
            st.tuples(*[st.integers(0, 2)] * 6),
            min_size=n_groups,
            max_size=n_groups,
            unique=True,
        )
    )
    extra = draw(
        st.lists(st.integers(0, n_groups - 1), min_size=k - n_groups, max_size=k - n_groups)
    )
    order = draw(st.permutations(list(range(n_groups)) + extra))
    return StrategyProfile(tuple(Strategy(tables[g]) for g in order))


class TestDifferential:
    @settings(deadline=None, max_examples=60)
    @given(small_profiles())
    def test_collapsed_matches_exhaustive(self, profile):
        assert evaluate_collapsed(profile) == evaluate_exhaustive(profile)


class TestOrbits:
    def test_shift_moves_register_trits(self):
        s = Strategy.from_string("001122")
        assert shift(s, 1).to_string() == "220011"
        assert shift(shift(s, 1), 2) == s
        for (y, x) in itertools.product(range(3), range(2)):
            assert shift(s, 2).sent[2 * ((y + 2) % 3) + x] == s.sent[2 * y + x]
        # By bit: c0 where the bit is 0, c1 where it is 1.
        s = Strategy.from_string("012012")
        assert shift(s, 1, 2).to_string() == "100221"
        assert shift(shift(s, 1, 2), 2, 1) == s
        assert shift(s, 1, 1) == shift(s, 1)
        for c0, c1 in PER_BIT_SHIFTS:
            for (y, x) in itertools.product(range(3), range(2)):
                c = (c0, c1)[x]
                assert shift(s, c0, c1).sent[2 * ((y + c) % 3) + x] == s.sent[2 * y + x]

    def test_22_orbits_cover_all_tables(self):
        reps = strategy_orbit_reps()
        assert len(reps) == 22
        assert list(reps) == sorted(reps, key=lambda t: t.sent)
        covered = set()
        for s in reps:
            members = orbit(s, PER_BIT_SHIFTS)
            assert s == min(members, key=lambda t: t.sent)
            assert not covered & members
            covered |= members
        assert len(covered) == 3**6
        # Each orbit is a union of S3 x Z3 orbits, represented by the smallest.
        assert len(S3_Z3_REPS) == 44
        assert set(reps) <= set(S3_Z3_REPS)

    def test_orbit_reps_are_those_of_a_set_scan(self):
        # The written-out representatives are what a scan in lexicographic
        # order that marks each new orbit's members picks.
        assert strategy_orbit_reps() == orbit_reps_by_scan()

    def test_per_bit_shift_moves_every_global_value_by_c1(self):
        # Exactly, transcript by transcript: an admissible input's m zero bits
        # are 0 mod 3 and k = 1 mod 3, so its trit sum moves by c1 (mod 3).
        for s in S3_Z3_REPS:
            counts = exhaustive_transcript_counts(StrategyProfile.homogeneous(s, 7))
            for c0, c1 in PER_BIT_SHIFTS:
                shifted = StrategyProfile.homogeneous(shift(s, c0, c1), 7)
                assert np.array_equal(
                    exhaustive_transcript_counts(shifted), np.roll(counts, c1, axis=1)
                ), (s, c0, c1)

    @pytest.mark.parametrize("k", [4, 7])
    def test_per_bit_shifts_are_the_only_register_symmetries(self, k):
        # A permutation pi of the six register values sends for pi(v) what a
        # table sent for v.  Of the 720, exactly the nine per-bit shifts keep
        # every table's homogeneous value, so 22 orbits is as few as this gives.
        values = table_values(k)
        ids = {v: i for i, v in enumerate(set(values))}
        value_ids = np.array([ids[v] for v in values])
        digits = 3 ** np.arange(5, -1, -1)
        keeping = {
            pi for pi in itertools.permutations(range(6))
            if np.array_equal(value_ids[TABLES[:, np.argsort(pi)] @ digits], value_ids)
        }
        shifts = {}
        for c0, c1 in PER_BIT_SHIFTS:
            pi = tuple(2 * ((i // 2 + (c0, c1)[i % 2]) % 3) + i % 2 for i in range(6))
            assert TABLES[:, np.argsort(pi)].tolist() == [
                list(shift(Strategy(tuple(t)), c0, c1).sent) for t in TABLES.tolist()
            ]
            shifts[pi] = (c0, c1)
        assert keeping == set(shifts)

    def test_one_party_keeps_only_the_uniform_shift(self):
        # Shifting one party by bit moves the global value by c0 or c1 with
        # its bit, so the 22 orbits do not reduce the parties of a mixed profile.
        a, deviant = canonical_division("A"), Strategy.from_string("000112")
        value = evaluate_exhaustive(StrategyProfile((a, a, a, deviant)))
        for c0, c1 in PER_BIT_SHIFTS:
            shifted = evaluate_exhaustive(StrategyProfile((a, a, a, shift(deviant, c0, c1))))
            assert (shifted == value) == (c0 == c1), (c0, c1)

    def test_shift_invariance_at_k7(self):
        assert len(CANONICAL_REPS) == 122
        for s in CANONICAL_REPS:
            value = homogeneous_value(s, 7)
            assert homogeneous_value(shift(s, 1), 7) == value
            assert homogeneous_value(shift(s, 2), 7) == value

    @pytest.mark.parametrize("k", [7, 10])
    def test_orbit_search_is_the_first_maximizer_of_all_tables(self, k):
        values = table_values(k)
        best = max(range(len(values)), key=values.__getitem__)  # the first maximizer
        assert best_homogeneous(k) == (Strategy(tuple(TABLES[best].tolist())), values[best])

    def test_orbit_search_matches_full_scan_at_k13(self):
        best = None
        for s in CANONICAL_REPS:
            value = homogeneous_value(s, 13)
            if best is None or value > best[1]:
                best = (s, value)
        assert best_homogeneous(13) == best


class TestRedundantPrime:
    def test_full_prime_set_matches_oracle(self):
        profile = StrategyProfile.homogeneous(canonical_division("F"), 7)
        value = _collapsed_value(strategy_groups(profile))
        assert value == evaluate_exhaustive(profile)


class TestCharacterBound:
    def test_cosine_ceilings_are_certified(self):
        # 2 cos(2 pi d / 9) for d = 1, 2, 4 are the roots of f(x) = x^3 - 3x + 1,
        # where f increases at d = 1 and 4 and decreases at d = 2; at d = 3 it is -1.
        # So exact signs of f place each root in ((c_d - 1) / S, c_d / S] (times 2):
        # c_d is the least integer ceiling, and c_d - 1 is none.
        def f(x):
            return x**3 - 3 * x + 1

        scale = 10**_BOUND_DIGITS
        ceilings = _cosine_ceilings()
        assert ceilings[2] == -scale // 2
        for d, slope in ((1, 1), (2, -1), (4, 1)):
            c = ceilings[d - 1]
            hi, lo = Fraction(2 * c, scale), Fraction(2 * (c - 1), scale)
            assert slope * f(hi) >= 0 > slope * f(lo), d
            # The float cosine only tells which root the sign change brackets.
            assert c / scale == pytest.approx(math.cos(2 * math.pi * d / 9), abs=1e-12), d

    def test_character_sums_follow_each_rows_autocorrelation(self):
        # The sums follow from the autocorrelations of the reference step
        # vectors, one term at a time, for each of the 729 tables.
        scale = 10**_BOUND_DIGITS
        ceilings = _cosine_ceilings()
        expected = []
        for t in TABLES.tolist():
            autos = [autocorrelations(row) for row in step_vectors(Strategy(tuple(t)))]
            expected.append(tuple(
                sum(math.isqrt(scale * (a[0] * scale + 2 * sum(
                    a[d] * ceilings[min(c * d % 9, -c * d % 9) - 1] for d in range(1, 5)))) + 1
                    for a in autos)
                for c in (1, 4, 7)))
        assert [_character_sums(tuple(t)) for t in TABLES.tolist()] == expected

    def test_character_sums_are_tight_upper_bounds(self):
        scale = 10**_BOUND_DIGITS
        z = np.exp(2j * np.pi / 9)
        for s in S3_Z3_REPS:
            polys = np.array(step_vectors(s))
            for sums_index, u in enumerate(_character_sums(s.sent)):
                c = 1 + 3 * sums_index
                exact = np.abs(polys @ z ** (c * np.arange(9))).sum()
                assert u / scale == pytest.approx(exact, abs=1e-12), (s, c)
        # Division A: S = 6 (cos pi/9, cos 4pi/9, cos 2pi/9).
        a = _character_sums(canonical_division("A").sent)
        expected = [6 * math.cos(math.pi * e / 9) for e in (1, 4, 2)]
        assert [u / scale for u in a] == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("k", [4, 7])
    def test_bound_holds_on_every_table(self, k):
        for t, value in zip(TABLES.tolist(), table_values(k)):
            assert character_bound(_character_sums(tuple(t)), k) >= value, t

    def test_bound_holds_on_every_orbit(self):
        for k in BOUND_KS:
            for s, value in zip(strategy_orbit_reps(), orbit_values(k)):
                assert character_bound(_character_sums(s.sent), k) >= value, (s, k)

    @pytest.mark.parametrize("dropped", range(3))
    def test_every_character_is_needed(self, dropped):
        # With one of the three characters left out the sum is no bound.
        failing = 0
        for k in (4, 7):
            for t, value in zip(TABLES.tolist(), table_values(k)):
                sums = list(_character_sums(tuple(t)))
                del sums[dropped]
                failing += character_bound(sums, k) < value
        assert failing > 0

    def test_pruned_search_is_the_first_maximizer_of_the_full_scan(self):
        reps = strategy_orbit_reps()
        for k in BOUND_KS:
            values = orbit_values(k)
            best = max(range(len(reps)), key=values.__getitem__)  # the first maximizer
            assert best_homogeneous(k) == (reps[best], values[best]), k

    @pytest.mark.parametrize("k", [31, 61])
    def test_one_orbit_is_evaluated(self, k):
        work = Counter()
        best_homogeneous(k, work)
        assert work["strategy_orbits"] == 22
        assert work["orbits_evaluated"] == 1
