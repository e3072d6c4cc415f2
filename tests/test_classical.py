import functools
import itertools
import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tritgame import classical
from tritgame.classical import (
    DIVISION_NAMES,
    REGISTER_VALUES,
    Strategy,
    StrategyProfile,
    best_homogeneous,
    canonical_division,
    evaluate_collapsed,
    evaluate_exhaustive,
    exhaustive_transcript_counts,
    ten_player_worked_example,
    strategy_groups,
    strategy_orbit_reps,
)
from tritgame.combinat import grouped_sum
from tritgame.protocol import admissible_bit_vectors

from helpers import (
    PER_BIT_SHIFTS,
    S3_Z3_REPS,
    canonical,
    cells,
    division_type,
    full_class_count,
    full_scan_value,
    orbit,
    per_vector_transcript_counts,
    random_profile,
    relabel,
    transcript_class_stats,
)

# Exact values of the homogeneous canonical divisions at k=4, frozen from
# the first dual-evaluator run.
K4_DIVISION_VALUES = {
    "A": Fraction(4, 5),
    "B": Fraction(74, 135),
    "C": Fraction(58, 135),
    "D": Fraction(58, 135),
    "E": Fraction(58, 135),
    "F": Fraction(35, 81),
    "H": Fraction(35, 81),
    "I": Fraction(76, 135),
    "J": Fraction(1, 3),
    "K": Fraction(143, 405),
    "L": Fraction(58, 135),
    "M": Fraction(58, 135),
    "N": Fraction(1, 3),
    "O": Fraction(7, 15),
}

# Best homogeneous values, frozen from the first validated search.
BEST_HOMOGENEOUS = {
    4: Fraction(4, 5),
    13: Fraction(1716, 2731),
    31: Fraction(303906051, 715827883),
    61: Fraction(267037541015397434, 768614336404564651),
}


# Exact values of two homogeneous divisions at k=13, the exhaustive oracle's cap.
K13_DIVISION_VALUES = {
    "A": Fraction(1716, 2731),
    "F": Fraction(1462373615, 4354096113),
}


def trit_reveal_closed_form(k: int) -> Fraction:
    """Independent oracle for division A.

    A transmits the register trit unchanged, so the transcript reveals the
    trit vector exactly and the referee's only uncertainty is the zero-bit
    class; the best guess wins with the heaviest zero-count residue class.
    """
    best = max(grouped_sum(k, 0, 9), grouped_sum(k, 3, 9), grouped_sum(k, 6, 9))
    return Fraction(best, grouped_sum(k, 0, 3))


def referee_histogram(profile: StrategyProfile) -> dict[tuple, list[int]]:
    """Admissible-input counts per global value, keyed by transcript, in pure Python."""
    by_transcript: dict[tuple, list[int]] = {}
    for bits in admissible_bit_vectors(profile.k).tolist():
        for trits in itertools.product((0, 1, 2), repeat=profile.k):
            transcript = tuple(
                s.sent[2 * y + x] for s, y, x in zip(profile.strategies, trits, bits)
            )
            g = (sum(trits) + (profile.k - sum(bits)) // 3) % 3
            by_transcript.setdefault(transcript, [0, 0, 0])[g] += 1
    return by_transcript


def oracle_histogram(profile: StrategyProfile) -> dict[tuple, list[int]]:
    """The oracle's (3^k, 3) count array as a dict keyed by transcript."""
    counts = exhaustive_transcript_counts(profile)
    assert counts.shape == (3**profile.k, 3)
    return {
        tuple(int(t) for t in np.base_repr(code, 3).zfill(profile.k)): row.tolist()
        for code, row in enumerate(counts)
        if row.any()
    }


# A 3-group profile at k = 7, listed party by party.
K7_THREE_GROUPS = StrategyProfile(
    tuple(Strategy.from_string(s) for s in (
        "021201", "210012", "220011", "021201", "220011", "210012", "220011",
    ))
)


def profile_from_groups(groups) -> StrategyProfile:
    """Profile listing each (strategy string, party count) group's parties in turn."""
    return StrategyProfile(tuple(Strategy.from_string(s) for s, n in groups for _ in range(n)))


# Ten-party profiles the exhaustive oracle is checked against party by
# party: the two long-run profiles, the benchmark's three-group profile as
# its workload seed 101 shifts it, and one with four groups.
K10_PROFILES = {
    "homogeneous F": profile_from_groups([("100012", 10)]),
    "three groups": profile_from_groups([("021201", 3), ("210012", 3), ("220011", 4)]),
    "three groups, shifted": profile_from_groups([("010212", 3), ("122100", 3), ("001122", 4)]),
    "four groups": profile_from_groups(
        [("021201", 2), ("100012", 3), ("220011", 2), ("012210", 3)]
    ),
}


def product_half_histogram(strategies, residue=lambda zeros, trits: zeros + 3 * trits):
    """(3^n, 9) half histogram counted one input at a time over ``itertools.product``.

    Row: the sent trits in base 3, party 1 most significant; column:
    ``residue(zero count, trit sum)`` mod 9.
    """
    hist = np.zeros((3 ** len(strategies), 9), dtype=np.int64)
    for values in itertools.product(range(6), repeat=len(strategies)):
        code = 0
        for strategy, i in zip(strategies, values):
            code = 3 * code + strategy.sent[i]
        register = [REGISTER_VALUES[i] for i in values]
        zeros = sum(x == 0 for _, x in register)
        trits = sum(y for y, _ in register)
        hist[code, residue(zeros, trits) % 9] += 1
    return hist


def random_tables(n: int, rng: np.random.Generator) -> tuple[Strategy, ...]:
    return tuple(Strategy(tuple(rng.integers(0, 3, size=6))) for _ in range(n))


def brute_force_success(profile: StrategyProfile) -> Fraction:
    """Tiny dict-based referee, independent of both production evaluators."""
    by_transcript = referee_histogram(profile)
    num = sum(max(counts) for counts in by_transcript.values())
    den = sum(sum(counts) for counts in by_transcript.values())
    return Fraction(num, den)


class TestStrategy:
    def test_string_round_trip(self):
        s = Strategy.from_string("120021")
        assert s.to_string() == "120021"
        assert s.sent[2 * 0 + 0] == 1 and s.sent[2 * 2 + 1] == 1

    def test_invalid_strings(self):
        with pytest.raises(ValueError):
            Strategy.from_string("12002")
        with pytest.raises(ValueError):
            Strategy.from_string("120031")

    def test_float_trits_rejected(self):
        with pytest.raises(ValueError, match="six trits"):
            Strategy((1.0, 0, 2, 1, 0, 2))

    def test_bool_trits_stored_as_ints(self):
        s = Strategy((True, 0, 2, 1, 0, 2))
        assert s.to_string() == "102102"
        assert all(type(t) is int for t in s.sent)
        assert s == Strategy.from_string("102102")

    def test_numpy_trits_stored_as_ints(self):
        s = Strategy(tuple(np.array([1, 0, 2, 1, 0, 2], dtype=np.int8)))
        assert s.to_string() == "102102"
        assert all(type(t) is int for t in s.sent)
        profile = StrategyProfile.homogeneous(s, 4)
        assert evaluate_collapsed(profile) == evaluate_exhaustive(profile)

    def test_relabel_and_canonical(self):
        s = Strategy.from_string("221100")
        assert canonical(s).to_string() == "001122"
        assert relabel(s, (2, 0, 1)).to_string() == "110022"

    def test_cells_partition_register_values(self):
        s = canonical_division("F")
        parts = cells(s)
        assert sorted(v for cell in parts for v in cell) == sorted(REGISTER_VALUES)


class TestCanonicalDivisions:
    def test_division_a_matches_displayed_cells(self):
        a = canonical_division("A")
        assert cells(a) == (
            ((0, 0), (0, 1)),
            ((1, 0), (1, 1)),
            ((2, 0), (2, 1)),
        )

    def test_division_f_completion(self):
        f = canonical_division("F")
        parts = cells(f)
        assert set(parts[0]) == {(1, 0), (1, 1), (0, 1)}
        assert division_type(f) == (3, 2, 1)
        # Leftovers split (2, 1) in lexicographic order.
        assert set(parts[1]) == {(0, 0), (2, 0)}
        assert set(parts[2]) == {(2, 1)}

    def test_displayed_zero_cells(self):
        expected = {
            "B": {(1, 0), (0, 1)},
            "C": {(1, 1), (0, 1)},
            "D": {(2, 0), (0, 1)},
            "E": {(2, 1), (0, 1)},
            "L": {(1, 0), (0, 0), (1, 1), (0, 1)},
            "N": {(0, 0), (2, 1), (1, 1), (0, 1)},
            "O": {(0, 1), (2, 0), (1, 0), (0, 0)},
        }
        for name, cell in expected.items():
            assert set(cells(canonical_division(name))[0]) == cell, name

    def test_division_types_by_family(self):
        for name in "ABCDE":
            assert division_type(canonical_division(name)) == (2, 2, 2)
        for name in "FHIJK":
            assert division_type(canonical_division(name)) == (3, 2, 1)
        for name in "LMNO":
            assert division_type(canonical_division(name)) == (4, 1, 1)

    def test_constant_strategy_type(self):
        assert division_type(Strategy.from_string("000000")) == (6, 0, 0)

    def test_all_fourteen_tables_pinned(self):
        expected = {
            "A": "001122", "B": "100122", "C": "101022", "D": "101202", "E": "101220",
            "F": "100012", "H": "001012", "I": "000112", "J": "101020", "K": "010102",
            "L": "000012", "M": "000012", "N": "001020", "O": "000102",
        }
        assert DIVISION_NAMES == tuple(expected)
        for name, table in expected.items():
            assert canonical_division(name).to_string() == table, name

    def test_unknown_name_is_rejected(self):
        with pytest.raises(ValueError, match="unknown division"):
            canonical_division("G")


class TestProfiles:
    def test_party_count_validated(self):
        a = canonical_division("A")
        with pytest.raises(ValueError):
            StrategyProfile((a,) * 6)

    def test_strategy_groups_order(self):
        a, f = canonical_division("A"), canonical_division("F")
        profile = StrategyProfile((a, f, a, f, f, a, a))
        assert strategy_groups(profile) == [(a, 4), (f, 3)]


class TestEvaluators:
    def test_constant_strategy_gives_one_third(self):
        profile = StrategyProfile.homogeneous(Strategy.from_string("000000"), 4)
        assert evaluate_exhaustive(profile) == Fraction(1, 3)
        assert evaluate_collapsed(profile) == Fraction(1, 3)

    @pytest.mark.parametrize("name", DIVISION_NAMES)
    def test_k4_pinned_values_from_both_evaluators(self, name):
        profile = StrategyProfile.homogeneous(canonical_division(name), 4)
        assert evaluate_exhaustive(profile) == K4_DIVISION_VALUES[name]
        assert evaluate_collapsed(profile) == K4_DIVISION_VALUES[name]

    def test_trit_reveal_closed_form_oracle(self):
        # Division A admits a closed form independent of both evaluators.
        for k in (4, 7, 10, 13, 40):
            profile = StrategyProfile.homogeneous(canonical_division("A"), k)
            assert evaluate_collapsed(profile) == trit_reveal_closed_form(k)
        assert evaluate_collapsed(
            StrategyProfile.homogeneous(canonical_division("A"), 10)
        ) == Fraction(210, 341)

    def test_production_evaluators_match_dict_referee(self):
        rng = np.random.default_rng(99)
        profiles = [
            StrategyProfile.homogeneous(canonical_division("B"), 4),
            random_profile(4, rng, n_groups=2),
            random_profile(4, rng, n_groups=3),
        ]
        for profile in profiles:
            expected = brute_force_success(profile)
            assert evaluate_exhaustive(profile) == expected
            assert evaluate_collapsed(profile) == expected

    def test_two_group_profiles_agree(self):
        rng = np.random.default_rng(20240811)
        for _ in range(10):
            profile = random_profile(4, rng, n_groups=2)
            assert evaluate_exhaustive(profile) == evaluate_collapsed(profile)

    def test_enumeration_bound(self):
        assert classical.EXHAUSTIVE_MAX_K == 13
        with pytest.raises(ValueError, match="enumeration bound"):
            evaluate_exhaustive(StrategyProfile.homogeneous(canonical_division("A"), 16))
        for k in (10, 13):
            profile = StrategyProfile.homogeneous(canonical_division("A"), k)
            assert evaluate_exhaustive(profile) == trit_reveal_closed_form(k)

    def test_long_run_ten_party_enumeration(self):
        profile = StrategyProfile.homogeneous(canonical_division("F"), 10)
        exhaustive = evaluate_exhaustive(profile)
        assert exhaustive == evaluate_collapsed(profile)
        assert exhaustive == Fraction(625969, 1830519)

    def test_long_run_three_group_enumeration(self):
        groups = (("021201", 3), ("210012", 3), ("220011", 4))
        profile = StrategyProfile(
            tuple(Strategy.from_string(s) for s, n in groups for _ in range(n))
        )
        exhaustive = evaluate_exhaustive(profile)
        assert exhaustive == Fraction(88486, 248589)
        assert evaluate_collapsed(profile) == exhaustive

    @pytest.mark.parametrize("name", DIVISION_NAMES)
    def test_k4_transcript_counts_match_dict_referee(self, name):
        profile = StrategyProfile.homogeneous(canonical_division(name), 4)
        assert oracle_histogram(profile) == referee_histogram(profile)

    def test_k7_three_group_transcript_counts_match_dict_referee(self):
        assert len(strategy_groups(K7_THREE_GROUPS)) == 3
        assert oracle_histogram(K7_THREE_GROUPS) == referee_histogram(K7_THREE_GROUPS)

    def test_dropping_the_zero_triple_shift_breaks_the_cross_check(self, monkeypatch):
        # Mutation of the oracle's residue: the zero count taken mod 3, not
        # mod 9, so g = trit sum mod 3 without the zero-triple term; the
        # admissibility condition is kept.
        def mutated_histogram(strategies):
            return product_half_histogram(strategies, lambda zeros, trits: zeros % 3 + 3 * trits)

        value = evaluate_collapsed(K7_THREE_GROUPS)
        assert evaluate_exhaustive(K7_THREE_GROUPS) == value == Fraction(1397, 3483)
        monkeypatch.setattr(classical, "_half_histogram", mutated_histogram)
        assert evaluate_exhaustive(K7_THREE_GROUPS) == Fraction(454, 1161)
        assert evaluate_collapsed(K7_THREE_GROUPS) == value

    def test_half_histogram_counts_every_half_input(self):
        rng = np.random.default_rng(25)
        for n in range(8):
            for _ in range(3):
                hist = classical._half_histogram(random_tables(n, rng))
                assert hist.shape == (3**n, 9)
                assert hist.sum() == 6**n

    def test_half_histogram_rows_multiply_the_cell_sizes(self):
        # Row c counts the half inputs whose parties send c's trits: each
        # party independently takes any register value of that trit's cell.
        rng = np.random.default_rng(2501)
        for n in range(8):
            strategies = random_tables(n, rng)
            totals = classical._half_histogram(strategies).sum(axis=1)
            for code, total in enumerate(totals.tolist()):
                trits = np.base_repr(code, 3).zfill(n)
                assert total == math.prod(s.sent.count(int(t)) for s, t in zip(strategies, trits))

    def test_half_histogram_matches_an_itertools_count(self):
        rng = np.random.default_rng(2502)
        for n in range(5):
            for _ in range(4):
                strategies = random_tables(n, rng)
                assert np.array_equal(
                    classical._half_histogram(strategies), product_half_histogram(strategies)
                )

    @pytest.mark.parametrize("name", K10_PROFILES)
    def test_k10_transcript_counts_match_per_vector_enumeration(self, name):
        profile = K10_PROFILES[name]
        counts = exhaustive_transcript_counts(profile)
        assert counts.shape == (3**10, 3)
        assert np.array_equal(counts, per_vector_transcript_counts(profile))
        assert counts.sum() == 3**10 * grouped_sum(10, 0, 3)

    @settings(deadline=None, max_examples=25)
    @given(st.lists(st.lists(st.integers(0, 2), min_size=6, max_size=6), min_size=4, max_size=4))
    def test_k4_heterogeneous_transcript_counts_match_dict_referee(self, tables):
        profile = StrategyProfile(tuple(Strategy(tuple(t)) for t in tables))
        assert oracle_histogram(profile) == referee_histogram(profile)

    def test_four_group_profile_agrees_with_the_oracle(self):
        profile = K10_PROFILES["four groups"]
        assert len(strategy_groups(profile)) == 4
        assert evaluate_collapsed(profile) == evaluate_exhaustive(profile)

    @pytest.mark.parametrize("name", DIVISION_NAMES)
    def test_k13_named_divisions_agree_with_the_oracle(self, name):
        # k = 13 is the oracle's cap: 3^13 transcripts of 4.4 billion inputs.
        profile = StrategyProfile.homogeneous(canonical_division(name), 13)
        exhaustive = evaluate_exhaustive(profile)
        assert exhaustive == evaluate_collapsed(profile)
        if name in K13_DIVISION_VALUES:
            assert exhaustive == K13_DIVISION_VALUES[name]

    @pytest.mark.parametrize("strategy", strategy_orbit_reps(), ids=Strategy.to_string)
    def test_k13_orbit_reps_agree_with_the_oracle(self, strategy):
        # The 22 tables the homogeneous search evaluates.
        profile = StrategyProfile.homogeneous(strategy, 13)
        assert evaluate_exhaustive(profile) == evaluate_collapsed(profile)

    def test_k13_three_group_profile_agrees_with_the_oracle(self):
        profile = profile_from_groups([("021201", 4), ("210012", 4), ("220011", 5)])
        assert len(strategy_groups(profile)) == 3
        exhaustive = evaluate_exhaustive(profile)
        assert exhaustive == evaluate_collapsed(profile)
        assert exhaustive == Fraction(678836, 1990899)

    def test_large_last_group_behind_a_prefix(self):
        # The 60-party group's 1,891 compositions, as the last group, each
        # meet every class of the one-party prefix; the groups are taken by
        # class count, so in reverse order the 60-party group comes last too.
        a, b = Strategy.from_string("021201"), Strategy.from_string("210012")
        forward = StrategyProfile((a,) + (b,) * 60)
        reverse = StrategyProfile((b,) * 60 + (a,))
        assert strategy_groups(forward) == [(a, 1), (b, 60)]
        w = classical._slot_width(strategy_groups(forward))
        assert len(list(classical._group_classes(b.sent, 60, w))) == 1891
        assert evaluate_collapsed(forward) == evaluate_collapsed(reverse)

    def test_collapsed_class_count_guard(self, monkeypatch):
        # The merged classes are counted from each group's shape, and a
        # profile over the cap is refused before any class or ring product
        # is built.
        built = []
        for name in ("_group_classes", "_ring_product"):
            monkeypatch.setattr(classical, name, lambda *args, name=name: built.append(name))
        cases = [
            # 000012 and 001212 each send a cell and its shift by x^e, e != 0
            # (mod 3), so 100 parties keep 3 * 100 classes; 011111 and 022222
            # keep 101.
            ([("000012", 100), ("011111", 100), ("022222", 100), ("001212", 100)],
             300 * 101 * 101 * 300),
            # 000112's cells have three sizes, so none merge: C(3165, 2).
            ([("000112", 3163)], math.comb(3165, 2)),
            # Nor do 000121's: each group of 1,001 alone is within the cap,
            # their product is not.
            ([("000112", 1001), ("000121", 1001)], math.comb(1003, 2) ** 2),
        ]
        assert math.comb(1003, 2) < classical._MAX_CLASSES
        for groups, merged in cases:
            with pytest.raises(ValueError, match=f"profile has {merged} merged transcript classes"):
                evaluate_collapsed(profile_from_groups(groups))
        assert built == []

    def test_class_cap_bounds_the_merged_count(self, monkeypatch):
        # The cap counts merged classes, not transcript classes: this profile
        # has 1,500 transcript classes and scans 90.
        groups = [("010212", 3), ("001221", 3), ("112200", 4)]
        profile = profile_from_groups(groups)
        work = Counter()
        expected = evaluate_collapsed(profile, work)
        assert (work["classes_scanned"], work["transcript_classes"]) == (90, 1500)
        monkeypatch.setattr(classical, "_MAX_CLASSES", 90)
        assert evaluate_collapsed(profile) == expected == evaluate_exhaustive(profile)
        monkeypatch.setattr(classical, "_MAX_CLASSES", 89)
        with pytest.raises(ValueError, match="profile has 90 merged transcript classes"):
            evaluate_collapsed(profile)

    def test_relabeling_each_party_leaves_success_unchanged(self):
        rng = np.random.default_rng(5)
        profile = random_profile(4, rng, n_groups=2)
        baseline = evaluate_exhaustive(profile)
        perms = [tuple(rng.permutation(3)) for _ in range(4)]
        relabeled = StrategyProfile(
            tuple(relabel(s, p) for s, p in zip(profile.strategies, perms))
        )
        assert evaluate_exhaustive(relabeled) == baseline

    @settings(deadline=None, max_examples=25)
    @given(st.lists(st.integers(0, 2), min_size=6, max_size=6))
    def test_success_is_at_least_one_third(self, sent):
        profile = StrategyProfile.homogeneous(Strategy(tuple(sent)), 4)
        value = evaluate_collapsed(profile)
        assert Fraction(1, 3) <= value <= 1

    def test_collapsed_totals_match_admissible_count(self):
        for k in (4, 7):
            profile = StrategyProfile.homogeneous(canonical_division("F"), k)
            total = 0
            for counts in itertools.product(range(k + 1), repeat=2):
                if sum(counts) > k:
                    continue
                cls = (counts[0], counts[1], k - counts[0] - counts[1])
                stats = transcript_class_stats(profile, [cls])
                total += stats.multiplicity * stats.admissible_total
            assert total == grouped_sum(k, 0, 3) * 3**k


# The classical_profiles benchmark profiles, as (strategy, party count) groups.
BENCHMARK_PROFILES = [
    [("021021", 8), ("110202", 8), ("221100", 9)],
    [("010122", 15), ("102120", 16)],
    [("012210", 9), ("201012", 10)],
    [("012012", 3), ("001122", 4)],
    [("021201", 3), ("210012", 3), ("220011", 4)],
]


#: Profiles whose groups leave a cell empty, as (strategy, party count)
#: groups, and the merged classes each scans.  000111 sends 0 and 1, whose
#: cells are no shifts of each other, so a group of n keeps n + 1 classes;
#: 020202's two cells are shifts, x^8 apart, so its classes are those of
#: n_2 mod 3; 001122 sends three shifts of one cell and merges into one
#: class, and 000000 has one composition.
EMPTY_CELL_SCANS = {
    (("000111", 13),): 14,
    (("000111", 4), ("020202", 3)): 5 * 3,
    (("001122", 3), ("000000", 4)): 1 * 1,
}


class TestCountingPrimes:
    @pytest.mark.parametrize("k", [4, 7])
    def test_class_counts_stay_within_the_bound(self, k):
        # Every count is at most the admissible input count N(k) and at most
        # the product of each group's largest cell to the group's size, which
        # is below 2 to the slot width.
        admissible = 3**k * grouped_sum(k, 0, 3)
        profiles = [StrategyProfile.homogeneous(s, k) for s in S3_Z3_REPS]
        if k == 7:
            profiles.append(K7_THREE_GROUPS)
        for profile in profiles:
            groups = strategy_groups(profile)
            bound = math.prod(
                max(s.sent.count(t) for t in range(3)) ** size for s, size in groups
            )
            assert bound < 2 ** classical._slot_width(groups)
            counts = exhaustive_transcript_counts(profile)
            assert counts.max() <= min(bound, admissible)

    def test_a_slot_width_too_small_raises(self, monkeypatch):
        groups = [(canonical_division("F"), 31)]
        expected = full_scan_value(groups, 31)
        assert classical._collapsed_value(groups) == expected
        # At half the width the counts of F at k = 31 carry out of their
        # slots, and the totals no longer add up to the admissible inputs.
        width = classical._slot_width
        monkeypatch.setattr(classical, "_slot_width", lambda groups: width(groups) // 2)
        with pytest.raises(ArithmeticError, match="totals do not match"):
            classical._collapsed_value(groups)

    @pytest.mark.parametrize("k", [13, 31])
    def test_homogeneous_values_match_the_full_scan(self, k):
        values = {}
        for s in S3_Z3_REPS:
            values[s] = evaluate_collapsed(StrategyProfile.homogeneous(s, k))
            assert values[s] == full_scan_value([(s, k)], k), s
        best = max(values, key=values.get)  # the first maximizer
        assert best_homogeneous(k) == (best, values[best])

    @pytest.mark.parametrize("groups", BENCHMARK_PROFILES, ids=lambda g: str(len(g)))
    def test_benchmark_profiles_match_the_full_scan(self, groups):
        profile = profile_from_groups(groups)
        assert evaluate_collapsed(profile) == full_scan_value(strategy_groups(profile), profile.k)

    @pytest.mark.parametrize("groups", list(EMPTY_CELL_SCANS))
    def test_classes_that_send_an_empty_cell_are_skipped(self, groups):
        scanned = EMPTY_CELL_SCANS[groups]
        profile = profile_from_groups(groups)
        groups = strategy_groups(profile)
        # The classes are built on the cells the strategy sends: every
        # vector raised to a power, a cell or the generating polynomial of
        # the multiplicities, is nonzero.
        for s, _ in groups:
            assert all(map(any, classical._group_shape(s.sent)[0]))
        w = classical._slot_width(groups)
        classes = [list(classical._group_classes(s.sent, size, w)) for s, size in groups]
        # A class that sends an empty cell has no consistent input, so its
        # counts would be 0; no scanned class does.
        for pairs in itertools.product(*classes):
            n = functools.reduce(functools.partial(classical._ring_product, w=w),
                                 (u for u, _ in pairs))
            assert any(n >> 3 * g * w & (1 << w) - 1 for g in range(3))
        work = Counter()
        value = evaluate_collapsed(profile, work)
        assert math.prod(map(len, classes)) == work["classes_scanned"] == scanned
        assert work["transcript_classes"] == full_class_count(groups)
        assert work["classes_scanned"] < work["transcript_classes"]
        assert set(work) == {"transcript_classes", "classes_scanned"}
        assert value == full_scan_value(groups, profile.k) == evaluate_exhaustive(profile)


def _cell_residues(strategy: Strategy) -> list[frozenset[int]]:
    """Per sent trit, the residues [x = 0] + 3y of its cell's register values."""
    return [frozenset((x == 0) + 3 * y for y, x in cell) for cell in cells(strategy)]


#: The tables with two nonempty cells whose residue sets are translates of
#: each other in Z9, the ones whose compositions can merge: drawn apart so
#: that merging is exercised, not only the identity.  They include shifts
#: by x^e with e = 0 (mod 3), as in A, and with e != 0, as in 020202.
SHIFTED_TABLES = tuple(
    Strategy(t) for t in itertools.product(range(3), repeat=6)
    if any(a and b and any({(r + e) % 9 for r in a} == b for e in range(9))
           for a, b in itertools.combinations(_cell_residues(Strategy(t)), 2))
)


@st.composite
def merging_profiles(draw):
    """Profiles of 1 to 3 distinct strategies at k <= 31, tables often with shifted cells."""
    k = draw(st.sampled_from(range(4, 32, 3)))
    n_groups = draw(st.integers(1, 3))
    table = st.one_of(st.tuples(*[st.integers(0, 2)] * 6).map(Strategy),
                      st.sampled_from(SHIFTED_TABLES))
    strategies = draw(st.lists(table, min_size=n_groups, max_size=n_groups, unique=True))
    cuts = draw(st.lists(st.integers(1, k - 1), min_size=n_groups - 1,
                         max_size=n_groups - 1, unique=True))
    sizes = [b - a for a, b in itertools.pairwise([0, *sorted(cuts), k])]
    return [(s, size) for s, size in zip(strategies, sizes)]


class TestMergedCompositions:
    @settings(deadline=None, max_examples=50)
    @given(merging_profiles())
    def test_merged_scan_matches_the_full_scan(self, groups):
        k = sum(size for _, size in groups)
        value = classical._collapsed_value(groups)
        assert value == full_scan_value(groups, k)
        if k <= 10:
            profile = StrategyProfile(tuple(s for s, size in groups for _ in range(size)))
            assert value == evaluate_exhaustive(profile)

    def test_class_count_is_what_the_builder_builds(self):
        # The cap's count, read from a table's shape alone, is the number of
        # classes built, for all 729 tables: at the sizes 1 and 2, where the
        # support of q_v^n_v still grows, and past them.  The merged
        # multiplicities still count every transcript once: each party of
        # the group sends one of the trits its strategy sends.
        for sent in itertools.product(range(3), repeat=6):
            for size in (1, 2, 3, 4, 7):
                w = classical._slot_width([(Strategy(sent), size)])
                classes = list(classical._group_classes(sent, size, w))
                assert classical._class_count(sent, size) == len(classes), (sent, size)
                assert sum(m for _, m in classes) == len(set(sent)) ** size, (sent, size)

    def test_division_a_orbit_merges_into_one_class(self):
        # Every table of A's S3 x Z3^2 orbit sends pi(y + d(x)), three
        # shifts of one cell by multiples of x^3, so all compositions of
        # a group of any size give one class, of multiplicity 3^size, whose
        # vector counts the 2^size register values that send its transcript.
        strategies = orbit(canonical_division("A"), PER_BIT_SHIFTS)
        assert len(strategies) == 18
        for size in range(1, 101):
            w = classical._slot_width([(canonical_division("A"), size)])
            for s in strategies:
                [(vector, mult)] = classical._group_classes(s.sent, size, w)
                assert mult == 3**size, (s, size)
                assert vector < 1 << 9 * w, (s, size)
                coefficients = [vector >> i * w & (1 << w) - 1 for i in range(9)]
                assert sum(coefficients) == 2**size, (s, size)

    def test_division_a_classes_take_little_memory(self):
        # One class at any size: no array grows with it.  Each of the 3,002
        # compositions of 3,001 parties would take a packed vector alone.
        a = canonical_division("A")
        w = classical._slot_width([(a, 3001)])
        tracemalloc.start()
        try:
            [(vector, mult)] = classical._group_classes(a.sent, 3001, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20, peak
        assert mult == 3**3001
        # Up to a rotation, the one class counts as the all-zero transcript:
        # C(3001, m) summed over the zero counts m = 3g (mod 9) for value g.
        expected = sorted(grouped_sum(3001, 3 * g, 9) for g in range(3))
        assert sorted(vector >> 3 * g * w & (1 << w) - 1 for g in range(3)) == expected

    def test_the_group_of_most_classes_is_streamed(self):
        # The products of the head groups' classes are held and the last
        # group's classes stream past them, so the group of most merged
        # classes, 000112 at 48 parties with C(50, 2), goes last in either
        # order; the value does not depend on the order.
        groups = [(Strategy.from_string("000112"), 48), (Strategy.from_string("000121"), 1)]
        values = []
        for order in (groups, groups[::-1]):
            tracemalloc.start()
            try:
                values.append(classical._collapsed_value(order))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 0.2 * 2**20, (order, peak)
        assert values[0] == values[1]

    def test_division_a_value_is_the_most_likely_zero_triple_count(self):
        # The referee adds to the trit sum the most likely number of zero
        # triples m / 3 mod 3, m the zero count, given m = 0 (mod 3).
        a = canonical_division("A")
        for k in range(4, 101, 3):
            expected = max(Fraction(grouped_sum(k, 3 * r, 9), grouped_sum(k, 0, 3))
                           for r in range(3))
            work = Counter()
            assert evaluate_collapsed(StrategyProfile.homogeneous(a, k), work) == expected, k
            assert work["classes_scanned"] == 1


class TestTranscriptClassStats:
    def test_ten_player_all_zero_class(self):
        profile = StrategyProfile.homogeneous(canonical_division("A"), 10)
        stats = transcript_class_stats(profile, [(10, 0, 0)])
        assert stats.multiplicity == 1
        assert stats.g_counts == (11, 120, 210)
        assert stats.admissible_total == 341
        assert stats.best_guess == 2

    def test_input_validation(self):
        profile = StrategyProfile.homogeneous(canonical_division("A"), 4)
        with pytest.raises(ValueError, match="group"):
            transcript_class_stats(profile, [(4, 0, 0), (0, 0, 0)])
        with pytest.raises(ValueError, match="partition"):
            transcript_class_stats(profile, [(3, 0, 0)])


class TestWorkedExample:
    def test_complete_report(self):
        report = ten_player_worked_example()
        assert report.k == 10
        assert report.per_m_counts == {9: 10, 6: 210, 3: 120, 0: 1}
        assert report.total == 341
        assert report.majority_count == 210
        assert report.success == Fraction(210, 341)
        assert report.g_label_by_m == {9: 0, 6: 2, 3: 1, 0: 0}
        assert report.g_totals == (11, 120, 210)
        assert report.majority_value == 2
        assert "offset" in report.label_note

    def test_counts_agree_with_the_class_machinery(self):
        report = ten_player_worked_example()
        profile = StrategyProfile.homogeneous(report.strategy, 10)
        stats = transcript_class_stats(profile, [(10, 0, 0)])
        g_totals = [0, 0, 0]
        for m, count in report.per_m_counts.items():
            g_totals[report.g_label_by_m[m]] += count
        assert tuple(g_totals) == stats.g_counts == report.g_totals


class TestBestHomogeneous:
    def test_search_space_has_122_orbits(self):
        reps = {canonical(Strategy(t)) for t in itertools.product(range(3), repeat=6)}
        assert len(reps) == 122
        assert all(s == canonical(s) for s in reps)
        assert set(strategy_orbit_reps()) <= reps

    def test_pinned_values_at_small_k(self):
        for k in (4, 13):
            strategy, value = best_homogeneous(k)
            assert value == BEST_HOMOGENEOUS[k]
            assert strategy.to_string() == "001122"

    def test_max_dominates_named_divisions(self):
        _, value = best_homogeneous(4)
        assert value >= max(K4_DIVISION_VALUES.values())
        # One trit cannot carry both register values, so no strategy
        # pins the global value exactly.
        assert value < 1

    def test_relabeled_argmax_has_identical_value(self):
        strategy, value = best_homogeneous(4)
        shuffled = StrategyProfile.homogeneous(relabel(strategy, (1, 2, 0)), 4)
        assert evaluate_collapsed(shuffled) == value


class TestLargeK:
    def test_trit_reveal_division_at_one_hundred_parties(self):
        value = evaluate_collapsed(
            StrategyProfile.homogeneous(canonical_division("A"), 100)
        )
        pinned = Fraction(
            28255846015701144552011582757, 84510040015215293433113547025
        )
        assert value == pinned
        assert abs(value - Fraction(1, 3)) < Fraction(5, 100)


class TestRandomProfile:
    def test_shapes_and_reproducibility(self):
        a = random_profile(7, np.random.default_rng(1), n_groups=3)
        b = random_profile(7, np.random.default_rng(1), n_groups=3)
        assert a == b
        assert a.k == 7
        assert len(strategy_groups(a)) == 3

    def test_group_count_validated(self):
        with pytest.raises(ValueError):
            random_profile(4, np.random.default_rng(0), n_groups=5)
