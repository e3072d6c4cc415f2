import tracemalloc
from decimal import Decimal

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tritgame.combinat import (
    binomial,
    grouped_sum,
    residue_row,
)

from helpers import ramus


class TestBinomial:
    def test_small_values(self):
        assert binomial(4, 2) == 6
        assert binomial(10, 4) == 210
        assert binomial(10, 7) == 120

    def test_out_of_range_is_zero(self):
        assert binomial(5, -1) == 0
        assert binomial(5, 6) == 0
        assert binomial(0, 0) == 1

    def test_negative_upper_index_rejected(self):
        with pytest.raises(ValueError):
            binomial(-1, 0)

    @given(st.integers(0, 120), st.integers(-5, 125))
    def test_symmetry(self, n, r):
        assert binomial(n, r) == binomial(n, n - r)


class TestGroupedSum:
    def test_examples(self):
        assert grouped_sum(3, 0, 3) == 2  # C(3,0) + C(3,3)
        assert grouped_sum(10, 1, 3) == 341  # C(10,1)+C(10,4)+C(10,7)+C(10,10)
        assert grouped_sum(5, 0, 1) == 32

    def test_table_values_match_the_sum(self):
        direct = sum(binomial(181, r) for r in range(2, 182, 3))
        assert grouped_sum(181, 2, 3) == direct
        assert grouped_sum(181, 2, 3) == direct
        assert grouped_sum(181, 182, 3) == 0  # the whole class lies below q
        for call in [lambda: grouped_sum(700, -1, 3), lambda: grouped_sum(-1, 0, 3),
                     lambda: residue_row(-1, 3), lambda: residue_row(700, 0)]:
            with pytest.raises(ValueError):
                call()

    def test_large_row_keeps_nothing(self):
        # Nothing is kept between calls: after one grouped sum of row 12,000
        # less than 1 MiB is still allocated.  Above about n = 14,000 the
        # closed form's Decimal passes Python's 4,300-digit string limit.
        tracemalloc.start()
        try:
            value = grouped_sum(12000, 0, 3)
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept < 2**20
        assert value == round(ramus(12000, 0, 3))

    def test_empty_progression(self):
        assert grouped_sum(3, 5, 2) == 0

    def test_spec_tuple_unpacks(self):
        spec = (10, 1, 3)  # (n, q, p)
        assert grouped_sum(*spec) == grouped_sum(n=10, q=1, p=3) == 341

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            grouped_sum(3, -1, 2)
        with pytest.raises(ValueError):
            grouped_sum(3, 0, 0)

    @given(st.integers(0, 40), st.integers(1, 9))
    def test_residue_classes_partition_the_row(self, n, p):
        assert sum(grouped_sum(n, q, p) for q in range(p)) == 2**n

    @given(st.integers(0, 60), st.integers(0, 12))
    def test_step_one_is_a_tail_sum(self, n, q):
        assert grouped_sum(n, q, 1) == 2**n - sum(binomial(n, r) for r in range(q))


class TestResidueRow:
    def test_examples(self):
        assert residue_row(0, 3) == (1, 0, 0)
        assert residue_row(4, 3) == (5, 5, 6)  # C(4,0)+C(4,3), C(4,1)+C(4,4), C(4,2)
        assert residue_row(5, 1) == (32,)

    @given(st.integers(0, 400), st.sampled_from([3, 9]))
    def test_row_partitions_two_to_the_n_by_closed_form(self, n, p):
        row = residue_row(n, p)
        assert len(row) == p
        assert sum(row) == 2**n
        assert list(row) == [round(ramus(n, r, p)) for r in range(p)]


class TestRamus:
    def test_examples(self):
        assert ramus(3, 0, 3) == pytest.approx(Decimal(2), abs=Decimal("1e-12"))
        assert ramus(1, 0, 1) == pytest.approx(Decimal(2), abs=Decimal("1e-12"))
        assert ramus(10, 1, 3) == pytest.approx(Decimal(341), abs=Decimal("1e-9"))

    def test_closed_form_matches_direct_sum(self):
        # Full agreement sweep lives in the acceptance suite; spot a grid here.
        for n in (0, 1, 7, 23, 60):
            for p in range(2, 10):
                for q in range(p):
                    exact = grouped_sum(n, q, p)
                    approx = ramus(n, q, p)
                    assert round(approx) == exact
                    assert abs(approx - exact) <= 1e-9 * max(1, exact)

    def test_exact_past_extended_precision(self):
        # Decimal precision grows with n, so rounding stays exact where an
        # 80-bit long double (64-bit mantissa) no longer could.
        for n in (64, 100, 200):
            for p in (2, 3, 7, 9):
                for q in range(p):
                    assert round(ramus(n, q, p)) == grouped_sum(n, q, p)

