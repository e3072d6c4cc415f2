from fractions import Fraction

import pytest

from tritgame.bounds import (
    BoundRow,
    bound_A,
    bound_F,
    bound_L,
    bound_N,
    convergence_table,
)
from tritgame.combinat import grouped_sum

from helpers import reference_bound

THIRD = Fraction(1, 3)


class TestBoundA:
    def test_smallest_group(self):
        # (4; 1 step 9) / (4; 1 step 3) = C(4,1) / (C(4,1) + C(4,4)).
        assert bound_A(1, 0, 0) == Fraction(4, 5)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            bound_A(0, 0, 0)
        with pytest.raises(ValueError):
            bound_A(1, 2, 0)
        with pytest.raises(ValueError):
            bound_A(1, 0, 4)

    def test_close_to_one_third_at_large_group(self):
        for i in (0, 1):
            for m in (0, 3, 6):
                assert abs(bound_A(60, i, m) - THIRD) < Fraction(1, 1000)

    def test_gap_strictly_decreasing_in_j(self):
        # The closed form's error term oscillates, so per-point gaps are
        # only monotone from j=20 on; the headline maximum (the quantity
        # the per-type bound statement uses) decreases from j=5 already.
        for i in (0, 1):
            for m in (0, 3, 6):
                gaps = [abs(bound_A(j, i, m) - THIRD) for j in (20, 40, 60)]
                assert all(a > b for a, b in zip(gaps, gaps[1:]))
        headline = [
            max(bound_A(j, i, m) for i in (0, 1) for m in (0, 3, 6)) - THIRD
            for j in (5, 10, 20, 40, 60)
        ]
        assert all(a > b for a, b in zip(headline, headline[1:]))


class TestBoundF:
    def test_hand_expanded_smallest_group(self):
        # n=4, a=0, rule 0: numerator 2*C(4,0) + C(4,3)*(C(3,0)+C(3,3)) = 10,
        # denominator C(4,0) + C(4,3)*2^3 = 33.
        assert bound_F(1, 0, 0) == Fraction(10, 33)
        assert bound_F(1, 0, "max") == Fraction(14, 33)

    def test_inner_ratio_converges_by_closed_form(self):
        for q in (0, 1, 2):
            ratio = Fraction(grouped_sum(40, q, 3), 2**40)
            assert abs(ratio - THIRD) <= Fraction(1, 10**9)

    def test_close_to_one_third_at_large_group(self):
        for a in (0, 1, 2):
            assert abs(bound_F(60, a, "max") - THIRD) < Fraction(1, 100)

    def test_im_rule_validated(self):
        with pytest.raises(ValueError, match="im_rule"):
            bound_F(1, 0, 5)

    def test_im_rule_checked_where_no_residue_term_enters(self):
        # At j=1, a=2 the only summand is m=0, which carries no residue
        # term; the rule is still checked.
        assert bound_F(1, 2, 0) == Fraction(1, 2)
        for j, a in [(1, 2), (5, 0)]:
            with pytest.raises(ValueError, match="im_rule"):
                bound_F(j, a, "bogus")
        with pytest.raises(ValueError, match="im_rule"):
            bound_L(1, 2, "bogus")


class TestParameterChecks:
    def test_group_and_residue_validated_in_every_family(self):
        for bound in (bound_F, bound_L, bound_N):
            with pytest.raises(ValueError, match="group parameter"):
                bound(0, 0)
            for a in (-1, 3):
                with pytest.raises(ValueError, match="residue"):
                    bound(1, a)


class TestBoundL:
    def test_hand_expanded_smallest_group(self):
        # n=4, a=0, rule 0: m=0 inner 16, m=3 inner 5; numerator 36,
        # denominator (C(4,0)+C(4,3))*2^4 = 80.
        assert bound_L(1, 0, 0) == Fraction(9, 20)
        assert bound_L(1, 0, "max") == Fraction(1, 2)

    def test_inner_sum_is_a_third_of_subconfigurations_at_large_m(self):
        # Each of the three (b, c) products is ~ 2^n/9; their sum ~ 2^n/3.
        j, a = 60, 0
        n = 3 * j + 1
        am = 90
        inner = sum(
            grouped_sum(am, b, 3) * grouped_sum(n - am, c, 3)
            for b in (0, 1, 2)
            for c in (0, 1, 2)
            if (b + c) % 3 == 0
        )
        assert abs(Fraction(inner, 2**n) - THIRD) < Fraction(1, 100) * THIRD

    def test_close_to_one_third_at_large_group(self):
        for a in (0, 1, 2):
            assert abs(bound_L(60, a, "max") - THIRD) < Fraction(1, 100)


class TestBoundN:
    def test_hand_computed_smallest_group(self):
        # a=1: numerator C(4,1) + C(4,4)*27 = 31, denominator 12 + 81 = 93.
        assert bound_N(1, 1) == Fraction(31, 93)
        assert bound_N(1, 1) == THIRD

    def test_exactly_one_third_for_positive_residue(self):
        for j in (1, 2, 5, 20, 60):
            for a in (1, 2):
                assert bound_N(j, a) == THIRD

    def test_zero_residue_correction_vanishes(self):
        assert bound_N(1, 0) == Fraction(37, 109)
        assert abs(bound_N(60, 0) - THIRD) < Fraction(1, 10**6)


class TestConvergenceTable:
    def test_family_a_grid_and_headline(self):
        rows = convergence_table("A", [5, 60])
        per_j = 2 * 3 + 1
        assert len(rows) == 2 * per_j
        headline = [r for r in rows if r.i is None]
        assert [r.j for r in headline] == [5, 60]
        for j in (5, 60):
            grid_max = max(r.value for r in rows if r.j == j and r.i is not None)
            head = next(r.value for r in headline if r.j == j)
            assert head == grid_max

    def test_family_n_constant_column(self):
        rows = convergence_table("N", [1, 10, 60])
        assert len(rows) == 3 * 4
        assert all(r.value == THIRD for r in rows if r.a in (1, 2))

    def test_values_in_unit_interval(self):
        # At j=1 the A-family m=6 progression is empty and the quotient is
        # exactly 0; everywhere else the values are strictly positive.
        for family in ("A", "F", "L", "N"):
            for row in convergence_table(family, [1, 5, 20]):
                assert 0 <= row.value <= 1
                if row.j >= 2:
                    assert row.value > 0

    def test_gap_field(self):
        row = BoundRow("A", 1, 0, 0, None, None, Fraction(4, 5))
        assert row.gap == pytest.approx(float(Fraction(4, 5) - THIRD))

    def test_dispatch_and_errors(self):
        a_row = convergence_table("A", [1])[0]
        assert (a_row.i, a_row.m, a_row.value) == (0, 0, Fraction(4, 5))
        n_row = convergence_table("N", [1])[1]
        assert (n_row.a, n_row.value) == (1, THIRD)
        for family in ("Z", "Q"):
            with pytest.raises(ValueError, match="family"):
                convergence_table(family, [1])


class TestDifferential:
    """Every family at every grid point and rule against the term-by-term reference."""

    J_VALUES = [*range(1, 61), 120]

    @pytest.mark.parametrize("family", ["F", "L"])
    def test_rule_families(self, family):
        bound = bound_F if family == "F" else bound_L
        for j in self.J_VALUES:
            for a in (0, 1, 2):
                for rule in ("max", 0, 1, 2):
                    assert bound(j, a, rule) == reference_bound(family, j, a, rule), (j, a, rule)

    def test_family_a(self):
        for j in self.J_VALUES:
            for i in (0, 1):
                for m in (0, 3, 6):
                    assert bound_A(j, i, m) == reference_bound("A", j, (i, m)), (j, i, m)

    def test_family_n(self):
        for j in self.J_VALUES:
            for a in (0, 1, 2):
                assert bound_N(j, a) == reference_bound("N", j, a), (j, a)
