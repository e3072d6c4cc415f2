"""Upper-bound quotients for the success of repeated classical divisions.

When 3j+1 parties share one division, the probability of any global value
consistent with a transcript is bounded by a ratio of grouped binomial
sums, one family per division type: ``bound_A`` (the trit-revealing
(2,2,2) division), ``bound_F`` ((3,2,1) types), ``bound_L`` and ``bound_N``
((4,1,1) types).  All four converge to 1/3 as j grows, which is the
quantitative content of "the best classical protocol fails".  Every
grouped sum comes from :func:`combinat.residue_row`, a Pascal row summed by
residue class mod 3 or mod 9 and computed afresh as a power of 1 + x, so
any j is cheap and nothing is kept between calls.

Values are exact fractions; floats appear only in table renderings.  The
residue-selection rule ``im_rule`` (how sub-configuration counts attach to
a global value) may be a fixed residue 0, 1, 2 or the default "max", which
takes the largest residue term per summand so the quotient stays an upper
bound under any concrete rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Callable, Iterable, Iterator

from .combinat import binomial, residue_row

ImRule = int | str

_FAMILIES = ("A", "F", "L", "N")


@dataclass(frozen=True)
class BoundRow:
    """One convergence-table entry; ``gap`` renders value - 1/3 as float."""

    family: str
    j: int
    i: int | None
    m: int | None
    a: int | None
    im_rule: ImRule | None
    value: Fraction

    @property
    def gap(self) -> float:
        return float(self.value - Fraction(1, 3))


def _parties(j: int, a: int = 0) -> int:
    """The party count 3j + 1, after checking j and the residue a."""
    if j < 1:
        raise ValueError(f"group parameter j must be >= 1, got {j}")
    if a not in (0, 1, 2):
        raise ValueError(f"residue a must be in 0..2, got {a}")
    return 3 * j + 1


def _picker(im_rule: ImRule) -> Callable[[tuple[int, int, int]], int]:
    """The term a rule takes from three residue terms: the largest for "max", else its own."""
    if im_rule == "max":
        return max
    if im_rule in (0, 1, 2):
        return itemgetter(im_rule)
    raise ValueError(f"im_rule must be 0, 1, 2 or 'max', got {im_rule!r}")


def _every_third_binomial(n: int, a: int) -> Iterator[tuple[int, int]]:
    """(am, C(n, am)) for am = a, a + 3, ... <= n, each binomial from the one before.

    C(n, am + 3) = C(n, am) (n - am)(n - am - 1)(n - am - 2) / ((am + 1)(am + 2)(am + 3)),
    an exact integer division.
    """
    binom = binomial(n, a)
    for am in range(a, n + 1, 3):
        yield am, binom
        binom = binom * (n - am) * (n - am - 1) * (n - am - 2) // ((am + 1) * (am + 2) * (am + 3))


def bound_A(j: int, i: int, m: int) -> Fraction:
    """(2,2,2) family: zero-count classes against all admissible classes.

    Both sums come from the row mod 9; its classes r, r + 3 and r + 6 make
    up class r mod 3.
    """
    n = _parties(j)
    if i not in (0, 1):
        raise ValueError(f"offset i must be 0 or 1, got {i}")
    if m not in (0, 3, 6):
        raise ValueError(f"offset m must be 0, 3 or 6, got {m}")
    row = residue_row(n, 9)
    return Fraction(row[1 + i + m], sum(row[1 + i::3]))


def bound_F(j: int, a: int, im_rule: ImRule = "max") -> Fraction:
    """(3,2,1) family: one three-value cell, residue a from outside parties.

    The residue row of am steps to that of am + 3 by (1 + x)^3 = 2 + 3x + 3x^2
    mod x^3 - 1: row[r] becomes 3 * 2^am - row[r], since the row adds up to 2^am.
    """
    n = _parties(j, a)
    pick = _picker(im_rule)
    numerator = 2 * binomial(n, a)
    denominator = 0
    row = residue_row(a, 3)
    for am, binom in _every_third_binomial(n, a):
        if am > a:
            numerator += binom * pick(row)
        denominator += binom << am
        row = tuple((3 << am) - r for r in row)
    return Fraction(numerator, denominator)


def bound_L(j: int, a: int, im_rule: ImRule = "max") -> Fraction:
    """(4,1,1) family (mixed cell): primed grouped sums on both bit sides.

    Summand am is C(n, am) times an inner sum, the rows of am and n - am
    convolved mod 3: that is the row of n (Vandermonde's identity), or 2^n
    where a side is primed, at am = 0 and am = n (C(n, am) = 1 there).
    The C(n, am) add up to row[a].
    """
    n = _parties(j, a)
    pick = _picker(im_rule)
    row = residue_row(n, 3)
    edges = (a == 0) + (n % 3 == a)
    return Fraction(pick(row) * (row[a] - edges) + (edges << n), row[a] << n)


def bound_N(j: int, a: int) -> Fraction:
    """(4,1,1) family (single-bit cell); exactly 1/3 whenever a >= 1.

    Summand am's numerator power 3^max(am - 1, 0) is 3^am / 3, except
    1 = (3^0 + 2) / 3 at am = 0.
    """
    n = _parties(j, a)
    denominator, power = 0, 3**a  # power = 3^am
    for _, binom in _every_third_binomial(n, a):
        denominator += binom * power
        power *= 27
    return Fraction(denominator + 2 * (a == 0), 3 * denominator)


def convergence_table(
    family: str, j_values: Iterable[int], im_rule: ImRule = "max"
) -> list[BoundRow]:
    """Evaluate a family on its parameter grid for each j.

    The grid is (i, m) for A and the residue a for F, L and N.  Each j
    gives one row per grid point, then a summary row taking the maximum
    over the grid (grid fields None), which is the quantity the per-type
    bound statements refer to.
    """
    if family not in _FAMILIES:
        raise ValueError(f"unknown bound family {family!r}; expected one of {_FAMILIES}")
    rule = im_rule if family in ("F", "L") else None
    rows: list[BoundRow] = []
    for j in sorted(set(j_values)):
        if family == "A":
            grid = [
                BoundRow(family, j, i, m, None, None, bound_A(j, i, m))
                for i in (0, 1)
                for m in (0, 3, 6)
            ]
        elif family == "N":
            grid = [BoundRow(family, j, None, None, a, None, bound_N(j, a)) for a in (0, 1, 2)]
        else:
            bound = bound_F if family == "F" else bound_L
            grid = [BoundRow(family, j, None, None, a, rule, bound(j, a, rule)) for a in (0, 1, 2)]
        rows += grid
        rows.append(BoundRow(family, j, None, None, None, rule, max(r.value for r in grid)))
    return rows
