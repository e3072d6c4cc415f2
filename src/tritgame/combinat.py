"""Exact counting shared by every layer: the party-count rule, digit sums, binomial sums.

Everything on the counting path is arbitrary-precision integer arithmetic.
The only non-integer routines are pi and cos(j*pi/p) in decimal
arithmetic, to a stated absolute error, which the classical search turns
into certified integer bounds on its character sums.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from functools import lru_cache

import numpy as np


def check_party_count(k: int) -> None:
    """Rejects a party count that is not 4, 7, 10, ... (>= 4 and 1 mod 3)."""
    if k < 4 or k % 3 != 1:
        raise ValueError(f"party count must be >= 4 and 1 mod 3, got {k}")


def digit_sums(k: int) -> np.ndarray:
    """Digit sum of every length-k base-3 string, in basis order."""
    sums = np.zeros(1, dtype=np.int16)
    step = np.arange(3, dtype=np.int16)
    for _ in range(k):
        sums = (sums[:, None] + step[None, :]).reshape(-1)
    return sums


def _check_spec(n: int, q: int, p: int) -> None:
    if n < 0:
        raise ValueError(f"upper index must be nonnegative, got n={n}")
    if q < 0:
        raise ValueError(f"starting lower index must be nonnegative, got q={q}")
    if p < 1:
        raise ValueError(f"step must be positive, got p={p}")


def binomial(n: int, r: int) -> int:
    """C(n, r) as an exact integer; zero outside 0 <= r <= n."""
    if n < 0:
        raise ValueError(f"upper index must be nonnegative, got n={n}")
    if r < 0 or r > n:
        return 0
    return math.comb(n, r)


#: Per step p, the rows of :func:`residue_row` built so far, row n at index n.
_RESIDUE_ROWS: dict[int, list[tuple[int, ...]]] = {}


def residue_row(n: int, p: int) -> tuple[int, ...]:
    """Row n of Pascal's triangle by residue class: entry r sums C(n, i) over i = r (mod p).

    Rows come from Pascal's rule on residues, row_{n+1}[r] = row_n[r] +
    row_n[r-1 mod p], into one table per p that grows to the largest n asked for.
    """
    rows = _RESIDUE_ROWS.get(p, ())
    if not 0 <= n < len(rows):
        _check_spec(n, 0, p)
        rows = _RESIDUE_ROWS.setdefault(p, [(1,) + (0,) * (p - 1)])
        while len(rows) <= n:
            rows.append(tuple(rows[-1][r] + rows[-1][r - 1] for r in range(p)))
    return rows[n]


def grouped_sum(n: int, q: int, p: int) -> int:
    """Sum of C(n, q+ip) over all i >= 0 with q+ip <= n, exactly.

    A :func:`residue_row` entry less the terms of its class below q.
    """
    _check_spec(n, q, p)
    below = range(q % p, min(q, n + 1), p)
    return residue_row(n, p)[q % p] - sum(math.comb(n, r) for r in below)


@lru_cache(maxsize=64)
def _pi(prec: int) -> Decimal:
    """Pi to ``prec`` significant digits, from Machin's formula."""
    with localcontext() as ctx:
        ctx.prec = prec + 5

        def arctan_inverse(x: int) -> Decimal:
            # arctan(1/x) = sum_m (-1)^m / ((2m+1) x^(2m+1))
            tiny = Decimal(1).scaleb(-ctx.prec)
            total, power, m = Decimal(0), Decimal(1) / x, 0
            while power >= tiny:
                total += power / (2 * m + 1) * (-1) ** m
                power /= x * x
                m += 1
            return total

        value = 4 * (4 * arctan_inverse(5) - arctan_inverse(239))
    with localcontext() as ctx:
        ctx.prec = prec
        return +value


@lru_cache(maxsize=1024)
def _cos_pi_fraction(j: int, p: int, prec: int) -> Decimal:
    """cos(j*pi/p), rounded to ``prec`` digits, with absolute error below 10^-prec.

    Takes 0 <= j < 2p.  The angle is folded into [0, pi/2] by symmetry,
    where the Taylor series converges quickly.
    """
    if j > p:
        j = 2 * p - j  # cos(2pi - x) = cos(x)
    sign = 1
    if 2 * j > p:
        j, sign = p - j, -1  # cos(pi - x) = -cos(x)
    with localcontext() as ctx:
        ctx.prec = prec + 5
        x2 = (_pi(prec + 5) * j / p) ** 2
        # |cos| <= 1, so an absolute cut-off keeps prec + 5 digits after the point.
        tiny = Decimal(1).scaleb(-ctx.prec)
        total, term, m = Decimal(1), Decimal(1), 0
        while abs(term) >= tiny:
            m += 2
            term = -term * x2 / (m * (m - 1))
            total += term
    with localcontext() as ctx:
        ctx.prec = prec
        return +(sign * total)
