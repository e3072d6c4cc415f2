"""Exact counting shared by every layer: the party-count rule and binomial sums.

Everything here is arbitrary-precision integer arithmetic, and nothing is
kept between calls: a residue row is computed afresh from n and p.
"""

from __future__ import annotations

import math


def check_party_count(k: int) -> None:
    """Rejects a party count that is not 4, 7, 10, ... (>= 4 and 1 mod 3)."""
    if k < 4 or k % 3 != 1:
        raise ValueError(f"party count must be >= 4 and 1 mod 3, got {k}")


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


def residue_row(n: int, p: int) -> tuple[int, ...]:
    """Row n of Pascal's triangle by residue class: entry r sums C(n, i) over i = r (mod p).

    The row is (1 + x)^n in Z[x]/(x^p - 1), raised by binary powering (Knuth,
    TAOCP vol. 2, section 4.6.3) on one integer that packs coefficient r in
    bits r*w .. r*w + w - 1, w = n + 1 (Kronecker substitution).  Each
    step squares, multiplies by 1 + x at a one bit of n, and folds slots
    p .. 2p - 1 onto 0 .. p - 1 (x^p = 1).  The coefficients then add up to
    2^e for the exponent e <= n reached so far, so no slot carries into the
    next.
    """
    _check_spec(n, 0, p)
    w = n + 1
    low = (1 << p * w) - 1
    packed = 1
    for bit in bin(n)[2:]:
        packed *= packed
        if bit == "1":
            packed += packed << w
        packed = (packed & low) + (packed >> p * w)
    mask = (1 << w) - 1
    return tuple(packed >> r * w & mask for r in range(p))


def grouped_sum(n: int, q: int, p: int) -> int:
    """Sum of C(n, q+ip) over all i >= 0 with q+ip <= n, exactly.

    A :func:`residue_row` entry less the terms of its class below q.
    """
    _check_spec(n, q, p)
    below = range(q % p, min(q, n + 1), p)
    return residue_row(n, p)[q % p] - sum(math.comb(n, r) for r in below)
