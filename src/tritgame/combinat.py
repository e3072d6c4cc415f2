"""Exact counting shared by every layer: the party-count rule and binomial sums.

Everything here is arbitrary-precision integer arithmetic.
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
