"""Exact binomial machinery: grouped binomial sums and their closed form.

Everything on the counting path is arbitrary-precision integer arithmetic;
the only floating-point routine is :func:`ramus`, the trigonometric closed
form for a grouped sum, which exists as an independent cross-check of the
exact summation.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable, NamedTuple

import numpy as np

# Pi to extended precision; numpy's float64 pi would cap the closed form's
# accuracy below what integer recovery needs at large n.
_PI = np.longdouble("3.14159265358979323846264338327950288419716939937510")


class GroupedSumSpec(NamedTuple):
    """Parameters of the sum C(n,q) + C(n,q+p) + C(n,q+2p) + ...

    ``n`` is the upper index, ``q`` the first lower index, ``p`` the step of
    the arithmetic progression of lower indices.  Terms with q+ip > n are
    zero, so every instance denotes a finite sum.
    """

    n: int
    q: int
    p: int


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


@lru_cache(maxsize=4096)
def grouped_sum(n: int, q: int, p: int) -> int:
    """Sum of C(n, q+ip) over all i >= 0 with q+ip <= n, exactly.

    Memoized: the bound tables ask for the same few hundred sums tens of
    thousands of times.
    """
    _check_spec(n, q, p)
    return sum(math.comb(n, r) for r in range(q, n + 1, p))


def grouped_sum_primed(n: int, q: int, p: int) -> int:
    """Primed variant of :func:`grouped_sum`: defined as 1 whenever n <= 0.

    The unprimed sum would give C(0, 0) = 1 at n = 0 only when q = 0; the
    primed notation pins the value 1 for every q as soon as the upper index
    vanishes (or goes negative, where the unprimed sum is undefined).
    """
    if n <= 0:
        return 1
    return grouped_sum(n, q, p)


def ramus(n: int, q: int, p: int) -> np.longdouble:
    """Closed trigonometric form of :func:`grouped_sum`.

    Evaluates (1/p) * sum_{0<=i<p} (2 cos(i*pi/p))^n * cos(i*(n-2q)*pi/p).
    The arithmetic runs in numpy's extended precision (80-bit on x86):
    grouped sums pass 2^53 near n = 54, where a double could no longer
    round back to the exact integer.  With extended precision, rounding
    recovers the exact sum through n = 60 for every p <= 9 (with margin);
    the pre-rounding relative error stays below 1e-9 throughout.  On
    platforms whose long double is plain double, exactness of the rounding
    degrades to n <= 52.
    """
    _check_spec(n, q, p)
    total = np.longdouble(0)
    for i in range(p):
        base = 2 * np.cos(i * _PI / p)
        total += base**n * np.cos(i * (n - 2 * q) * _PI / p)
    return total / p


def trit_add(values: Iterable[int]) -> int:
    """Sum of trits modulo 3; the empty sum is 0."""
    total = 0
    for v in values:
        if v not in (0, 1, 2):
            raise ValueError(f"trit out of range: {v!r}")
        total += v
    return total % 3
