import numpy as np
import pytest

from tritgame import qudit
from tritgame.protocol import dense_pre_measurement_state
from tritgame.qudit import inverse_cdf


@pytest.fixture
def failed_root_check(monkeypatch):
    """Makes the root gate fail its exact check: the term zeta^7 X of 3G moved to zeta^8 X."""
    p, root, power, target = qudit._ROOT_CUBE
    moved = {key: c for key, c in root.items() if key != (7, 1)} | {(8, 1): 1}
    monkeypatch.setattr(qudit, "_ROOT_CUBE", (p, moved, power, target))


@pytest.fixture(scope="session")
def per_vector_outcomes():
    """Dense outcomes from the full CDF of every fully evolved vector, as a reference.

    Returns a function of an (n, k) bit array and n uniforms that evolves
    every distinct bit vector from the class-0 state in one call each, with
    no half split, and measures row i with uniform i by inverse CDF over
    all 3^k amplitudes.  It returns the int8 outcomes and the
    number of distinct vectors.
    """
    def outcomes(bits, uniforms):
        k = bits.shape[1]
        cumulative = {}
        index = np.empty(len(bits), dtype=np.int64)
        for i, row in enumerate(bits.tolist()):
            if tuple(row) not in cumulative:
                amps = dense_pre_measurement_state(k, row).amplitudes
                cumulative[tuple(row)] = np.cumsum(np.abs(amps) ** 2)
            index[i] = inverse_cdf(cumulative[tuple(row)], uniforms[i])
        digits = index[:, None] // 3 ** np.arange(k - 1, -1, -1) % 3
        return digits.astype(np.int8), len(cumulative)

    return outcomes
