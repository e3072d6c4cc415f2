"""Dense state-vector simulation of k qutrits, k <= DENSE_MAX_K.

Provides the sum-class superpositions shared by the parties, built from
the digit sums of the basis strings (:func:`digit_sums`), the cyclic
shift gate, its principal cube root obtained through the discrete-Fourier
eigenbasis, :func:`evolve`, the one routine that applies gates to
amplitudes, inverse-CDF sampling of basis indices, and the exact
certificate that the root gate steps sum classes.  Every numerical check
uses the one tolerance :data:`TOL`.  The certificate's qubit analog (the
protocol of Brukner, Zukowski, Pan and Zeilinger, PRL 92, 127901 (2004))
is one fixed identity, :func:`verify_dim2_swap`; nothing else here knows
about qubits.

Conventions: a state of m qutrits is a complex (3^m,) array of unit
norm, and a stack of s states an (s, 3^m) array of unit rows; the first
party owns the most significant base-3 digit (:func:`evolve` numbers
parties from 0); sum-class states are stored normalized even where they
are usually written as plain ket sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable

import numpy as np

#: Dense party cap: 3^13 amplitudes is the largest state built.
DENSE_MAX_K = 13

#: Tolerance of every numerical check: unitarity, unit norm, the class step and the float gate.
TOL = 1e-10


class VerificationError(RuntimeError):
    """A protocol verification check failed."""


def _check_size(k: int) -> None:
    """Rejects a qutrit count below 1 or above DENSE_MAX_K."""
    if k < 1:
        raise ValueError(f"party count must be >= 1, got {k}")
    if k > DENSE_MAX_K:
        raise ValueError(f"state of 3^{k} amplitudes exceeds the dense cap 3^{DENSE_MAX_K}")


def _qutrit_count(length: int) -> int:
    """The m of a state of 3^m amplitudes; rejects any other length and m above DENSE_MAX_K."""
    m = round(math.log(length, 3)) if length > 1 else 0
    if m < 1 or length != 3**m:
        raise ValueError(f"a state needs 3^m amplitudes, m >= 1, got {length}")
    _check_size(m)
    return m


@dataclass(frozen=True, eq=False)
class LocalGate:
    """A 3 x 3 unitary acting on a single party's qutrit; gates compare by identity."""

    matrix: np.ndarray
    _lifted: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=np.complex128).copy()
        if m.shape != (3, 3):
            raise ValueError(f"gate must be 3x3, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("gate entries are not finite")
        dev = np.max(np.abs(m.conj().T @ m - np.eye(3)))
        if not dev <= TOL:
            raise ValueError(f"gate is not unitary: max |M†M - I| = {dev:.3e}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def lifted_transpose(self, block: int) -> np.ndarray:
        """The transpose of gate ⊗ I_block, built once per block and kept.

        Right-multiplying a (rows, 3 * block) view by it applies the gate to
        the digit just above the last ``block`` basis positions.
        """
        lifted = self._lifted.get(block)
        if lifted is None:
            lifted = np.kron(self.matrix, np.eye(block)).T
            lifted.setflags(write=False)
            self._lifted[block] = lifted
        return lifted


def digit_sums(k: int) -> np.ndarray:
    """Digit sum of every length-k base-3 string, in basis order."""
    sums = np.zeros(1, dtype=np.int16)
    step = np.arange(3, dtype=np.int16)
    for _ in range(k):
        sums = (sums[:, None] + step[None, :]).reshape(-1)
    return sums


# Sixteen entries hold every class state the dense sweep and engine use.
@lru_cache(maxsize=16)
def make_sum_class_state(k: int, j: int) -> np.ndarray:
    """Uniform superposition over all strings with digit sum = j mod 3.

    Each of the 3^(k-1) strings in the class carries amplitude
    3**(-(k-1)/2); every other amplitude is zero.  Built once per (k, j)
    and shared, so the array is read-only.
    """
    _check_size(k)
    if not 0 <= j < 3:
        raise ValueError(f"class label must be in 0..2, got {j}")
    mask = digit_sums(k) % 3 == j
    amps = np.zeros(3**k, dtype=np.complex128)
    amps[mask] = 3 ** (-(k - 1) / 2)
    amps.setflags(write=False)
    return amps


def permutation_gate() -> LocalGate:
    """Cyclic digit shift: |y> -> |y+1 mod 3>."""
    return LocalGate(np.roll(np.eye(3), 1, axis=0))


@lru_cache(maxsize=1)
def root_gate() -> LocalGate:
    """The principal cube root of the cyclic shift gate.

    Diagonalizes the shift in the discrete-Fourier basis and takes the
    principal cube roots of its eigenvalues 1, exp(2*pi*i/3) and
    exp(4*pi*i/3).  Any other choice of roots gives the same protocol: the
    m = 3n gates multiply each Fourier component of the shared state by
    the m-th power of its root, which is the n-th power of the shift's
    eigenvalue for every choice.  Built once and shared, so every caller
    reuses the gate's lifted matrices.
    """
    w = np.exp(2j * np.pi / 3)
    s = np.array([[w ** (r * c) for c in range(3)] for r in range(3)])
    s_inv = s.conj() / 3.0
    roots = np.diag([1.0, np.exp(2j * np.pi / 9), np.exp(4j * np.pi / 9)])
    return LocalGate(s_inv @ roots @ s)


def evolve(state: np.ndarray, gate: LocalGate, parties: Iterable[int]) -> np.ndarray:
    """The state after ``gate`` acted on each listed party, in the order given.

    ``state`` is one state of m qutrits, a (3^m,) array, or a stack of s
    of them, an (s, 3^m) array; the result has the same shape.  Parties
    are numbered from 0, party 0 owning the most significant digit.  The
    party loop works on s rows (s = 1 for one state): party p's gate is
    one matmul on the (s 3^p, 3, B) view of the amplitudes,
    B = 3^(m-p-1).  For the last parties, where B < 27, that view would
    mean thousands of tiny products, so the same map is one matmul of the
    (s 3^p, 3B) view with the transpose of gate ⊗ I_B, which the gate
    builds once per B and keeps.  The result is validated once, at the
    end: every row must have finite amplitudes and unit norm.
    """
    amps = np.ascontiguousarray(state, dtype=np.complex128)
    if amps.ndim > 2:
        raise ValueError(f"need a (3^m,) state or an (s, 3^m) stack, got shape {amps.shape}")
    k = _qutrit_count(amps.shape[-1])
    rows = amps.reshape(-1, 3**k)
    s = len(rows)
    for party in parties:
        if not 0 <= party < k:
            raise ValueError(f"party must be in 0..{k - 1}, got {party}")
        block = 3 ** (k - party - 1)
        if block >= 27:
            rows = np.matmul(gate.matrix, rows.reshape(s * 3**party, 3, block))
        else:
            rows = rows.reshape(s * 3**party, 3 * block) @ gate.lifted_transpose(block)
    # Each row's squared norm is one float dot product on the real view of
    # its amplitudes.  A NaN or infinite amplitude makes it NaN or infinite,
    # so this one pass checks both; the comparisons are phrased so NaN fails.
    parts = rows.reshape(s, 3**k).view(np.float64)
    norm_sq = (parts[:, None, :] @ parts[:, :, None]).reshape(-1)
    bad = ~np.isfinite(norm_sq)
    if bad.any():
        raise ValueError(f"amplitudes are not finite: sum |amp|^2 = {float(norm_sq[bad][0])!r}")
    bad = ~(np.abs(norm_sq - 1.0) <= TOL)
    if bad.any():
        raise ValueError(f"state is not normalized: sum |amp|^2 = {float(norm_sq[bad][0])!r}")
    return rows.reshape(amps.shape)


def inverse_cdf(cumulative: np.ndarray, uniforms) -> np.ndarray:
    """Basis indices drawn by inverse CDF, one per uniform in [0, 1).

    ``cumulative`` is the running sum of the outcome probabilities: one
    distribution for every uniform (1-D), or one per uniform (2-D, row i
    for uniform i).  Each index is the first whose cumulative value exceeds
    ``u`` times the total, so an outcome of probability zero is never
    drawn.  A uniform at or past 1 (a rounded one) is clipped to the last
    index of positive probability, where the running sum first reaches its
    total, not to the last index.
    """
    cumulative = np.asarray(cumulative)
    targets = np.asarray(uniforms) * cumulative[..., -1]
    if cumulative.ndim == 1:
        index = np.searchsorted(cumulative, targets, side="right")
    else:
        index = np.count_nonzero(cumulative <= targets[:, None], axis=1)
    last = np.count_nonzero(cumulative < cumulative[..., -1:], axis=-1)
    return np.minimum(index, last)


def sum_class_deviation(state: np.ndarray, j: int) -> tuple[complex, float]:
    """The overlap c of a (3^m,) state with class j (digit sum mod 3), and its error.

    c = <class j | state> is the state's component along the normalized
    class state, so a unit state has |c| = 1 exactly when it is that class
    state times the phase c.  dev = max_i |state_i - c class_i| is the
    largest entrywise distance of the state from that multiple.  The class state
    is the shared one of :func:`make_sum_class_state`, not rebuilt per call.
    """
    target = make_sum_class_state(_qutrit_count(len(state)), j)
    c = complex(np.vdot(target, state))
    dev = float(np.max(np.abs(state - c * target)))
    return c, dev


def _times(a: dict, b: dict, p: int) -> dict:
    """The product in Z[Z_(p^2) x Z_p]: key (e, t) holds the coefficient of zeta^e X^t."""
    product: dict = {}
    for (e, t), c in a.items():
        for (f, u), d in b.items():
            key = ((e + f) % p**2, (t + u) % p)
            product[key] = product.get(key, 0) + c * d
    return product


def _vanishes(a: dict, p: int) -> bool:
    """Whether ``a`` is zero once zeta is a primitive p^2-th root of unity.

    Exactly the multiples of Phi_(p^2) = sum_(i<p) x^(ip) vanish at zeta:
    the elements whose coefficients are constant on each coset e + pZ.
    """
    return all(c == a.get(((e + p) % p**2, t), 0) for (e, t), c in a.items())


def _holds(identity: tuple) -> bool:
    """Whether root^power == target in Z[zeta][X], for identity = (p, root, power, target)."""
    p, root, power, target = identity
    value = root
    for _ in range(power - 1):
        value = _times(value, root, p)
    return _vanishes({key: value.get(key, 0) - target.get(key, 0) for key in value | target}, p)


#: (3G)^3 = 27X, zeta = exp(2 pi i / 9): G = S^-1 diag(1, zeta, zeta^2) S with
#: S the Fourier matrix is the circulant 3G = sum_(r,t) zeta^(r - 3rt) X^t.
_ROOT_CUBE = (3, {((r - 3 * r * t) % 9, t): 1 for r in range(3) for t in range(3)},
              3, {(0, 1): 27})
#: (2R)^2 = 4 NOT, i = zeta_4: 2R = (1 + i) + (1 - i) NOT = [[1+i, 1-i], [1-i, 1+i]].
_SQRT_NOT_SQUARE = (2, {(0, 0): 1, (1, 0): 1, (0, 1): 1, (3, 1): 1}, 2, {(0, 1): 4})


def verify_root_gate() -> float:
    """Certify (3G)^3 = 27X by integer equality, and tie the float gate to G.

    G is a polynomial in the shift X, so it is diagonal in X's Fourier
    eigenbasis f_a, where the identity makes its eigenvalues cube to X's.
    Class states are sums of the f_a^(x)k, so m = 3n gates take class 0 to
    class n at every k.  Returns the distance of :func:`root_gate`, the
    dense engine's float gate, from G; raises VerificationError if the
    identity fails or that distance exceeds :data:`TOL` (or is NaN).
    """
    if not _holds(_ROOT_CUBE):
        raise VerificationError("root gate failed: (3G)^3 != 27X in Z[zeta_9][X]")
    zeta, shift = np.exp(2j * np.pi / 9), permutation_gate().matrix
    exact = sum(c * zeta**e * np.linalg.matrix_power(shift, t)
                for (e, t), c in _ROOT_CUBE[1].items()) / 3
    deviation = float(np.max(np.abs(root_gate().matrix - exact)))
    if not deviation <= TOL:
        raise VerificationError(f"root gate failed: the float gate deviates by {deviation:.3e}")
    return deviation


def verify_dim2_swap() -> None:
    """Certify (2R)^2 = 4 NOT by integer equality, R the principal root of NOT.

    As in :func:`verify_root_gate`, R (x) R then takes the even-parity Bell
    pair (|00>+|11>)/sqrt(2) to NOT (x) I of it, the odd-parity pair.
    """
    if not _holds(_SQRT_NOT_SQUARE):
        raise VerificationError("dimension-2 swap check failed: (2R)^2 != 4 NOT in Z[i][NOT]")
