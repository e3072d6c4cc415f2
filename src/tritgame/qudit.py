"""Dense state-vector simulation of k qutrits, k <= DENSE_MAX_K.

Provides the sum-class superpositions shared by the parties, the cyclic
shift gate, its principal cube root obtained through the discrete-Fourier
eigenbasis, :func:`evolve`, the one routine that applies gates to
amplitudes, inverse-CDF sampling of basis indices, and the check that
the root gate steps sum classes.  Every numerical check uses the one
tolerance :data:`TOL`.  The two-qubit analog of the last check
(the qubit protocol of Brukner, Zukowski, Pan and Zeilinger, PRL 92,
127901 (2004)) is one fixed computation on 4-vectors,
:func:`verify_dim2_swap`; nothing else here knows about qubits.

Conventions: the first party owns the most significant base-3 digit
(:func:`evolve` numbers parties from 0); states are unit vectors
(sum-class states are stored normalized even where they are usually
written as plain ket sums).
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from functools import lru_cache
from typing import Iterable

import numpy as np

from .combinat import digit_sums

#: Dense party cap: 3^13 amplitudes is the largest state built.
DENSE_MAX_K = 13

#: Tolerance of every numerical check: unitarity, unit norm and the class-step rule.
TOL = 1e-10


class VerificationError(RuntimeError):
    """A protocol verification check failed."""


def _check_size(k: int) -> None:
    """Rejects a qutrit count below 1 or above DENSE_MAX_K."""
    if k < 1:
        raise ValueError(f"party count must be >= 1, got {k}")
    if k > DENSE_MAX_K:
        raise ValueError(f"state of 3^{k} amplitudes exceeds the dense cap 3^{DENSE_MAX_K}")


def _check_unit_norms(norm_sq) -> None:
    """Raises ValueError unless every squared norm given is finite and within TOL of 1.

    A NaN or infinite amplitude makes its state's squared norm NaN or
    infinite, so one pass over the amplitudes checks both.  Comparisons are
    phrased so that NaN fails.
    """
    norm_sq = np.asarray(norm_sq, dtype=float).reshape(-1)
    bad = ~np.isfinite(norm_sq)
    if bad.any():
        raise ValueError(f"amplitudes are not finite: sum |amp|^2 = {float(norm_sq[bad][0])!r}")
    bad = ~(np.abs(norm_sq - 1.0) <= TOL)
    if bad.any():
        raise ValueError(f"state is not normalized: sum |amp|^2 = {float(norm_sq[bad][0])!r}")


@dataclass(frozen=True, eq=False)
class QuditState:
    """Unit-norm dense amplitude vector over all k-digit base-3 strings.

    The amplitudes are stored read-only.  The constructor copies them, so
    the caller's array can change afterwards; ``_copy=False`` adopts an
    array nobody else holds, such as one :func:`evolve` just built, and
    validates it all the same.  States compare by identity.
    """

    k: int
    amplitudes: np.ndarray
    _copy: InitVar[bool] = True

    def __post_init__(self, _copy: bool) -> None:
        _check_size(self.k)
        copy = True if _copy else None  # None: copy only to convert the dtype
        amps = np.array(self.amplitudes, dtype=np.complex128, copy=copy).reshape(-1)
        if amps.size != 3**self.k:
            raise ValueError(f"expected {3**self.k} amplitudes, got {amps.size}")
        _check_unit_norms(np.vdot(amps, amps).real)
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)


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


# Sixteen entries hold every class state one verify_class_stepping() uses.
@lru_cache(maxsize=16)
def make_sum_class_state(k: int, j: int) -> QuditState:
    """Uniform superposition over all strings with digit sum = j mod 3.

    Each of the 3^(k-1) strings in the class carries amplitude
    3**(-(k-1)/2); every other amplitude is zero.  Built once per (k, j)
    and shared: the state is frozen and its amplitudes are read-only.
    """
    _check_size(k)
    if not 0 <= j < 3:
        raise ValueError(f"class label must be in 0..2, got {j}")
    mask = digit_sums(k) % 3 == j
    amps = np.zeros(3**k, dtype=np.complex128)
    amps[mask] = 3 ** (-(k - 1) / 2)
    return QuditState(k, amps, _copy=False)


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


def evolve(
    state: QuditState | np.ndarray, gate: LocalGate, parties: Iterable[int]
) -> QuditState | np.ndarray:
    """The state after ``gate`` acted on each listed party, in the order given.

    ``state`` is a :class:`QuditState`, or a stack of s states of m qutrits
    each: an (s, 3^m) array of unit rows.  The result is of the same kind.
    Parties are numbered from 0, party 0 owning the most significant
    digit.  One party loop serves both kinds, with a leading stack axis
    (s = 1 for a single state): party p's gate is one matmul on the
    (s 3^p, 3, B) view of the amplitudes, B = 3^(m-p-1).  For the last
    parties, where B < 27, that view would mean thousands of tiny
    products, so the same map is one matmul of the (s 3^p, 3B) view
    with the transpose of gate ⊗ I_B, which the gate builds once per B and
    keeps.  The result is validated once, at the end: a state is adopted
    without a copy, and every row of a stack is checked for finite
    amplitudes and unit norm.
    """
    if isinstance(state, QuditState):
        k = state.k
        amps = state.amplitudes[None]
    else:
        amps = np.asarray(state, dtype=np.complex128)
        k = round(math.log(amps.shape[1], 3)) if amps.ndim == 2 and amps.shape[1] > 1 else 0
        if k < 1 or amps.shape[1] != 3**k:
            raise ValueError(f"need an (s, 3^m) stack of states, got shape {amps.shape}")
    s = len(amps)
    for party in parties:
        if not 0 <= party < k:
            raise ValueError(f"party must be in 0..{k - 1}, got {party}")
        block = 3 ** (k - party - 1)
        if block >= 27:
            amps = np.matmul(gate.matrix, amps.reshape(s * 3**party, 3, block))
        else:
            amps = amps.reshape(s * 3**party, 3 * block) @ gate.lifted_transpose(block)
    if isinstance(state, QuditState):
        return QuditState(k, amps.reshape(-1), _copy=False)
    amps = amps.reshape(s, 3**k)
    _check_unit_norms(np.sum(np.abs(amps) ** 2, axis=1))
    return amps


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


def sum_class_deviation(state: QuditState, j: int) -> tuple[complex, float]:
    """Best-fit phase and worst amplitude error against class j (digit sum mod 3).

    Returns (c, dev) minimizing nothing fancy: c is the overlap with the
    normalized class state, dev the max entrywise deviation of the
    amplitudes from c times the class pattern.  The class state is the
    shared one of :func:`make_sum_class_state`, not rebuilt per call.
    """
    target = make_sum_class_state(state.k, j).amplitudes
    c = complex(np.vdot(target, state.amplitudes))
    dev = float(np.max(np.abs(state.amplitudes - c * target)))
    return c, dev


def class_step_ok(phase: complex, dev: float) -> bool:
    """The pass rule of every class-step check; a NaN deviation or phase fails.

    The worst entrywise deviation and the phase's distance from modulus 1
    must both be within :data:`TOL`.
    """
    return dev <= TOL and abs(abs(phase) - 1.0) <= TOL


@dataclass(frozen=True)
class RootCheck:
    """Result of checking a class-stepping property of a root gate."""

    phase: complex
    max_deviation: float
    ok: bool


def verify_root_gate() -> RootCheck:
    """Check that the root gate cubes to the shift and steps classes.

    The gate applied at all three parties of a 3-party sum-class state must
    advance the class by one, with a single modulus-1 constant shared by
    all three classes.  Deviations are entrywise maxima.
    """
    gate = root_gate()
    shift = permutation_gate()
    cubed = gate.matrix @ gate.matrix @ gate.matrix
    dev = float(np.max(np.abs(cubed - shift.matrix)))

    phase: complex | None = None
    for p in range(3):
        out = evolve(make_sum_class_state(3, p), gate, range(3))
        c, class_dev = sum_class_deviation(out, (p + 1) % 3)
        if phase is None:
            phase = c
        dev = max(dev, class_dev, abs(c - phase))
    assert phase is not None
    return RootCheck(phase, dev, class_step_ok(phase, dev))


#: The two-qubit analog: the principal square root of NOT, and the even- and
#: odd-parity Bell pairs over the basis |00>, |01>, |10>, |11>.  They are
#: tuples: built as numpy arrays at import, they raised the peak RSS of
#: `tritgame classical search` by about 0.4 MB.
_SQRT_NOT = ((0.5 + 0.5j, 0.5 - 0.5j), (0.5 - 0.5j, 0.5 + 0.5j))
_BELL_EVEN = (2**-0.5, 0.0, 0.0, 2**-0.5)
_BELL_ODD = (0.0, 2**-0.5, 2**-0.5, 0.0)


def verify_dim2_swap() -> RootCheck:
    """Check the two-qubit analog of the class-stepping law.

    R = (1/2) [[1+i, 1-i], [1-i, 1+i]], the principal square root of NOT,
    applied at both parties must take the even-parity Bell pair
    (|00>+|11>)/sqrt(2) to a modulus-1 phase times the odd-parity pair
    (|01>+|10>)/sqrt(2).  The evolution is R (x) R applied to the 4-vector.
    """
    odd = np.array(_BELL_ODD)
    out = np.kron(_SQRT_NOT, _SQRT_NOT) @ np.array(_BELL_EVEN)
    c = complex(np.vdot(odd, out))
    dev = float(np.max(np.abs(out - c * odd)))
    return RootCheck(c, dev, class_step_ok(c, dev))
