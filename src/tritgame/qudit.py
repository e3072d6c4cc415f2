"""Dense state-vector simulation of k qudits (local dimension 2 or 3).

Provides the sum-class superpositions shared by the parties, the cyclic
shift gate, its fractional root obtained through the discrete-Fourier
eigenbasis, :func:`evolve`, the one routine that applies gates to
amplitudes, inverse-CDF sampling of basis indices, and the checks that
a root gate steps sum classes.

Conventions: the first party owns the most significant base-d digit
(:func:`evolve` numbers parties from 0); states are unit vectors
(sum-class states are stored normalized even where they are usually
written as plain ket sums).
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from functools import lru_cache
from typing import Iterable, NamedTuple

import numpy as np

#: Hard cap on dense state size (number of complex amplitudes).
MAX_AMPLITUDES = 2**24

_UNITARY_TOL = 1e-10
_NORM_TOL = 1e-10


def digit_sums(d: int, k: int) -> np.ndarray:
    """Digit sum of every length-k base-d string, in basis order."""
    sums = np.zeros(1, dtype=np.int16)
    step = np.arange(d, dtype=np.int16)
    for _ in range(k):
        sums = (sums[:, None] + step[None, :]).reshape(-1)
    return sums


def _check_unit_norms(norm_sq) -> None:
    """Raises ValueError unless every squared norm given is finite and within 1e-10 of 1.

    A NaN or infinite amplitude makes its state's squared norm NaN or
    infinite, so one pass over the amplitudes checks both.  Comparisons are
    phrased so that NaN fails.
    """
    norm_sq = np.asarray(norm_sq, dtype=float).reshape(-1)
    bad = ~np.isfinite(norm_sq)
    if bad.any():
        raise ValueError(f"amplitudes are not finite: sum |amp|^2 = {float(norm_sq[bad][0])!r}")
    bad = ~(np.abs(norm_sq - 1.0) <= _NORM_TOL)
    if bad.any():
        raise ValueError(f"state is not normalized: sum |amp|^2 = {float(norm_sq[bad][0])!r}")


@dataclass(frozen=True, eq=False)
class QuditState:
    """Unit-norm dense amplitude vector over all k-digit base-d strings.

    The amplitudes are stored read-only.  The constructor copies them, so
    the caller's array can change afterwards; ``_copy=False`` adopts an
    array nobody else holds, such as one :func:`evolve` just built, and
    validates it all the same.  States compare by identity.
    """

    d: int
    k: int
    amplitudes: np.ndarray
    _copy: InitVar[bool] = True

    def __post_init__(self, _copy: bool) -> None:
        if self.d not in (2, 3):
            raise ValueError(f"local dimension must be 2 or 3, got {self.d}")
        if self.k < 1:
            raise ValueError(f"party count must be >= 1, got {self.k}")
        if self.d**self.k > MAX_AMPLITUDES:
            raise ValueError(
                f"state of {self.d}^{self.k} amplitudes exceeds the dense cap {MAX_AMPLITUDES}"
            )
        copy = True if _copy else None  # None: copy only to convert the dtype
        amps = np.array(self.amplitudes, dtype=np.complex128, copy=copy).reshape(-1)
        if amps.size != self.d**self.k:
            raise ValueError(f"expected {self.d**self.k} amplitudes, got {amps.size}")
        _check_unit_norms(np.vdot(amps, amps).real)
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)


@dataclass(frozen=True, eq=False)
class LocalGate:
    """A d x d unitary acting on a single party's qudit; gates compare by identity."""

    d: int
    matrix: np.ndarray
    _lifted: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=np.complex128).copy()
        if m.shape != (self.d, self.d):
            raise ValueError(f"gate must be {self.d}x{self.d}, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("gate entries are not finite")
        dev = np.max(np.abs(m.conj().T @ m - np.eye(self.d)))
        if not dev <= _UNITARY_TOL:
            raise ValueError(f"gate is not unitary: max |M†M - I| = {dev:.3e}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def lifted_transpose(self, block: int) -> np.ndarray:
        """The transpose of gate ⊗ I_block, built once per block and kept.

        Right-multiplying a (rows, d * block) view by it applies the gate to
        the digit just above the last ``block`` basis positions.
        """
        lifted = self._lifted.get(block)
        if lifted is None:
            lifted = np.kron(self.matrix, np.eye(block)).T
            lifted.setflags(write=False)
            self._lifted[block] = lifted
        return lifted


class RootBranch(NamedTuple):
    """Choice of cube roots for the two non-unit eigenvalues of the shift.

    The eigenvalue exp(2*pi*i/3) receives the root exp(2*pi*i*(1+3*r1)/9)
    and its square the root exp(2*pi*i*(2+3*r2)/9); each choice cubes back
    to the original eigenvalue exactly.
    """

    r1: int
    r2: int


def make_sum_class_state(k: int, j: int, d: int = 3) -> QuditState:
    """Uniform superposition over all strings with digit sum = j mod d.

    Each of the d^(k-1) strings in the class carries amplitude
    d**(-(k-1)/2); every other amplitude is zero.  Built once per
    (k, j, d) and shared: the state is frozen and its amplitudes are
    read-only.
    """
    return _sum_class_state(k, j, d)


# Sixteen entries hold every class state one verify_class_stepping() uses.
@lru_cache(maxsize=16)
def _sum_class_state(k: int, j: int, d: int) -> QuditState:
    if d not in (2, 3):
        raise ValueError(f"local dimension must be 2 or 3, got {d}")
    if k < 1:
        raise ValueError(f"party count must be >= 1, got {k}")
    if not 0 <= j < d:
        raise ValueError(f"class label must be in 0..{d - 1}, got {j}")
    if d**k > MAX_AMPLITUDES:
        raise ValueError(f"{d}^{k} amplitudes exceed the dense cap {MAX_AMPLITUDES}")
    mask = digit_sums(d, k) % d == j
    amps = np.zeros(d**k, dtype=np.complex128)
    amps[mask] = d ** (-(k - 1) / 2)
    return QuditState(d, k, amps, _copy=False)


def permutation_gate(d: int) -> LocalGate:
    """Cyclic digit shift: |y> -> |y+1 mod d| (the NOT gate for d=2)."""
    if d not in (2, 3):
        raise ValueError(f"unsupported dimension {d}")
    m = np.zeros((d, d))
    for y in range(d):
        m[(y + 1) % d, y] = 1.0
    return LocalGate(d, m)


def _fourier_basis(d: int) -> np.ndarray:
    a = np.exp(2j * np.pi / d)
    return np.array([[a ** (r * c) for c in range(d)] for r in range(d)])


def root_gate(d: int, branch: RootBranch | None = None) -> LocalGate:
    """A d-th root of the cyclic shift gate.

    Diagonalizes the shift in the discrete-Fourier basis and takes d-th
    roots of the eigenvalues.  For d=3 the two non-unit roots are selected
    by ``branch``; for d=2 the principal square root is returned, which is
    the matrix (1/2) [[1+i, 1-i], [1-i, 1+i]].  Built once per (d, branch)
    and shared, so every caller reuses the gate's lifted matrices.
    """
    return _root_gate(d, branch)


@lru_cache(maxsize=16)
def _root_gate(d: int, branch: RootBranch | None) -> LocalGate:
    if d == 2:
        m = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]])
        return LocalGate(2, m)
    if d != 3:
        raise ValueError(f"unsupported dimension {d}")
    if branch is None:
        raise ValueError("a RootBranch is required for dimension 3")
    if branch.r1 not in (0, 1, 2) or branch.r2 not in (0, 1, 2):
        raise ValueError(f"branch indices must be in 0..2, got {tuple(branch)}")
    s = _fourier_basis(3)
    s_inv = s.conj() / 3.0
    roots = np.diag(
        [
            1.0,
            np.exp(2j * np.pi * (1 + 3 * branch.r1) / 9),
            np.exp(2j * np.pi * (2 + 3 * branch.r2) / 9),
        ]
    )
    return LocalGate(3, s_inv @ roots @ s)


def evolve(
    state: QuditState | np.ndarray, gate: LocalGate, parties: Iterable[int]
) -> QuditState | np.ndarray:
    """The state after ``gate`` acted on each listed party, in the order given.

    ``state`` is a :class:`QuditState`, or a stack of s states of m qudits
    each: an (s, d^m) array of unit rows, d being the gate's dimension.  The
    result is of the same kind.  Parties are numbered from 0, party 0
    owning the most significant digit.  One party loop serves both kinds,
    with a leading stack axis (s = 1 for a single state): party p's gate is
    one matmul on the (s d^p, d, B) view of the amplitudes, B = d^(m-p-1).
    For the last parties, where B < 27, that view would mean thousands of
    tiny products, so the same map is one matmul of the (s d^p, dB) view
    with the transpose of gate ⊗ I_B, which the gate builds once per B and
    keeps.  The result is validated once, at the end: a state is adopted
    without a copy, and every row of a stack is checked for finite
    amplitudes and unit norm.
    """
    d = gate.d
    if isinstance(state, QuditState):
        if state.d != d:
            raise ValueError(f"gate dimension {d} != state dimension {state.d}")
        k = state.k
        amps = state.amplitudes[None]
    else:
        amps = np.asarray(state, dtype=np.complex128)
        k = round(math.log(amps.shape[1], d)) if amps.ndim == 2 and amps.shape[1] > 1 else 0
        if k < 1 or amps.shape[1] != d**k:
            raise ValueError(f"need an (s, {d}^m) stack of states, got shape {amps.shape}")
    s = len(amps)
    for party in parties:
        if not 0 <= party < k:
            raise ValueError(f"party must be in 0..{k - 1}, got {party}")
        block = d ** (k - party - 1)
        if block >= 27:
            amps = np.matmul(gate.matrix, amps.reshape(s * d**party, d, block))
        else:
            amps = amps.reshape(s * d**party, d * block) @ gate.lifted_transpose(block)
    if isinstance(state, QuditState):
        return QuditState(d, k, amps.reshape(-1), _copy=False)
    amps = amps.reshape(s, d**k)
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
    """Best-fit phase and worst amplitude error against class j (digit sum mod d).

    Returns (c, dev) minimizing nothing fancy: c is the overlap with the
    normalized class state, dev the max entrywise deviation of the
    amplitudes from c times the class pattern.  The class state is the
    shared one of :func:`make_sum_class_state`, not rebuilt per call.
    """
    target = make_sum_class_state(state.k, j, state.d).amplitudes
    c = complex(np.vdot(target, state.amplitudes))
    dev = float(np.max(np.abs(state.amplitudes - c * target)))
    return c, dev


@dataclass(frozen=True)
class RootCheck:
    """Result of checking a class-stepping property of a root gate."""

    branch: RootBranch | None
    phase: complex
    max_deviation: float
    ok: bool


def verify_root_branch(branch: RootBranch, tol: float = 1e-10) -> RootCheck:
    """Check that the branch's gate cubes to the shift and steps classes.

    The gate applied at all three parties of a 3-party sum-class state must
    advance the class by one, with a single modulus-1 constant shared by
    all three classes.  Deviations are entrywise maxima.
    """
    gate = root_gate(3, branch)
    shift = permutation_gate(3)
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
    ok = dev <= tol and abs(abs(phase) - 1.0) <= tol
    return RootCheck(branch=branch, phase=phase, max_deviation=dev, ok=ok)


def find_valid_root_branch(tol: float = 1e-10) -> RootBranch:
    """Search all nine cube-root branches for one satisfying the step law.

    Scans in lexicographic order and returns the first branch whose check
    passes; raises LookupError if none does (which would mean the class
    stepping only holds up to per-class phases).
    """
    for r1 in range(3):
        for r2 in range(3):
            branch = RootBranch(r1, r2)
            if verify_root_branch(branch, tol).ok:
                return branch
    raise LookupError("no valid root branch: class stepping fails for all nine branches")


def verify_dim2_swap(tol: float = 1e-10) -> RootCheck:
    """Check the two-party dimension-2 analog of the class-stepping law.

    The principal square root of NOT applied at both parties must take the
    even-parity class (|00>+|11>)/sqrt(2) to a modulus-1 phase times the
    odd-parity class (|01>+|10>)/sqrt(2).
    """
    out = evolve(make_sum_class_state(2, 0, d=2), root_gate(2), range(2))
    c, dev = sum_class_deviation(out, 1)
    ok = dev <= tol and abs(abs(c) - 1.0) <= tol
    return RootCheck(branch=None, phase=c, max_deviation=dev, ok=ok)
