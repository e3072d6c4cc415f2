"""The entanglement-assisted protocol, end to end.

k parties (k = 4, 7, 10, ...) each hold a register with one trit and one
bit; admissible inputs have a multiple of three zero bits.  The jointly
computed value is the trit sum plus the number of zero-bit triples, mod 3.
Sharing the digit-sum-0 superposition, each zero-bit party applies the
cube root of the cyclic shift; everyone measures and transmits their own
trit plus their measured digit.  The transcript's digit sum is the global
value, on every input and every measurement outcome.

Two interchangeable engines produce runs:

* :func:`run_dense` evolves the full state vector (k <= 13) and samples a
  measurement from it.
* :func:`run_analytic` skips the state entirely and samples the outcome
  string uniformly from the digit-sum class the evolution provably lands
  in.  It is gated on :func:`verify_class_stepping` having passed in this
  process (or on its cached token), so the shortcut never outruns the
  evidence for it.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

from .combinat import binomial, trit_add
from .qudit import (
    QuditState,
    RootBranch,
    RootCheck,
    apply_local,
    digit_string,
    find_valid_root_branch,
    make_sum_class_state,
    root_gate,
    sum_class_deviation,
    verify_dim2_swap,
    verify_root_branch,
)

#: Dense-engine party cap (3^13 amplitudes is the largest evolved state).
DENSE_MAX_K = 13


class VerificationError(RuntimeError):
    """A protocol verification check failed."""


class AnalyticEngineLockedError(RuntimeError):
    """run_analytic called before verify_class_stepping passed (and no token)."""


@dataclass(frozen=True)
class RegisterInput:
    """Distributed inputs: one trit and one bit per party.

    Admissibility requires the number of zero bits to be a multiple of 3;
    the party count must be at least 4 and 1 mod 3.
    """

    trits: tuple[int, ...]
    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        k = len(self.trits)
        if k < 4 or k % 3 != 1:
            raise ValueError(f"party count must be >= 4 and 1 mod 3, got {k}")
        if len(self.bits) != k:
            raise ValueError(f"need {k} bits to match {k} trits, got {len(self.bits)}")
        if any(t not in (0, 1, 2) for t in self.trits):
            raise ValueError(f"trits out of range: {self.trits!r}")
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError(f"bits out of range: {self.bits!r}")
        if self.zero_count % 3 != 0:
            raise ValueError(
                f"inadmissible input: {self.zero_count} zero bits is not a multiple of 3"
            )

    @property
    def k(self) -> int:
        return len(self.trits)

    @property
    def zero_count(self) -> int:
        return sum(1 for b in self.bits if b == 0)


@dataclass(frozen=True)
class ProtocolRun:
    """One execution: measurement outcomes, transmissions, decoded value."""

    input: RegisterInput
    outcomes: tuple[int, ...]
    transmissions: tuple[int, ...]
    decoded: int
    expected: int
    engine: str

    @property
    def ok(self) -> bool:
        return self.decoded == self.expected

    def to_record(self) -> dict:
        return {
            "k": self.input.k,
            "trits": list(self.input.trits),
            "bits": list(self.input.bits),
            "outcomes": list(self.outcomes),
            "transmissions": list(self.transmissions),
            "decoded": self.decoded,
            "expected": self.expected,
            "engine": self.engine,
        }


def zero_triples_mod3(bits: Sequence[int]) -> int:
    """Number of zero-bit triples, mod 3; the class the shared state lands in."""
    zeros = sum(1 for b in bits if b == 0)
    if zeros % 3 != 0:
        raise ValueError(f"inadmissible bit vector: {zeros} zeros is not a multiple of 3")
    return (zeros // 3) % 3


def global_function(reg: RegisterInput) -> int:
    """The value every run must decode: trit sum plus zero-triple count, mod 3."""
    return (sum(reg.trits) + zero_triples_mod3(reg.bits)) % 3


def decode(transmissions: Sequence[int]) -> int:
    """Referee-side decoding: sum of the transmitted trits mod 3."""
    return trit_add(transmissions)


def admissible_bit_vectors(k: int) -> Iterator[tuple[int, ...]]:
    """All bit vectors of length k whose zero count is a multiple of 3."""
    for m in range(0, k + 1, 3):
        for zeros in itertools.combinations(range(k), m):
            bits = [1] * k
            for i in zeros:
                bits[i] = 0
            yield tuple(bits)


def enumerate_admissible(k: int) -> Iterator[RegisterInput]:
    """Every admissible input exactly once (bit vectors outer, trits inner).

    Intended for exhaustive sweeps at k <= 7; the count is the number of
    admissible bit vectors times 3^k.
    """
    if k < 4 or k % 3 != 1:
        raise ValueError(f"party count must be >= 4 and 1 mod 3, got {k}")
    for bits in admissible_bit_vectors(k):
        for trits in itertools.product((0, 1, 2), repeat=k):
            yield RegisterInput(trits, bits)


def _randbelow(rng: np.random.Generator, n: int) -> int:
    """Exactly uniform integer in [0, n), including beyond 64-bit n."""
    if n <= 0:
        raise ValueError(f"need a positive bound, got {n}")
    if n <= 1 << 62:
        return int(rng.integers(0, n))
    nbits = n.bit_length()
    nwords = (nbits + 31) // 32
    while True:
        r = 0
        for w in rng.integers(0, 1 << 32, size=nwords, dtype=np.uint64):
            r = (r << 32) | int(w)
        r &= (1 << nbits) - 1
        if r < n:
            return r


def sample_admissible(k: int, rng: np.random.Generator) -> RegisterInput:
    """Uniform sample from the admissible set, without enumerating it.

    Draws the zero count m with exact weight C(k, m) over m in {0, 3, ...},
    then uniform zero positions and uniform trits.
    """
    if k < 4 or k % 3 != 1:
        raise ValueError(f"party count must be >= 4 and 1 mod 3, got {k}")
    ms = list(range(0, k + 1, 3))
    weights = [binomial(k, m) for m in ms]
    r = _randbelow(rng, sum(weights))
    for m, w in zip(ms, weights):
        if r < w:
            break
        r -= w
    bits = [1] * k
    for i in rng.choice(k, size=m, replace=False):
        bits[int(i)] = 0
    trits = tuple(int(t) for t in rng.integers(0, 3, size=k))
    return RegisterInput(trits, tuple(bits))


# ---------------------------------------------------------------------------
# Dense engine
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def _validated_branch() -> RootBranch:
    return find_valid_root_branch()


def dense_pre_measurement_state(k: int, bits: Sequence[int]) -> QuditState:
    """Shared state after every zero-bit party applied the root gate."""
    if k > DENSE_MAX_K:
        raise ValueError(f"dense engine supports k <= {DENSE_MAX_K}, got {k}")
    gate = root_gate(3, _validated_branch())
    state = make_sum_class_state(k, 0)
    for party, bit in enumerate(bits, start=1):
        if bit == 0:
            state = apply_local(state, gate, party)
    return state


@lru_cache(maxsize=64)
def _dense_cumulative_cached(k: int, bits: tuple[int, ...]) -> np.ndarray:
    cum = np.cumsum(np.abs(dense_pre_measurement_state(k, bits).amplitudes) ** 2)
    cum.setflags(write=False)
    return cum


def _dense_cumulative(k: int, bits: tuple[int, ...]) -> np.ndarray:
    # The evolved distribution depends on the bit vector only, so repeated
    # runs share it; k > 10 states are too large to be worth caching.
    if k <= 10:
        return _dense_cumulative_cached(k, bits)
    return np.cumsum(np.abs(dense_pre_measurement_state(k, bits).amplitudes) ** 2)


def _finish_run(reg: RegisterInput, outcomes: Sequence[int], engine: str) -> ProtocolRun:
    transmissions = tuple((y + x) % 3 for y, x in zip(reg.trits, outcomes))
    return ProtocolRun(
        input=reg,
        outcomes=tuple(outcomes),
        transmissions=transmissions,
        decoded=decode(transmissions),
        expected=global_function(reg),
        engine=engine,
    )


def run_dense(reg: RegisterInput, rng: np.random.Generator) -> ProtocolRun:
    """Full state-vector execution: evolve, measure, transmit, decode."""
    cum = _dense_cumulative(reg.k, reg.bits)
    index = min(int(np.searchsorted(cum, rng.random() * cum[-1], side="right")), cum.size - 1)
    outcomes = tuple(int(c) for c in digit_string(index, 3, reg.k))
    return _finish_run(reg, outcomes, "dense")


# ---------------------------------------------------------------------------
# Analytic engine, gated on verification
# ---------------------------------------------------------------------------

_CERT_VERSION = "v1"
_CERT_KS = (4, 7)
_CERT_TOL = 1e-10
_process_token: str | None = None


def _expected_token() -> str:
    payload = f"tritgame-analytic-certificate:{_CERT_VERSION}:ks={_CERT_KS}:tol={_CERT_TOL}"
    return hashlib.sha256(payload.encode()).hexdigest()[:32]


@dataclass(frozen=True)
class SteppingCertificate:
    """Evidence that the analytic shortcut is sound in this build.

    ``token`` can be cached and handed back to :func:`run_analytic` in a
    later process to skip re-verification.  It is only issued when the
    checked sizes cover the canonical suite (k = 4 and 7); a weaker sweep
    yields a certificate without a token and does not unlock the engine.
    ``sweep_deviations[i]`` is the worst sum-class deviation of an evolved
    state at ``checked_k[i]``; ``max_deviation`` covers every check.
    """

    branch: RootBranch
    root_check: RootCheck
    swap_check: RootCheck
    checked_k: tuple[int, ...]
    sweep_deviations: tuple[float, ...]
    max_deviation: float
    token: str | None


def verify_class_stepping(
    ks: Sequence[int] = _CERT_KS,
    tol: float = _CERT_TOL,
    _perturb: float = 0.0,
) -> SteppingCertificate:
    """Run the full evidence chain for the analytic engine.

    Checks, in order: a root branch exists whose gate cubes to the shift
    and steps 3-party classes with one modulus-1 phase; the dimension-2
    analog swaps the parity classes; and for every admissible bit vector at
    each k in ``ks`` the dense pre-measurement state is exactly the class
    predicted by the zero-triple count.  Raises VerificationError on any
    failure; on success unlocks :func:`run_analytic` for this process and
    returns the certificate.  ``_perturb`` is a debug hook that injects an
    error into the root-gate check.
    """
    branch = find_valid_root_branch(tol)
    root_check = verify_root_branch(branch, tol)
    if _perturb:
        dev = root_check.max_deviation + abs(_perturb)
        root_check = RootCheck(branch, root_check.phase, dev, dev <= tol)
    if not root_check.ok:
        raise VerificationError(
            f"root branch {tuple(branch)} failed: max deviation {root_check.max_deviation:.3e}"
        )
    swap_check = verify_dim2_swap(tol)
    if not swap_check.ok:
        raise VerificationError(
            f"dimension-2 swap check failed: max deviation {swap_check.max_deviation:.3e}"
        )

    sweep_devs = []
    for k in ks:
        if k > DENSE_MAX_K:
            raise ValueError(f"verification needs dense states; k={k} exceeds {DENSE_MAX_K}")
        worst = 0.0
        for bits in admissible_bit_vectors(k):
            state = dense_pre_measurement_state(k, bits)
            expected = zero_triples_mod3(bits)
            phase, dev = sum_class_deviation(state, expected)
            if dev > tol or abs(abs(phase) - 1.0) > tol:
                raise VerificationError(
                    f"evolved state at k={k}, bits={bits} is not class {expected}"
                )
            worst = max(worst, dev)
        sweep_devs.append(worst)

    token = None
    if set(_CERT_KS).issubset(ks) and tol <= _CERT_TOL:
        global _process_token
        token = _expected_token()
        _process_token = token
    return SteppingCertificate(
        branch=branch,
        root_check=root_check,
        swap_check=swap_check,
        checked_k=tuple(ks),
        sweep_deviations=tuple(sweep_devs),
        max_deviation=max(root_check.max_deviation, swap_check.max_deviation, *sweep_devs),
        token=token,
    )


def analytic_token() -> str | None:
    """The token issued by a successful verification in this process."""
    return _process_token


def _reset_verification() -> None:
    # Test hook: relock the analytic engine.
    global _process_token
    _process_token = None


def run_analytic(
    reg: RegisterInput, rng: np.random.Generator, token: str | None = None
) -> ProtocolRun:
    """Execute without state evolution, at any k.

    Samples the outcome string uniformly from the digit-sum class the dense
    evolution lands in (k-1 free digits, last digit forced), which is the
    exact measurement distribution.  Refuses to run unless
    :func:`verify_class_stepping` has passed in this process or ``token``
    carries its cached certificate.
    """
    if token is not None:
        if token != _expected_token():
            raise AnalyticEngineLockedError("supplied verification token is not valid")
    elif _process_token is None:
        raise AnalyticEngineLockedError(
            "analytic engine is locked: run verify_class_stepping() first or supply its token"
        )
    target = zero_triples_mod3(reg.bits)
    head = [int(t) for t in rng.integers(0, 3, size=reg.k - 1)]
    outcomes = head + [(target - sum(head)) % 3]
    return _finish_run(reg, outcomes, "analytic")
