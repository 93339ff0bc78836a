"""Dense statevector engine: Pauli application and expectations. Of the
commands only `sample` builds statevectors, for its frames; the tests
keep them as the oracle of the exact engine in `codes`.

States are immutable complex128 vectors over the computational basis.
Qubit 0 is the most significant bit of the basis label, matching the
letter order of PauliString.
"""

from __future__ import annotations

import functools
from typing import Iterable, Sequence

import numpy as np

from netbell.pauli import PauliString

STATE_QUBIT_CAP = 20
NORM_TOL = 1e-12
IMAG_TOL = 1e-10


def make_rng(seed: int | None) -> np.random.Generator:
    """Seeded generator; the seed is echoed in every sampling report."""
    if seed is not None and seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    return np.random.default_rng(seed)


def _parity(values: np.ndarray) -> np.ndarray:
    """Bitwise popcount parity of each entry, as int64 (values below 2**63)."""
    v = values.astype(np.int64, copy=True)
    for shift in (32, 16, 8, 4, 2, 1):
        v ^= v >> shift
    return v & 1


class StateVector:
    """Normalized pure state on n qubits."""

    __slots__ = ("_amps", "_n")

    def __init__(self, amplitudes: np.ndarray | Sequence[complex]):
        amps = np.asarray(amplitudes, dtype=complex)
        if amps.ndim != 1 or amps.shape[0] < 2 or (amps.shape[0] & (amps.shape[0] - 1)):
            raise ValueError(f"amplitude count {amps.shape} is not a power of two >= 2")
        n = int(amps.shape[0]).bit_length() - 1
        if n > STATE_QUBIT_CAP:
            raise ValueError(f"{n} qubits exceeds the cap of {STATE_QUBIT_CAP}")
        norm = float(np.linalg.norm(amps))
        if not abs(norm - 1.0) <= NORM_TOL:
            raise ValueError(f"state norm {norm!r} is not 1 within {NORM_TOL}")
        amps = amps.copy()
        amps.setflags(write=False)
        self._amps = amps
        self._n = n

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def from_unnormalized(cls, amplitudes: np.ndarray | Sequence[complex]) -> "StateVector":
        amps = np.asarray(amplitudes, dtype=complex)
        norm = float(np.linalg.norm(amps))
        if norm < NORM_TOL:
            raise ValueError("cannot normalize a (near-)zero vector")
        return cls(amps / norm)

    @classmethod
    def basis(cls, n: int, label: int | str | Sequence[int]) -> "StateVector":
        """Computational basis state; label as index, bit string, or bit list.
        The qubit cap is checked before the 2^n amplitudes are allocated."""
        if n > STATE_QUBIT_CAP:
            raise ValueError(f"{n} qubits exceeds the cap of {STATE_QUBIT_CAP}")
        if isinstance(label, str):
            index = int(label, 2)
        elif isinstance(label, int):
            index = label
        else:
            index = 0
            for bit in label:
                index = (index << 1) | int(bit)
        dim = 1 << n
        if not 0 <= index < dim:
            raise ValueError(f"basis label {label!r} out of range for {n} qubits")
        amps = np.zeros(dim, dtype=complex)
        amps[index] = 1.0
        return cls(amps)

    # ------------------------------------------------------------------
    # accessors

    @property
    def n(self) -> int:
        return self._n

    @property
    def amplitudes(self) -> np.ndarray:
        """Read-only amplitude array."""
        return self._amps

    def inner(self, other: "StateVector") -> complex:
        """<self|other>."""
        if self._n != other._n:
            raise ValueError("qubit count mismatch in inner product")
        return complex(np.vdot(self._amps, other._amps))

    def with_canonical_phase(self) -> "StateVector":
        """Rotate the global phase so the first nonzero amplitude is real positive."""
        for a in self._amps:
            if abs(a) > NORM_TOL:
                return StateVector(self._amps * (abs(a) / a))
        raise ValueError("zero state has no canonical phase")

    # ------------------------------------------------------------------
    # operator action

    def apply(self, p: PauliString) -> "StateVector":
        """Exact action of a phased Pauli string, including its phase."""
        if p.n != self._n:
            raise ValueError(f"operator on {p.n} qubits applied to {self._n}-qubit state")
        n = self._n
        # The string's masks are the basis-index bit-flip and sign masks,
        # since qubit j is bit (n-1-j) of both.
        xmask, zmask = p.x, p.z
        phase = (1j) ** ((p.phase_exponent + (xmask & zmask).bit_count()) % 4)
        idx = np.arange(1 << n)
        signs = 1.0 - 2.0 * _parity(idx & zmask)
        out = np.empty(1 << n, dtype=complex)
        out[idx ^ xmask] = phase * signs * self._amps
        return StateVector(out)

    def expectation(self, p: PauliString) -> float:
        """<psi|P|psi> for a hermitian string; the tiny imaginary residue is
        checked below 1e-10 and discarded."""
        if not p.is_hermitian():
            raise ValueError(f"expectation of non-hermitian operator {p}")
        value = self.inner(self.apply(p))
        if not abs(value.imag) < IMAG_TOL:
            raise RuntimeError(f"imaginary residue {value.imag!r} in expectation")
        return float(value.real)


def tensor(states: Iterable[StateVector]) -> StateVector:
    """Kronecker product in global qubit order (first state owns qubit 0)."""
    states = list(states)
    if not states:
        raise ValueError("tensor of no states")
    total = sum(s.n for s in states)
    if total > STATE_QUBIT_CAP:
        raise ValueError(f"{total} qubits exceeds the cap of {STATE_QUBIT_CAP}")
    amps = functools.reduce(np.kron, (s.amplitudes for s in states))
    return StateVector(amps)
