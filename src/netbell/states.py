"""Dense amplitude arrays, the only ones the package builds: plain complex128
numpy arrays over the computational basis, qubit 0 the most significant
bit of the index, as in PauliString's letter order. Only `sample`'s round
records need them, for their frames: a source's codeword, a group's
Kronecker product of codewords, their rotations into a measured basis and
the squared amplitudes there. The exact engine reads each source from its
stabilizing and logical operators (`codes.SourceState.expectation`) and
builds none; the tests keep these arrays as its oracle.
"""

from __future__ import annotations

import functools
import math
from typing import Sequence

import numpy as np

from netbell.codes import NORM_TOL, STATE_QUBIT_CAP, SourceState, StabilizerCode
from netbell.pauli import PauliString

EXPECTATION_TOL = 1e-9

_H = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)
_S_DAG = np.array([[1.0, 0.0], [0.0, -1.0j]], dtype=complex)
# The rotation onto Z of a measured qubit's letter, indexed by its z bit when
# its x bit is set: H for X, H S^dag for Y. A Z letter needs none.
_ROTATION = (_H, _H @ _S_DAG)
# A qubit's signs under Z^z, indexed by z.
_SIGNS = (np.ones(2), np.array([1.0, -1.0]))


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


def _check_cap(n: int) -> None:
    """Refuse n qubits past the cap, before their 2^n amplitudes exist."""
    if n > STATE_QUBIT_CAP:
        raise ValueError(f"{n} qubits exceeds the cap of {STATE_QUBIT_CAP}")


@functools.lru_cache(maxsize=8)
def _indices(n: int) -> np.ndarray:
    """The basis indices of n qubits, 0 to 2^n - 1, shared so read only."""
    indices = np.arange(1 << n)
    indices.setflags(write=False)
    return indices


def apply_pauli(amps: np.ndarray, p: PauliString) -> np.ndarray:
    """The amplitudes of P applied to amps, normalized or not, for a phased
    Pauli string P on as many qubits: exact, including its phase."""
    n = amps.shape[0].bit_length() - 1
    if p.n != n:
        raise ValueError(f"operator on {p.n} qubits applied to {n}-qubit state")
    # The string's masks are the basis-index bit-flip and sign masks, since
    # qubit j is bit (n-1-j) of both; the signs are an outer product over
    # the bits, the most significant outermost.
    phase = (1j) ** ((p.phase_exponent + (p.x & p.z).bit_count()) % 4)
    bits = [_SIGNS[p.z >> s & 1] for s in range(n)]
    signs = functools.reduce(lambda low, bit: np.multiply.outer(bit, low).ravel(), bits)
    values = phase * signs * amps
    return values[_indices(n) ^ p.x] if p.x else values


# ----------------------------------------------------------------------
# codewords and groups


def _project_stabilized(amps: np.ndarray, ops: Sequence[PauliString]) -> np.ndarray:
    """Apply prod (I+g)/2 for all ops; returns raw (possibly zero) amplitudes."""
    for g in ops:
        amps = 0.5 * (amps + apply_pauli(amps, g))
    return amps


@functools.lru_cache(maxsize=32)
def _logical_basis(code: StabilizerCode) -> tuple[np.ndarray, ...]:
    """The code's logical basis states |z-bar>, searched once per code and
    shared, so read only.

    The logical zero is the first computational basis state whose
    projection through all (I+g)/2 and (I+Zbar_a)/2 survives, normalized,
    with its global phase fixed by making its first nonzero amplitude real
    positive. The other logical basis states are bit-flip products
    |z-bar> = prod Xbar_a^{z_a} |0-bar> taken literally, signs included, so
    logical expectations follow the chosen bit-flip operators exactly.
    """
    projectors = list(code.generators) + list(code.logical_z)
    for fiducial_index in range(1 << code.n):
        fiducial = np.zeros(1 << code.n, dtype=complex)
        fiducial[fiducial_index] = 1.0
        raw = _project_stabilized(fiducial, projectors)
        norm = float(np.linalg.norm(raw))
        if norm > 1e-6:
            zero = raw / norm
            first = zero[np.flatnonzero(np.abs(zero) > NORM_TOL)[0]]
            zero = zero * (abs(first) / first)
            break
    else:
        raise ValueError(
            f"projection annihilated every computational fiducial for code {code.name}"
        )

    basis: list[np.ndarray] = []
    for label in range(1 << code.k):
        vec = zero
        for a in range(code.k):
            if (label >> (code.k - 1 - a)) & 1:
                vec = apply_pauli(vec, code.logical_x[a])
        vec.setflags(write=False)
        basis.append(vec)
    return tuple(basis)


def codeword_state(source: SourceState) -> np.ndarray:
    """The amplitudes of a source's codeword sum_z a_z |z-bar>, checked
    against every generator g: the complex <g> must be 1 within
    EXPECTATION_TOL, which also bounds its imaginary residue. Past the
    qubit cap it raises before allocating."""
    code = source.code
    _check_cap(code.n)
    total = np.zeros(1 << code.n, dtype=complex)
    for a_z, vec in zip(source.amplitudes, _logical_basis(code)):
        total += a_z * vec
    for g in code.generators:
        value = complex(np.vdot(total, apply_pauli(total, g)))
        if not abs(value - 1.0) < EXPECTATION_TOL:
            raise RuntimeError(f"generator {g} has expectation {value!r} on synthesized codeword")
    return total


def group_state(sources: Sequence[SourceState], codewords: dict) -> np.ndarray:
    """The Kronecker product of the sources' codewords in their order (the
    first source owns qubit 0), refused past the qubit cap before any
    amplitude is allocated. codewords maps each source to its codeword,
    built here on first use, so a caller that keeps it builds each
    distinct codeword once."""
    _check_cap(sum(src.code.n for src in sources))
    for src in sources:
        if src not in codewords:
            codewords[src] = codeword_state(src)
    return functools.reduce(np.kron, [codewords[src] for src in sources])


# ----------------------------------------------------------------------
# measurement frames


def setting_rotations(amps: np.ndarray, st: PauliString, theta: float) -> tuple[np.ndarray, ...]:
    """amps turned by V^dag for setting x = 0 and 1, V = exp(-(-1)^x
    (theta/2) ST): cos(theta/2) amps +- sin(theta/2) ST amps. V^dag takes
    the observable cos(theta) S + (-1)^x sin(theta) T to S."""
    half = theta / 2.0
    turned = apply_pauli(amps, st)
    return tuple(math.cos(half) * amps + sign * math.sin(half) * turned for sign in (1.0, -1.0))


def _apply_one_qubit(amps: np.ndarray, n: int, q: int, gate: np.ndarray) -> np.ndarray:
    # Qubit q is bit (n-1-q) of the basis index, so axis sizes split at q.
    left = 1 << q
    right = 1 << (n - 1 - q)
    return np.einsum("ab,ibj->iaj", gate, amps.reshape(left, 2, right)).reshape(-1)


def basis_probabilities(amps: np.ndarray, x: int, z: int) -> np.ndarray:
    """The squared amplitudes of amps in the basis of the x and z masks:
    each qubit whose x bit is set is rotated onto Z, in ascending order, by
    H where its z bit is clear and by H S^dag where it is set."""
    n = amps.shape[0].bit_length() - 1
    for q in range(n):
        s = n - 1 - q
        if x >> s & 1:
            amps = _apply_one_qubit(amps, n, q, _ROTATION[z >> s & 1])
    return np.abs(amps) ** 2
