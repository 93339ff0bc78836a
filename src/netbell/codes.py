"""Stabilizer codes: validation, codeword synthesis, built-in definitions.

Codes are used as state factories and operator suppliers. A code is an
[[n, k, d]] generator set plus logical bit-flip/phase-flip pairs; the
library ships the two-qubit detection code, the five-qubit code, and
GHZ chains (plain and split at a chosen cut).
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from netbell.pauli import PauliString
from netbell.states import NORM_TOL, StateVector

EXPECTATION_TOL = 1e-9


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""

    def __str__(self) -> str:
        mark = "pass" if self.passed else "FAIL"
        suffix = f" ({self.detail})" if self.detail else ""
        return f"[{mark}] {self.name}{suffix}"


@dataclass(frozen=True)
class ValidationReport:
    """Checks and warnings, plus detail lines shown after them (validate
    lists the synthesized observables there)."""

    checks: tuple[CheckResult, ...]
    warnings: tuple[str, ...] = ()
    details: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def __str__(self) -> str:
        lines = [str(c) for c in self.checks]
        lines += [f"[warn] {w}" for w in self.warnings]
        return "\n".join(lines)


@dataclass(frozen=True)
class StabilizerCode:
    """[[n, k, d]] stabilizer code with chosen logical operator pairs."""

    name: str
    n: int
    k: int
    generators: tuple[PauliString, ...]
    logical_x: tuple[PauliString, ...]
    logical_z: tuple[PauliString, ...]
    distance: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))
        object.__setattr__(self, "logical_x", tuple(self.logical_x))
        object.__setattr__(self, "logical_z", tuple(self.logical_z))

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "n": self.n,
            "k": self.k,
            "generators": [str(g) for g in self.generators],
            "logical_x": [str(p) for p in self.logical_x],
            "logical_z": [str(p) for p in self.logical_z],
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "StabilizerCode":
        return cls(
            name=str(data["name"]),
            n=int(data["n"]),
            k=int(data["k"]),
            generators=tuple(PauliString.from_text(t) for t in data["generators"]),
            logical_x=tuple(PauliString.from_text(t) for t in data["logical_x"]),
            logical_z=tuple(PauliString.from_text(t) for t in data["logical_z"]),
        )


@dataclass(frozen=True)
class SourceState:
    """A realized code state sum_z a_z |z-bar> for one source."""

    code: StabilizerCode
    amplitudes: tuple[complex, ...]
    state: StateVector = field(compare=False)


# ----------------------------------------------------------------------
# validation


def _reduce_with_phases(ops: Sequence[PauliString]) -> tuple[int, PauliString | None]:
    """Gaussian elimination with exact phase tracking.

    Each operator is the symplectic row (x << n) | z, so the leading
    column (x of qubit 0 first, z of the last qubit last) is the highest
    set bit. Returns (rank, witness) where witness is a product of input
    operators that collapses to identity letters (None when the set is
    independent).
    """
    pivots: dict[int, PauliString] = {}
    for op in ops:
        r = op
        while True:
            row = (r.x << r.n) | r.z
            if not row:
                return len(pivots), r
            lead = row.bit_length()
            hit = pivots.get(lead)
            if hit is None:
                pivots[lead] = r
                break
            r = r * hit
    return len(pivots), None


def validate(code: StabilizerCode) -> ValidationReport:
    """Check every structural invariant; failures name the offending pair."""
    checks: list[CheckResult] = []
    warnings: list[str] = []

    sized = all(
        p.n == code.n
        for p in (*code.generators, *code.logical_x, *code.logical_z)
    )
    checks.append(
        CheckResult("operator lengths match n", sized, f"n={code.n}")
    )

    counts_ok = (
        len(code.generators) == code.n - code.k
        and len(code.logical_x) == code.k
        and len(code.logical_z) == code.k
    )
    checks.append(
        CheckResult(
            "operator counts match [[n,k]]",
            counts_ok,
            f"{len(code.generators)} generators for n-k={code.n - code.k}, "
            f"{len(code.logical_x)}+{len(code.logical_z)} logicals for k={code.k}",
        )
    )
    if not sized:
        return ValidationReport(tuple(checks), tuple(warnings))

    real_phase = all(g.is_hermitian() for g in code.generators)
    checks.append(CheckResult("generator phases are +1 or -1", real_phase))

    bad_pair = next(
        (
            (a, b)
            for i, a in enumerate(code.generators)
            for b in code.generators[i + 1 :]
            if not a.commutes(b)
        ),
        None,
    )
    checks.append(
        CheckResult(
            "generators mutually commute",
            bad_pair is None,
            "" if bad_pair is None else f"{bad_pair[0]} vs {bad_pair[1]}",
        )
    )

    rank, witness = _reduce_with_phases(code.generators)
    independent = witness is None
    checks.append(
        CheckResult(
            "generators independent (symplectic rank)",
            independent,
            f"rank {rank} of {len(code.generators)}",
        )
    )
    minus_identity_free = witness is None or witness.phase == 1
    checks.append(
        CheckResult(
            "minus identity not in generated group",
            minus_identity_free,
            "" if minus_identity_free else f"witness phase {witness.phase}",
        )
    )

    logical_ok = True
    detail = ""
    for label, ops in (("bit-flip", code.logical_x), ("phase-flip", code.logical_z)):
        for a, p in enumerate(ops):
            clash = next((g for g in code.generators if not p.commutes(g)), None)
            if clash is not None:
                logical_ok, detail = False, f"{label} {a} vs generator {clash}"
    checks.append(CheckResult("logicals commute with generators", logical_ok, detail))

    pairs_ok = True
    detail = ""
    for a in range(min(len(code.logical_x), len(code.logical_z))):
        if not code.logical_x[a].anticommutes(code.logical_z[a]):
            pairs_ok, detail = False, f"pair {a}: {code.logical_x[a]} vs {code.logical_z[a]}"
    checks.append(CheckResult("paired logicals anticommute", pairs_ok, detail))

    cross_ok = True
    detail = ""
    for a in range(len(code.logical_x)):
        for b in range(len(code.logical_z)):
            if a != b and not code.logical_x[a].commutes(code.logical_z[b]):
                cross_ok, detail = False, f"bit-flip {a} vs phase-flip {b}"
    for ops in (code.logical_x, code.logical_z):
        for a in range(len(ops)):
            for b in range(a + 1, len(ops)):
                if not ops[a].commutes(ops[b]):
                    cross_ok, detail = False, f"{ops[a]} vs {ops[b]}"
    checks.append(CheckResult("distinct-index logicals commute", cross_ok, detail))

    if code.k > 1:
        warnings.append(
            "k>1 code: real logical-basis overlap condition is not enforced"
        )

    return ValidationReport(tuple(checks), tuple(warnings))


# ----------------------------------------------------------------------
# codeword synthesis


def _project_stabilized(fiducial: StateVector, ops: Sequence[PauliString]) -> np.ndarray:
    """Apply prod (I+g)/2 for all ops; returns raw (possibly zero) amplitudes."""
    amps = fiducial.amplitudes.copy()
    for g in ops:
        # apply() demands a normalized state, so renormalize before each step
        norm = float(np.linalg.norm(amps))
        if norm < NORM_TOL:
            return amps
        unit = StateVector(amps / norm)
        amps = 0.5 * (amps + norm * unit.apply(g).amplitudes)
    return amps


@functools.lru_cache(maxsize=32)
def _logical_basis(code: StabilizerCode) -> tuple[StateVector, ...]:
    """The code's logical basis states |z-bar>, searched once per code.

    The logical zero is the fiducial basis state projected through all
    (I+g)/2 and (I+Zbar_a)/2, with its global phase fixed by making the
    first nonzero amplitude real positive. The other logical basis states
    are bit-flip products |z-bar> = prod Xbar_a^{z_a} |0-bar> taken
    literally, signs included, so logical expectations follow the chosen
    bit-flip operators exactly.
    """
    projectors = list(code.generators) + list(code.logical_z)
    zero = None
    for fiducial_index in range(1 << code.n):
        raw = _project_stabilized(StateVector.basis(code.n, fiducial_index), projectors)
        if float(np.linalg.norm(raw)) > 1e-6:
            zero = StateVector.from_unnormalized(raw).with_canonical_phase()
            break
    if zero is None:
        raise ValueError(
            f"projection annihilated every computational fiducial for code {code.name}"
        )

    basis: list[StateVector] = []
    for label in range(1 << code.k):
        vec = zero
        for a in range(code.k):
            if (label >> (code.k - 1 - a)) & 1:
                vec = vec.apply(code.logical_x[a])
        basis.append(vec)
    return tuple(basis)


def codeword(code: StabilizerCode, amplitudes: Sequence[complex]) -> SourceState:
    """Realize sum_z a_z |z-bar> on the code's logical basis, and check that
    every generator stabilizes the result."""
    amps = np.asarray(list(amplitudes), dtype=complex)
    if amps.shape != (1 << code.k,):
        raise ValueError(f"need {1 << code.k} logical amplitudes, got {amps.shape}")
    if not abs(float(np.linalg.norm(amps)) - 1.0) <= 1e-9:
        raise ValueError("logical amplitudes must be normalized")

    basis = _logical_basis(code)
    total = np.zeros(1 << code.n, dtype=complex)
    for a_z, vec in zip(amps, basis):
        total += a_z * vec.amplitudes
    state = StateVector(total)

    for g in code.generators:
        value = state.expectation(g)
        if not abs(value - 1.0) < EXPECTATION_TOL:
            raise RuntimeError(
                f"generator {g} has expectation {value!r} on synthesized codeword"
            )
    return SourceState(code=code, amplitudes=tuple(amps.tolist()), state=state)


# ----------------------------------------------------------------------
# built-in codes

BUILTIN_NAME_PATTERN = re.compile(r"^([a-z-]+)(?:\((\d+)(?:,(\d+))?\))?$")


def builtin(name: str) -> StabilizerCode:
    """Built-in code by name: two-one-two, five-one-three, ghz(n), ghz-split(n,m)."""
    match = BUILTIN_NAME_PATTERN.match(name.strip())
    if not match:
        raise ValueError(f"unknown builtin code {name!r}")
    head, first, second = match.groups()

    if head == "two-one-two" and first is None:
        code = StabilizerCode(
            name="two-one-two",
            n=2,
            k=1,
            generators=(PauliString("ZZ"),),
            logical_x=(PauliString("XX"),),
            logical_z=(PauliString("IZ"),),
            distance=2,
        )
    elif head == "five-one-three" and first is None:
        code = StabilizerCode(
            name="five-one-three",
            n=5,
            k=1,
            generators=(
                PauliString("XZZXI"),
                PauliString("IXZZX"),
                PauliString("XIXZZ"),
                PauliString("ZXIXZ"),
            ),
            logical_x=(PauliString("XXXXX"),),
            logical_z=(PauliString("ZZZZZ"),),
            distance=3,
        )
    elif head == "ghz" and first is not None and second is None:
        n = int(first)
        if n < 2:
            raise ValueError("ghz(n) needs n >= 2")
        code = StabilizerCode(
            name=f"ghz({n})",
            n=n,
            k=1,
            generators=tuple(
                PauliString("I" * i + "ZZ" + "I" * (n - i - 2)) for i in range(n - 1)
            ),
            logical_x=(PauliString("X" * n),),
            logical_z=(PauliString("Z" + "I" * (n - 1)),),
        )
    elif head == "ghz-split" and first is not None and second is not None:
        n, m = int(first), int(second)
        if not 1 <= m < n:
            raise ValueError(f"ghz-split(n,m) needs 1 <= m < n, got ({n},{m})")
        cut = ["I"] * n
        cut[0] = "Z"
        cut[m] = "Z"
        chain = [
            PauliString("I" * i + "ZZ" + "I" * (n - i - 2))
            for i in range(n - 1)
            if i != m - 1
        ]
        code = StabilizerCode(
            name=f"ghz-split({n},{m})",
            n=n,
            k=1,
            generators=(PauliString(cut), *chain),
            logical_x=(PauliString("X" * n),),
            logical_z=(PauliString("I" * m + "Z" + "I" * (n - m - 1)),),
        )
    else:
        raise ValueError(f"unknown builtin code {name!r}")

    report = validate(code)
    if not report.passed:
        raise RuntimeError(f"builtin {name} failed validation:\n{report}")
    return code
