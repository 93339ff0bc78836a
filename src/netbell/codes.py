"""Stabilizer codes: validation, codeword expectations, built-in definitions.

Codes are used as state factories and operator suppliers. A code is an
[[n, k, d]] generator set plus logical bit-flip/phase-flip pairs; the
library ships the two-qubit detection code, the five-qubit code, and
GHZ chains (plain and split at a chosen cut).

A codeword is kept as its 2^k logical amplitudes, and a layout keeps one
per distinct codeword: each exact expectation is reduced once from the
stabilizing and logical operators (`SourceState.expectation`), and only
the sampler's frames build its statevector (`SourceState.state`), the tests' oracle.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass, field
from functools import cached_property
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

    @cached_property
    def _pivots(self) -> dict[int, PauliString]:
        """The generators' echelon pivots, by leading column (see _reduce)."""
        return _reduce_with_phases(self.generators)[0]


@dataclass(frozen=True)
class SourceState:
    """A realized code state sum_z a_z |z-bar>, shared by equal sources."""

    code: StabilizerCode
    amplitudes: tuple[complex, ...]
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def expectation(self, p: PauliString) -> complex:
        """<p> from the stabilizing and logical operators, with no amplitude
        of the n qubits (Gottesman, quant-ph/9705052). p = c S Xbar^a Zbar^b
        with S a product of generators, a_i (b_i) set when p anticommutes
        with Zbar_i (Xbar_i), exactly when p (Xbar^a Zbar^b)^-1 reduces to c
        times identity letters; else p anticommutes with a generator and
        <p> = 0. S fixes the codeword, Zbar fixes |0-bar> and |z-bar> =
        Xbar^z |0-bar> (see _logical_basis), so <p> = c sum_z conj(a_(z^a))
        a_z (-1)^|b & z|, summed exactly in integers, rounded once, memoized."""
        if p in self._memo:
            return self._memo[p]
        code = self.code
        if p.n != code.n:
            raise ValueError(f"operator on {p.n} qubits measured on the {code.n}-qubit {code.name}")
        flips = [p.anticommutes(zbar) for zbar in code.logical_z]
        signs = [p.anticommutes(xbar) for xbar in code.logical_x]
        # Validated logicals are hermitian, so each is its own inverse.
        undo = (*itertools.compress(code.logical_z, signs), *itertools.compress(code.logical_x, flips))
        r = _reduce(PauliString.product((p, *undo)), code._pivots)
        if r.x or r.z:
            return self._memo.setdefault(p, 0j)
        a = sum(bit << i for i, bit in enumerate(reversed(flips)))
        b = sum(bit << i for i, bit in enumerate(reversed(signs)))
        ar, ai, scale = self._integers
        real = imag = 0
        for z in range(len(ar)):
            w, sign = z ^ a, -1 if (b & z).bit_count() & 1 else 1
            real += sign * (ar[w] * ar[z] + ai[w] * ai[z])
            imag += sign * (ar[w] * ai[z] - ai[w] * ar[z])
        return self._memo.setdefault(p, r.phase * complex(real / scale, imag / scale))

    @cached_property
    def _integers(self) -> tuple[list[int], list[int], int]:
        """The amplitudes' real and imaginary parts as integers over one
        power-of-two denominator, and its square: sums of products are exact."""
        ratios = [part.as_integer_ratio() for a in self.amplitudes for part in (a.real, a.imag)]
        den = max(d for _, d in ratios)
        ints = [n * (den // d) for n, d in ratios]
        return ints[0::2], ints[1::2], den * den

    @cached_property
    def state(self) -> StateVector:
        """The codeword's statevector, checked against every generator; past
        the qubit cap it raises before allocating."""
        basis = _logical_basis(self.code)
        total = np.zeros(1 << self.code.n, dtype=complex)
        for a_z, vec in zip(self.amplitudes, basis):
            total += a_z * vec.amplitudes
        state = StateVector(total)
        for g in self.code.generators:
            value = state.expectation(g)
            if not abs(value - 1.0) < EXPECTATION_TOL:
                raise RuntimeError(
                    f"generator {g} has expectation {value!r} on synthesized codeword"
                )
        return state


# ----------------------------------------------------------------------
# validation


def _reduce(r: PauliString, pivots: Mapping[int, PauliString]) -> PauliString:
    """r times each pivot that shares its leading column, until none does:
    identity letters, with the product's exact phase, exactly when r lies
    in the pivots' span. Each operator is the symplectic row (x << n) | z,
    so the leading column (x of qubit 0 first) is the highest set bit."""
    row = (r.x << r.n) | r.z
    while row and (hit := pivots.get(row.bit_length())) is not None:
        r = r * hit
        row = (r.x << r.n) | r.z
    return r


def _reduce_with_phases(ops: Sequence[PauliString]) -> tuple[dict, PauliString | None]:
    """Gaussian elimination with exact phase tracking. Returns the pivots
    by leading column, each a product of input operators, and a witness
    product that collapses to identity letters (None if independent)."""
    pivots: dict[int, PauliString] = {}
    for op in ops:
        r = _reduce(op, pivots)
        if not (r.x or r.z):
            return pivots, r
        pivots[((r.x << r.n) | r.z).bit_length()] = r
    return pivots, None


def validate(code: StabilizerCode) -> ValidationReport:
    """Check every structural invariant; failures name the offending pair
    (the last one found, where a check can fail more than once)."""
    gens, xs, zs = code.generators, code.logical_x, code.logical_z
    sized = all(p.n == code.n for p in (*gens, *xs, *zs))
    checks = [
        CheckResult("operator lengths match n", sized, f"n={code.n}"),
        CheckResult(
            "operator counts match [[n,k]]",
            len(gens) == code.n - code.k and len(xs) == len(zs) == code.k,
            f"{len(gens)} generators for n-k={code.n - code.k}, "
            f"{len(xs)}+{len(zs)} logicals for k={code.k}",
        ),
    ]
    if not sized:
        return ValidationReport(tuple(checks))

    def check(name: str, failures) -> None:
        """A check that holds when nothing fails; its detail is the last failure."""
        failures = list(failures)
        checks.append(CheckResult(name, not failures, failures[-1] if failures else ""))

    checks.append(CheckResult("generator phases are +1 or -1", all(g.is_hermitian() for g in gens)))
    real_logicals = all(p.is_hermitian() for p in (*xs, *zs))
    checks.append(CheckResult("logical phases are +1 or -1", real_logicals))
    pairs = ((a, b) for i, a in enumerate(gens) for b in gens[i + 1 :] if not a.commutes(b))
    bad = next(pairs, None)
    detail = "" if bad is None else f"{bad[0]} vs {bad[1]}"
    checks.append(CheckResult("generators mutually commute", bad is None, detail))
    pivots, witness = _reduce_with_phases(gens)
    rank = f"rank {len(pivots)} of {len(gens)}"
    checks.append(CheckResult("generators independent (symplectic rank)", witness is None, rank))
    plus = witness is None or witness.phase == 1
    detail = "" if plus else f"witness phase {witness.phase}"
    checks.append(CheckResult("minus identity not in generated group", plus, detail))
    check(
        "logicals commute with generators",
        (
            f"{label} {a} vs generator {clash[0]}"
            for label, ops in (("bit-flip", xs), ("phase-flip", zs))
            for a, p in enumerate(ops)
            if (clash := [g for g in gens if not p.commutes(g)])
        ),
    )
    check(
        "paired logicals anticommute",
        (f"pair {a}: {x} vs {z}" for a, (x, z) in enumerate(zip(xs, zs)) if x.commutes(z)),
    )
    check(
        "distinct-index logicals commute",
        [
            *(
                f"bit-flip {a} vs phase-flip {b}"
                for a, x in enumerate(xs)
                for b, z in enumerate(zs)
                if a != b and not x.commutes(z)
            ),
            *(
                f"{ops[a]} vs {ops[b]}"
                for ops in (xs, zs)
                for a in range(len(ops))
                for b in range(a + 1, len(ops))
                if not ops[a].commutes(ops[b])
            ),
        ],
    )
    overlap = "k>1 code: real logical-basis overlap condition is not enforced"
    return ValidationReport(tuple(checks), (overlap,) if code.k > 1 else ())


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
    """sum_z a_z |z-bar> on the code's logical basis, normalized within the
    statevector's NORM_TOL; its statevector is built on first use."""
    amps = np.asarray(list(amplitudes), dtype=complex)
    if amps.shape != (1 << code.k,):
        raise ValueError(f"need {1 << code.k} logical amplitudes, got {amps.shape}")
    if not abs(float(np.linalg.norm(amps)) - 1.0) <= NORM_TOL:
        raise ValueError("logical amplitudes must be normalized")
    return SourceState(code=code, amplitudes=tuple(amps.tolist()))


# ----------------------------------------------------------------------
# built-in codes

BUILTIN_NAME_PATTERN = re.compile(r"^([a-z-]+)(?:\((\d+)(?:,(\d+))?\))?$")


@functools.lru_cache(maxsize=32)
def builtin(name: str) -> StabilizerCode:
    """Built-in code by name: two-one-two, five-one-three, ghz(n), ghz-split(n,m).
    Built and validated once per name; an unknown name raises on every call."""
    match = BUILTIN_NAME_PATTERN.match(name.strip())
    if not match:
        raise ValueError(f"unknown builtin code {name!r}")
    head, first, second = match.groups()

    def chain(n, skip=None):  # ZZ on each neighbouring pair but the one at skip
        return [("I" * i + "ZZ").ljust(n, "I") for i in range(n - 1) if i != skip]

    # (canonical name, n, generators, Xbar, Zbar, distance) as letter text
    if head == "two-one-two" and first is None:
        parts = (head, 2, ["ZZ"], "XX", "IZ", 2)
    elif head == "five-one-three" and first is None:
        parts = (head, 5, ["XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"], "XXXXX", "ZZZZZ", 3)
    elif head == "ghz" and first is not None and second is None:
        n = int(first)
        if n < 2:
            raise ValueError("ghz(n) needs n >= 2")
        parts = (f"ghz({n})", n, chain(n), "X" * n, "Z".ljust(n, "I"), None)
    elif head == "ghz-split" and first is not None and second is not None:
        n, m = int(first), int(second)
        if not 1 <= m < n:
            raise ValueError(f"ghz-split(n,m) needs 1 <= m < n, got ({n},{m})")
        cut = ("Z" + "I" * (m - 1) + "Z").ljust(n, "I")
        zbar = ("I" * m + "Z").ljust(n, "I")
        parts = (f"ghz-split({n},{m})", n, [cut, *chain(n, m - 1)], "X" * n, zbar, None)
    else:
        raise ValueError(f"unknown builtin code {name!r}")

    canonical, n, generators, xbar, zbar, distance = parts
    code = StabilizerCode(
        name=canonical,
        n=n,
        k=1,
        generators=tuple(PauliString(g) for g in generators),
        logical_x=(PauliString(xbar),),
        logical_z=(PauliString(zbar),),
        distance=distance,
    )
    report = validate(code)
    if not report.passed:
        raise RuntimeError(f"builtin {name} failed validation:\n{report}")
    return code
