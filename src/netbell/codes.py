"""Stabilizer codes: validation, codeword expectations, built-in definitions.

Codes supply codewords and their operators. A code is an
[[n, k, d]] generator set plus logical bit-flip/phase-flip pairs; the
library ships the two-qubit detection code, the five-qubit code, and
GHZ chains (plain and split at a chosen cut).

A codeword is kept as its 2^k logical amplitudes, and a layout keeps one
per distinct codeword: each exact expectation is reduced once from the
stabilizing and logical operators (`SourceState.expectation`); only
`states` builds its amplitudes, for the sampler's frames and the tests,
and takes its constants from here: this module, like every one the exact
commands load, imports no numpy.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from functools import cached_property
from typing import Mapping, NamedTuple, Sequence

from netbell.pauli import PauliString
from netbell.records import Record

# The widest group of sources whose amplitudes `states` builds.
STATE_QUBIT_CAP = 20
NORM_TOL = 1e-12


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str = ""

    def __str__(self) -> str:
        mark = "pass" if self.passed else "FAIL"
        suffix = f" ({self.detail})" if self.detail else ""
        return f"[{mark}] {self.name}{suffix}"


class ValidationReport(Record):
    """Checks, and warnings that do not fail it."""

    _fields = ("checks", "warnings")

    def __init__(self, checks: tuple[CheckResult, ...], warnings: tuple[str, ...] = ()):
        self.__dict__.update(checks=checks, warnings=warnings)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def __str__(self) -> str:
        lines = [str(c) for c in self.checks]
        lines += [f"[warn] {w}" for w in self.warnings]
        return "\n".join(lines)


class StabilizerCode(Record):
    """[[n, k, d]] stabilizer code with chosen logical operator pairs."""

    _fields = ("name", "n", "k", "generators", "logical_x", "logical_z", "distance")

    def __init__(
        self,
        name: str,
        n: int,
        k: int,
        generators: Sequence[PauliString],
        logical_x: Sequence[PauliString],
        logical_z: Sequence[PauliString],
        distance: int | None = None,
    ):
        self.__dict__.update(
            name=name, n=n, k=k, generators=tuple(generators), logical_x=tuple(logical_x),
            logical_z=tuple(logical_z), distance=distance,
        )

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


class SourceState(Record):
    """A realized code state sum_z a_z |z-bar>, shared by equal sources."""

    _fields = ("code", "amplitudes")

    def __init__(self, code: StabilizerCode, amplitudes: tuple[complex, ...]):
        self.__dict__.update(code=code, amplitudes=amplitudes, _memo={})

    def expectation(self, p: PauliString) -> complex:
        """<p> from the stabilizing and logical operators, with no amplitude
        of the n qubits (Gottesman, quant-ph/9705052). p = c S Xbar^a Zbar^b
        with S a product of generators, a_i (b_i) set when p anticommutes
        with Zbar_i (Xbar_i), exactly when p (Xbar^a Zbar^b)^-1 reduces to c
        times identity letters; else p anticommutes with a generator and
        <p> = 0. S fixes the codeword, Zbar fixes |0-bar> and |z-bar> =
        Xbar^z |0-bar> (see states._logical_basis), so <p> = c sum_z
        conj(a_(z^a)) a_z (-1)^|b & z|, summed exactly in integers, rounded
        once, memoized."""
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


def codeword(code: StabilizerCode, amplitudes: Sequence[complex]) -> SourceState:
    """sum_z a_z |z-bar> on the code's logical basis, normalized within
    NORM_TOL."""
    amps = tuple(complex(a) for a in amplitudes)
    if len(amps) != 1 << code.k:
        raise ValueError(f"need {1 << code.k} logical amplitudes, got {(len(amps),)}")
    if not abs(math.hypot(*(part for a in amps for part in (a.real, a.imag))) - 1.0) <= NORM_TOL:
        raise ValueError("logical amplitudes must be normalized")
    return SourceState(code=code, amplitudes=amps)


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
# built-in codes


def parse_name(name: str) -> tuple[str, tuple[int, ...]]:
    """A builtin name's head and parenthesized integers, for codes and scenarios:
    "star(3)" is ("star", (3,)), "chsh" ("chsh", ()); other text raises ValueError."""
    found = re.fullmatch(r"([a-z-]+)(?:\((\d+(?:,\d+)*)\))?", name.strip())
    if found is None:
        raise ValueError(f"{name!r} is not a builtin name")
    head, numbers = found.group(1, 2)
    return head, tuple(map(int, numbers.split(","))) if numbers else ()


@functools.lru_cache(maxsize=32)
def builtin(name: str) -> StabilizerCode:
    """Built-in code by name: two-one-two, five-one-three, ghz(n), ghz-split(n,m).
    Built and validated once per name; an unknown name raises on every call."""

    def chain(n, skip=None):  # ZZ on each neighbouring pair but the one at skip
        return [("I" * i + "ZZ").ljust(n, "I") for i in range(n - 1) if i != skip]

    # (canonical name, n, generators, Xbar, Zbar, distance) as letter text
    match parse_name(name):
        case ("two-one-two", ()):
            parts = ("two-one-two", 2, ["ZZ"], "XX", "IZ", 2)
        case ("five-one-three", ()):
            parts = ("five-one-three", 5, ["XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"], "XXXXX", "ZZZZZ", 3)
        case ("ghz", (n,)):
            if n < 2:
                raise ValueError("ghz(n) needs n >= 2")
            parts = (f"ghz({n})", n, chain(n), "X" * n, "Z".ljust(n, "I"), None)
        case ("ghz-split", (n, m)):
            if not 1 <= m < n:
                raise ValueError(f"ghz-split(n,m) needs 1 <= m < n, got ({n},{m})")
            cut = ("Z" + "I" * (m - 1) + "Z").ljust(n, "I")
            zbar = ("I" * m + "Z").ljust(n, "I")
            parts = (f"ghz-split({n},{m})", n, [cut, *chain(n, m - 1)], "X" * n, zbar, None)
        case _:
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
