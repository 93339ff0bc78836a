"""Network layout, operator selection, and the parity conditions.

A network has N independent sources distributed among K source-side
agents and M receivers. Sources are numbered 1..N and qubit j of source
i is the pair (i, j) with j in 1..n_i. Agents are numbered 1..K+M with
the first K on the source side; agent K+m is receiver m.

Source agent k holds sources partition[k-1]+1 .. partition[k] (a block of
consecutive source ids); its qubits from those sources are the ones assigned
to it, and every other qubit goes to some receiver. Those sources form k's
group: `place` gives a qubit's group and its position there, in the order
`states.group_state` lists its qubits. Sources of one code and amplitude
repr (== merges -0.0, 0.0) share a `SourceState`, reduced once per command.

A set of a source's qubits is a mask, qubit j of source i at bit n_i - j as
in its g and h: `held` gives an agent's masks, `group_shift` moves one into
its group, and `classify` reads its masks off the x and z masks of (g, h)
(Aaronson & Gottesman, PRA 70, 052328 (2004), section III).
"""

from __future__ import annotations

import bisect
import itertools
from functools import cached_property
from typing import NamedTuple, Sequence

from netbell.codes import CheckResult, SourceState, ValidationReport
from netbell.pauli import PauliString
from netbell.records import Record

STABILIZER_TOL = 1e-9


class NetworkLayout(Record):
    """Immutable wiring of sources, agents, and qubit custody."""

    _fields = ("sources", "K", "M", "partition", "assignment")

    def __init__(
        self,
        sources: Sequence[SourceState],
        K: int,
        M: int,
        partition: Sequence[int],
        assignment: Sequence[tuple[int, int, int]],
    ):
        distinct = {}
        self.__dict__.update(
            sources=tuple(distinct.setdefault((s.code, repr(s.amplitudes)), s) for s in sources),
            K=K,
            M=M,
            partition=tuple(int(e) for e in partition),
            assignment=tuple(sorted((int(i), int(j), int(a)) for i, j, a in assignment)),
        )
        self._validate()

    def _validate(self) -> None:
        n_sources = len(self.sources)
        if self.K < 1 or self.M < 1:
            raise ValueError("need at least one source agent and one receiver")
        if len(self.partition) != self.K + 1:
            raise ValueError(
                f"partition needs K+1={self.K + 1} boundaries, got {len(self.partition)}"
            )
        if self.partition[0] != 0 or self.partition[-1] != n_sources:
            raise ValueError("partition must start at 0 and end at the source count")
        if any(a >= b for a, b in zip(self.partition, self.partition[1:])):
            raise ValueError("partition boundaries must be strictly increasing")

        expected = {
            (i + 1, j + 1)
            for i, src in enumerate(self.sources)
            for j in range(src.code.n)
        }
        seen = [(i, j) for i, j, _ in self.assignment]
        if len(seen) != len(set(seen)):
            raise ValueError("a qubit is assigned more than once")
        if set(seen) != expected:
            missing = sorted(expected - set(seen))
            extra = sorted(set(seen) - expected)
            raise ValueError(f"assignment mismatch: missing {missing}, unknown {extra}")
        for i, j, agent in self.assignment:
            if not 1 <= agent <= self.K + self.M:
                raise ValueError(f"qubit ({i},{j}) assigned to unknown agent {agent}")
            if agent <= self.K and agent != self.holder(i):
                raise ValueError(
                    f"qubit ({i},{j}) assigned to source agent {agent}, "
                    f"but source {i} is held by agent {self.holder(i)}"
                )
        # By the loop above, a source-side agent holding (i, j) is i's holder.
        given = {i for i, _, agent in self.assignment if agent <= self.K}
        for i in range(1, n_sources + 1):
            if i not in given:
                raise ValueError(f"source {i} gives no qubit to its source agent")
        for agent in self.receivers:
            if not self.qubits_of(agent):
                raise ValueError(f"receiver {self.agent_label(agent)} holds no qubits")

    # -- structure ------------------------------------------------------

    @property
    def N(self) -> int:
        return len(self.sources)

    @cached_property
    def source_sizes(self) -> tuple[int, ...]:
        return tuple(src.code.n for src in self.sources)

    def holder(self, i: int) -> int:
        """The source agent whose block contains source i."""
        if not 1 <= i <= self.N:
            raise ValueError(f"source {i} outside the partition")
        return bisect.bisect_left(self.partition, i)

    @cached_property
    def _qubits_by_agent(self) -> dict[int, tuple[tuple[int, int], ...]]:
        by_agent = itertools.groupby(sorted(self.assignment, key=lambda t: t[2]), lambda t: t[2])
        return {agent: tuple((i, j) for i, j, _ in held) for agent, held in by_agent}

    def qubits_of(self, agent: int) -> tuple[tuple[int, int], ...]:
        return self._qubits_by_agent.get(agent, ())

    @property
    def source_agents(self) -> tuple[int, ...]:
        return tuple(range(1, self.K + 1))

    @property
    def receivers(self) -> tuple[int, ...]:
        return tuple(range(self.K + 1, self.K + self.M + 1))

    def agent_label(self, agent: int) -> str:
        return f"S{agent}" if agent <= self.K else f"R{agent - self.K}"

    # -- groups of sources ----------------------------------------------

    @cached_property
    def group_widths(self) -> tuple[int, ...]:
        """Qubit count of each source agent's group of sources."""
        cuts = zip(self.partition, self.partition[1:])
        return tuple(sum(self.source_sizes[lo:hi]) for lo, hi in cuts)

    @cached_property
    def _custody(self) -> tuple[dict[int, dict[int, int]], tuple[tuple[int, int], ...]]:
        """Per agent, the mask of its qubits of each source it holds any of,
        in source order; per source, the source agent k whose group holds it
        and its first qubit's position in that group."""
        held: dict[int, dict[int, int]] = {}
        sizes = self.source_sizes
        for i, j, agent in self.assignment:
            masks = held.setdefault(agent, {})
            masks[i] = masks.get(i, 0) | 1 << (sizes[i - 1] - j)
        offsets: list[tuple[int, int]] = []
        for k, (lo, hi) in enumerate(zip(self.partition, self.partition[1:]), start=1):
            starts = itertools.accumulate(sizes[lo : hi - 1], initial=0)
            offsets += ((k, start) for start in starts)
        return held, tuple(offsets)

    def held(self, agent: int) -> dict[int, int]:
        """The agent's qubits as {source i: mask over i's qubits}, in source
        order; shared, so read only."""
        return self._custody[0].get(agent, {})

    def place(self, i: int, j: int) -> tuple[int, int]:
        """The source agent k whose group holds qubit (i, j), and the
        qubit's 0-based position in that group: its sources' qubits in
        (i, j) order."""
        return self.holder(i), self._custody[1][i - 1][1] + j - 1

    def group_shift(self, i: int) -> tuple[int, int]:
        """The source agent k whose group holds source i, and the left shift
        that moves a mask over i's qubits to their place in k's strings."""
        k, offset = self._custody[1][i - 1]
        return k, self.group_widths[k - 1] - offset - self.source_sizes[i - 1]

    def group_sources(self, k: int) -> tuple[SourceState, ...]:
        """Source agent k's group of sources, in group order."""
        return self.sources[self.partition[k - 1] : self.partition[k]]


class OperatorSelection(Record):
    """Per-source operator choices: stabilizing g, partner h, optional
    phase-flip representative h_prime for the tilted construction."""

    _fields = ("g", "h", "h_prime")

    def __init__(
        self,
        g: Sequence[PauliString],
        h: Sequence[PauliString],
        h_prime: Sequence[PauliString | None] = (),
    ):
        g, h = tuple(g), tuple(h)
        h_prime = tuple(h_prime) if h_prime else (None,) * len(g)
        self.__dict__.update(g=g, h=h, h_prime=h_prime)
        if len(h) != len(g) or len(h_prime) != len(g):
            raise ValueError("selection needs one g, h, h_prime slot per source")

    @property
    def N(self) -> int:
        return len(self.g)

    def for_source(self, i: int) -> tuple[PauliString, PauliString, PauliString | None]:
        return self.g[i - 1], self.h[i - 1], self.h_prime[i - 1]

    @property
    def tilt_sources(self) -> tuple[int, ...]:
        """Source ids carrying an h_prime (the tilted product membership)."""
        return tuple(i + 1 for i, p in enumerate(self.h_prime) if p is not None)


class Classification(NamedTuple):
    """Per source, masks over its qubits: d where the (g, h) letters
    anticommute, idle where a receiver holds a qubit they commute on, and
    o, the (x, z) masks of the letter g or h repeats on each idle qubit
    (none where both are the identity)."""

    d: tuple[int, ...]
    idle: tuple[int, ...]
    o: tuple[tuple[int, int], ...]


def classify(layout: NetworkLayout, selection: OperatorSelection) -> Classification:
    """Split each source's qubits into anticommuting (d) and commuting
    (g, h) positions, and mark receiver-held commuting qubits as idle."""
    if selection.N != layout.N:
        raise ValueError(
            f"selection covers {selection.N} sources, layout has {layout.N}"
        )
    received = [0] * layout.N
    for agent in layout.receivers:
        for i, mask in layout.held(agent).items():
            received[i - 1] |= mask
    d, idle, o = [], [], []
    for i, (g, h, mask) in enumerate(zip(selection.g, selection.h, received), start=1):
        if g.n != layout.source_sizes[i - 1] or h.n != layout.source_sizes[i - 1]:
            raise ValueError(f"selection operators do not match source {i} size")
        d.append((g.x & h.z) ^ (g.z & h.x))
        idle.append(mask & ~d[-1])
        o.append(((g.x | h.x) & idle[-1], (g.z | h.z) & idle[-1]))
    return Classification(d=tuple(d), idle=tuple(idle), o=tuple(o))


def anticommuting_count(
    layout: NetworkLayout, classification: Classification, agent: int
) -> int:
    """How many of the agent's qubits carry anticommuting (g, h) letters."""
    count, d = 0, classification.d
    for i, mask in layout.held(agent).items():
        count += (d[i - 1] & mask).bit_count()
    return count


class ParityReport(ValidationReport):
    """Outcome of the anticommuting-count conditions, one fact per line.

    The per-source and per-source-agent facts gate observable synthesis:
    without them the A pairs are not involutions. The receiver facts
    decide whether the B pair anticommutes; layouts that fail them can
    still be evaluated when commuting B pairs are explicitly allowed.
    """

    @property
    def receiver_side_passed(self) -> bool:
        return all(
            c.passed
            for c in self.checks
            if c.name.startswith(("agent R", "agent count"))
        )

    def source_side_failures(self) -> tuple[CheckResult, ...]:
        """Failed per-source and per-source-agent facts."""
        return tuple(
            c for c in self.failures() if c.name.startswith(("source", "agent S"))
        )


def check_parity(layout: NetworkLayout, classification: Classification) -> ParityReport:
    """Evaluate every anticommuting-count condition; never raises."""
    checks: list[CheckResult] = []
    for i in range(1, layout.N + 1):
        count = classification.d[i - 1].bit_count()
        checks.append(
            CheckResult(
                f"source {i} anticommuting count even",
                count % 2 == 0,
                f"count={count}",
            )
        )
    for agent in layout.source_agents + layout.receivers:
        total = anticommuting_count(layout, classification, agent)
        checks.append(
            CheckResult(
                f"agent {layout.agent_label(agent)} anticommuting count odd",
                total % 2 == 1,
                f"count={total}",
            )
        )
    checks.append(
        CheckResult(
            "agent count K+M even",
            (layout.K + layout.M) % 2 == 0,
            f"K+M={layout.K + layout.M}",
        )
    )
    return ParityReport(tuple(checks))


def check_selection(layout: NetworkLayout, selection: OperatorSelection):
    """Structural checks of the operator choices against the layout:
    sizes, commutation, hermiticity, and that each g fixes its source."""
    slots = CheckResult(
        "one operator slot per source",
        selection.N == layout.N,
        f"{selection.N} slots for {layout.N} sources",
    )
    checks = [slots]
    if not slots.passed:
        return ValidationReport(tuple(checks))

    for i in range(1, layout.N + 1):
        g, h, prime = selection.for_source(i)
        size = layout.source_sizes[i - 1]
        sized = g.n == size and h.n == size and (prime is None or prime.n == size)
        checks.append(CheckResult(f"source {i} operator sizes", sized, f"n={size}"))
        if not sized:
            continue
        checks.append(CheckResult(f"source {i} g and h commute", g.commutes(h), f"{g} vs {h}"))
        hermitian = all(p is None or p.is_hermitian() for p in (g, h, prime))
        checks.append(CheckResult(f"source {i} operator phases real", hermitian))
        # Agent restrictions always come out with a plus sign, so their
        # product only reassembles g (or h) when the sign lives nowhere.
        checks.append(
            CheckResult(
                f"source {i} g and h carry plus signs",
                g.phase == 1 and h.phase == 1,
                f"g phase {g.phase}, h phase {h.phase}",
            )
        )
        if prime is not None:
            checks.append(
                CheckResult(
                    f"source {i} g and h_prime commute",
                    g.commutes(prime),
                    f"{g} vs {prime}",
                )
            )
        if hermitian:
            value = layout.sources[i - 1].expectation(g).real
            checks.append(
                CheckResult(
                    f"source {i} g stabilizes the source state",
                    abs(value - 1.0) < STABILIZER_TOL,
                    f"expectation {value:+.6f}",
                )
            )
    return ValidationReport(tuple(checks))
