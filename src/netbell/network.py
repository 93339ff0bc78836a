"""Network layout, operator selection, and the parity conditions.

A network has N independent sources distributed among K source-side
agents and M receivers. Sources are numbered 1..N and qubit j of source
i is the pair (i, j) with j in 1..n_i. Agents are numbered 1..K+M with
the first K on the source side; agent K+m is receiver m.

Source agent k holds sources partition[k-1]+1 .. partition[k] (a block of
consecutive source ids); its qubits from those sources are the ones assigned
to it, and every other qubit goes to some receiver. Those sources form k's
group: `place` gives a qubit's group and its position there, in the order
the group's state lists its qubits. Sources of one code and amplitude repr
(== merges -0.0, 0.0) share a `SourceState`, reduced once per command.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from functools import cached_property

from netbell.codes import CheckResult, SourceState, ValidationReport
from netbell.pauli import PauliString
from netbell.states import StateVector, tensor

STABILIZER_TOL = 1e-9


@dataclass(frozen=True)
class NetworkLayout:
    """Immutable wiring of sources, agents, and qubit custody."""

    sources: tuple[SourceState, ...]
    K: int
    M: int
    partition: tuple[int, ...]
    assignment: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        distinct = {}
        sources = (distinct.setdefault((s.code, repr(s.amplitudes)), s) for s in self.sources)
        object.__setattr__(self, "sources", tuple(sources))
        object.__setattr__(self, "partition", tuple(int(e) for e in self.partition))
        triples = tuple(sorted((int(i), int(j), int(a)) for i, j, a in self.assignment))
        object.__setattr__(self, "assignment", triples)
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
    def _agent_of(self) -> dict[tuple[int, int], int]:
        return {(i, j): a for i, j, a in self.assignment}

    def agent_of(self, i: int, j: int) -> int:
        return self._agent_of[(i, j)]

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

    def is_receiver(self, agent: int) -> bool:
        return agent > self.K

    def agent_label(self, agent: int) -> str:
        return f"S{agent}" if agent <= self.K else f"R{agent - self.K}"

    # -- groups of sources ----------------------------------------------

    @cached_property
    def group_widths(self) -> tuple[int, ...]:
        """Qubit count of each source agent's group of sources."""
        cuts = zip(self.partition, self.partition[1:])
        return tuple(sum(self.source_sizes[lo:hi]) for lo, hi in cuts)

    def place(self, i: int, j: int) -> tuple[int, int]:
        """The source agent k whose group holds qubit (i, j), and the
        qubit's 0-based position in that group: its sources' qubits in
        (i, j) order."""
        k = self.holder(i)
        return k, sum(self.source_sizes[self.partition[k - 1] : i - 1]) + j - 1

    def group_sources(self, k: int) -> tuple[SourceState, ...]:
        """Source agent k's group of sources, in group order."""
        return self.sources[self.partition[k - 1] : self.partition[k]]

    @cached_property
    def group_states(self) -> tuple[StateVector, ...]:
        """Per source agent, the tensor product of its group's source states,
        which only the sampler's frames build; the joint state is never
        built, so the statevector cap bounds one group, for sample only."""
        return tuple(
            tensor(src.state for src in self.group_sources(k)) for k in self.source_agents
        )


@dataclass(frozen=True)
class OperatorSelection:
    """Per-source operator choices: stabilizing g, partner h, optional
    phase-flip representative h_prime for the tilted construction."""

    g: tuple[PauliString, ...]
    h: tuple[PauliString, ...]
    h_prime: tuple[PauliString | None, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "g", tuple(self.g))
        object.__setattr__(self, "h", tuple(self.h))
        prime = tuple(self.h_prime) if self.h_prime else (None,) * len(self.g)
        object.__setattr__(self, "h_prime", prime)
        if len(self.h) != len(self.g) or len(self.h_prime) != len(self.g):
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


@dataclass(frozen=True)
class Classification:
    """Per-qubit anticommutation structure of the (g, h) letter pairs."""

    d_sets: tuple[tuple[int, ...], ...]
    idle: tuple[tuple[int, int], ...]
    o_letters: tuple[tuple[tuple[int, int], str], ...]

    def delta(self, i: int, j: int) -> bool:
        """True when the (g, h) letters at qubit (i, j) anticommute."""
        return j in self.d_sets[i - 1]

    def o_letter(self, i: int, j: int) -> str | None:
        """The repeatedly measured letter on an idle qubit, if any."""
        return dict(self.o_letters).get((i, j))

    def is_idle(self, i: int, j: int) -> bool:
        return (i, j) in self.idle


def _letters_anticommute(a: str, b: str) -> bool:
    return a != "I" and b != "I" and a != b


def classify(layout: NetworkLayout, selection: OperatorSelection) -> Classification:
    """Split each source's qubits into anticommuting (D) and commuting (H)
    letter positions, and mark receiver-held commuting qubits as idle."""
    if selection.N != layout.N:
        raise ValueError(
            f"selection covers {selection.N} sources, layout has {layout.N}"
        )
    for i in range(1, layout.N + 1):
        g, h, _ = selection.for_source(i)
        if g.n != layout.source_sizes[i - 1] or h.n != layout.source_sizes[i - 1]:
            raise ValueError(f"selection operators do not match source {i} size")

    d_sets, idle, o_letters = [], [], []
    for i in range(1, layout.N + 1):
        g, h, _ = selection.for_source(i)
        d = []
        for j in range(1, g.n + 1):
            s_letter, t_letter = g.letter(j - 1), h.letter(j - 1)
            if _letters_anticommute(s_letter, t_letter):
                d.append(j)
            elif layout.is_receiver(layout.agent_of(i, j)):
                idle.append((i, j))
                nonidentity = s_letter if s_letter != "I" else t_letter
                if nonidentity != "I":
                    o_letters.append(((i, j), nonidentity))
        d_sets.append(tuple(d))
    return Classification(
        d_sets=tuple(d_sets),
        idle=tuple(idle),
        o_letters=tuple(o_letters),
    )


def anticommuting_count(
    layout: NetworkLayout, classification: Classification, agent: int
) -> int:
    """How many of the agent's qubits carry anticommuting (g, h) letters."""
    return sum(classification.delta(i, j) for i, j in layout.qubits_of(agent))


@dataclass(frozen=True)
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
        count = len(classification.d_sets[i - 1])
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
