"""Local observable synthesis.

Source agents get the anticommuting pair (S, T) by restricting the
per-source g and h letters to the qubits they hold, mixed into
A_x = cos(theta) S + (-1)^x sin(theta) T. Receivers get the products
B0 (g letters) and B1 (h letters) over their qubits. None of this
depends on the mixing angles: a Synthesis is built once per layout and
selection, and every engine takes it together with the angles.

The tilted construction grafts phase-flip letters onto B0: for each
source in the tilt set, its h_prime must be identity on source-side
qubits, must copy the g letter on anticommuting receiver qubits, and
may put the repeated idle observable (or nothing) on idle qubits. The
grafted letters land where B0 has identities; each h_prime's sign is
attributed to the lowest-numbered receiver holding any of its support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from netbell.network import (
    Classification,
    NetworkLayout,
    OperatorSelection,
    anticommuting_count,
    classify,
)
from netbell.pauli import PauliString

# The one refusal of a tilt weight for a scenario no tilt applies to.
BETA_WITHOUT_TILT = "beta given but no source has an h_prime entry"


@dataclass(frozen=True)
class SourceObservables:
    """One source agent's measurement family A_x."""

    agent: int
    qubits: tuple[tuple[int, int], ...]
    s_hat: PauliString
    t_hat: PauliString
    s_global: PauliString
    t_global: PauliString

    def a_terms(self, x: int, theta: float):
        """A_x at mixing angle theta as weighted global Pauli terms: the S
        term, then the T term."""
        sign = 1.0 if x == 0 else -1.0
        return [(math.cos(theta), self.s_global), (sign * math.sin(theta), self.t_global)]

    def describe(self, label: str, theta: float) -> list[str]:
        s_text = _annotate(self.qubits, self.s_hat)
        t_text = _annotate(self.qubits, self.t_hat)
        return [
            f"{label}: A0 = cos({theta:.5f})*{s_text} + sin({theta:.5f})*{t_text}",
            f"{label}: A1 = cos({theta:.5f})*{s_text} - sin({theta:.5f})*{t_text}",
        ]


@dataclass(frozen=True)
class ReceiverObservables:
    """One receiver's setting-indexed observables B0, B1."""

    agent: int
    qubits: tuple[tuple[int, int], ...]
    b0: PauliString
    b1: PauliString
    b0_global: PauliString
    b1_global: PauliString

    def b_terms(self, y: int):
        """B_y on the global register."""
        return (self.b0_global, self.b1_global)[y]

    def describe(self, label: str) -> list[str]:
        return [
            f"{label}: B0 = {_annotate(self.qubits, self.b0)}",
            f"{label}: B1 = {_annotate(self.qubits, self.b1)}",
        ]


@dataclass(frozen=True)
class TiltedReceiver:
    """Per-receiver pieces of the tilted test.

    b0_bar replaces B0 in the measuring phase: B0 times the grafted
    letters, with the attributed sign; dropping the grafted outcomes
    (and the sign) recovers B0. p_part is this receiver's share of the
    phase-flip product, readable from the same per-qubit data.
    """

    agent: int
    qubits: tuple[tuple[int, int], ...]
    b0_bar: PauliString
    b0_bar_global: PauliString
    p_part: PauliString
    p_part_global: PauliString

    def describe(self, label: str) -> list[str]:
        return [
            f"{label}: B0bar = {_annotate(self.qubits, self.b0_bar)}",
            f"{label}: Ppart = {_annotate(self.qubits, self.p_part)}",
        ]


@dataclass(frozen=True)
class TiltedBlock:
    """The tilted-test operators for the whole network."""

    tilt_sources: tuple[int, ...]
    p_full: PauliString
    receivers: tuple[TiltedReceiver, ...]


def _annotate(qubits, local_op: PauliString) -> str:
    """Agent-annotated text like 'Z(1,2)X(1,3)·Z(2,2)'; '1' for identity."""
    by_source: dict[int, str] = {}
    for (i, j), letter in zip(qubits, local_op.letters):
        if letter != "I":
            by_source[i] = by_source.get(i, "") + f"{letter}({i},{j})"
    body = "·".join(by_source[i] for i in sorted(by_source)) or "1"
    return ("-" if local_op.phase == -1 else "") + body


def _restricted(layout, qubits, letter_of) -> tuple[PauliString, PauliString]:
    """A +1-phase local string from per-qubit letters, plus its global lift."""
    local = PauliString([letter_of(i, j) for i, j in qubits])
    positions = [layout.global_index(i, j) for i, j in qubits]
    return local, local.embed(positions, layout.total_qubits)


def _cut_g_h(layout, selection, qubits):
    """The selected g and h cut to the given qubits, each as (local, global)."""

    def cut(ops):
        return _restricted(layout, qubits, lambda i, j: ops[i - 1].letter(j - 1))

    return cut(selection.g), cut(selection.h)


def build_source(
    layout: NetworkLayout,
    classification: Classification,
    selection: OperatorSelection,
) -> tuple[SourceObservables, ...]:
    """Synthesize the A families; refuses layouts whose source agents
    collect an even anticommuting count, since the pair (S, T) would
    commute and A_x would not square to identity."""
    out = []
    for agent in layout.source_agents:
        if anticommuting_count(layout, classification, agent) % 2 == 0:
            raise ValueError(
                f"agent {layout.agent_label(agent)} holds an even anticommuting "
                "count; its A pair would not anticommute"
            )
        qubits = layout.qubits_of(agent)
        (s_local, s_glob), (t_local, t_glob) = _cut_g_h(layout, selection, qubits)
        if not s_local.anticommutes(t_local):
            raise RuntimeError(
                f"agent {layout.agent_label(agent)}: restricted s and t do not anticommute"
            )
        out.append(
            SourceObservables(
                agent=agent,
                qubits=qubits,
                s_hat=s_local,
                t_hat=t_local,
                s_global=s_glob,
                t_global=t_glob,
            )
        )
    return tuple(out)


def build_receiver(
    layout: NetworkLayout,
    classification: Classification,
    selection: OperatorSelection,
    *,
    allow_commuting_pair: bool = False,
) -> tuple[ReceiverObservables, ...]:
    """Synthesize the B pairs. A receiver with an even anticommuting
    count yields commuting B0, B1; that is refused unless explicitly
    allowed (the two-branch correlators stay well defined either way)."""
    out = []
    for agent in layout.receivers:
        even = anticommuting_count(layout, classification, agent) % 2 == 0
        if even and not allow_commuting_pair:
            raise ValueError(
                f"agent {layout.agent_label(agent)} holds an even "
                "anticommuting count; B0 and B1 would commute "
                "(pass allow_commuting_pair=True to accept)"
            )
        qubits = layout.qubits_of(agent)
        (b0_local, b0_glob), (b1_local, b1_glob) = _cut_g_h(layout, selection, qubits)
        out.append(
            ReceiverObservables(
                agent=agent,
                qubits=qubits,
                b0=b0_local,
                b1=b1_local,
                b0_global=b0_glob,
                b1_global=b1_glob,
            )
        )
    return tuple(out)


def tilt_constraints(
    layout: NetworkLayout,
    classification: Classification,
    selection: OperatorSelection,
    source: int,
) -> dict[int, set[str]]:
    """Per-qubit letter constraints (0-based within the source) that a
    phase-flip representative must satisfy; the coset search that finds
    one is logical_representative in tests/oracles.py."""
    g = selection.g[source - 1]
    constraints: dict[int, set[str]] = {}
    for j in range(1, layout.source_sizes[source - 1] + 1):
        agent = layout.agent_of(source, j)
        if not layout.is_receiver(agent):
            constraints[j - 1] = {"I"}
        elif classification.is_idle(source, j):
            o = classification.o_letter(source, j)
            constraints[j - 1] = {"I"} if o is None else {o, "I"}
        else:
            constraints[j - 1] = {g.letter(j - 1)}
    return constraints


def _check_tilt_conditions(layout, classification, selection, source) -> None:
    prime = selection.h_prime[source - 1]
    if not prime.is_hermitian():
        raise ValueError(f"source {source}: h_prime must carry a real sign")
    if prime.weight == 0:
        raise ValueError(f"source {source}: h_prime has no support")
    allowed = tilt_constraints(layout, classification, selection, source)
    for j0, letters in allowed.items():
        letter = prime.letter(j0)
        if letter in letters:
            continue
        agent = layout.agent_of(source, j0 + 1)
        if not layout.is_receiver(agent):
            raise ValueError(
                f"source {source}: h_prime acts as {letter} on source-side "
                f"qubit ({source},{j0 + 1}); it must be identity there"
            )
        if classification.is_idle(source, j0 + 1):
            raise ValueError(
                f"source {source}: h_prime acts as {letter} on idle qubit "
                f"({source},{j0 + 1}); only the repeated observable or "
                "identity is measurable there"
            )
        raise ValueError(
            f"source {source}: h_prime acts as {letter} on qubit "
            f"({source},{j0 + 1}) but the receiver measures "
            f"{selection.g[source - 1].letter(j0)} there"
        )


def build_tilted(
    layout: NetworkLayout,
    classification: Classification,
    selection: OperatorSelection,
    receivers: tuple[ReceiverObservables, ...],
) -> TiltedBlock:
    """Assemble the phase-flip product P and, per receiver, the grafted
    B0bar and its share of P."""
    tilt_sources = selection.tilt_sources
    for source in tilt_sources:
        _check_tilt_conditions(layout, classification, selection, source)

    anchor_sign: dict[int, int] = {agent: 1 for agent in layout.receivers}
    for source in tilt_sources:
        prime = selection.h_prime[source - 1]
        anchor = min(
            layout.agent_of(source, j)
            for j in range(1, prime.n + 1)
            if prime.letter(j - 1) != "I"
        )
        anchor_sign[anchor] *= int(prime.phase.real)

    per_receiver = []
    for rec in receivers:
        spans: dict[tuple[int, int], str] = {}
        for source in tilt_sources:
            prime = selection.h_prime[source - 1]
            for i, j in rec.qubits:
                if i == source and prime.letter(j - 1) != "I":
                    spans[(i, j)] = prime.letter(j - 1)

        def graft_letter(i, j):
            if (i, j) in spans and selection.g[i - 1].letter(j - 1) == "I":
                return spans[(i, j)]
            return "I"

        graft_local, graft_glob = _restricted(layout, rec.qubits, graft_letter)
        p_local, p_glob = _restricted(
            layout, rec.qubits, lambda i, j: spans.get((i, j), "I")
        )
        sign = anchor_sign[rec.agent]
        if sign == -1:
            p_local, p_glob = -p_local, -p_glob
            bar_local = -(graft_local * rec.b0)
            bar_glob = -(graft_glob * rec.b0_global)
        else:
            bar_local = graft_local * rec.b0
            bar_glob = graft_glob * rec.b0_global

        per_receiver.append(
            TiltedReceiver(
                agent=rec.agent,
                qubits=rec.qubits,
                b0_bar=bar_local,
                b0_bar_global=bar_glob,
                p_part=p_local,
                p_part_global=p_glob,
            )
        )

    p_full = PauliString.product(
        [layout.embed(i, selection.h_prime[i - 1]) for i in tilt_sources],
        n=layout.total_qubits,
    )
    combined = PauliString.product(
        [tr.p_part_global for tr in per_receiver], n=layout.total_qubits
    )
    if combined != p_full:
        raise RuntimeError("per-receiver phase-flip parts do not recompose")

    return TiltedBlock(tilt_sources=tilt_sources, p_full=p_full, receivers=tuple(per_receiver))


@dataclass(frozen=True)
class Synthesis:
    """Every agent's observables for one layout and selection; the mixing
    angles are not part of it but are passed to each engine with it."""

    layout: NetworkLayout
    selection: OperatorSelection
    classification: Classification
    sources: tuple[SourceObservables, ...]
    receivers: tuple[ReceiverObservables, ...]
    tilt: TiltedBlock | None

    def angles(self, thetas) -> tuple[float, ...]:
        """thetas as floats, one mixing angle per source agent."""
        thetas = tuple(float(t) for t in thetas)
        if len(thetas) != self.layout.K:
            raise ValueError(f"need {self.layout.K} angles, got {len(thetas)}")
        return thetas

    def check_beta(self, beta: float) -> None:
        """Refuse a tilt weight without a tilted block, or a negative one."""
        if self.tilt is None:
            raise ValueError(BETA_WITHOUT_TILT)
        if not beta >= 0:
            raise ValueError(f"beta must be nonnegative, got {beta}")

    def describe(self, thetas) -> str:
        """One line per observable, the A families at the given angles."""
        label = self.layout.agent_label
        lines: list[str] = []
        for obs, theta in zip(self.sources, self.angles(thetas)):
            lines += obs.describe(label(obs.agent), theta)
        for rec in self.receivers + (self.tilt.receivers if self.tilt else ()):
            lines += rec.describe(label(rec.agent))
        return "\n".join(lines)


def synthesize(
    layout: NetworkLayout,
    selection: OperatorSelection,
    *,
    allow_commuting_pair: bool = False,
) -> Synthesis:
    """Classify the letters once and build the A families, the B pairs and,
    when some source carries an h_prime, the tilted block."""
    classification = classify(layout, selection)
    sources = build_source(layout, classification, selection)
    receivers = build_receiver(
        layout, classification, selection, allow_commuting_pair=allow_commuting_pair
    )
    tilt = None
    if selection.tilt_sources:
        tilt = build_tilted(layout, classification, selection, receivers)
    return Synthesis(layout, selection, classification, sources, receivers, tilt)
