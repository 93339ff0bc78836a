"""Local observable synthesis.

Source agents get the anticommuting pair (S, T) by restricting the
per-source g and h letters to the qubits they hold, mixed into
A_x = cos(theta) S + (-1)^x sin(theta) T. Receivers get the products
B0 (g letters) and B1 (h letters) over their qubits. None of this
depends on the mixing angles: a Synthesis is built once per layout and
selection, and every engine takes it together with the angles.

Each observable is kept as the agent-local string that validate lists
and as pieces on the groups of sources, which the engines measure; this
module is the one place that puts a letter at its place in a group. A
source agent's qubits lie in its own group, so S and T are one piece
each; a receiver's observables are one piece per group, in group order,
with the string's sign on group 1's piece.

The tilted construction grafts phase-flip letters onto B0: for each
source in the tilt set, its h_prime must be identity on source-side
qubits, must copy the g letter on anticommuting receiver qubits, and
may put the repeated idle observable (or nothing) on idle qubits. The
grafted letters land where B0 has identities; each h_prime's sign is
attributed to the lowest-numbered receiver holding any of its support.
The phase-flip product P is one piece per group: the product of the
group's h_primes, signs included.
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


class CrossCheckError(RuntimeError):
    """An engine found that the synthesized observables disagree with a
    second route to the same quantity: a closed form, a normalized frame,
    or one basis per measured qubit."""


@dataclass(frozen=True)
class SourceObservables:
    """One source agent's measurement family A_x."""

    agent: int
    qubits: tuple[tuple[int, int], ...]
    s_hat: PauliString
    t_hat: PauliString
    s_piece: PauliString
    t_piece: PauliString

    def a_terms(self, x: int, theta: float):
        """A_x at mixing angle theta as weighted pieces on the agent's group:
        the S term, then the T term."""
        sign = 1.0 if x == 0 else -1.0
        return [(math.cos(theta), self.s_piece), (sign * math.sin(theta), self.t_piece)]

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
    b0_pieces: tuple[PauliString, ...]
    b1_pieces: tuple[PauliString, ...]

    def b_pieces(self, y: int) -> tuple[PauliString, ...]:
        """B_y's pieces, one per group of sources."""
        return (self.b0_pieces, self.b1_pieces)[y]

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
    b0_bar_pieces: tuple[PauliString, ...]
    p_part: PauliString
    p_part_pieces: tuple[PauliString, ...]

    def describe(self, label: str) -> list[str]:
        return [
            f"{label}: B0bar = {_annotate(self.qubits, self.b0_bar)}",
            f"{label}: Ppart = {_annotate(self.qubits, self.p_part)}",
        ]


@dataclass(frozen=True)
class TiltedBlock:
    """The tilted-test operators for the whole network."""

    tilt_sources: tuple[int, ...]
    p_pieces: tuple[PauliString, ...]
    receivers: tuple[TiltedReceiver, ...]


def _annotate(qubits, local_op: PauliString) -> str:
    """Agent-annotated text like 'Z(1,2)X(1,3)·Z(2,2)'; '1' for identity."""
    by_source: dict[int, str] = {}
    for (i, j), letter in zip(qubits, local_op.letters):
        if letter != "I":
            by_source[i] = by_source.get(i, "") + f"{letter}({i},{j})"
    body = "·".join(by_source[i] for i in sorted(by_source)) or "1"
    return ("-" if local_op.phase == -1 else "") + body


def _pieces(layout, qubits, local: PauliString, groups=None) -> tuple[PauliString, ...]:
    """local, a string on the given qubits, as one piece per group in
    groups (default: every group): its letters at their places, identity
    elsewhere, and its sign on the first piece."""
    groups = layout.source_agents if groups is None else groups
    rows = {k: ["I"] * layout.group_widths[k - 1] for k in groups}
    for (i, j), letter in zip(qubits, local.letters):
        k, position = layout.place(i, j)
        rows[k][position] = letter
    pieces = [PauliString(rows[k]) for k in groups]
    pieces[0] = pieces[0].with_phase_exponent(local.phase_exponent)
    return tuple(pieces)


def _cut_g_h(selection, qubits) -> tuple[PauliString, PauliString]:
    """The selected g and h cut to the given qubits, as +1-phase local strings."""

    def cut(ops):
        return PauliString([ops[i - 1].letter(j - 1) for i, j in qubits])

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
        s_local, t_local = _cut_g_h(selection, qubits)
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
                s_piece=_pieces(layout, qubits, s_local, (agent,))[0],
                t_piece=_pieces(layout, qubits, t_local, (agent,))[0],
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
        b0, b1 = _cut_g_h(selection, qubits)
        out.append(
            ReceiverObservables(
                agent=agent,
                qubits=qubits,
                b0=b0,
                b1=b1,
                b0_pieces=_pieces(layout, qubits, b0),
                b1_pieces=_pieces(layout, qubits, b1),
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

        graft = PauliString([graft_letter(i, j) for i, j in rec.qubits])
        p_part = PauliString([spans.get((i, j), "I") for i, j in rec.qubits])
        b0_bar = graft * rec.b0
        if anchor_sign[rec.agent] == -1:
            p_part, b0_bar = -p_part, -b0_bar
        per_receiver.append(
            TiltedReceiver(
                agent=rec.agent,
                qubits=rec.qubits,
                b0_bar=b0_bar,
                b0_bar_pieces=_pieces(layout, rec.qubits, b0_bar),
                p_part=p_part,
                p_part_pieces=_pieces(layout, rec.qubits, p_part),
            )
        )

    p_pieces = [PauliString.identity(width) for width in layout.group_widths]
    for source in tilt_sources:
        prime, k = selection.h_prime[source - 1], layout.holder(source)
        qubits = [(source, j) for j in range(1, prime.n + 1)]
        p_pieces[k - 1] = p_pieces[k - 1] * _pieces(layout, qubits, prime, (k,))[0]
    # The parts recompose P group by group in letters, and overall in sign.
    signs = 0
    for k, want in enumerate(p_pieces, start=1):
        got = PauliString.product(tr.p_part_pieces[k - 1] for tr in per_receiver)
        if (got.x, got.z) != (want.x, want.z):
            raise RuntimeError(f"per-receiver phase-flip parts do not recompose in group {k}")
        signs += got.phase_exponent - want.phase_exponent
    if signs % 4:
        raise RuntimeError("per-receiver phase-flip parts do not recompose the sign of P")

    return TiltedBlock(
        tilt_sources=tilt_sources, p_pieces=tuple(p_pieces), receivers=tuple(per_receiver)
    )


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
