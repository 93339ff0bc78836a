"""Local observable synthesis.

Source agents get the anticommuting pair (S, T) by restricting the
per-source g and h letters to the qubits they hold, mixed into
A_x = cos(theta) S + (-1)^x sin(theta) T. Receivers get the products
B0 (g letters) and B1 (h letters) over their qubits. None of this
depends on the mixing angles: a Synthesis is built once per layout and
selection, and every engine takes it together with the angles.

Each observable is kept as the agent-local string that validate lists
and as pieces on the groups of sources, which the engines measure;
`_cut` cuts both from the x and z masks of g, h or h_prime with the
agent's held masks, and letters appear only in the text describing
them. A source agent's qubits lie in its own group, so S and T are one
piece each; a receiver's observables are one piece per group, in group
order, with the string's sign on group 1's piece.

The tilted construction grafts phase-flip letters onto B0: for each
source in the tilt set, its h_prime must be identity on source-side
qubits, must copy g on anticommuting receiver qubits, and may put the
repeated idle observable o (or nothing) on idle qubits; as masks, it
acts only as g or o, and on every anticommuting receiver qubit. The
grafted letters land where g is the identity; each h_prime's sign is
attributed to the lowest-numbered receiver holding any of its support.
The phase-flip product P is one piece per group: the product of the
group's h_primes, signs included.
"""

from __future__ import annotations

import math
from typing import NamedTuple

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


class SourceObservables(NamedTuple):
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


class ReceiverObservables(NamedTuple):
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


class TiltedReceiver(NamedTuple):
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


class TiltedBlock(NamedTuple):
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


def _extract(mask: int, a: int, b: int, c: int, d: int) -> tuple[int, int, int, int]:
    """The bits of a, b, c and d under mask, each packed in order into the
    low bits, one run of adjacent mask bits at a time."""
    oa = ob = oc = od = filled = 0
    while mask:
        low = mask & -mask
        run = mask & ~(mask + low)  # the lowest run of set bits
        s = low.bit_length() - 1
        oa, ob = oa | (a & run) >> s << filled, ob | (b & run) >> s << filled
        oc, od = oc | (c & run) >> s << filled, od | (d & run) >> s << filled
        filled += run.bit_count()
        mask ^= run
    return oa, ob, oc, od


def _cut(layout, held, ops, phase_exponent=0):
    """Two strings given per source by ops, as masks (x0, z0, x1, z1), cut
    to an agent's qubits (held: its {source: mask}): per string, the
    agent-local string, its qubits in (i, j) order and the given sign, and
    its (x, z) masks per group of sources, each source's bits at their
    place there."""
    x0 = z0 = x1 = z1 = n = 0
    groups: dict[int, tuple[int, int, int, int]] = {}
    for i, mask in held.items():
        k, shift = layout.group_shift(i)
        a, b, c, d = ops[i - 1]
        a, b, c, d = a & mask, b & mask, c & mask, d & mask
        e, f, g, h = groups.get(k, (0, 0, 0, 0))
        groups[k] = (e | a << shift, f | b << shift, g | c << shift, h | d << shift)
        a, b, c, d = _extract(mask, a, b, c, d)
        w = mask.bit_count()
        x0, z0, x1, z1, n = x0 << w | a, z0 << w | b, x1 << w | c, z1 << w | d, n + w
    return (
        (PauliString.from_masks(x0, z0, n, phase_exponent), {k: r[:2] for k, r in groups.items()}),
        (PauliString.from_masks(x1, z1, n, phase_exponent), {k: r[2:] for k, r in groups.items()}),
    )


def _pieces(layout, groups, phase_exponent=0) -> tuple[PauliString, ...]:
    """One piece per group of sources from _cut's masks, identity where it
    has none, with the sign on group 1's piece."""
    return tuple(
        PauliString.from_masks(*groups.get(k, (0, 0)), width, phase_exponent if k == 1 else 0)
        for k, width in enumerate(layout.group_widths, start=1)
    )


def build_source(
    layout: NetworkLayout,
    classification: Classification,
    selection: OperatorSelection,
) -> tuple[SourceObservables, ...]:
    """Synthesize the A families; refuses layouts whose source agents
    collect an even anticommuting count, since the pair (S, T) would
    commute and A_x would not square to identity."""
    g_h = [(g.x, g.z, h.x, h.z) for g, h in zip(selection.g, selection.h)]
    out = []
    for agent in layout.source_agents:
        if anticommuting_count(layout, classification, agent) % 2 == 0:
            raise ValueError(
                f"agent {layout.agent_label(agent)} holds an even anticommuting "
                "count; its A pair would not anticommute"
            )
        (s_local, s_groups), (t_local, t_groups) = _cut(layout, layout.held(agent), g_h)
        if not s_local.anticommutes(t_local):
            raise RuntimeError(
                f"agent {layout.agent_label(agent)}: restricted s and t do not anticommute"
            )
        out.append(
            SourceObservables(
                agent=agent,
                qubits=layout.qubits_of(agent),
                s_hat=s_local,
                t_hat=t_local,
                s_piece=PauliString.from_masks(*s_groups[agent], layout.group_widths[agent - 1]),
                t_piece=PauliString.from_masks(*t_groups[agent], layout.group_widths[agent - 1]),
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
    g_h = [(g.x, g.z, h.x, h.z) for g, h in zip(selection.g, selection.h)]
    out = []
    for agent in layout.receivers:
        even = anticommuting_count(layout, classification, agent) % 2 == 0
        if even and not allow_commuting_pair:
            raise ValueError(
                f"agent {layout.agent_label(agent)} holds an even "
                "anticommuting count; B0 and B1 would commute "
                "(pass allow_commuting_pair=True to accept)"
            )
        (b0, b0_groups), (b1, b1_groups) = _cut(layout, layout.held(agent), g_h)
        out.append(
            ReceiverObservables(
                agent=agent,
                qubits=layout.qubits_of(agent),
                b0=b0,
                b1=b1,
                b0_pieces=_pieces(layout, b0_groups),
                b1_pieces=_pieces(layout, b1_groups),
            )
        )
    return tuple(out)


def _check_tilt_conditions(layout, classification, selection, source) -> None:
    g, prime = selection.g[source - 1], selection.h_prime[source - 1]
    if not prime.is_hermitian():
        raise ValueError(f"source {source}: h_prime must carry a real sign")
    if prime.weight == 0:
        raise ValueError(f"source {source}: h_prime has no support")
    # h_prime may act only as g on the anticommuting qubits receivers hold
    # and as o on idle ones, and must act on the former
    own = layout.held(layout.holder(source))[source]
    measured = classification.d[source - 1] & ~own
    ox, oz = classification.o[source - 1]
    support = prime.x | prime.z
    bad = support & ((prime.x ^ (g.x & measured | ox)) | (prime.z ^ (g.z & measured | oz)))
    bad |= measured & ~support
    if not bad:
        return
    j = prime.n - bad.bit_length() + 1  # the first qubit breaking a condition
    letter, bit = prime.letter(j - 1), 1 << (prime.n - j)
    if bit & own:
        raise ValueError(
            f"source {source}: h_prime acts as {letter} on source-side "
            f"qubit ({source},{j}); it must be identity there"
        )
    if bit & classification.idle[source - 1]:
        raise ValueError(
            f"source {source}: h_prime acts as {letter} on idle qubit "
            f"({source},{j}); only the repeated observable or "
            "identity is measurable there"
        )
    raise ValueError(
        f"source {source}: h_prime acts as {letter} on qubit "
        f"({source},{j}) but the receiver measures {g.letter(j - 1)} there"
    )


def build_tilted(
    layout: NetworkLayout,
    classification: Classification,
    selection: OperatorSelection,
) -> TiltedBlock:
    """Assemble the phase-flip product P and, per receiver, the grafted
    B0bar and its share of P."""
    tilt_sources, receivers = selection.tilt_sources, layout.receivers
    held = {agent: layout.held(agent) for agent in receivers}
    anchor_sign = dict.fromkeys(receivers, 0)
    # per source, the x and z masks of B0bar, then of P; h_prime agrees
    # with g wherever both act, so B0bar's letters are their union
    parts = [(g.x, g.z, 0, 0) for g in selection.g]
    p_groups: dict[int, tuple[int, int, int]] = {}  # x, z and phase of P's pieces
    for source in tilt_sources:
        _check_tilt_conditions(layout, classification, selection, source)
        g, prime = selection.g[source - 1], selection.h_prime[source - 1]
        anchor = next(r for r in receivers if held[r].get(source, 0) & (prime.x | prime.z))
        anchor_sign[anchor] += prime.phase_exponent
        parts[source - 1] = (g.x | prime.x, g.z | prime.z, prime.x, prime.z)
        k, shift = layout.group_shift(source)
        px, pz, phase = p_groups.get(k, (0, 0, 0))
        p_groups[k] = (px | prime.x << shift, pz | prime.z << shift, phase + prime.phase_exponent)
    p_pieces = []
    for k, width in enumerate(layout.group_widths, start=1):
        x, z, phase = p_groups.get(k, (0, 0, 0))
        p_pieces.append(PauliString.from_masks(x, z, width, phase))

    per_receiver = []
    for agent in receivers:
        sign = anchor_sign[agent]
        (b0_bar, bar_groups), (p_part, part_groups) = _cut(layout, held[agent], parts, sign)
        per_receiver.append(
            TiltedReceiver(
                agent=agent,
                qubits=layout.qubits_of(agent),
                b0_bar=b0_bar,
                b0_bar_pieces=_pieces(layout, bar_groups, sign),
                p_part=p_part,
                p_part_pieces=_pieces(layout, part_groups, sign),
            )
        )

    # The parts recompose P group by group in letters, and overall in sign.
    signs = 0
    shares = zip(*(tr.p_part_pieces for tr in per_receiver))
    for k, (want, share) in enumerate(zip(p_pieces, shares), start=1):
        got = PauliString.product(share)
        if (got.x, got.z) != (want.x, want.z):
            raise RuntimeError(f"per-receiver phase-flip parts do not recompose in group {k}")
        signs += got.phase_exponent - want.phase_exponent
    if signs % 4:
        raise RuntimeError("per-receiver phase-flip parts do not recompose the sign of P")

    return TiltedBlock(
        tilt_sources=tilt_sources, p_pieces=tuple(p_pieces), receivers=tuple(per_receiver)
    )


class Synthesis(NamedTuple):
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
    """Classify the qubits once and build the A families, the B pairs and,
    when some source carries an h_prime, the tilted block."""
    classification = classify(layout, selection)
    sources = build_source(layout, classification, selection)
    receivers = build_receiver(
        layout, classification, selection, allow_commuting_pair=allow_commuting_pair
    )
    tilt = None
    if selection.tilt_sources:
        tilt = build_tilted(layout, classification, selection)
    return Synthesis(layout, selection, classification, sources, receivers, tilt)
