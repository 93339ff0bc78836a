"""Finite-round sampling of network Bell experiments.

Rounds are simulated exactly rather than by per-round state collapse. The
sources are independent, every source agent's observables act inside its
own group of sources, and each receiver measures a product over the
groups, so once the settings are fixed the outcome distribution of a
round is a product over the groups. Each group's factor is built on the
group's own state (the joint state of the network is never formed, and
the statevector cap bounds one group), once per source setting and
receiver settings, by rotating the commuting observables into one shared
computational-basis frame (in `states`; a group's state and its
rotations live only while its frames are built):

* a source agent's two-outcome observable cos(theta) S + (-1)^x sin(theta) T
  equals V S V^dag with V = exp(-(-1)^x (theta/2) ST), so applying V^dag
  (a real combination of the identity and the string ST) reduces it to the
  plain string S;
* every remaining measured string is then diagonalized with single-qubit
  basis rotations: H for X, H S^dag for Y.

Every observable arrives as pieces on the groups (see observables), so a
group's frame reads only the pieces on that group. Its measured basis is
the OR of the x and z bit masks of the pieces it measures (_basis), and
each qubit whose x bit is set is rotated, in ascending order, by H where
its z bit is clear and by H S^dag where it is set
(`states.basis_probabilities`); tests/oracles.py works the same letters
out one qubit at a time from the agents' local strings.
A measured string's mask is its pieces' bits, one mask per group. The
squared amplitudes of the rotated group state are the exact outcome
distribution of the group.

The settings are drawn per round, uniformly, each source agent's x_k
together with its group's outcome: at receiver settings y, group k's
joint frame runs over the index (x_k, outcome), x_k the bit above the
group's qubits, with half the outcome probabilities at x_k = 0 followed
by half those at x_k = 1. Each group stacks its 2^M joint frames into
one guide table (see _Table), read at a start row per round; hence the
bound of MAX_RECEIVER_SETTINGS. Every recorded outcome is the parity of
a string's bits in the groups' indices, so the table keeps, per bin, one
parity bit for each string read on the group: the product of all
outcomes (whose mask at y = 1...1 also holds every x bit, so that it
reads (-1)^|x| times the product), the phase-flip product when tilted,
and each record column.

The rounds are drawn in chunks of _RECORD_CHUNK rounds, one call to the
generator per chunk. Each round takes K + 1 consecutive uniforms, so the
draws do not depend on the chunk size: the first gives y = floor(u 2^M),
exact since 2^M is a power of two, and the others each group's bin in its
frame at y. A string's outcome is the XOR of its bins' parity bits
across the groups, started from its sign. The round record is opened once
every table is built and takes each chunk's lines as soon as it is drawn,
so memory does not grow with the rounds, with a record or without.

Two acquisition strategies are supported. "direct-observable" measures each
agent's chosen observable as a whole (for tilted runs the receiver measures
the commuting grafted triple and the plain B0 outcome is recovered as a
product of its bits). "per-qubit-discard" measures every receiver qubit in
a single-qubit basis (the repeated letter on idle qubits) and multiplies
the relevant bits, discarding the rest. Both strategies share the same
estimators; they differ in which qubits are measured and in what the
per-round record contains. The record lists the rounds in the order they
were drawn, formatted in numpy as one matrix of 4-byte words per chunk of
rounds with a column per line (4-digit words of the index, the settings,
one word per outcome cell, CRLF), whose pad bytes are deleted before the
write.

The estimators pool the rounds of a receiver setting, unbiased under
uniform settings: I is the mean product over the rounds with y = 0...0,
J the mean of (-1)^|x| times the product over those with y = 1...1, and
P the mean phase-flip product over those with y = 0...0. Standard errors
use the plug-in binomial variance and the delta method through the K-th
roots; they are approximate (P shares rounds with I, and a receiver
setting with no rounds counts as a zero mean with a unit standard error).
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .network import NetworkLayout
from .observables import CrossCheckError, Synthesis
from .pauli import _LETTER_OF_BITS
from .reports import atomic_write
from .states import _parity, basis_probabilities, group_state, make_rng, setting_rotations

MODES = ("direct-observable", "per-qubit-discard")

PROB_TOL = 1e-9
# A run holds one chunk of rounds at a time and writes the chunk's lines of
# the round record before it draws the next, so its memory does not grow
# with the rounds, with a record or without; a record's file does.
MAX_ROUNDS = 10**9
# Each group stacks one frame per receiver setting into its guide table, and
# each receiver setting is a tally: 2^M of them are built before any round
# is drawn, so networks with more are refused first.
MAX_RECEIVER_SETTINGS = 2**12

# Rounds per chunk of the sampling pass and per write of the round record:
# bounds the uniforms, bins and text held at once.
_RECORD_CHUNK = 8192
# The round record is assembled from 4-byte words, padded with 0 bytes that
# are deleted before the write. _DIGITS[v] spells v in four digits, and
# _LEADING[s] keeps a word's last s bytes, which blanks the places left of an
# index's leading digit. _OUTCOME maps an outcome code's byte to its cell:
# code 0 is +1, 1 is -1, and 2 is 0, a string not collected in the round.
_DIGITS = np.arange(10**4)[:, None] // [1000, 100, 10, 1] % 10 + ord("0")
_DIGITS = _DIGITS.astype(np.uint8).view(np.uint32).ravel()
_LEADING = np.frombuffer(bytes.fromhex("00000000 000000ff 0000ffff 00ffffff ffffffff"), np.uint32)
_OUTCOME = np.zeros(256, dtype=np.uint32)
_OUTCOME[[0, 1, 2]] = np.frombuffer(b",1\0\0,-1\0,0\0\0", dtype=np.uint32)
_EOL = np.frombuffer(b"\r\n\0\0", dtype=np.uint32)


@dataclass(frozen=True)
class RunConfig:
    """How many rounds to draw, from which seed, with which strategy; the
    setting combinations are drawn uniformly."""

    rounds: int
    seed: int | None = None
    strategy: str = "direct-observable"

    def __post_init__(self):
        if self.rounds < 1:
            raise ValueError(f"rounds must be at least 1, got {self.rounds}")
        if self.rounds > MAX_ROUNDS:
            raise ValueError(f"rounds must be at most {MAX_ROUNDS}, got {self.rounds}")
        if self.strategy not in MODES:
            raise ValueError(
                f"unknown strategy {self.strategy!r}; expected one of {MODES}"
            )


@dataclass(frozen=True)
class SettingTally:
    """Rounds and outcome sums at one receiver setting y: product_sum sums
    the product of all outcomes, times (-1)^|x| where every receiver is on
    setting 1, and p_sum the phase-flip product where it is collected."""

    y: tuple[int, ...]
    rounds: int
    product_sum: int
    p_sum: int | None

    @property
    def product_mean(self) -> float:
        return self.product_sum / self.rounds if self.rounds else 0.0

    @property
    def p_mean(self) -> float | None:
        if self.p_sum is None:
            return None
        return self.p_sum / self.rounds if self.rounds else 0.0

    def as_dict(self) -> dict:
        return {
            "y": "".join(str(b) for b in self.y),
            "rounds": self.rounds,
            "product_mean": self.product_mean,
            "p_mean": self.p_mean,
        }


@dataclass(frozen=True)
class TallyReport:
    """Estimates from one sampling run, with the seed echoed back."""

    mode: str
    rounds: int
    seed: int | None
    k: int
    tallies: tuple[SettingTally, ...]
    i_estimate: float
    i_se: float
    j_estimate: float
    j_se: float
    p_estimate: float | None
    p_se: float | None
    beta: float | None
    value_estimate: float
    value_se: float | None
    g_estimate: float | None
    g_se: float | None

    def as_dict(self) -> dict:
        return {
            "mode": self.mode,
            "rounds": self.rounds,
            "seed": self.seed,
            "K": self.k,
            "I": self.i_estimate,
            "I_se": self.i_se,
            "J": self.j_estimate,
            "J_se": self.j_se,
            "P": self.p_estimate,
            "P_se": self.p_se,
            "beta": self.beta,
            "value": self.value_estimate,
            "value_se": self.value_se,
            "G": self.g_estimate,
            "G_se": self.g_se,
            "tallies": [t.as_dict() for t in self.tallies],
        }


# ----------------------------------------------------------------------
# measurement frames, one per group of sources


@dataclass(frozen=True)
class _Mask:
    """A measured string's bit mask on each group's outcome index, in group
    order, plus the string's real sign."""

    bits: tuple[int, ...]
    sign: int


def _string_mask(layout: NetworkLayout, pieces) -> _Mask:
    """The mask of a measured string given as (group, piece) pairs; the
    groups not named hold none of its letters."""
    bits, exponent = [0] * layout.K, 0
    for k, piece in pieces:
        bits[k - 1] = piece.x | piece.z
        exponent += piece.phase_exponent
    if exponent % 2:
        raise ValueError(f"measured string must carry a real sign, got phase i^{exponent % 4}")
    return _Mask(bits=tuple(bits), sign=1 - exponent % 4)


def _basis(synthesis: Synthesis, k: int, y: tuple[int, ...], mode: str) -> tuple[int, int]:
    """The x and z masks of the basis that group k is measured in when the
    receivers hold settings y: the OR of the pieces measured there. The
    source agent measures S. A receiver measures B_y, or B0bar and Ppart on
    a tilted y = 0 in direct mode; in per-qubit-discard mode it also
    measures B_(1-y)'s letter on every qubit where B_y is the identity (the
    repeated letter of an idle qubit)."""
    width, tilt = synthesis.layout.group_widths[k - 1], synthesis.tilt
    x = z = 0

    def add(px: int, pz: int, where: str) -> None:
        nonlocal x, z
        # the first qubit that both hold in different letters, if any
        s = ((x | z) & (px | pz) & ((x ^ px) | (z ^ pz))).bit_length() - 1
        if s >= 0:
            held, new = (
                _LETTER_OF_BITS[(a >> s & 1) | (b >> s & 1) << 1] for a, b in ((x, z), (px, pz))
            )
            raise CrossCheckError(
                f"{where}: qubit {width - 1 - s} would be measured in both {held} and {new} bases"
            )
        x, z = x | px, z | pz

    for src in synthesis.sources:
        if src.agent == k:
            add(src.s_piece.x, src.s_piece.z, f"source agent {src.agent}")
    for pos_r, (ym, rec) in enumerate(zip(y, synthesis.receivers)):
        where = f"receiver agent {rec.agent} in group {k}"
        piece = rec.b_pieces(ym)[k - 1]
        if mode == "per-qubit-discard":
            other = rec.b_pieces(1 - ym)[k - 1]
            idle = ~(piece.x | piece.z)
            add(piece.x | other.x & idle, piece.z | other.z & idle, where)
        elif tilt is not None and ym == 0:
            block = tilt.receivers[pos_r]
            for part in (block.b0_bar_pieces[k - 1], block.p_part_pieces[k - 1]):
                add(part.x, part.z, where)
        else:
            add(piece.x, piece.z, where)
    return x, z


def _product(masks) -> _Mask:
    """The mask of a product of measured strings: their bits XORed in each
    group, their signs multiplied."""
    bits, sign = [0] * len(masks[0].bits), 1
    for mask in masks:
        bits = [a ^ b for a, b in zip(bits, mask.bits)]
        sign *= mask.sign
    return _Mask(bits=tuple(bits), sign=sign)


class _Frames:
    """Each group's outcome distributions in its measurement frames, and
    the masks that read every agent's outcome off the groups' indices.

    The distribution of group k depends only on its source agent's setting
    x_k and on the receivers' settings y, so each group's frames are built
    together (group_frames): the group's state and its two source-setting
    rotations once, then one frame per y, all dropped before the next
    group's; only the run's distinct codewords are kept from group to group.
    """

    def __init__(self, synthesis: Synthesis, thetas: tuple[float, ...], mode: str):
        layout = synthesis.layout
        # A source observable's group is its agent's, whatever its position.
        owner = {obs.agent: pos for pos, obs in enumerate(synthesis.sources)}
        if sorted(owner) != list(layout.source_agents):
            raise ValueError(f"expected one observable per source agent 1..{layout.K}")
        self.synthesis, self.thetas, self.mode = synthesis, thetas, mode
        self.owners = [owner[k] for k in layout.source_agents]
        self.ys = list(itertools.product((0, 1), repeat=layout.M))
        # Every basis is checked before any frame is built, y outermost,
        # then by group, so a basis refused at several receiver settings or
        # groups is reported at the first.
        for y in self.ys:
            for k in layout.source_agents:
                _basis(synthesis, k, y, mode)
        self.source_masks = [
            _string_mask(layout, [(obs.agent, obs.s_piece)]) for obs in synthesis.sources
        ]
        self._receiver_masks = [
            [_string_mask(layout, enumerate(rec.b_pieces(ym), start=1)) for ym in (0, 1)]
            for rec in synthesis.receivers
        ]
        tilt = synthesis.tilt
        self.p_masks = None if tilt is None else [
            _string_mask(layout, enumerate(block.p_part_pieces, start=1))
            for block in tilt.receivers
        ]

    def receiver_masks(self, y: tuple[int, ...]) -> list[_Mask]:
        return [masks[ym] for masks, ym in zip(self._receiver_masks, y)]

    def group_frames(self, k: int, codewords: dict):
        """Group k's joint frames, one per receiver setting y in product
        order, each built as it is read: over the index (x_k, outcome), x_k
        the bit above the group's qubits, the outcome probabilities at
        x_k = 0 followed by those at x_k = 1, each half summing to 1. The
        group's state takes its sources' codewords from codewords (see
        states.group_state); only its two rotations are kept past them."""
        pos = self.owners[k - 1]
        obs = self.synthesis.sources[pos]
        state = group_state(self.synthesis.layout.group_sources(k), codewords)
        rotated = setting_rotations(state, obs.s_piece * obs.t_piece, self.thetas[pos])
        del state
        for y in self.ys:
            x, z = _basis(self.synthesis, k, y, self.mode)
            yield np.concatenate([_normalized(basis_probabilities(a, x, z), k) for a in rotated])

    def tables(self, reads) -> list[_Table]:
        """Per group, in group order, its guide table stacked over its
        joint frames (see group_frames; the table normalizes them, which
        halves each exactly). reads[s][y] is string s's mask at y on that
        index, or None where it is not collected. Each group's frames are
        built as its table reads them, and each distinct codeword once."""
        codewords: dict = {}
        return [
            _table(
                self.group_frames(k, codewords),
                [[0 if mask is None else mask.bits[k - 1] for mask in read] for read in reads],
            )
            for k in self.synthesis.layout.source_agents
        ]


def _normalized(probabilities: np.ndarray, k: int) -> np.ndarray:
    """Group k's outcome probabilities over their sum, which must be 1."""
    total = probabilities.sum()
    if not abs(total - 1.0) < PROB_TOL:
        raise CrossCheckError(f"group {k} frame probabilities sum to {total!r}")
    return probabilities / total


@dataclass(frozen=True)
class _Table:
    """One group's guide table, stacked over the group's frames.

    Each frame keeps only the distinct bins [low, upper) of its cumulative
    sums, each with the outcome index that a searchsorted(side="right")
    returns inside it: the last of a run of zero-probability outcomes,
    which repeat an edge. The frames' bins follow one another in the
    stacked arrays. start holds, for each frame in turn, one row of a
    power-of-two number of equal buckets, each bucket's entry the bin
    holding its left end (the indexed search of Chen and Asau, 1974; see
    Devroye, Non-Uniform Random Variate Generation, III.2.4). A power of
    two makes u * buckets exact, so u lies in bucket floor(u * buckets) and
    its bin is at or past that bucket's start; steps is the most bins a
    bucket of any frame spans past its start, so that many steps of
    j += upper[j] <= u reach every u's bin, and stay there, since a frame's
    last bin ends at 1. parities[s] holds string s's parity (its bits of
    the bin's index) per bin, or None if the string has no bits on the
    group.
    """

    index: np.ndarray
    upper: np.ndarray
    start: np.ndarray
    buckets: int
    steps: int
    parities: list[np.ndarray | None]

    def locate(self, u: np.ndarray, base) -> np.ndarray:
        """The bin of each uniform u in [0, 1) in the frame whose start row
        begins at base (frame * buckets; one for all, or one per u)."""
        j = self.start[base + (u * self.buckets).astype(np.intp)]
        for _ in range(self.steps):
            j += self.upper[j] <= u
        return j


def _table(frames, reads: list[list[int]]) -> _Table:
    """The guide table stacked over one group's frames, an iterable of
    their probabilities read once, and the parities of the strings read
    there: reads[s][f] is string s's bits on the group in frame f.

    The edges are 0 followed by the normalized cumulative sums, as
    Generator.choice forms them. The buckets are the smallest power of two
    at least four times the most bins of a frame, so few buckets hold an
    edge inside them and steps is at most 2 on every builtin.
    """
    def cut(probabilities):  # a frame's bins, holding no frame past its return
        edges = np.zeros(probabilities.size + 1)
        cdf = np.cumsum(probabilities, out=edges[1:])
        cdf /= cdf[-1]
        index = np.flatnonzero(edges[:-1] < edges[1:])
        return index, edges[index], edges[index + 1]

    cuts = list(map(cut, frames))
    buckets = 1 << (4 * max(index.size for index, _, _ in cuts) - 1).bit_length()
    bounds = np.arange(buckets + 1) / buckets
    starts, ends, offset = [], [], 0
    for index, low, _ in cuts:
        starts.append(low.searchsorted(bounds[:-1], side="right") - 1 + offset)
        # the last bin that a u below the next bucket's left end can lie in
        ends.append(low.searchsorted(bounds[1:], side="left") - 1 + offset)
        offset += index.size
    start, end = np.concatenate(starts), np.concatenate(ends)
    parities = [
        np.concatenate([_parity(index & b) for (index, _, _), b in zip(cuts, bits)])
        .astype(np.uint8) if any(bits) else None
        for bits in reads
    ]
    index, _, upper = (np.concatenate(part) for part in zip(*cuts))
    steps = int((end - start).max())
    return _Table(index, upper, start, buckets, steps, parities)


# ----------------------------------------------------------------------
# estimators


def _power_and_se(value: float, se: float, k: int) -> tuple[float, float | None]:
    root = abs(value) ** (1.0 / k)
    if value == 0.0 and k > 1:
        return root, None
    derivative = abs(value) ** (1.0 / k - 1.0) / k
    return root, derivative * se


def _pooled(rounds: int, total: int) -> tuple[float, float]:
    """The mean of a +-1 outcome that sums to total over rounds, and its
    plug-in binomial standard error; no rounds give 0 and 1."""
    if not rounds:
        return 0.0, 1.0
    mean = total / rounds
    return mean, math.sqrt(max(0.0, 1.0 - mean**2) / rounds)


# ----------------------------------------------------------------------
# the run itself


def _csv_header(mode, k, m, tilted, measured_qubits) -> list[str]:
    header = ["round", "settings"]
    header += [f"a{idx}" for idx in range(1, k + 1)]
    if mode == "direct-observable":
        header += [f"b{idx}" for idx in range(1, m + 1)]
        if tilted:
            header += [f"p{idx}" for idx in range(1, m + 1)]
    else:
        header += [f"q({i},{j})" for i, j in measured_qubits]
    return header


def _record_reads(synthesis: Synthesis, frames: _Frames, mode: str, ys, tilted):
    """The round record's header and what each of its outcome columns
    reads: the column's mask at every receiver setting y, or None where it
    is not collected."""
    layout, receivers = synthesis.layout, synthesis.receivers
    k, m = layout.K, layout.M
    columns = [[mask] * len(ys) for mask in frames.source_masks]
    measured = []
    if mode == "direct-observable":
        columns += [[frames.receiver_masks(y)[r] for y in ys] for r in range(m)]
        if synthesis.tilt is not None:
            columns += [[mask if now else None for now in tilted] for mask in frames.p_masks]
    else:
        # Per-qubit records cover the receiver-held qubits where g or h acts,
        # in (i, j) order: the qubits of the B0 and B1 pieces, which every
        # setting's frame measures.
        acts = [0] * k
        for rec in receivers:
            for group, (b0, b1) in enumerate(zip(rec.b0_pieces, rec.b1_pieces)):
                acts[group] |= b0.x | b0.z | b1.x | b1.z
        for i, j in sorted(q for rec in receivers for q in rec.qubits):
            group, position = layout.place(i, j)
            bit = 1 << (layout.group_widths[group - 1] - 1 - position)
            if acts[group - 1] & bit:
                measured.append((i, j))
                bits = tuple(bit if g == group else 0 for g in layout.source_agents)
                columns.append([_Mask(bits=bits, sign=1)] * len(ys))
    return _csv_header(mode, k, m, synthesis.tilt is not None, measured), columns


def run(
    synthesis: Synthesis,
    thetas,
    config: RunConfig,
    *,
    beta: float | None = None,
    record_path=None,
) -> TallyReport:
    """Sample finite rounds at the given mixing angles, one per source
    agent, and report correlator estimates; a synthesis with a tilted
    block measures B0bar and collects the phase-flip product.

    record_path, when given, receives one CSV row per round, in a frozen
    format: the columns round, settings, a1..aK, then b1..bM (and p1..pM
    for a tilted block) in direct mode or one q(i,j) per measured receiver
    qubit in per-qubit mode. settings is the text "x|y" of x bits and y
    bits, such as "01|1"; every outcome is -1 or +1, except that phase-flip
    columns hold 0 in rounds where they are not collected. Lines end in
    CRLF, and the same seed writes the same bytes. The file is written
    atomically, like the reports.
    """
    layout, tilt = synthesis.layout, synthesis.tilt
    if beta is not None:
        synthesis.check_beta(beta)
    thetas = synthesis.angles(thetas)
    k, m = layout.K, layout.M
    if 2**m > MAX_RECEIVER_SETTINGS:
        raise ValueError(
            f"sampling needs 2^{m} receiver settings (M={m}), "
            f"more than the {MAX_RECEIVER_SETTINGS} allowed"
        )
    frames = _Frames(synthesis, thetas, config.strategy)
    rng = make_rng(config.seed)

    # Every string read, as its mask at each receiver setting y (or None
    # where it is not collected): the product of all outcomes, with every
    # x bit at y = 1...1, the phase-flip product when tilted, then the
    # record's columns.
    ys = frames.ys
    tilted = [tilt is not None and not any(y) for y in ys]
    x_bits = [_Mask(bits=tuple(1 << width for width in layout.group_widths), sign=1)]
    reads = [[
        _product(frames.source_masks + frames.receiver_masks(y) + (x_bits if all(y) else []))
        for y in ys
    ]]
    if tilt is not None:
        flip = _product(frames.p_masks)
        reads.append([flip if now else None for now in tilted])
    tallied = len(reads)
    # Buffers reused by every chunk of rounds: a round's K + 1 uniforms in a
    # row of draws, as the generator gives them, and in a column of
    # uniforms, a row per use; with a record, its outcome codes and text.
    draws = np.empty((min(_RECORD_CHUNK, config.rounds), k + 1))
    uniforms = np.empty(draws.shape[::-1])
    if record_path is not None:
        header, columns = _record_reads(synthesis, frames, config.strategy, ys, tilted)
        reads += columns
        outcomes = np.zeros((len(draws), -(-len(columns) // 4) * 4), dtype=np.uint8)
        # each round's settings text: a comma, the x bits, "|", the y bits
        settings = np.zeros((len(draws), -(-(k + m + 2) // 4) * 4), dtype=np.uint8)
        settings[:, 0], settings[:, k + 1] = ord(","), ord("|")
        y_text = np.array(ys, dtype=np.uint8) + ord("0")
    tables = frames.tables(reads)
    # Per string and receiver setting, the outcome code a read starts from:
    # bit 0 the parity of the string's sign, bit 1 set where it is not
    # collected.
    initial = np.array(
        [[2 if mask is None else int(mask.sign < 0) for mask in read] for read in reads],
        dtype=np.uint8,
    )

    # per tallied string, its rounds by outcome code and receiver setting
    codes = np.zeros((tallied, 3 * len(ys)), dtype=np.int64)
    span = np.intp(len(ys))

    def draw(handle) -> None:
        """Tally each chunk of rounds, and write its lines to handle if given."""
        if handle is not None:
            csv.writer(handle).writerow(header)
            handle.flush()  # the lines go to the binary layer below
        for start in range(0, config.rounds, _RECORD_CHUNK):
            size = min(_RECORD_CHUNK, config.rounds - start)
            u = uniforms[:, :size]
            np.copyto(u, rng.random(out=draws[:size]).T)
            y = (u[0] * len(ys)).astype(np.intp)
            bins = [table.locate(row, y * table.buckets) for table, row in zip(tables, u[1:])]
            for s in range(len(reads)):
                bits = initial[s][y]
                for table, j in zip(tables, bins):
                    if table.parities[s] is not None:
                        bits ^= table.parities[s][j]
                if s < tallied:
                    codes[s] += np.bincount(bits * span + y, minlength=3 * len(ys))
                else:
                    outcomes[:size, s - tallied] = bits
            if handle is not None:
                # x_k is the bit above group k's qubits in its bin's index
                for table, j, pos, width in zip(tables, bins, frames.owners, layout.group_widths):
                    settings[:size, 1 + pos] = (table.index[j] >> width) + ord("0")
                settings[:size, k + 2 : k + 2 + m] = y_text[y]
                lines = _format_rounds(start, len(columns), settings[:size], outcomes[:size])
                handle.buffer.write(lines)

    if record_path is None:
        draw(None)
    else:
        atomic_write(record_path, draw)

    codes = codes.reshape(tallied, 3, len(ys))
    counts = codes[0].sum(axis=0)
    sums = (counts - 2 * codes[:, 1]).tolist()
    tallies = [
        SettingTally(y, int(count), sums[0][v], sums[1][v] if tilted[v] else None)
        for v, (y, count) in enumerate(zip(ys, counts))
    ]
    return _report(config, k, tallies, beta)


def _report(config: RunConfig, k: int, tallies: list[SettingTally], beta) -> TallyReport:
    """The estimates of a run's tallies, one per receiver setting in
    product order: I from y = 0...0, J from y = 1...1, and P from y =
    0...0 when its phase-flip product is collected there."""
    first, last = tallies[0], tallies[-1]
    i_est, i_se = _pooled(first.rounds, first.product_sum)
    j_est, j_se = _pooled(last.rounds, last.product_sum)
    p_est = p_se = None
    if first.p_sum is not None and first.rounds:
        p_est, p_se = _pooled(first.rounds, first.p_sum)

    i_root, i_root_se = _power_and_se(i_est, i_se, k)
    j_root, j_root_se = _power_and_se(j_est, j_se, k)
    value = i_root + j_root
    if i_root_se is None or j_root_se is None:
        value_se = None
    else:
        value_se = math.sqrt(i_root_se**2 + j_root_se**2)

    g_est = g_se = None
    if beta is not None and p_est is not None:
        p_root, p_root_se = _power_and_se(p_est, p_se, k)
        g_est = beta * p_root + value
        if value_se is not None and p_root_se is not None:
            g_se = math.sqrt(value_se**2 + (beta * p_root_se) ** 2)

    return TallyReport(
        mode=config.strategy,
        rounds=config.rounds,
        seed=config.seed,
        k=k,
        tallies=tuple(tallies),
        i_estimate=i_est,
        i_se=i_se,
        j_estimate=j_est,
        j_se=j_se,
        p_estimate=p_est,
        p_se=p_se,
        beta=beta,
        value_estimate=value,
        value_se=value_se,
        g_estimate=g_est,
        g_se=g_se,
    )


def _format_rounds(start: int, width: int, settings, outcomes) -> bytes:
    """The record lines of rounds start, start + 1, ..., under a header of
    width outcome columns: round start + r's settings text and outcome codes
    (see _OUTCOME) are row r of the uint8 matrices settings and outcomes,
    padded with 0 bytes to whole 4-byte words. A (words, rounds) matrix of
    4-byte words is filled a row at a time (the index's 4-digit words, the
    settings, the outcome cells, CRLF) and read by round, pad bytes deleted."""
    rounds = len(settings)
    if outcomes.shape != (rounds, -(-width // 4) * 4):
        raise RuntimeError(
            f"round record of shape {outcomes.shape} does not match "
            f"{rounds} rounds and header width {width}"
        )
    stop = start + rounds
    lead = -(-len(str(stop - 1)) // 4)
    settings = settings.view(np.uint32)
    words = np.empty((lead + settings.shape[1] + width + 1, rounds), dtype=np.uint32)
    # The index's words, over runs of rounds that share its digit count and
    # all but its last word, whose values there are a slice of _DIGITS; a
    # place left of the leading digit is a pad byte.
    low = start
    while low < stop:
        places = len(str(low))
        high = min(stop, low - low % 10**4 + 10**4, 10**places)
        for j in range(lead):  # the j-th word from the right
            value = low // 10 ** (4 * j) % 10**4
            digits = _DIGITS[value : value + high - low] if j == 0 else _DIGITS[value]
            row = words[lead - 1 - j, low - start : high - start]
            np.bitwise_and(digits, _LEADING[min(max(places - 4 * j, 0), 4)], out=row)
        low = high
    words[lead : lead + settings.shape[1]] = settings.T
    # take's default mode copies through a buffer; every index is in range
    for c, row in enumerate(words[lead + settings.shape[1] : -1]):
        np.take(_OUTCOME, outcomes[:, c], out=row, mode="clip")
    words[-1] = _EOL
    return words.T.tobytes().translate(None, b"\0")
