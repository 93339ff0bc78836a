"""Finite-round sampling of network Bell experiments.

A run draws its tallies from their exact law; only a run that writes a
round record draws rounds, conditioned on those counts, so a seed gives
the same report with a record or without.

The law. The sources are independent and every observable is a product
of pieces on the groups of sources (see observables), so at receiver
settings y the product of all outcomes is a product of independent +-1
outcomes, one per group. Under uniform source settings group k's mean is
cos(theta_k) <S_k B_y,k>, or sin(theta_k) <T_k B_y,k> at y = 1...1, where
the tally takes (-1)^|x| times the product (B_y,k is the receivers'
pieces' product on the group). A tilted y = 0...0 also collects the phase
flip, of group means <P_k>, and both together, cos(theta_k)
<S_k B_0,k P_k>. Each mean is a `bell._group_expectation` of the sources'
stabilizing and logical operators. A cell of y, its rounds whose tallied
outcomes are a (and b), has probability (1 + a m)/2, or
(1 + a m + b f + a b g)/4 at a tilted y = 0...0, m, f and g the products
of the means, and y is uniform: one multinomial draw over every (y, cell)
gives the tallies, with no frame or statevector, so the statevector cap
bounds only a record.

The record. Each group's frames are built on its own state (in `states`),
once per source setting and receiver settings: V = exp(-(-1)^x (theta/2)
ST) takes S to the agent's cos(theta) S + (-1)^x sin(theta) T, so V^dag
turns the state, and the basis, the OR of the x and z masks of the pieces
measured on the group (_basis), rotates each qubit whose x bit is set, in
ascending order, by H, or by H S^dag where its z bit is set too
(tests/oracles.py works the letters out one qubit at a time). A string's
outcome is its sign times the parity of its bits in the groups' indices.
At y, group k's joint frame runs over (x_k, outcome), x_k the bit above
the group's qubits, half the outcome probabilities at each x_k. A round's
residual is the parity of the tallied strings that the groups not yet
drawn owe its cell: backward sums over the groups (a 2-state chain,
4-state when tilted) give the frames' law of the cells, which must be the
exact law within PROB_TOL, and each group's guide table (_Table) one row
per y and residual, its frame weighted by the probability that the later
groups owe the rest. Each chunk of _RECORD_CHUNK rounds takes its cells
from the counts left, without replacement, shuffled, then one uniform per
group and round, read at the row of the round's y and residual, which is
0 after the last group; its lines are written as soon as it is drawn, so
memory does not grow with the rounds.

"direct-observable" measures each agent's observable whole (a tilted
receiver the commuting grafted triple, and B0 as the product of its
bits); "per-qubit-discard" measures every receiver qubit in a
single-qubit basis (the repeated letter on idle qubits) and multiplies
the relevant bits. Both tally the same strings, so they share the law and
the estimators; they differ in the qubits measured and in the record,
which lists the rounds in the order drawn, each chunk formatted in numpy
as a matrix of 4-byte words with a column per line (4-digit words of the
index, the settings, a word per outcome cell, CRLF), pad bytes deleted.

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
from typing import NamedTuple

import numpy as np

from .bell import _group_expectation
from .network import NetworkLayout
from .observables import CrossCheckError, Synthesis
from .pauli import _LETTER_OF_BITS, PauliString
from .records import Record
from .reports import atomic_write
from .scenarios import MAX_ROUNDS, MODES
from .states import _parity, basis_probabilities, group_state, make_rng, setting_rotations

PROB_TOL = 1e-9
# Each receiver setting is a tally, and each group's guide table stacks rows
# per setting: 2^M of them are laid out first, so more are refused first.
MAX_RECEIVER_SETTINGS = 2**12

# Rounds per chunk of the round record's draw and write: bounds the cells,
# uniforms, bins and text held at once.
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


class RunConfig(Record):
    """How many rounds to draw, from which seed, with which strategy; the
    setting combinations are drawn uniformly."""

    _fields = ("rounds", "seed", "strategy")

    def __init__(self, rounds: int, seed: int | None = None, strategy: str = "direct-observable"):
        self.__dict__.update(rounds=rounds, seed=seed, strategy=strategy)
        if self.rounds < 1:
            raise ValueError(f"rounds must be at least 1, got {self.rounds}")
        if self.rounds > MAX_ROUNDS:
            raise ValueError(f"rounds must be at most {MAX_ROUNDS}, got {self.rounds}")
        if self.strategy not in MODES:
            raise ValueError(
                f"unknown strategy {self.strategy!r}; expected one of {MODES}"
            )


class SettingTally(NamedTuple):
    """Rounds and outcome sums at one receiver setting y: product_sum sums
    the product of all outcomes, times (-1)^|x| where every receiver is on
    setting 1, and p_sum the phase-flip product where it is collected."""

    y: tuple[int, ...]
    rounds: int
    product_sum: int
    p_sum: int | None

    def as_dict(self) -> dict:
        rounds = self.rounds or 1  # no rounds: sums 0, means 0.0
        return {
            "y": "".join(str(b) for b in self.y),
            "rounds": self.rounds,
            "product_mean": self.product_sum / rounds,
            "p_mean": None if self.p_sum is None else self.p_sum / rounds,
        }


class TallyReport(NamedTuple):
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
        """The report's fields under their JSON keys, the tallies last."""
        values = [value for key, value in zip(self._fields, self) if key != "tallies"]
        return {**dict(zip(_REPORT_KEYS, values)), "tallies": [t.as_dict() for t in self.tallies]}


# TallyReport's JSON keys, in its fields' order without the tallies.
_REPORT_KEYS = (
    "mode", "rounds", "seed", "K", "I", "I_se", "J", "J_se", "P", "P_se",
    "beta", "value", "value_se", "G", "G_se",
)


# ----------------------------------------------------------------------
# measurement frames, one per group of sources


class _Mask(NamedTuple):
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
    """The masks that read every agent's outcome off the groups' indices,
    the exact law of the tallies, and each group's frames and guide table.

    The distribution of group k depends only on its source agent's setting
    x_k and on the receivers' settings y, so each group's frames are built
    together (group_frames): the group's state and its two source-setting
    rotations once, then one frame per y, all dropped before the next
    group's; only the run's distinct codewords are kept from group to group.
    """

    def __init__(self, synthesis: Synthesis, thetas: tuple[float, ...], mode: str):
        layout, tilt = synthesis.layout, synthesis.tilt
        # A source observable's group is its agent's, whatever its position.
        owner = {obs.agent: pos for pos, obs in enumerate(synthesis.sources)}
        if sorted(owner) != list(layout.source_agents):
            raise ValueError(f"expected one observable per source agent 1..{layout.K}")
        self.synthesis, self.thetas, self.mode = synthesis, thetas, mode
        self.owners = [owner[k] for k in layout.source_agents]
        self.ys = list(itertools.product((0, 1), repeat=layout.M))
        # Every basis is checked first, y outermost, then by group, so a
        # basis refused at several settings or groups is reported at the first.
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
        self.p_masks = None if tilt is None else [
            _string_mask(layout, enumerate(block.p_part_pieces, start=1))
            for block in tilt.receivers
        ]
        # The tallied strings' masks at each y, None where not collected:
        # the product of all outcomes (with every x bit at y = 1...1) and the
        # phase flip at a tilted y = 0...0. Cell c of y holds the rounds where
        # string t reads (-1)^(c >> t & 1).
        self.tilted = [tilt is not None and not any(y) for y in self.ys]
        x_bits = [_Mask(bits=tuple(1 << width for width in layout.group_widths), sign=1)]
        self.tallied = [[
            _product(self.source_masks + self.receiver_masks(y) + (x_bits if all(y) else []))
            for y in self.ys
        ]]
        if tilt is not None:
            flip = _product(self.p_masks)
            self.tallied.append([flip if now else None for now in self.tilted])
        self.cells = 2 ** len(self.tallied)

    def receiver_masks(self, y: tuple[int, ...]) -> list[_Mask]:
        return [masks[ym] for masks, ym in zip(self._receiver_masks, y)]

    def law(self) -> np.ndarray:
        """Each cell's exact probability (column) per receiver setting y (row)
        from the group expectations: 0 where y has no such cell, and never
        below 0, which round-off could give and the multinomial refuses."""
        synthesis = self.synthesis
        layout, receivers, tilt = synthesis.layout, synthesis.receivers, synthesis.tilt
        a, b = 1 - 2 * (np.arange(self.cells) & 1), 1 - 2 * (np.arange(self.cells) >> 1)
        law = np.zeros((len(self.ys), self.cells))
        for v, (y, now) in enumerate(zip(self.ys, self.tilted)):
            means = [1.0, 1.0, 1.0]  # the product, the phase flip, both
            for k, pos in enumerate(self.owners, start=1):
                obs, theta = synthesis.sources[pos], self.thetas[pos]
                b_k = PauliString.product(rec.b_pieces(ym)[k - 1] for rec, ym in zip(receivers, y))
                if all(y):
                    factors = [(math.sin(theta), obs.t_piece * b_k)]
                else:
                    factors = [(math.cos(theta), obs.s_piece * b_k)]
                if now:
                    p_k = tilt.p_pieces[k - 1]
                    factors += [(1.0, p_k), (math.cos(theta), obs.s_piece * b_k * p_k)]
                for t, (c, op) in enumerate(factors):
                    means[t] *= c * _group_expectation(layout.group_sources(k), op).real
            if now:
                law[v] = (1 + a * means[0] + b * means[1] + a * b * means[2]) / 4
            else:
                law[v, :2] = (1 + a[:2] * means[0]) / 2
        return np.maximum(law, 0.0, out=law)

    def group_frames(self, k: int, codewords: dict):
        """Group k's joint frames, one per receiver setting y in product
        order, each built as it is read, over the index (x_k, outcome): the
        outcome probabilities at x_k = 0, then at x_k = 1. The group's state
        takes its sources' codewords from codewords (see states.group_state);
        only its two rotations are kept past them."""
        pos = self.owners[k - 1]
        obs = self.synthesis.sources[pos]
        state = group_state(self.synthesis.layout.group_sources(k), codewords)
        rotated = setting_rotations(state, obs.s_piece * obs.t_piece, self.thetas[pos])
        del state
        for y in self.ys:
            x, z = _basis(self.synthesis, k, y, self.mode)
            yield np.concatenate([basis_probabilities(a, x, z) for a in rotated])

    def tables(self, columns) -> tuple[list[_Table], np.ndarray]:
        """Per group, its guide table over rows (y, r) in product order, r a
        round's residual before the group is drawn, and the frames' law of
        the cells; columns[s][y] is string s's mask at y, None where not
        collected. Row (y, r) of group k weighs each bin of its frame at y
        by the probability that groups k+1..K owe r XOR the bin's residual
        (one bin where no round reaches it). A bin's codes are its residual,
        then per column its parity of the bin's index, XORed with the
        sign's on group 1 or 2 there where not collected, so the XOR over
        the groups is the outcome code (0 for +1, 1 for -1, 2 for none).
        Every group's frames are built first, and their nonzero bins kept."""
        cells, tallied, codewords, kept = self.cells, len(self.tallied), {}, []
        for k in self.synthesis.layout.source_agents:
            kept.append([])
            for v, frame in enumerate(self.group_frames(k, codewords)):
                index = np.flatnonzero(frame)
                codes = [
                    np.full(index.size, 2 * (k == 1 and t >= tallied)) if mask is None
                    else _parity(index & mask.bits[k - 1]) ^ (k == 1 and mask.sign < 0)
                    for t, mask in enumerate(read[v] for read in self.tallied + columns)
                ]
                owed = sum(code << t for t, code in enumerate(codes[:tallied]))
                codes = np.stack([owed, *codes[tallied:]], axis=1).astype(np.uint8)
                kept[-1].append((index, frame[index] / 2, codes))
        # tails[k][v, r]: the probability that groups k+1..K owe r at ys[v]
        tails = [np.eye(1, cells).repeat(len(self.ys), axis=0)]
        for per_y in reversed(kept):
            spread = np.array([np.bincount(codes[:, 0], p, cells) for _, p, codes in per_y])
            terms = [spread[:, [c]] * tails[0][:, np.arange(cells) ^ c] for c in range(cells)]
            tails.insert(0, sum(terms))
        return [
            _table([
                (index, weights, codes) if (weights := p * tails[k + 1][v, r ^ codes[:, 0]]).any()
                else (index[:1], np.ones(1), codes[:1])
                for v, (index, p, codes) in enumerate(per_y) for r in range(cells)
            ])
            for k, per_y in enumerate(kept)
        ], tails[0]


class _Table(NamedTuple):
    """One group's guide table, stacked over rows of weighted bins: each
    row's distinct bins [low, upper) of its normalized cumulative sums, one
    after another, each with the outcome index a searchsorted(side="right")
    returns in it (the last of a run of zero-weight outcomes) and its codes.
    start holds, per row, a power-of-two number of equal buckets, each the
    bin holding its left end (the indexed search of Chen and Asau, 1974;
    Devroye, Non-Uniform Random Variate Generation, III.2.4): u * buckets
    is exact, so u's bin is at or past its bucket's start, and steps steps
    of j += upper[j] <= u, the most bins a bucket spans past its start,
    reach it and stay, since a row's last bin ends at 1."""

    index: np.ndarray
    codes: np.ndarray
    upper: np.ndarray
    start: np.ndarray
    buckets: int
    steps: int

    def locate(self, u: np.ndarray, base) -> np.ndarray:
        """The bin of each uniform u in [0, 1) in the row whose start row
        begins at base (row * buckets; one for all, or one per u)."""
        j = self.start[base + (u * self.buckets).astype(np.intp)]
        for _ in range(self.steps):
            j += self.upper[j] <= u
        return j


def _table(rows) -> _Table:
    """The guide table stacked over one group's rows, each its ascending
    outcome indices, their weights (nonnegative, not all 0) and codes. The
    edges are 0 followed by the normalized cumulative sums, as
    Generator.choice forms them; the buckets the smallest power of two from
    four times the most bins of a row, up to sixteen, at which steps is at
    most 2 (so it is on every builtin)."""
    def cut(row):  # a row's bins
        index, weights, codes = row
        edges = np.zeros(weights.size + 1)
        cdf = np.cumsum(weights, out=edges[1:])
        cdf /= cdf[-1]
        keep = np.flatnonzero(edges[:-1] < edges[1:])
        return index[keep], edges[keep], edges[keep + 1], codes[keep]

    cuts = list(map(cut, rows))
    most = max(cut[0].size for cut in cuts)
    buckets, steps = 1 << (4 * most - 1).bit_length(), 3
    while steps > 2 and buckets <= 16 * most:
        bounds = np.arange(buckets + 1) / buckets
        starts, ends, offset = [], [], 0
        for index, low, *_ in cuts:
            starts.append(low.searchsorted(bounds[:-1], side="right") - 1 + offset)
            # the last bin that a u below the next bucket's left end can lie in
            ends.append(low.searchsorted(bounds[1:], side="left") - 1 + offset)
            offset += index.size
        start, end = np.concatenate(starts), np.concatenate(ends)
        steps, buckets = int((end - start).max()), 2 * buckets
    index, _, upper, codes = (np.concatenate(part) for part in zip(*cuts))
    return _Table(index, codes, upper, start, buckets // 2, steps)


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


def _record_reads(frames: _Frames):
    """The round record's header and what each of its outcome columns
    reads: the column's mask at every receiver setting y, or None where it
    is not collected."""
    synthesis, mode, ys = frames.synthesis, frames.mode, frames.ys
    layout, receivers = synthesis.layout, synthesis.receivers
    k, m = layout.K, layout.M
    columns = [[mask] * len(ys) for mask in frames.source_masks]
    measured = []
    if mode == "direct-observable":
        columns += [[frames.receiver_masks(y)[r] for y in ys] for r in range(m)]
        if synthesis.tilt is not None:
            columns += [[mask if now else None for now in frames.tilted] for mask in frames.p_masks]
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


def _take(rng: np.random.Generator, left: np.ndarray, size: int) -> np.ndarray:
    """The next size rounds' cells, drawn without replacement from the counts
    left by numpy's marginals method; it takes under 10^9, so more are halved."""
    if left.sum() < 10**9:
        return rng.multivariate_hypergeometric(left, size, method="marginals")
    half = left.size // 2
    first = int(rng.hypergeometric(left[:half].sum(), left[half:].sum(), size))
    return np.concatenate([_take(rng, left[:half], first), _take(rng, left[half:], size - first)])


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
    if beta is not None:
        synthesis.check_beta(beta)
    thetas = synthesis.angles(thetas)
    m = synthesis.layout.M
    if 2**m > MAX_RECEIVER_SETTINGS:
        raise ValueError(
            f"sampling needs 2^{m} receiver settings (M={m}), "
            f"more than the {MAX_RECEIVER_SETTINGS} allowed"
        )
    frames = _Frames(synthesis, thetas, config.strategy)
    rng = make_rng(config.seed)
    law = frames.law()
    ys, cells = frames.ys, frames.cells
    counts = rng.multinomial(config.rounds, law.ravel() / len(ys))
    if record_path is not None:
        _record(record_path, frames, law, counts, rng, config.rounds)
    per_y = counts.reshape(len(ys), cells)
    signs = 1 - 2 * (np.arange(cells)[:, None] >> np.arange(len(frames.tallied)) & 1)
    tallies = [
        SettingTally(y, int(n), total[0], total[1] if now else None)
        for y, n, total, now in zip(ys, per_y.sum(axis=1), (per_y @ signs).tolist(), frames.tilted)
    ]
    return _report(config, synthesis.layout.K, tallies, beta)


def law_gap(synthesis: Synthesis, thetas, mode: str) -> float:
    """The largest gap between the tallies' law from mode's frames and the exact law."""
    frames = _Frames(synthesis, synthesis.angles(thetas), mode)
    return float(np.abs(frames.tables([])[1] - frames.law()).max())


def _record(path, frames: _Frames, law: np.ndarray, counts: np.ndarray, rng, rounds: int) -> None:
    """Write the record of rounds drawn from rng, counts[c] in flattened (y, cell) c."""
    layout = frames.synthesis.layout
    k, m, ys, cells = layout.K, layout.M, frames.ys, frames.cells
    header, columns = _record_reads(frames)
    tables, drawn = frames.tables(columns)
    for cell in np.flatnonzero((counts > 0) & (drawn.ravel() == 0)):
        raise CrossCheckError(
            f"cell {cell % cells} at receiver settings {ys[cell // cells]} was drawn, "
            "but its frame probability is 0"
        )
    gap = float(np.abs(drawn - law).max())
    if not gap <= PROB_TOL:
        raise CrossCheckError(
            f"the frames' law of the tallied outcomes is {gap:.3g} from the group expectations'"
        )
    # Buffers for every chunk: its outcome codes and settings texts (",", x, "|", y)
    size = min(_RECORD_CHUNK, rounds)
    outcomes = np.zeros((size, -(-len(columns) // 4) * 4), dtype=np.uint8)
    settings = np.zeros((size, -(-(k + m + 2) // 4) * 4), dtype=np.uint8)
    settings[:, 0], settings[:, k + 1] = ord(","), ord("|")
    y_text = np.array(ys, dtype=np.uint8) + ord("0")
    left = counts.copy()

    def draw(handle) -> None:
        csv.writer(handle).writerow(header)
        handle.flush()  # the lines go to the binary layer below
        for start in range(0, rounds, _RECORD_CHUNK):
            size = min(_RECORD_CHUNK, rounds - start)
            take = _take(rng, left, size)
            left[:] -= take
            row = np.repeat(np.arange(left.size), take)  # (y, cell) is the first row
            rng.shuffle(row)
            bins, codes = [], 0
            for table, u in zip(tables, rng.random((k, size))):
                bins.append(table.locate(u, row * table.buckets))
                taken = np.take(table.codes, bins[-1], axis=0)  # faster than codes[j] here
                row ^= taken[:, 0]
                codes ^= taken
            y, residual = np.divmod(row, cells)
            if residual.any():
                raise CrossCheckError("a drawn round's outcomes do not read its tallied cell")
            outcomes[:size, : len(columns)] = codes[:, 1:]
            # x_k is the bit above group k's qubits in its bin's index
            for table, j, pos, width in zip(tables, bins, frames.owners, layout.group_widths):
                settings[:size, 1 + pos] = (table.index[j] >> width) + ord("0")
            settings[:size, k + 2 : k + 2 + m] = y_text[y]
            lines = _format_rounds(start, len(columns), settings[:size], outcomes[:size])
            handle.buffer.write(lines)

    atomic_write(path, draw)


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
        mode=config.strategy, rounds=config.rounds, seed=config.seed, k=k,
        tallies=tuple(tallies), i_estimate=i_est, i_se=i_se, j_estimate=j_est, j_se=j_se,
        p_estimate=p_est, p_se=p_se, beta=beta, value_estimate=value, value_se=value_se,
        g_estimate=g_est, g_se=g_se,
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
