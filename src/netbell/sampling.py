"""Finite-round sampling of network Bell experiments.

Rounds are simulated exactly rather than by per-round state collapse. The
sources are independent, every source agent's observables act inside its
own group of sources, and each receiver measures a product over the
groups, so once the settings are fixed the outcome distribution of a
round is a product over the groups. Each group's factor is built on the
group's own state (the joint state of the network is never formed, and
the statevector cap bounds one group), once per source setting and
receiver settings, by rotating the commuting observables into one shared
computational-basis frame:

* a source agent's two-outcome observable cos(theta) S + (-1)^x sin(theta) T
  equals V S V^dag with V = exp(-(-1)^x (theta/2) ST), so applying V^dag
  (a real combination of the identity and the string ST) reduces it to the
  plain string S;
* every remaining measured string is then diagonalized letter by letter
  with single-qubit basis rotations (H for X, H S^dag for Y).

Every observable arrives as pieces on the groups (see observables), so a
group's frame reads only the pieces on that group, and a measured string's
mask is its pieces' bits, one mask per group. The squared amplitudes of
the rotated group state are the exact outcome distribution of the group.
Rounds draw one outcome index per group by a nested inverse CDF that
reproduces numpy's Generator.choice on the joint distribution (see
_draw): one uniform per round is inverted through each group's
cumulative distribution in turn. Each inversion looks the uniform up in a
guide table of equal buckets and steps at most a fixed, precomputed
number of bins from there (see _Cdf), which returns the bin a binary
search would, so the rounds are bit for bit those of Generator.choice. A
source agent's outcome is its group's S parity; a receiver's is its sign
times the product of its parities in every group. Round counts per
setting combination follow one multinomial draw, which together with
independent draws inside each combination reproduces independent
uniformly chosen settings exactly. The 2^(K+M) setting cells are listed
up front, so a network with more than MAX_SETTING_CELLS of them is
refused before anything is allocated.

Two acquisition strategies are supported. "direct-observable" measures each
agent's chosen observable as a whole (for tilted runs the receiver measures
the commuting grafted triple and the plain B0 outcome is recovered as a
product of its bits). "per-qubit-discard" measures every receiver qubit in
a single-qubit basis (the repeated letter on idle qubits) and multiplies
the relevant bits, discarding the rest. Both strategies share the same
estimators; they differ in which qubits are measured and in what the
per-round record contains. The record is formatted in numpy, one matrix
of 4-byte words per chunk of shuffled rounds with a column per line
(4-digit words of the index, the settings, one word per outcome cell,
CRLF), whose pad bytes are deleted before the write.

Standard errors use the plug-in binomial variance per setting cell and the
delta method through the K-th roots; they are approximate (the phase-flip
estimate shares rounds with the correlator cells, and cells left empty by
the multinomial draw contribute a zero mean with a conservative unit
standard error).
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .network import NetworkLayout
from .observables import CrossCheckError, Synthesis
from .pauli import PauliString
from .reports import atomic_write
from .states import StateVector, _parity, make_rng

MODES = ("direct-observable", "per-qubit-discard")

PROB_TOL = 1e-9
# Memory grows with the rounds drawn; the setting draw itself overflows at 2**63.
MAX_ROUNDS = 10**9
# Every setting cell is a tally and a pass over the groups: 2^(K+M) of them
# are listed before any round is drawn, so larger networks are refused first.
MAX_SETTING_CELLS = 2**12

# Rounds per write of the round record: bounds the text held at once.
_RECORD_CHUNK = 8192
# The round record is assembled from 4-byte words, padded with 0 bytes that
# are deleted before the write. _DIGITS[v] spells v in four digits, and
# _LEADING[s] keeps a word's last s bytes, which blanks the places left of an
# index's leading digit. _OUTCOME maps an int8 outcome's byte to its cell.
_DIGITS = np.arange(10**4)[:, None] // [1000, 100, 10, 1] % 10 + ord("0")
_DIGITS = _DIGITS.astype(np.uint8).view(np.uint32).ravel()
_LEADING = np.frombuffer(bytes.fromhex("00000000 000000ff 0000ffff 00ffffff ffffffff"), np.uint32)
_POWERS = 10 ** np.arange(1, 10)
_OUTCOME = np.zeros(256, dtype=np.uint32)
_OUTCOME[[0, 1, 255]] = np.frombuffer(b",0\0\0,1\0\0,-1\0", dtype=np.uint32)
_EOL = np.frombuffer(b"\r\n\0\0", dtype=np.uint32)
# Largest double below 1: keeps a rescaled uniform inside [0, 1).
_BELOW_ONE = np.nextafter(1.0, 0.0)

_H = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)
_S_DAG = np.array([[1.0, 0.0], [0.0, -1.0j]], dtype=complex)
_BASIS_ROTATION = {"X": _H, "Y": _H @ _S_DAG, "Z": None}


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
    """Counts and outcome sums for one setting combination."""

    x: tuple[int, ...]
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
            "x": "".join(str(b) for b in self.x),
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


def _apply_one_qubit(amps: np.ndarray, n: int, q: int, gate: np.ndarray) -> np.ndarray:
    # Qubit q is bit (n-1-q) of the basis index, so axis sizes split at q.
    left = 1 << q
    right = 1 << (n - 1 - q)
    return np.einsum("ab,ibj->iaj", gate, amps.reshape(left, 2, right)).reshape(-1)


def _add_letter(target: dict[int, str], q: int, letter: str, where: str) -> None:
    if target.setdefault(q, letter) != letter:
        raise CrossCheckError(
            f"{where}: qubit {q} would be measured in both "
            f"{target[q]} and {letter} bases"
        )


def _add_letters(target: dict[int, str], op: PauliString, where: str) -> None:
    for q in op.support:
        _add_letter(target, q, op.letter(q), where)


def _letters(synthesis: Synthesis, k: int, y: tuple[int, ...], mode: str) -> dict[int, str]:
    """The basis letter of every measured qubit of group k, by position in
    the group, when the receivers hold settings y; source agents always
    measure S."""
    layout, receivers, tilt = synthesis.layout, synthesis.receivers, synthesis.tilt
    letters: dict[int, str] = {}
    for src in synthesis.sources:
        if src.agent == k:
            _add_letters(letters, src.s_piece, f"source agent {src.agent}")
    for pos_r, (ym, rec) in enumerate(zip(y, receivers)):
        where = f"receiver agent {rec.agent} in group {k}"
        if mode == "direct-observable":
            if tilt is not None and ym == 0:
                block = tilt.receivers[pos_r]
                _add_letters(letters, block.b0_bar_pieces[k - 1], where)
                _add_letters(letters, block.p_part_pieces[k - 1], where)
            else:
                _add_letters(letters, rec.b_pieces(ym)[k - 1], where)
        else:
            chosen = rec.b0 if ym == 0 else rec.b1
            for (i, j), letter in zip(rec.qubits, chosen.letters):
                group, position = layout.place(i, j)
                if group != k:
                    continue
                if letter == "I":
                    letter = synthesis.classification.o_letter(i, j)
                if letter is not None:
                    _add_letter(letters, position, letter, where)
    return letters


class _Frames:
    """Each group's outcome distribution in its measurement frame, and the
    masks that read every agent's outcome off the groups' indices.

    The distribution of group k depends only on its source agent's setting
    and on the receivers' settings y, so each is built once per
    (k, x_k, y) and reused by every setting cell that shares them.
    """

    def __init__(self, synthesis: Synthesis, thetas: tuple[float, ...], mode: str):
        layout = synthesis.layout
        # A source observable's group is its agent's, whatever its position.
        owner = {obs.agent: pos for pos, obs in enumerate(synthesis.sources)}
        if sorted(owner) != list(layout.source_agents):
            raise ValueError(f"expected one observable per source agent 1..{layout.K}")
        self.synthesis, self.thetas, self.mode = synthesis, thetas, mode
        self.owners = [owner[k] for k in layout.source_agents]
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
        self._cdfs: dict[tuple, _Cdf] = {}
        # The only statevectors any command builds: past the cap this
        # raises before a frame or the sign table is allocated.
        self.states = layout.group_states
        # (-1)^parity of every index of the largest group
        self._signs = 1 - 2 * _parity(np.arange(1 << max(layout.group_widths)))

    def outcomes(self, indices: list[np.ndarray], mask: _Mask) -> np.ndarray:
        """A string's outcome per round: its sign times the parity of its
        bits in every group's outcome index."""
        out = None
        for group_indices, bits in zip(indices, mask.bits):
            if bits:
                signs = self._signs[group_indices & bits]
                out = signs if out is None else np.multiply(out, signs, out=out)
        if out is None:
            return np.full(len(indices[0]), mask.sign, dtype=np.int64)
        if mask.sign < 0:
            np.negative(out, out=out)
        return out

    def receiver_masks(self, y: tuple[int, ...]) -> list[_Mask]:
        return [masks[ym] for masks, ym in zip(self._receiver_masks, y)]

    def probabilities(self, k: int, xk: int, y: tuple[int, ...]) -> np.ndarray:
        """Group k's outcome probabilities, with its source agent on
        setting xk and the receivers on y, over the group's basis index."""
        layout = self.synthesis.layout
        obs = self.synthesis.sources[self.owners[k - 1]]
        # Rotate cos(theta) S +/- sin(theta) T onto S, inside the group.
        half = self.thetas[self.owners[k - 1]] / 2.0
        sign = 1.0 if xk == 0 else -1.0
        amps = self.states[k - 1].amplitudes
        amps = math.cos(half) * amps + sign * math.sin(half) * StateVector(
            amps
        ).apply(obs.s_piece * obs.t_piece).amplitudes

        width = layout.group_widths[k - 1]
        for q, letter in _letters(self.synthesis, k, y, self.mode).items():
            gate = _BASIS_ROTATION[letter]
            if gate is not None:
                amps = _apply_one_qubit(amps, width, q, gate)

        probabilities = np.abs(amps) ** 2
        total = probabilities.sum()
        if not abs(total - 1.0) < PROB_TOL:
            raise CrossCheckError(f"group {k} frame probabilities sum to {total!r}")
        return probabilities / total

    def cdfs(self, x: tuple[int, ...], y: tuple[int, ...]) -> list[_Cdf]:
        """Per group, in group order, its cumulative distribution at setting
        cell (x, y)."""
        out = []
        for k, pos in enumerate(self.owners, start=1):
            key = (k, x[pos], y)
            if key not in self._cdfs:
                self._cdfs[key] = _cdf(self.probabilities(k, x[pos], y))
            out.append(self._cdfs[key])
        return out


@dataclass(frozen=True)
class _Cdf:
    """One group's cumulative distribution, inverted through a guide table.

    Only the distinct bins [low, upper) of the cumulative sums are kept,
    each with the outcome index that a searchsorted(side="right") returns
    inside it: the last of a run of zero-probability outcomes, which
    repeat an edge. start holds, for each of a power-of-two number of
    equal buckets, the bin holding the bucket's left end (the indexed
    search of Chen and Asau, 1974; see Devroye, Non-Uniform Random Variate
    Generation, III.2.4). A power of two makes u * buckets exact, so u lies
    in bucket floor(u * buckets) and its bin is at or past that bucket's
    start; steps is the most bins a bucket spans past its start, so that
    many steps of j += upper[j] <= u reach every u's bin.
    """

    index: np.ndarray
    low: np.ndarray
    upper: np.ndarray
    width: np.ndarray
    start: np.ndarray
    buckets: int
    steps: int

    def bins(self, u: np.ndarray) -> np.ndarray:
        """The bin of each uniform u in [0, 1)."""
        j = self.start[(u * self.buckets).astype(np.intp)]
        for _ in range(self.steps):
            j += self.upper[j] <= u
        return j

    def rescale(self, u: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Each u rescaled into [0, 1) from its bin j by the floating-point
        operations of the binary search: (u - low) / (upper - low), clipped
        below 1."""
        return np.minimum((u - self.low[j]) / self.width[j], _BELOW_ONE)


def _cdf(probabilities: np.ndarray) -> _Cdf:
    """The guide table of one group's distribution.

    The edges are 0 followed by the normalized cumulative sums, as
    Generator.choice forms them. The buckets are the smallest power of two
    at least four times the bins, so few buckets hold an edge inside them
    and steps is at most 2 on every builtin.
    """
    cdf = probabilities.cumsum()
    cdf /= cdf[-1]
    edges = np.concatenate(([0.0], cdf))
    index = np.flatnonzero(edges[:-1] < edges[1:])
    low, upper = edges[index], edges[index + 1]
    buckets = 1 << (4 * index.size - 1).bit_length()
    bounds = np.arange(buckets + 1) / buckets
    start = low.searchsorted(bounds[:-1], side="right") - 1
    # the last bin that a u below the next bucket's left end can lie in
    end = low.searchsorted(bounds[1:], side="left") - 1
    return _Cdf(index, low, upper, upper - low, start, buckets, int((end - start).max()))


def _draw(cdfs: list[_Cdf], rng: np.random.Generator, count: int) -> list[np.ndarray]:
    """count outcome indices per group from the product of the groups'
    distributions, group 1 most significant.

    rng.choice(size, count, p) takes one uniform u per round and returns
    searchsorted(cdf, u, side="right") on the joint cumulative sums. Here
    u is inverted through each group's distribution in turn and rescaled
    into the chosen bin, which is the same draw in exact arithmetic and
    advances the generator the same way. Each group's guide table finds
    the bin that searchsorted(side="right") finds on its edges, and the
    rescale repeats the search's floating-point operations, so every index
    and every rescaled u equal those of the binary search bit for bit. The
    last group's rescaled u is never read, so it is not computed.
    """
    u = rng.random(count)
    out = []
    for k, cdf in enumerate(cdfs, start=1):
        j = cdf.bins(u)
        out.append(cdf.index[j])
        if k < len(cdfs):
            u = cdf.rescale(u, j)
    return out


def _setting_combos(k: int, m: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    return [
        (x, y)
        for x in itertools.product((0, 1), repeat=k)
        for y in itertools.product((0, 1), repeat=m)
    ]


# ----------------------------------------------------------------------
# estimators


def _power_and_se(value: float, se: float, k: int) -> tuple[float, float | None]:
    root = abs(value) ** (1.0 / k)
    if value == 0.0 and k > 1:
        return root, None
    derivative = abs(value) ** (1.0 / k - 1.0) / k
    return root, derivative * se


def _cell_se(tally: SettingTally) -> float:
    if tally.rounds == 0:
        return 1.0
    variance = max(0.0, 1.0 - tally.product_mean**2)
    return math.sqrt(variance / tally.rounds)


def _correlator_estimates(tallies, k: int):
    scale = 1.0 / 2.0**k
    i_sum = 0.0
    i_var = 0.0
    j_sum = 0.0
    j_var = 0.0
    for tally in tallies:
        if all(b == 0 for b in tally.y):
            i_sum += tally.product_mean
            i_var += _cell_se(tally) ** 2
        if all(b == 1 for b in tally.y):
            sign = -1.0 if sum(tally.x) % 2 else 1.0
            j_sum += sign * tally.product_mean
            j_var += _cell_se(tally) ** 2
    return scale * i_sum, scale * math.sqrt(i_var), scale * j_sum, scale * math.sqrt(j_var)


def _phase_flip_estimate(tallies) -> tuple[float | None, float | None]:
    total = 0
    weight = 0
    for tally in tallies:
        if tally.p_sum is not None:
            total += tally.p_sum
            weight += tally.rounds
    if weight == 0:
        return None, None
    mean = total / weight
    return mean, math.sqrt(max(0.0, 1.0 - mean**2) / weight)


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
    layout, receivers, tilt = synthesis.layout, synthesis.receivers, synthesis.tilt
    if beta is not None:
        synthesis.check_beta(beta)
    thetas = synthesis.angles(thetas)
    k = layout.K
    m = layout.M
    if 2 ** (k + m) > MAX_SETTING_CELLS:
        raise ValueError(
            f"sampling needs 2^{k + m} setting cells (K={k}, M={m}), "
            f"more than the {MAX_SETTING_CELLS} allowed"
        )
    combos = _setting_combos(k, m)
    weights = np.full(len(combos), 1.0 / len(combos))
    frames = _Frames(synthesis, thetas, config.strategy)

    rng = make_rng(config.seed)
    counts = rng.multinomial(config.rounds, weights)

    if record_path is not None:
        # Per-qubit records cover the receiver-held qubits where g or h acts,
        # in (i, j) order: the qubits every setting's frame measures.
        measured = sorted(
            (i, j)
            for rec in receivers
            for (i, j), b0, b1 in zip(rec.qubits, rec.b0.letters, rec.b1.letters)
            if b0 != "I" or b1 != "I"
        )
        qubit_masks = []
        for i, j in measured:
            group, position = layout.place(i, j)
            z = PauliString("Z").embed([position], layout.group_widths[group - 1])
            qubit_masks.append(_string_mask(layout, [(group, z)]))
        header = _csv_header(config.strategy, k, m, tilt is not None, measured)
        blocks = []  # per setting block: its settings text and int8 outcome rows

    tallies = []
    for (x, y), count in zip(combos, (int(c) for c in counts)):
        tilted_now = tilt is not None and all(b == 0 for b in y)
        if count == 0:
            tallies.append(
                SettingTally(
                    x=x, y=y, rounds=0, product_sum=0, p_sum=0 if tilted_now else None
                )
            )
            continue
        indices = _draw(frames.cdfs(x, y), rng, count)
        a_cols = [frames.outcomes(indices, mask) for mask in frames.source_masks]
        b_cols = [frames.outcomes(indices, mask) for mask in frames.receiver_masks(y)]
        product = np.prod(a_cols, axis=0) * np.prod(b_cols, axis=0)
        p_sum = None
        p_cols = []
        if tilted_now:
            p_cols = [frames.outcomes(indices, mask) for mask in frames.p_masks]
            p_sum = int(np.prod(p_cols, axis=0).sum())
        tallies.append(
            SettingTally(
                x=x,
                y=y,
                rounds=count,
                product_sum=int(product.sum()),
                p_sum=p_sum,
            )
        )
        if record_path is not None:
            if config.strategy == "direct-observable":
                outcome_cols = a_cols + b_cols
                if tilt is not None:
                    pad = p_cols if p_cols else [np.zeros(count, dtype=int)] * m
                    outcome_cols += pad
            else:
                outcome_cols = a_cols + [frames.outcomes(indices, mask) for mask in qubit_masks]
            settings_text = "".join(map(str, x)) + "|" + "".join(map(str, y))
            blocks.append((settings_text, np.array(outcome_cols, dtype=np.int8).T))

    i_est, i_se, j_est, j_se = _correlator_estimates(tallies, k)
    p_est, p_se = _phase_flip_estimate(tallies)

    i_root, i_root_se = _power_and_se(i_est, i_se, k)
    j_root, j_root_se = _power_and_se(j_est, j_se, k)
    value = i_root + j_root
    if i_root_se is None or j_root_se is None:
        value_se = None
    else:
        value_se = math.sqrt(i_root_se**2 + j_root_se**2)

    g_est = None
    g_se = None
    if beta is not None and p_est is not None:
        p_root, p_root_se = _power_and_se(p_est, p_se, k)
        g_est = beta * p_root + value
        if value_se is not None and p_root_se is not None:
            g_se = math.sqrt(value_se**2 + (beta * p_root_se) ** 2)

    if record_path is not None:
        _write_rounds(record_path, header, blocks, rng)

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


def _write_rounds(path, header, blocks, rng) -> None:
    """Shuffle the rounds of all setting blocks and write them under the
    header through the reports' atomic writer. Each chunk of rounds is a
    (words, rounds) matrix of 4-byte words, filled one row at a time: the
    round index in 4-digit words, the block's settings, one cell per outcome
    and CRLF. It is read round by round, with the pad bytes (0) deleted."""
    width = len(header) - 2
    for _, rows in blocks:
        if rows.shape[1] != width:
            raise RuntimeError(
                f"round record width {rows.shape[1]} does not match header {width}"
            )
    texts = [f",{text}".encode() for text, _ in blocks]
    size = -(-max(map(len, texts)) // 4) * 4
    settings = np.frombuffer(b"".join(text.ljust(size, b"\0") for text in texts), np.uint32)
    settings = settings.reshape(len(blocks), -1).T
    # a block number per round, in the smallest integer type that holds it
    numbers = np.arange(len(blocks), dtype=np.min_scalar_type(len(blocks)))
    block_of = np.repeat(numbers, [len(rows) for _, rows in blocks])
    # outcome rows padded to whole words, so that a round's row is one gather
    outcomes = np.zeros((len(block_of), -(-width // 4) * 4), dtype=np.int8)
    np.concatenate([rows for _, rows in blocks], out=outcomes[:, :width])
    outcomes = outcomes.view(np.uint32)
    order = rng.permutation(len(outcomes))

    def emit(handle):
        csv.writer(handle).writerow(header)
        for start in range(0, len(order), _RECORD_CHUNK):
            rounds = order[start : start + _RECORD_CHUNK]
            index = np.arange(start, start + len(rounds))
            places = len(str(index[-1]))
            lead = -(-places // 4)
            words = np.empty((lead + len(settings) + width + 1, len(rounds)), dtype=np.uint32)
            # the digit count is one per chunk unless it crosses a power of ten
            digits = places
            if start < 10 ** (places - 1):
                digits = np.searchsorted(_POWERS, index, side="right") + 1
            # take's default mode copies through a buffer; every index is in range
            part = index
            for j in range(lead):  # the j-th word from the right
                row = words[lead - 1 - j]
                np.take(_DIGITS, part % 10**4, out=row, mode="clip")
                if start < 10 ** (4 * j + 3):
                    # a place left of the index's leading digit is a pad byte
                    row &= _LEADING[np.clip(digits - 4 * j, 0, 4)]
                part = part // 10**4
            block = block_of[rounds]
            for row, column in zip(words[lead:], settings):
                np.take(column, block, out=row, mode="clip")
            cells = np.take(outcomes, rounds, axis=0).view(np.uint8)
            for c, row in enumerate(words[lead + len(settings) : -1]):
                np.take(_OUTCOME, cells[:, c], out=row, mode="clip")
            words[-1] = _EOL
            handle.write(words.T.tobytes().translate(None, b"\0").decode("ascii"))

    atomic_write(path, emit)
