"""Finite-round sampling of network Bell experiments.

Rounds are simulated exactly rather than by per-round state collapse. For
each setting combination the commuting per-agent observables are rotated
into one shared computational-basis frame:

* a source agent's two-outcome observable cos(theta) S + (-1)^x sin(theta) T
  equals V S V^dag with V = exp(-(-1)^x (theta/2) ST), so applying V^dag
  (a real combination of the identity and the string ST) reduces it to the
  plain string S;
* every remaining measured string is then diagonalized letter by letter
  with single-qubit basis rotations (H for X, H S^dag for Y).

The squared amplitudes of the rotated state are the exact joint outcome
distribution, so rounds are drawn directly from it. Round counts per
setting combination follow one multinomial draw, which together with
independent draws inside each combination reproduces independent uniformly
chosen settings exactly.

Two acquisition strategies are supported. "direct-observable" measures each
agent's chosen observable as a whole (for tilted runs the receiver measures
the commuting grafted triple and the plain B0 outcome is recovered as a
product of its bits). "per-qubit-discard" measures every receiver qubit in
a single-qubit basis (the repeated letter on idle qubits) and multiplies
the relevant bits, discarding the rest. Both strategies share the same
estimators; they differ in which qubits are measured and in what the
per-round record contains.

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

from .network import NetworkLayout, OperatorSelection, classify
from .observables import ReceiverObservables, SourceObservables, TiltedBlock
from .pauli import PauliString
from .reports import atomic_write
from .states import StateVector, _parity, make_rng

MODES = ("direct-observable", "per-qubit-discard")

PROB_TOL = 1e-9
# Memory grows with the rounds drawn; the setting draw itself overflows at 2**63.
MAX_ROUNDS = 10**9

# Rounds per write of the round record: bounds the text held at once.
_RECORD_CHUNK = 8192
# Widest outcome row whose base-3 code fits in int64 (3**39 < 2**63).
_MAX_CODED_WIDTH = 39

_H = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)
_S_DAG = np.array([[1.0, 0.0], [0.0, -1.0j]], dtype=complex)
_BASIS_ROTATION = {"X": _H, "Y": _H @ _S_DAG, "Z": None}


@dataclass(frozen=True)
class RunConfig:
    """How many rounds to draw, from which seed, with which strategy.

    setting_weights, when given, lists one nonnegative weight per setting
    combination in lexicographic (x bits, then y bits) order; the default
    is uniform.
    """

    rounds: int
    seed: int | None = None
    strategy: str = "direct-observable"
    setting_weights: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.rounds < 1:
            raise ValueError(f"rounds must be at least 1, got {self.rounds}")
        if self.rounds > MAX_ROUNDS:
            raise ValueError(f"rounds must be at most {MAX_ROUNDS}, got {self.rounds}")
        if self.strategy not in MODES:
            raise ValueError(
                f"unknown strategy {self.strategy!r}; expected one of {MODES}"
            )
        if self.setting_weights is not None:
            weights = tuple(float(w) for w in self.setting_weights)
            if any(w < 0 for w in weights) or sum(weights) <= 0:
                raise ValueError("setting weights must be nonnegative with a positive sum")
            object.__setattr__(self, "setting_weights", weights)


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
# measurement frames


@dataclass(frozen=True)
class _Mask:
    """Bit mask over basis-index bits plus the string's real sign."""

    bits: int
    sign: int


@dataclass(frozen=True)
class _Frame:
    """One setting combination rotated into the computational basis."""

    probabilities: np.ndarray
    source_masks: tuple[_Mask, ...]
    receiver_masks: tuple[_Mask, ...]
    p_masks: tuple[_Mask, ...] | None


def _string_mask(op: PauliString) -> _Mask:
    phase = op.phase
    if phase.imag != 0 or phase.real not in (1.0, -1.0):
        raise ValueError(f"measured string must carry a real sign, got phase {phase}")
    return _Mask(bits=op.x | op.z, sign=int(phase.real))


def _mask_outcomes(indices: np.ndarray, mask: _Mask) -> np.ndarray:
    return mask.sign * (1 - 2 * _parity(indices & mask.bits))


def _apply_one_qubit(amps: np.ndarray, n: int, q: int, gate: np.ndarray) -> np.ndarray:
    # Qubit q is bit (n-1-q) of the basis index, so axis sizes split at q.
    left = 1 << q
    right = 1 << (n - 1 - q)
    return np.einsum("ab,ibj->iaj", gate, amps.reshape(left, 2, right)).reshape(-1)


def _add_letter(target: dict[int, str], q: int, letter: str, where: str) -> None:
    if target.setdefault(q, letter) != letter:
        raise RuntimeError(
            f"{where}: qubit {q} would be measured in both "
            f"{target[q]} and {letter} bases"
        )


def _add_letters(target: dict[int, str], op: PauliString, where: str) -> None:
    for q in op.support:
        _add_letter(target, q, op.letter(q), where)


def _build_frame(
    layout: NetworkLayout,
    classification,
    sources: tuple[SourceObservables, ...],
    receivers: tuple[ReceiverObservables, ...],
    x: tuple[int, ...],
    y: tuple[int, ...],
    mode: str,
    tilt: TiltedBlock | None,
) -> _Frame:
    n = layout.total_qubits
    state = layout.state

    # Rotate each source observable cos(theta) S +/- sin(theta) T onto S.
    amps = state.amplitudes
    for xk, src in zip(x, sources):
        w = src.s_global * src.t_global
        half = src.theta / 2.0
        sign = 1.0 if xk == 0 else -1.0
        rotated = math.cos(half) * amps + sign * math.sin(half) * StateVector(
            amps
        ).apply(w).amplitudes
        amps = rotated

    letters: dict[int, str] = {}
    for src in sources:
        _add_letters(letters, src.s_global, f"source agent {src.agent}")

    tilted_now = tilt is not None and all(b == 0 for b in y)
    p_masks: list[_Mask] | None = [] if tilted_now else None

    for pos_r, (ym, rec) in enumerate(zip(y, receivers)):
        where = f"receiver agent {rec.agent}"
        if mode == "direct-observable":
            if tilt is not None and ym == 0:
                block = tilt.receivers[pos_r]
                _add_letters(letters, block.b0_bar_global, where)
                _add_letters(letters, block.p_part_global, where)
            else:
                _add_letters(letters, rec.b0_global if ym == 0 else rec.b1_global, where)
        else:
            chosen = rec.b0 if ym == 0 else rec.b1
            for pos, (i, j) in enumerate(rec.qubits):
                letter = chosen.letter(pos)
                if letter == "I":
                    letter = classification.o_letter(i, j)
                if letter is not None:
                    _add_letter(letters, layout.global_index(i, j), letter, where)
        if tilted_now:
            p_masks.append(_string_mask(tilt.receivers[pos_r].p_part_global))

    for q, letter in letters.items():
        gate = _BASIS_ROTATION[letter]
        if gate is not None:
            amps = _apply_one_qubit(amps, n, q, gate)

    probabilities = np.abs(amps) ** 2
    total = probabilities.sum()
    if not abs(total - 1.0) < PROB_TOL:
        raise RuntimeError(f"frame probabilities sum to {total!r}")
    probabilities = probabilities / total

    source_masks = tuple(_string_mask(src.s_global) for src in sources)
    receiver_masks = tuple(
        _string_mask(rec.b0_global if ym == 0 else rec.b1_global)
        for ym, rec in zip(y, receivers)
    )
    return _Frame(
        probabilities=probabilities,
        source_masks=source_masks,
        receiver_masks=receiver_masks,
        p_masks=tuple(p_masks) if p_masks is not None else None,
    )


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
    layout: NetworkLayout,
    selection: OperatorSelection,
    sources: tuple[SourceObservables, ...],
    receivers: tuple[ReceiverObservables, ...],
    config: RunConfig,
    *,
    tilt: TiltedBlock | None = None,
    beta: float | None = None,
    record_path=None,
) -> TallyReport:
    """Sample finite rounds and report correlator estimates.

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
        if tilt is None:
            raise ValueError("beta without a tilted block has no meaning")
        if not beta >= 0:
            raise ValueError(f"beta must be nonnegative, got {beta}")
    k = layout.K
    m = layout.M
    combos = _setting_combos(k, m)
    if config.setting_weights is None:
        weights = np.full(len(combos), 1.0 / len(combos))
    else:
        if len(config.setting_weights) != len(combos):
            raise ValueError(
                f"expected {len(combos)} setting weights, got {len(config.setting_weights)}"
            )
        weights = np.asarray(config.setting_weights, dtype=float)
        weights = weights / weights.sum()

    classification = classify(layout, selection)
    rng = make_rng(config.seed)
    counts = rng.multinomial(config.rounds, weights)

    if record_path is not None:
        # Per-qubit records cover the receiver-held qubits where g or h acts,
        # in global-index order: the qubits every setting's frame measures.
        measured = sorted(
            (layout.global_index(i, j), (i, j))
            for rec in receivers
            for pos, (i, j) in enumerate(rec.qubits)
            if rec.b0.letter(pos) != "I" or rec.b1.letter(pos) != "I"
        )
        n = layout.total_qubits
        qubit_masks = [_Mask(bits=1 << (n - 1 - q), sign=1) for q, _ in measured]
        header = _csv_header(
            config.strategy, k, m, tilt is not None, [ij for _, ij in measured]
        )
        codes = []  # per setting block, each round's index into texts
        texts = []  # the line text after the round index, once per distinct round

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
        frame = _build_frame(
            layout, classification, sources, receivers, x, y, config.strategy, tilt
        )
        indices = rng.choice(frame.probabilities.size, size=count, p=frame.probabilities)
        a_cols = [_mask_outcomes(indices, mask) for mask in frame.source_masks]
        b_cols = [_mask_outcomes(indices, mask) for mask in frame.receiver_masks]
        product = np.prod(a_cols, axis=0) * np.prod(b_cols, axis=0)
        p_sum = None
        p_cols = []
        if frame.p_masks is not None:
            p_cols = [_mask_outcomes(indices, mask) for mask in frame.p_masks]
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
                outcome_cols = a_cols + [
                    _mask_outcomes(indices, mask) for mask in qubit_masks
                ]
            settings_text = "".join(map(str, x)) + "|" + "".join(map(str, y))
            codes.append(_encode_block(settings_text, outcome_cols, len(header) - 2, texts))

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
        _write_rounds(record_path, header, codes, texts, rng)

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


def _encode_block(settings_text, columns, width, texts) -> np.ndarray:
    """Index every round of one setting block into texts, appending the text
    of each distinct round once.

    Outcomes lie in {-1, 0, +1}, so an outcome row reads as a base-3 number.
    """
    if len(columns) != width:
        raise RuntimeError(
            f"round record width {len(columns)} does not match header {width}"
        )
    if width > _MAX_CODED_WIDTH:
        raise RuntimeError(
            f"round record width {width} exceeds {_MAX_CODED_WIDTH} coded columns"
        )
    row_codes = np.zeros(len(columns[0]), dtype=np.int64)
    for column in columns:
        row_codes = 3 * row_codes + (column + 1)
    _, first, inverse = np.unique(row_codes, return_index=True, return_inverse=True)
    offset = len(texts)
    rows = zip(*(column[first].tolist() for column in columns))
    texts.extend(f",{settings_text},{','.join(map(str, row))}\r\n" for row in rows)
    return inverse + offset


def _write_rounds(path, header, codes, texts, rng) -> None:
    """Shuffle the rounds of all blocks and write them under the header, one
    write per chunk of rounds, through the reports' atomic writer."""
    codes = np.concatenate(codes)
    shuffled = codes[rng.permutation(codes.size)]
    texts = np.array(texts, dtype=object)

    def emit(handle):
        csv.writer(handle).writerow(header)
        for start in range(0, len(shuffled), _RECORD_CHUNK):
            chunk = texts[shuffled[start : start + _RECORD_CHUNK]]
            handle.write(
                "".join([f"{index}{text}" for index, text in enumerate(chunk, start)])
            )

    atomic_write(path, emit)
