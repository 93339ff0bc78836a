"""Reference implementations that the tests compare netbell against.

Each function reaches a quantity by a slower or more literal route than
the package takes, and lives here so that `src/` keeps only what a
command runs:

* `joint_state` is the Kronecker product of every source's codeword, the
  2^n-amplitude register that `src/` never builds; `global_index` places
  a qubit in it, `embed` lifts a source's operator into it through
  `embed_positions`, which places a string's letters at register
  positions letter by letter, and `lift`
  joins an observable's pieces on the groups of sources into one string
  on it, the n-qubit embedding `src/` no longer makes;
* `project_renormalized` projects a fiducial state onto a code one
  renormalized (I+g)/2 step at a time, where
  `states._project_stabilized` projects the plain amplitude array;
* `expectation` takes <psi|op|psi> on an amplitude array, and
  `dense_expectation` memoizes it per letters: the route
  `codes.SourceState.expectation` replaces with the stabilizing and
  logical operators; `joint_correlator` expands a Bell
  correlator's whole product of local observables term by term on the
  joint state of all sources, which `bell` factors over the source
  agents' groups instead;
* `_random_candidate` draws a random network layout and operator
  selection on small builtin codes, and `random_layouts` keeps the first
  ones that pass every structural and parity check, once per session;
  `tilted_layouts` gives those an h_prime wherever
  `logical_representative` finds one;
* `synthesize_letters` is `observables.synthesize` one letter at a time,
  as it was built before the x/z masks: `classify_letters` compares
  (g, h) letter pairs, `cut_letters` reads an agent's letters,
  `pieces_letters` places them in the groups through `group_position`,
  which sums source sizes, `tilt_constraints` and `check_tilt_letters`
  judge each h_prime letter by letter (`repeated_letter` is an idle
  qubit's letter, `custody` each qubit's agent), and `tilted_letters`
  grafts the h_primes onto B0 letter by letter;
* `dense` builds the Kronecker matrix of a Pauli string,
  `table_product` multiplies strings letter by letter from the
  single-qubit table, and `support` lists a string's non-identity
  qubits;
* `expectation_combo` takes an observable combination's expectation term
  by term, and `joint_oracle` builds the outcome distribution of
  commuting two-outcome observables from the expectations of their
  products;
* `joint_frame` rotates the joint state into the measurement frame of one
  setting cell and reads the global outcome masks, which the sampler
  builds as one small frame per group instead; its basis comes letter by
  letter from `basis_letters`, which reads the receivers' local B0 and B1
  strings and, where those are the identity, the letter g or h repeats,
  where `sampling._basis` ORs the bit masks of the observables' pieces;
  `outcome_distribution` is
  the exact distribution of the sampler's group frames at one setting,
  read through `sampling._Frames.group_frames`, which sampled counts are
  compared against, read by `outcomes`;
* `residuals` reads each group index's residual (its parities of the
  tallied strings) one mask at a time, `tails` sums the groups' frames
  back from the last group into the probability that the later groups
  owe each residual, with Python floats in index order, and `frame_law`
  reads the cells' law off them, which `sampling._Frames.law` takes from
  the group expectations instead and must match; `conditionals` weighs
  each frame by its later groups' tails;
* `invert` finds a uniform's bin by binary search on a row's
  cumulative sums (`cdf_edges`), which `sampling._Table` finds through
  guide tables instead and must match; `sample_rounds` is `sampling.run`
  round by round on `invert` and `outcomes`: the counts of the cells,
  each chunk's cells from the counts left
  (`marginal_hypergeometric`, numpy's marginals method one count at a
  time), then each group's (x_k, outcome) index on its conditional
  frame, where run reads guide tables and per-bin residuals in chunks of
  rounds; the two must give equal reports and round records;
  `as_record` lays rounds' settings texts and outcome rows out as
  whole-run matrices, which `write_matrices` writes through
  `sampling._format_rounds`, chunk by chunk, where run formats each chunk
  as it is drawn;
* `write_rounds` writes the round record one f-string per round, the
  literal text that `sampling._format_rounds` formats as byte matrices
  instead and must match byte for byte;
* `logical_representative` searches a stabilizer coset for a phase-flip
  representative that meets per-qubit letter constraints, such as
  `tilt_constraints`;
* `loop_scan` enumerates every response table under every point label,
  scoring the combinations by broadcasting, and `_scan_reachable` every
  response pair a table can show at its column under every label: the
  deterministic maximum that `classical.max_deterministic` gives in
  closed form, with its strategy; `_decode_labels` unflattens their label
  index;
* `correlators` sums a hidden strategy's I, J and P through `grid_sums`,
  which walks the whole label grid of `label_grid` term by term in Python
  ints, each label's weight rounded once by `units`, and
  `objective_value` scores them; the refine pass's batched
  `classical._Climb` must give the same floats bit for bit;
* `refine` is the refine pass one restart at a time, on the same
  `classical._draw_restarts`, scored incrementally by `GridScorer` in pure
  Python, against which `classical._refine`, which climbs every restart
  at once in numpy, must give the same value, strategy and generator
  state; `split_tables` cuts a restart's flat entries into table rows.
"""

from __future__ import annotations

import csv
import functools
import itertools
import math
import operator
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

from netbell import classical, sampling
from netbell.codes import StabilizerCode, builtin, codeword
from netbell.network import (
    Classification,
    NetworkLayout,
    OperatorSelection,
    check_parity,
    check_selection,
    classify,
)
from netbell.observables import (
    CrossCheckError,
    ReceiverObservables,
    SourceObservables,
    Synthesis,
    TiltedBlock,
    TiltedReceiver,
)
from netbell.pauli import PauliString
from netbell.reports import atomic_write
from netbell.sampling import MODES, PROB_TOL, _Frames
from netbell.states import (
    _H,
    _S_DAG,
    NORM_TOL,
    _apply_one_qubit,
    _parity,
    apply_pauli,
    group_state,
    make_rng,
)


def joint_state(layout: NetworkLayout) -> np.ndarray:
    """Joint state: the Kronecker product of the source codewords in
    source-id order, as one group of every source, under the qubit cap."""
    return group_state(layout.sources, {})


def global_index(layout: NetworkLayout, i: int, j: int) -> int:
    """0-based position of qubit (i, j) in the joint state, which lists
    every source's qubits in (i, j) order."""
    if not 1 <= i <= layout.N or not 1 <= j <= layout.source_sizes[i - 1]:
        raise ValueError(f"no qubit ({i},{j}) in this layout")
    return sum(layout.source_sizes[: i - 1]) + j - 1


def support(op: PauliString) -> tuple[int, ...]:
    """The qubits where op's letter is not the identity, ascending."""
    return tuple(j for j, letter in enumerate(op.letters) if letter != "I")


def embed_positions(op: PauliString, positions: Sequence[int], n: int) -> PauliString:
    """op placed at the given positions of an n-qubit register, letter by
    letter: identity elsewhere, the phase kept. positions[j] is the
    register position of op's qubit j."""
    positions = list(positions)
    if len(positions) != op.n:
        raise ValueError(f"need {op.n} positions for a {op.n}-qubit string, got {len(positions)}")
    if len(set(positions)) != len(positions):
        raise ValueError(f"duplicate positions in {positions}")
    letters = ["I"] * n
    for letter, pos in zip(op.letters, positions):
        if not 0 <= pos < n:
            raise ValueError(f"position {pos} out of range for {n} qubits")
        letters[pos] = letter
    return PauliString(letters, op.phase_exponent)


def embed(layout: NetworkLayout, i: int, op: PauliString) -> PauliString:
    """Lift a source-i operator to the joint register."""
    if op.n != layout.source_sizes[i - 1]:
        raise ValueError(
            f"operator on {op.n} qubits does not fit source {i} "
            f"of size {layout.source_sizes[i - 1]}"
        )
    positions = [global_index(layout, i, j) for j in range(1, op.n + 1)]
    return embed_positions(op, positions, sum(layout.source_sizes))


def lift(layout: NetworkLayout, pieces, groups=None) -> PauliString:
    """Pieces on the groups of sources, one per group in group order or one
    per group in groups, as one string on the joint register: identity on
    the other groups, and the product of the pieces' phases. A group's
    sources are consecutive, so the joint register is the groups' qubits
    one group after another."""
    placed = dict(zip(layout.source_agents if groups is None else groups, pieces))
    letters = ""
    for k, width in enumerate(layout.group_widths, start=1):
        piece = placed.get(k, PauliString.identity(width))
        if piece.n != width:
            raise ValueError(f"piece on {piece.n} qubits does not fit group {k} of {width}")
        letters += piece.letters
    return PauliString(letters, sum(piece.phase_exponent for piece in placed.values()))


# ----------------------------------------------------------------------
# Bell correlators on the joint state


def project_renormalized(fiducial: np.ndarray, ops: Sequence[PauliString]) -> np.ndarray:
    """`states._project_stabilized` with each (I+g)/2 step taken on the
    amplitudes renormalized to 1 and the step's result scaled back, where
    the package projects the plain amplitude array."""
    amps = fiducial.copy()
    for g in ops:
        norm = float(np.linalg.norm(amps))
        if norm < NORM_TOL:
            return amps
        amps = 0.5 * (amps + norm * apply_pauli(amps / norm, g))
    return amps


def expectation(amps: np.ndarray, op: PauliString) -> complex:
    """<psi|op|psi> on an amplitude array, op applied with its phase and
    with no hermiticity demand."""
    return complex(np.vdot(amps, apply_pauli(amps, op)))


def dense_expectation(amps: np.ndarray, op: PauliString, cache: dict) -> complex:
    """`expectation`, memoized on the letters: the cache keeps the
    plus-phase value per (x, z) mask pair. The amplitude route that
    `codes.SourceState.expectation` replaces in `src/`."""
    key = (op.x, op.z)
    value = cache.get(key)
    if value is None:
        value = cache[key] = expectation(amps, op.with_phase_exponent(0))
    return op.phase * value


def joint_correlator(synthesis: Synthesis, thetas, y: int, cache: dict) -> complex:
    """<prod_k (A0 + (-1)^y A1) prod_l B_y> at the given angles, expanded
    term by term on the 2^n-amplitude joint state; expectations are
    memoized in cache."""
    layout = synthesis.layout
    state = joint_state(layout)
    identity = PauliString.identity(sum(layout.source_sizes))
    terms: list[tuple[float, PauliString]] = [(1.0, identity)]
    flip = 1.0 if y == 0 else -1.0
    for obs, theta in zip(synthesis.sources, synthesis.angles(thetas)):
        branch = obs.a_terms(0, theta) + [(flip * c, p) for c, p in obs.a_terms(1, theta)]
        branch = [(c, lift(layout, [p], [obs.agent])) for c, p in branch]
        terms = [(c1 * c2, p1 * p2) for c1, p1 in terms for c2, p2 in branch]
    for rec in synthesis.receivers:
        b = lift(layout, rec.b_pieces(y))
        terms = [(c, p * b) for c, p in terms]
    return sum(c * dense_expectation(state, p, cache) for c, p in terms)


def joint_values(synthesis: Synthesis, thetas, cache=None) -> dict:
    """I, J and (with a tilted block) P on the joint state, with the
    arithmetic the joint engine reported them with."""
    cache = {} if cache is None else cache
    scale = 1.0 / 2**synthesis.layout.K
    out = {
        "I": (scale * joint_correlator(synthesis, thetas, 0, cache)).real,
        "J": (scale * joint_correlator(synthesis, thetas, 1, cache)).real,
    }
    if synthesis.tilt is not None:
        p = lift(synthesis.layout, synthesis.tilt.p_pieces)
        out["P"] = expectation(joint_state(synthesis.layout), p).real
    return out


# ----------------------------------------------------------------------
# random layouts

RANDOM_CODES = ("two-one-two", "five-one-three", "ghz(3)", "ghz(4)")


def _random_plus_operator(rng, code, logical):
    """A plus-phase product of random generators, times the bit-flip
    operator when logical; None when eight draws find none."""
    for _ in range(8):
        op = code.logical_x[0] if logical else None
        picks = [g for g in code.generators if rng.random() < 0.5]
        if not logical and not picks:
            continue
        for g in picks:
            op = g if op is None else op * g
        if op.phase_exponent == 0:
            return op
    return None


def _random_candidate(rng):
    """A random (layout, selection): one or two sources on RANDOM_CODES at
    random angles, random partitions and custody, one or two receivers;
    None when no operator or no valid layout was drawn."""
    n = int(rng.integers(1, 3))
    codes = [builtin(RANDOM_CODES[rng.integers(len(RANDOM_CODES))]) for _ in range(n)]
    phis = [float(rng.uniform(0.1, math.pi / 2 - 0.1)) for _ in codes]
    sources = tuple(codeword(c, (np.cos(phi), np.sin(phi))) for c, phi in zip(codes, phis))
    k = int(rng.integers(1, n + 1))
    cuts = (
        sorted(rng.choice(np.arange(1, n), size=k - 1, replace=False).tolist())
        if k > 1
        else []
    )
    partition = tuple([0] + cuts + [n])
    m = int(rng.integers(1, 3))
    assignment = []
    for i, code in enumerate(codes, start=1):
        owner = next(a for a in range(1, k + 1) if partition[a - 1] < i <= partition[a])
        qubits = list(range(1, code.n + 1))
        rng.shuffle(qubits)
        keep = int(rng.integers(1, code.n))
        assignment += [(i, j, owner) for j in qubits[:keep]]
        assignment += [(i, j, k + int(rng.integers(1, m + 1))) for j in qubits[keep:]]
    g, h = [], []
    for code in codes:
        gi = _random_plus_operator(rng, code, logical=False)
        hi = _random_plus_operator(rng, code, logical=rng.random() < 0.8)
        if gi is None or hi is None:
            return None
        g.append(gi)
        h.append(hi)
    try:
        layout = NetworkLayout(
            sources=sources, K=k, M=m, partition=partition, assignment=assignment
        )
        selection = OperatorSelection(g=tuple(g), h=tuple(h))
    except ValueError:
        return None
    return layout, selection


@functools.cache
def random_layouts(seed: int = 20260816, count: int = 200) -> tuple:
    """The first count candidates of _random_candidate that pass
    check_selection and every parity condition: from the default seed,
    the parity-valid layouts of acceptance criterion 6. Drawn once per
    session and shared, so each source state's expectation memo is shared
    too; no test counts those memos."""
    rng = np.random.default_rng(seed)
    valid = []
    for _ in range(25 * count):
        candidate = _random_candidate(rng)
        if candidate is None:
            continue
        layout, selection = candidate
        if check_selection(layout, selection).passed and check_parity(
            layout, classify(layout, selection)
        ).passed:
            valid.append(candidate)
            if len(valid) == count:
                return tuple(valid)
    raise RuntimeError(f"{count} parity-valid layouts not drawn from seed {seed}")


# ----------------------------------------------------------------------
# Pauli strings

# Largest register for which a dense matrix is built.
MATRIX_QUBIT_CAP = 12

_SINGLE_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def dense(op: PauliString) -> np.ndarray:
    """Dense 2**n x 2**n matrix of op; entries are exact Gaussian integers."""
    if op.n > MATRIX_QUBIT_CAP:
        raise ValueError(f"dense matrix capped at {MATRIX_QUBIT_CAP} qubits, got {op.n}")
    mats = [_SINGLE_MATRICES[c] for c in op.letters]
    return op.phase * functools.reduce(np.kron, mats)


# Single-qubit products W_a W_b = i**k W_c as (k, c): the letter-by-letter
# oracle for strings too long for dense matrices.
SINGLE_PRODUCT = {
    ("I", "I"): (0, "I"), ("I", "X"): (0, "X"), ("I", "Y"): (0, "Y"), ("I", "Z"): (0, "Z"),
    ("X", "I"): (0, "X"), ("X", "X"): (0, "I"), ("X", "Y"): (1, "Z"), ("X", "Z"): (3, "Y"),
    ("Y", "I"): (0, "Y"), ("Y", "X"): (3, "Z"), ("Y", "Y"): (0, "I"), ("Y", "Z"): (1, "X"),
    ("Z", "I"): (0, "Z"), ("Z", "X"): (1, "Y"), ("Z", "Y"): (3, "X"), ("Z", "Z"): (0, "I"),
}


def table_product(letters_a, ka, letters_b, kb):
    """(letters, phase exponent) of i**ka A * i**kb B, qubit by qubit."""
    k = ka + kb
    out = []
    for la, lb in zip(letters_a, letters_b):
        dk, lc = SINGLE_PRODUCT[la, lb]
        k += dk
        out.append(lc)
    return "".join(out), k % 4


# ----------------------------------------------------------------------
# expectations and outcome distributions

# An observable: a single hermitian PauliString, or a real combination
# sum_i c_i P_i of hermitian strings.
ObservableTerms = Union[PauliString, Sequence[tuple[float, PauliString]]]


def _as_terms(terms: ObservableTerms) -> list[tuple[float, PauliString]]:
    return [(1.0, terms)] if isinstance(terms, PauliString) else list(terms)


def expectation_combo(amps: np.ndarray, terms: ObservableTerms) -> complex:
    """Expectation of a real combination of hermitian strings, term by term."""
    return sum(float(c) * expectation(amps, p) for c, p in _as_terms(terms))


def joint_oracle(amps: np.ndarray, observables: Sequence[ObservableTerms]) -> dict:
    """Exact distribution of commuting two-outcome observables, from the
    expectations of all their products."""
    observables = [_as_terms(o) for o in observables]
    labels = len(observables)
    out = {}
    for signs in np.ndindex(*([2] * labels)):
        outcome = tuple(1 - 2 * s for s in signs)
        total = 0.0
        for subset in range(1 << labels):
            factor = 1.0
            combo = None
            for pos in range(labels):
                if subset >> pos & 1:
                    factor *= outcome[pos]
                    combo = observables[pos] if combo is None else [
                        (cl * cr, pl * pr)
                        for cl, pl in combo
                        for cr, pr in observables[pos]
                    ]
            if combo is None:
                total += 1.0
            else:
                total += factor * expectation_combo(amps, combo)
        out[outcome] = total / 2.0**labels
    return out


# The rotation onto Z of each measured letter.
BASIS_ROTATION = {"X": _H, "Y": _H @ _S_DAG, "Z": None}


def _add_letter(target: dict[int, str], q: int, letter: str, where: str) -> None:
    if target.setdefault(q, letter) != letter:
        raise CrossCheckError(
            f"{where}: qubit {q} would be measured in both "
            f"{target[q]} and {letter} bases"
        )


def _add_letters(target: dict[int, str], op: PauliString, where: str) -> None:
    for q in support(op):
        _add_letter(target, q, op.letter(q), where)


def basis_letters(synthesis: Synthesis, k: int, y: tuple[int, ...], mode: str) -> dict[int, str]:
    """The basis letter of every measured qubit of group k, by position in
    the group, when the receivers hold settings y, one letter at a time: a
    per-qubit-discard receiver reads its local B_y letters, and where B_y
    is the identity the letter g or h repeats there (`repeated_letter`);
    source agents measure S."""
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
                    letter = repeated_letter(synthesis.selection, i, j)
                if letter != "I":
                    _add_letter(letters, position, letter, where)
    return letters


@dataclass(frozen=True)
class JointFrame:
    """One setting cell rotated into the computational basis of the joint
    state: outcome probabilities over the n-qubit basis index, and each
    measured string as (bit mask over that index, sign)."""

    probabilities: np.ndarray
    source_masks: tuple[tuple[int, int], ...]
    receiver_masks: tuple[tuple[int, int], ...]
    p_masks: tuple[tuple[int, int], ...] | None


def joint_frame(synthesis: Synthesis, thetas, x, y, mode: str) -> JointFrame:
    """The sampler's frame at one setting cell, built on the joint state:
    every source rotation and basis change acts on all 2^n amplitudes."""
    layout, sources, receivers = synthesis.layout, synthesis.sources, synthesis.receivers
    n = sum(layout.source_sizes)
    amps = joint_state(layout)
    for xk, src, theta in zip(x, sources, synthesis.angles(thetas)):
        w = lift(layout, [src.s_piece], [src.agent]) * lift(layout, [src.t_piece], [src.agent])
        sign = 1.0 if xk == 0 else -1.0
        amps = math.cos(theta / 2) * amps + sign * math.sin(theta / 2) * apply_pauli(amps, w)
    start = 0  # the group's first position in the joint register
    for k, width in enumerate(layout.group_widths, start=1):
        for q, letter in basis_letters(synthesis, k, y, mode).items():
            gate = BASIS_ROTATION[letter]
            if gate is not None:
                amps = _apply_one_qubit(amps, n, start + q, gate)
        start += width
    probabilities = np.abs(amps) ** 2
    total = probabilities.sum()
    if not abs(total - 1.0) < PROB_TOL:
        raise RuntimeError(f"frame probabilities sum to {total!r}")

    def mask(op: PauliString) -> tuple[int, int]:
        return op.x | op.z, int(op.phase.real)

    tilted_now = synthesis.tilt is not None and all(b == 0 for b in y)
    return JointFrame(
        probabilities=probabilities / total,
        source_masks=tuple(mask(lift(layout, [src.s_piece], [src.agent])) for src in sources),
        receiver_masks=tuple(
            mask(lift(layout, rec.b_pieces(ym))) for ym, rec in zip(y, receivers)
        ),
        p_masks=(
            tuple(mask(lift(layout, block.p_part_pieces)) for block in synthesis.tilt.receivers)
            if tilted_now
            else None
        ),
    )


def joint_outcomes(indices: np.ndarray, masks) -> list[np.ndarray]:
    """Each (bits, sign) mask's outcome at every joint basis index."""
    return [sign * (1 - 2 * _parity(indices & bits)) for bits, sign in masks]


def outcome_distribution(
    synthesis: Synthesis,
    thetas,
    x: tuple[int, ...],
    y: tuple[int, ...],
    *,
    mode: str = "direct-observable",
) -> dict[tuple[int, ...], float]:
    """Exact joint distribution of the recorded outcomes at one setting,
    from the sampler's group frames: every combination of group indices,
    weighted by the product of the groups' probabilities.

    Keys are (a_1..a_K, b_1..b_M) tuples, extended by (p_1..p_M) when the
    synthesis has a tilted block and every receiver is on setting 0.
    """
    if mode not in MODES:
        raise ValueError(f"unknown strategy {mode!r}; expected one of {MODES}")
    frames = _Frames(synthesis, synthesis.angles(thetas), mode)
    at, codewords, groups = frames.ys.index(tuple(y)), {}, []
    for k, pos in enumerate(frames.owners, start=1):
        # the frame at y, over (x_k, outcome): its half at x_k
        frame = next(itertools.islice(frames.group_frames(k, codewords), at, None))
        groups.append(np.split(frame, 2)[x[pos]])
    grid = np.indices([p.size for p in groups]).reshape(len(groups), -1)
    weights = functools.reduce(np.kron, groups)
    masks = frames.source_masks + frames.receiver_masks(y)
    if synthesis.tilt is not None and all(b == 0 for b in y):
        masks += frames.p_masks
    stacked = np.stack([outcomes(list(grid), mask) for mask in masks], axis=1)
    out: dict[tuple[int, ...], float] = {}
    for idx in np.flatnonzero(weights > 0):
        key = tuple(int(v) for v in stacked[idx])
        out[key] = out.get(key, 0.0) + float(weights[idx])
    return out


@functools.cache
def _signs(width: int) -> np.ndarray:
    """(-1) to the parity of every index below 2^width."""
    return 1 - 2 * _parity(np.arange(1 << width))


def outcomes(indices: list[np.ndarray], mask) -> np.ndarray:
    """A measured string's outcome per round, from each group's outcome
    indices: the string's sign times (-1) to the parity of its bits in
    every group's index."""
    out = np.full(len(indices[0]), mask.sign, dtype=np.int64)
    for group_indices, bits in zip(indices, mask.bits):
        if bits:
            out *= _signs(bits.bit_length())[group_indices & bits]
    return out


def cell_signs(frames) -> list[int]:
    """Per receiver setting, the residual of its cell 0 from the measured
    strings' signs: bit 0 the product of all outcomes' sign, bit 1 the
    phase-flip product's where it is collected."""
    out = []
    for y, now in zip(frames.ys, frames.tilted):
        signs = [mask.sign for mask in frames.source_masks + frames.receiver_masks(y)]
        flip = [mask.sign for mask in frames.p_masks] if now else []
        out.append(int(math.prod(signs) < 0) | int(math.prod(flip) < 0) << 1)
    return out


def residuals(frames, codewords) -> list:
    """Per group, its frames at every receiver setting (as
    `sampling._Frames.group_frames` builds them, halved so that each sums
    to 1) and every index's residual, one letter of the tallied strings'
    masks at a time: bit 0 the parity of the product of all outcomes'
    bits, bit 1 the phase-flip product's where it is collected."""
    out = []
    for group in frames.synthesis.layout.source_agents:
        per_y = []
        for v, frame in enumerate(frames.group_frames(group, codewords)):
            owed = np.zeros(frame.size, dtype=int)
            for t, read in enumerate(frames.tallied):
                if read[v] is not None:
                    bits = read[v].bits[group - 1]
                    signs = _signs(bits.bit_length())[np.arange(frame.size) & bits]
                    owed |= (1 - signs) // 2 << t
            per_y.append((frame / 2, owed))
        out.append(per_y)
    return out


def tails(frames, groups) -> list:
    """tails[g][v][r]: the probability that the groups after the g-th (of
    `residuals`) owe residual r at receiver setting v, by recursion from
    the last group back: each group's weight per residual summed in index
    order."""
    cells = frames.cells
    out = [[[1.0] + [0.0] * (cells - 1) for _ in frames.ys]]
    for per_y in reversed(groups):
        spread = [[0.0] * cells for _ in frames.ys]
        for v, (frame, owed) in enumerate(per_y):
            for p, r in zip(frame.tolist(), owed.tolist()):
                spread[v][r] += p
        out.insert(0, [
            [sum(spread[v][c] * out[0][v][r ^ c] for c in range(cells)) for r in range(cells)]
            for v in range(len(frames.ys))
        ])
    return out


def conditionals(frames, groups) -> dict:
    """(g, v, r) -> the g-th group's frame at receiver setting v (of
    `residuals`), each index weighted by the probability that the later
    groups owe residual r XOR the index's, for every (g, v, r) that some
    round can reach: those of positive weight."""
    later = tails(frames, groups)[1:]
    out = {}
    for g, per_y in enumerate(groups):
        for v, (frame, owed) in enumerate(per_y):
            for r in range(frames.cells):
                weights = frame * np.array(later[g][v])[r ^ owed]
                if weights.any():
                    out[g, v, r] = weights
    return out


def frame_law(synthesis: Synthesis, thetas, mode: str) -> np.ndarray:
    """The law of the tallied cells at every receiver setting from the
    sampler's group frames (`residuals` and `tails`), shaped as
    `sampling._Frames.law`."""
    frames = _Frames(synthesis, synthesis.angles(thetas), mode)
    first = tails(frames, residuals(frames, {}))[0]
    signs = cell_signs(frames)
    return np.array([[first[v][c ^ signs[v]] for c in range(frames.cells)] for v in range(len(frames.ys))])


def marginal_hypergeometric(rng, left: np.ndarray, size: int) -> np.ndarray:
    """size draws without replacement from counts left, one count at a
    time, as numpy's marginals method takes them: each count's share of
    what remains is a hypergeometric draw against the counts after it, and
    more than half of the total is drawn as the rest of its complement."""
    total = int(left.sum())
    flip = size > total // 2
    want = total - size if flip else size
    take, rest = np.zeros_like(left), total
    for c, good in enumerate(left[:-1].tolist()):
        if want == 0:
            break
        rest -= good
        take[c] = rng.hypergeometric(good, rest, want)
        want -= int(take[c])
    take[-1] += want
    return left - take if flip else take


def sample_rounds(synthesis: Synthesis, thetas, config, *, beta=None, record_path=None):
    """`sampling.run` round by round, without guide tables or parities.
    The counts of the (receiver setting, cell) pairs are one multinomial
    draw from `sampling._Frames.law`, and the tallies are read off them.
    With a record, each chunk of `sampling._RECORD_CHUNK` rounds takes its
    cells from the counts left (`marginal_hypergeometric`), shuffles them
    and draws K uniforms per round, a row per group; each group's
    (x_k, outcome) index is the binary search (`invert`) of its uniform on
    the cumulative sums of its frame at y, each index weighted by the
    probability that the later groups owe the rest of the round's residual
    (`tails`), which is then updated by the index's residual. Every
    agent's outcome is read by `outcomes` and the rounds' settings texts
    and outcome rows handed to the record's writer (`as_record`). The
    frames are built in run's order, so a refusal names the same frame.
    The report and record must equal run's."""
    layout, receivers, tilt = synthesis.layout, synthesis.receivers, synthesis.tilt
    if beta is not None:
        synthesis.check_beta(beta)
    thetas = synthesis.angles(thetas)
    k, m = layout.K, layout.M
    frames = _Frames(synthesis, thetas, config.strategy)
    rng = make_rng(config.seed)
    ys, cells = frames.ys, frames.cells
    law = frames.law()
    counts = rng.multinomial(config.rounds, law.ravel() / len(ys))
    tallies = []
    for v, y in enumerate(ys):
        per_cell = counts[v * cells : (v + 1) * cells].tolist()
        product = sum(n * (-1) ** (c & 1) for c, n in enumerate(per_cell))
        flip = sum(n * (-1) ** (c >> 1) for c, n in enumerate(per_cell))
        tallies.append(sampling.SettingTally(
            y, sum(per_cell), product, flip if tilt is not None and not any(y) else None
        ))
    report = sampling._report(config, k, tallies, beta)
    if record_path is None:
        return report

    groups = residuals(frames, {})
    edges = {key: cdf_edges(weights) for key, weights in conditionals(frames, groups).items()}
    signs = np.array(cell_signs(frames))
    joint = np.zeros((k, config.rounds), dtype=int)
    y_of = np.zeros(config.rounds, dtype=int)
    left = counts.copy()
    for start in range(0, config.rounds, sampling._RECORD_CHUNK):
        size = min(sampling._RECORD_CHUNK, config.rounds - start)
        take = marginal_hypergeometric(rng, left, size)
        left -= take
        cell = np.repeat(np.arange(left.size), take)
        rng.shuffle(cell)
        u = rng.random((k, size))
        y, owed = cell // cells, cell % cells ^ signs[cell // cells]
        for g, per_y in enumerate(groups):
            index = np.zeros(size, dtype=int)
            for v, r in set(zip(y.tolist(), owed.tolist())):
                at = (y == v) & (owed == r)
                index[at] = invert(edges[g, v, r], u[g, at])
            owed ^= np.array([residual for _, residual in per_y])[y, index]
            joint[g, start : start + size] = index
        assert not owed.any()
        y_of[start : start + size] = y

    widths = np.array(layout.group_widths)[:, None]
    indices = list(joint & ((1 << widths) - 1))
    x_of = joint >> widths  # by group
    x_pos = x_of[[frames.owners.index(pos) for pos in range(k)]]  # by source position
    a_cols = [outcomes(indices, mask) for mask in frames.source_masks]
    on_zero, on_one = (frames.receiver_masks((ym,) * m) for ym in (0, 1))
    b_cols = [
        np.where(y_of >> (m - 1 - r) & 1, outcomes(indices, one), outcomes(indices, zero))
        for r, (zero, one) in enumerate(zip(on_zero, on_one))
    ]
    p_cols = []
    if tilt is not None:
        p_cols = [np.where(y_of == 0, outcomes(indices, mask), 0) for mask in frames.p_masks]
    if config.strategy == "direct-observable":
        measured, columns = [], a_cols + b_cols + p_cols
    else:
        acts = [0] * k
        for rec in receivers:
            for group, (b0, b1) in enumerate(zip(rec.b0_pieces, rec.b1_pieces)):
                acts[group] |= b0.x | b0.z | b1.x | b1.z
        measured, columns = [], list(a_cols)
        for i, j in sorted(q for rec in receivers for q in rec.qubits):
            group, position = layout.place(i, j)
            bit = 1 << (layout.group_widths[group - 1] - 1 - position)
            if acts[group - 1] & bit:
                measured.append((i, j))
                bits = tuple(bit if g == group else 0 for g in layout.source_agents)
                columns.append(outcomes(indices, sampling._Mask(bits=bits, sign=1)))
    header = sampling._csv_header(config.strategy, k, m, tilt is not None, measured)
    texts, settings = {}, []
    for x, v in zip(map(tuple, x_pos.T.tolist()), y_of.tolist()):
        if (x, v) not in texts:
            texts[x, v] = "".join(map(str, x)) + "|" + "".join(map(str, ys[v]))
        settings.append(texts[x, v])
    # the writer's text is checked against write_rounds on its own
    rows = np.array(columns, dtype=np.int8).T
    write_matrices(record_path, header, *as_record(header, settings, rows))
    return report


def write_matrices(path, header, settings, outcomes) -> None:
    """Write the rounds, in order, under the header through the reports'
    atomic writer, from whole-run matrices: round r's settings text is row
    r of the uint8 matrix settings and its outcome codes row r of the uint8
    matrix outcomes, as `as_record` lays them out. Each chunk of
    `sampling._RECORD_CHUNK` rounds is formatted by
    `sampling._format_rounds`, which refuses a shape that does not match."""
    width = len(header) - 2

    def emit(handle):
        csv.writer(handle).writerow(header)
        handle.flush()
        for start in range(0, len(settings), sampling._RECORD_CHUNK):
            chunk = slice(start, start + sampling._RECORD_CHUNK)
            handle.buffer.write(
                sampling._format_rounds(start, width, settings[chunk], outcomes[chunk])
            )

    atomic_write(path, emit)


def as_record(header, settings, rows):
    """Rounds as `write_matrices` takes them, given each round's
    settings text and outcome row: the texts after a comma, and the
    outcome codes (0 for +1, 1 for -1, 2 for 0), each in a uint8 matrix
    whose rows are padded with 0 bytes to whole 4-byte words."""
    width = len(header) - 2
    texts = [f",{text}".encode() for text in settings]
    size = -(-max(map(len, texts)) // 4) * 4
    padded = b"".join(text.ljust(size, b"\0") for text in texts)
    cells = np.zeros((len(rows), -(-width // 4) * 4), dtype=np.uint8)
    cells[:, :width] = np.array([1, 2, 0], dtype=np.uint8)[rows + 1]
    return np.frombuffer(padded, np.uint8).reshape(len(texts), size), cells


def cdf_edges(probabilities: np.ndarray) -> np.ndarray:
    """0 followed by the normalized cumulative sums, as Generator.choice
    forms them."""
    cdf = probabilities.cumsum()
    cdf /= cdf[-1]
    return np.concatenate(([0.0], cdf))


def invert(edges: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The bin of each uniform u by binary search on the edges."""
    return edges.searchsorted(u, side="right") - 1


def write_rounds(path, header, settings, rows) -> None:
    """The round record: the header, then one line "index,settings,outcomes"
    per round, in order, from each round's settings text and outcome row."""
    with open(path, "w", newline="") as handle:
        csv.writer(handle).writerow(header)
        for i, (text, row) in enumerate(zip(settings, rows.tolist())):
            handle.write(f"{i},{text},{','.join(map(str, row))}\r\n")


# ----------------------------------------------------------------------
# observable synthesis, one letter at a time


def custody(layout: NetworkLayout) -> dict[tuple[int, int], int]:
    """The agent holding each qubit (i, j)."""
    return {(i, j): agent for i, j, agent in layout.assignment}


def group_position(layout: NetworkLayout, i: int, j: int) -> tuple[int, int]:
    """The group k holding qubit (i, j) and its position there, summed over
    the sizes of the sources before i in k."""
    k = next(k for k in layout.source_agents if i <= layout.partition[k])
    return k, sum(layout.source_sizes[layout.partition[k - 1] : i - 1]) + j - 1


def _anticommute(a: str, b: str) -> bool:
    return a != "I" and b != "I" and a != b


def repeated_letter(selection: OperatorSelection, i: int, j: int) -> str:
    """g's letter at qubit (i, j), or h's where g is the identity: on a
    commuting qubit, the one letter g and h measure there."""
    s, t = selection.g[i - 1].letter(j - 1), selection.h[i - 1].letter(j - 1)
    return s if s != "I" else t


def classify_letters(layout: NetworkLayout, selection: OperatorSelection) -> Classification:
    """network.classify one letter pair at a time: qubit j is in d where the
    (g, h) letters are distinct non-identities, and idle where a receiver
    holds it otherwise, with its repeated letter as o."""
    held_by = custody(layout)
    d, idle, o = [], [], []
    for i, g in enumerate(selection.g, start=1):
        anti = still = 0
        letters = ["I"] * g.n
        for j in range(1, g.n + 1):
            bit = 1 << (g.n - j)
            if _anticommute(g.letter(j - 1), selection.h[i - 1].letter(j - 1)):
                anti |= bit
            elif held_by[i, j] > layout.K:
                still |= bit
                letters[j - 1] = repeated_letter(selection, i, j)
        repeated = PauliString(letters)
        d.append(anti)
        idle.append(still)
        o.append((repeated.x, repeated.z))
    return Classification(d=tuple(d), idle=tuple(idle), o=tuple(o))


def pieces_letters(layout, qubits, local: PauliString, groups=None) -> tuple[PauliString, ...]:
    """local, a string on the given qubits, as one piece per group in
    groups (default: every group), letter by letter: its letters at their
    places, identity elsewhere, and its sign on the first piece."""
    groups = layout.source_agents if groups is None else groups
    rows = {k: ["I"] * layout.group_widths[k - 1] for k in groups}
    for (i, j), letter in zip(qubits, local.letters):
        k, position = group_position(layout, i, j)
        rows[k][position] = letter
    pieces = [PauliString(rows[k]) for k in groups]
    pieces[0] = pieces[0].with_phase_exponent(local.phase_exponent)
    return tuple(pieces)


def cut_letters(ops, qubits) -> PauliString:
    """The per-source ops' letters at the given qubits, as a +1-phase string."""
    return PauliString([ops[i - 1].letter(j - 1) for i, j in qubits])


def tilt_constraints(layout, selection, source: int) -> dict[int, set[str]]:
    """Per-qubit letter sets (0-based within the source) that a phase-flip
    representative must meet: the identity on the source side, g's letter
    where a receiver measures an anticommuting pair, and the identity or
    the repeated letter on an idle qubit. `logical_representative` searches
    a coset under them."""
    held_by, g, h = custody(layout), selection.g[source - 1], selection.h[source - 1]
    constraints: dict[int, set[str]] = {}
    for j0 in range(g.n):
        if held_by[source, j0 + 1] <= layout.K:
            constraints[j0] = {"I"}
        elif _anticommute(g.letter(j0), h.letter(j0)):
            constraints[j0] = {g.letter(j0)}
        else:
            constraints[j0] = {"I", repeated_letter(selection, source, j0 + 1)}
    return constraints


def check_tilt_letters(layout, selection, source: int) -> None:
    """The h_prime conditions of the tilted construction one qubit at a
    time, refused with observables' texts."""
    prime = selection.h_prime[source - 1]
    if not prime.is_hermitian():
        raise ValueError(f"source {source}: h_prime must carry a real sign")
    if prime.weight == 0:
        raise ValueError(f"source {source}: h_prime has no support")
    held_by = custody(layout)
    for j0, letters in tilt_constraints(layout, selection, source).items():
        letter = prime.letter(j0)
        if letter in letters:
            continue
        if held_by[source, j0 + 1] <= layout.K:
            raise ValueError(
                f"source {source}: h_prime acts as {letter} on source-side "
                f"qubit ({source},{j0 + 1}); it must be identity there"
            )
        if not _anticommute(selection.g[source - 1].letter(j0), selection.h[source - 1].letter(j0)):
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


def tilted_letters(layout, selection, receivers) -> TiltedBlock:
    """The tilted block letter by letter: per receiver, each h_prime's
    letters on its qubits, grafted onto B0 where g is the identity, and
    each h_prime's sign on the lowest receiver holding its support."""
    held_by = custody(layout)
    for source in selection.tilt_sources:
        check_tilt_letters(layout, selection, source)
    anchor_sign = {agent: 1 for agent in layout.receivers}
    for source in selection.tilt_sources:
        prime = selection.h_prime[source - 1]
        anchor = min(held_by[source, j + 1] for j in support(prime))
        anchor_sign[anchor] *= int(prime.phase.real)
    per_receiver = []
    for rec in receivers:
        spans = {
            (i, j): selection.h_prime[i - 1].letter(j - 1)
            for i, j in rec.qubits
            if i in selection.tilt_sources and selection.h_prime[i - 1].letter(j - 1) != "I"
        }
        graft = PauliString(
            [
                spans[i, j] if (i, j) in spans and selection.g[i - 1].letter(j - 1) == "I" else "I"
                for i, j in rec.qubits
            ]
        )
        p_part = PauliString([spans.get((i, j), "I") for i, j in rec.qubits])
        b0_bar = graft * rec.b0
        if anchor_sign[rec.agent] == -1:
            p_part, b0_bar = -p_part, -b0_bar
        per_receiver.append(
            TiltedReceiver(
                agent=rec.agent,
                qubits=rec.qubits,
                b0_bar=b0_bar,
                b0_bar_pieces=pieces_letters(layout, rec.qubits, b0_bar),
                p_part=p_part,
                p_part_pieces=pieces_letters(layout, rec.qubits, p_part),
            )
        )
    p_pieces = [PauliString.identity(width) for width in layout.group_widths]
    for source in selection.tilt_sources:
        prime, (k, _) = selection.h_prime[source - 1], group_position(layout, source, 1)
        qubits = [(source, j) for j in range(1, prime.n + 1)]
        p_pieces[k - 1] = p_pieces[k - 1] * pieces_letters(layout, qubits, prime, (k,))[0]
    return TiltedBlock(
        tilt_sources=selection.tilt_sources, p_pieces=tuple(p_pieces), receivers=tuple(per_receiver)
    )


def synthesize_letters(layout, selection, *, allow_commuting_pair: bool = False) -> Synthesis:
    """observables.synthesize one letter at a time, with its refusals: each
    agent's strings cut from g and h letter by letter and placed in the
    groups letter by letter, its anticommuting count read off letter pairs."""
    classification = classify_letters(layout, selection)

    def even(qubits):
        g, h = cut_letters(selection.g, qubits), cut_letters(selection.h, qubits)
        return sum(_anticommute(a, b) for a, b in zip(g.letters, h.letters)) % 2 == 0

    sources, receivers = [], []
    for agent in layout.source_agents:
        qubits = layout.qubits_of(agent)
        if even(qubits):
            raise ValueError(
                f"agent {layout.agent_label(agent)} holds an even anticommuting "
                "count; its A pair would not anticommute"
            )
        s_hat, t_hat = cut_letters(selection.g, qubits), cut_letters(selection.h, qubits)
        s_piece, t_piece = (
            pieces_letters(layout, qubits, op, (agent,))[0] for op in (s_hat, t_hat)
        )
        sources.append(SourceObservables(agent, qubits, s_hat, t_hat, s_piece, t_piece))
    for agent in layout.receivers:
        qubits = layout.qubits_of(agent)
        if even(qubits) and not allow_commuting_pair:
            raise ValueError(
                f"agent {layout.agent_label(agent)} holds an even "
                "anticommuting count; B0 and B1 would commute "
                "(pass allow_commuting_pair=True to accept)"
            )
        b0, b1 = cut_letters(selection.g, qubits), cut_letters(selection.h, qubits)
        pieces = [pieces_letters(layout, qubits, op) for op in (b0, b1)]
        receivers.append(ReceiverObservables(agent, qubits, b0, b1, *pieces))
    tilt = tilted_letters(layout, selection, receivers) if selection.tilt_sources else None
    return Synthesis(layout, selection, classification, tuple(sources), tuple(receivers), tilt)


def tilted_layouts(seed: int = 20261019) -> list:
    """random_layouts() with an h_prime on every source where
    logical_representative finds one under tilt_constraints, searching the
    coset of the logical Z times a seeded random set of generators; the
    layouts where no source gets one are left out."""
    rng = np.random.default_rng(seed)
    out = []
    for layout, selection in random_layouts():
        primes = []
        for i, source in enumerate(layout.sources, start=1):
            code, base = source.code, source.code.logical_z[0]
            for generator in code.generators:
                if rng.random() < 0.5:
                    base = generator * base
            constraints = tilt_constraints(layout, selection, i)
            primes.append(logical_representative(code, base, constraints))
        if any(prime is not None for prime in primes):
            out.append((layout, OperatorSelection(selection.g, selection.h, tuple(primes))))
    return out


# ----------------------------------------------------------------------
# codes


def logical_representative(
    code: StabilizerCode,
    base: PauliString,
    constraints: Mapping[int, str | Iterable[str]],
) -> PauliString | None:
    """First element of base * (stabilizer group) whose letters satisfy the
    per-qubit constraints, or None.

    constraints maps a qubit index to the allowed letter or set of letters
    there; unconstrained qubits are free. Enumeration order is the subset
    integer over generators (bit j = generators[j]), ascending, so the
    result is deterministic.
    """
    if base.n != code.n:
        raise ValueError("base operator does not match the code's qubit count")
    allowed = {
        int(q): {letters} if isinstance(letters, str) else set(letters)
        for q, letters in constraints.items()
    }
    gens = code.generators
    for subset in range(1 << len(gens)):
        candidate = base
        for j in range(len(gens)):
            if (subset >> j) & 1:
                candidate = gens[j] * candidate
        if all(candidate.letter(q) in letters for q, letters in allowed.items()):
            return candidate
    return None


# ----------------------------------------------------------------------
# classical strategies


def _decode_labels(value: int, alphabet) -> tuple[int, ...]:
    """The label tuple at this row-major index of the label grid."""
    labels = []
    for size in reversed(alphabet):
        labels.append(value % size)
        value //= size
    return tuple(reversed(labels))


def loop_scan(shape, alphabet, beta):
    """Reference full scan: every combination of table integers under
    every point label, scored.

    Returns (best value, best key, combos scanned); the key is (label
    index, table integers), and ties resolve to the earliest combination
    in enumeration order: labels in index order, then the table integers
    as itertools.product runs them, the first table slowest.  Under each
    label every table integer's (I, J, P) sign factors are read off its
    bits as an array along the table's own axis; a combination's signs
    are their product by broadcasting, and its objective is looked up
    from its |I|, |J| and |P|, each of the eight scored once in Python
    floats.
    """
    tilted = beta is not None
    k, m = shape.k, shape.m
    blocks = [shape.block(s) for s in range(1, k + 1)]
    block_sizes, reach_sizes, widths = classical._table_bits(shape, alphabet, tilted)
    root = 1.0 / k
    objectives = []  # indexed by |I| + 2 |J| + 4 |P|
    for code in range(8):
        value = (code & 1) ** root + (code >> 1 & 1) ** root
        objectives.append(value + beta * (code >> 2 & 1) ** root if tilted else value)
    objectives = np.array(objectives)

    def sign(table, column):
        # bit `column` of every integer of this table, as +/-1 along its axis
        axes = [-1 if t == table else 1 for t in range(len(widths))]
        bits = np.arange(1 << widths[table]).reshape(axes)
        return (1 - 2 * ((bits >> column) & 1)).astype(np.int8)

    best_value = -1.0
    best_key = None
    scanned = 0
    for label_index in range(math.prod(alphabet)):
        labels = _decode_labels(label_index, alphabet)
        a_cols = [classical._flat(block, labels, alphabet) for block in blocks]
        b_cols = [classical._flat(reach, labels, alphabet) for reach in shape.reach]
        i_sign = j_sign = p_sign = 1
        for s in range(k):
            a0, a1 = sign(s, a_cols[s]), sign(s, block_sizes[s] + a_cols[s])
            i_sign, j_sign = i_sign * ((a0 + a1) // 2), j_sign * ((a0 - a1) // 2)
        for r in range(m):
            i_sign = i_sign * sign(k + r, b_cols[r])
            j_sign = j_sign * sign(k + r, reach_sizes[r] + b_cols[r])
            if tilted:
                p_sign = p_sign * sign(k + m + r, b_cols[r])
        codes = np.abs(i_sign) + 2 * np.abs(j_sign) + 4 * np.abs(p_sign)
        assert codes.shape == tuple(1 << w for w in widths)
        scanned += codes.size
        present = np.flatnonzero(np.bincount(codes.ravel(), minlength=8))
        value = objectives[present].max()
        best = present[objectives[present] == value]
        first = int(np.argmax(np.isin(codes, best)))  # the first combination scoring value
        if value > best_value:
            best_value = float(value)
            best_key = (label_index, tuple(int(i) for i in np.unravel_index(first, codes.shape)))
    return best_value, best_key, scanned


def _scan_reachable(shape, alphabet, beta):
    """Reference reachable scan: (best value, best strategy, combos scanned).

    With a point-mass label assignment the objective only reads each
    table at one column, so scanning the response values at that column
    under every label reaches the same maximum as scanning whole tables.
    The winner becomes constant tables under its label.
    """
    tilted = beta is not None
    k, m = shape.k, shape.m
    root = 1.0 / k
    pairs = [(1, 1), (1, -1), (-1, 1), (-1, -1)]
    best = (-1.0, None)
    scanned = 0
    p_choices = [(1,), (-1,)] if tilted else [()]
    for label_index in range(math.prod(alphabet)):
        for a_choice in itertools.product(pairs, repeat=k):
            for b_choice in itertools.product(pairs, repeat=m):
                for p_choice in itertools.product(p_choices, repeat=m):
                    scanned += 1
                    i_sign = 1
                    j_sign = 1
                    for a0, a1 in a_choice:
                        i_sign *= (a0 + a1) // 2
                        j_sign *= (a0 - a1) // 2
                    for b0, b1 in b_choice:
                        i_sign *= b0
                        j_sign *= b1
                    value = abs(i_sign) ** root + abs(j_sign) ** root
                    if tilted:
                        p_sign = math.prod(p[0] for p in p_choice)
                        value += beta * abs(p_sign) ** root
                    if value > best[0]:
                        best = (value, (label_index, a_choice, b_choice, p_choice))
    value, (label_index, a_choice, b_choice, p_choice) = best
    labels = _decode_labels(label_index, alphabet)
    block_sizes, reach_sizes, _ = classical._table_bits(shape, alphabet, tilted)
    a_tables = tuple(
        ((a0,) * block_sizes[s], (a1,) * block_sizes[s])
        for s, (a0, a1) in enumerate(a_choice)
    )
    b_tables = tuple(
        ((b0,) * reach_sizes[r], (b1,) * reach_sizes[r])
        for r, (b0, b1) in enumerate(b_choice)
    )
    p_tables = (
        tuple((p[0],) * reach_sizes[r] for r, p in enumerate(p_choice))
        if tilted
        else None
    )
    weights = tuple(
        tuple(1.0 if v == labels[i] else 0.0 for v in range(alphabet[i]))
        for i in range(shape.n)
    )
    strategy = classical.HiddenStrategy(
        shape=shape,
        alphabet=alphabet,
        weights=weights,
        a_tables=a_tables,
        b_tables=b_tables,
        p_tables=p_tables,
    )
    return value, strategy, scanned


@dataclass(frozen=True)
class ClassicalCorrelators:
    i_value: float
    j_value: float
    p_value: float | None = None


def bell_value(corr: ClassicalCorrelators, k: int) -> float:
    return abs(corr.i_value) ** (1.0 / k) + abs(corr.j_value) ** (1.0 / k)


def objective_value(corr: ClassicalCorrelators, k: int, beta: float | None) -> float:
    if beta is None:
        return bell_value(corr, k)
    if corr.p_value is None:
        raise ValueError("tilted objective needs a strategy with p tables")
    return beta * abs(corr.p_value) ** (1.0 / k) + bell_value(corr, k)


def label_grid(shape: classical.NetworkShape, alphabet) -> list:
    """Every label tuple in product order, with the table column each
    source agent and each receiver reads under it."""
    blocks = [shape.block(s) for s in range(1, shape.k + 1)]
    return [
        (
            labels,
            tuple(classical._flat(block, labels, alphabet) for block in blocks),
            tuple(classical._flat(reach, labels, alphabet) for reach in shape.reach),
        )
        for labels in itertools.product(*(range(size) for size in alphabet))
    ]


def units(weight: float) -> int:
    """A label's weight rounded once to a whole number of 1 / classical._UNIT."""
    return round(weight * classical._UNIT)


def grid_sums(grid, weights, a_tables, b_tables, p_tables) -> ClassicalCorrelators:
    """I, J (and P when p_tables is given) summed over a label grid, one
    label at a time in grid order, as Python ints: each label's weight in
    units, times its sign; each total is taken to float once.

    Tables may be tuples or lists; the sums are exact, so the same
    strategy always gives the same floats.
    """
    i_total = j_total = p_total = 0
    for labels, a_cols, b_cols in grid:
        weight = units(math.prod(w[v] for w, v in zip(weights, labels)))
        half_sum = 1
        half_diff = 1
        for table, column in zip(a_tables, a_cols):
            a0 = table[0][column]
            a1 = table[1][column]
            half_sum *= (a0 + a1) // 2
            half_diff *= (a0 - a1) // 2
        b0 = 1
        b1 = 1
        p = 1
        for m, column in enumerate(b_cols):
            b0 *= b_tables[m][0][column]
            b1 *= b_tables[m][1][column]
            if p_tables is not None:
                p *= p_tables[m][column]
        i_total += weight * half_sum * b0
        j_total += weight * half_diff * b1
        p_total += weight * p
    return ClassicalCorrelators(
        i_total / classical._UNIT,
        j_total / classical._UNIT,
        None if p_tables is None else p_total / classical._UNIT,
    )


def correlators(strategy: classical.HiddenStrategy) -> ClassicalCorrelators:
    """Exact I, J (and P when present) of a strategy, summed over its label grid."""
    return grid_sums(
        label_grid(strategy.shape, strategy.alphabet),
        strategy.weights,
        strategy.a_tables,
        strategy.b_tables,
        strategy.p_tables,
    )


class GridScorer:
    """I, J and P of a strategy over the label grid, and its objective,
    kept up to date through the refine pass's table flips and weight moves.

    Built once per pass: the column each table reads under every label in
    product order (source agents, then receivers, whose p tables read the
    b tables' columns), the labels that read each column, and each
    source's label under every label.  Per label it holds an integer sign
    triple and a weight built source by source as math.prod multiplies,
    rounded once to units; each total re-sums units * sign over the whole
    grid as Python ints, one label at a time, and is taken to float once.
    """

    def __init__(self, shape, alphabet, beta):
        labels = list(itertools.product(*(range(size) for size in alphabet)))
        reads = [shape.block(s) for s in range(1, shape.k + 1)] + list(shape.reach)
        self._columns = [tuple(classical._flat(r, lab, alphabet) for r in reads) for lab in labels]
        self._readers = [defaultdict(list) for _ in reads]
        for label, columns in enumerate(self._columns):
            for readers, column in zip(self._readers, columns):
                readers[column].append(label)
        self._source_labels = list(zip(*labels))
        self._k, self._beta, self._root = shape.k, beta, 1.0 / shape.k

    def _label_signs(self, label):
        columns = self._columns[label]
        i = j = p = 1
        for (a0, a1), c in zip(self._a, columns):
            i *= (a0[c] + a1[c]) // 2
            j *= (a0[c] - a1[c]) // 2
        for (b0, b1, p_row), c in zip(self._receivers, columns[self._k :]):
            i *= b0[c]
            j *= b1[c]
            p *= p_row[c]
        return i, j, p

    def _resign(self, labels):
        """Re-read these labels' sign triples; (label, *old triple) per change."""
        si, sj, sp = self._signs
        changed = []
        for label in labels:
            i, j, p = self._label_signs(label)
            if i != si[label] or j != sj[label] or p != sp[label]:
                changed.append((label, si[label], sj[label], sp[label]))
                si[label], sj[label], sp[label] = i, j, p
        return changed

    def _rescore(self, parts):
        """Re-sum the totals of these parts (0 = I, 1 = J, 2 = P); the objective."""
        if parts:
            self.totals = totals = list(self.totals)
            for part in parts:
                total = sum(map(operator.mul, self._weights, self._signs[part]))
                totals[part] = total / classical._UNIT
            i, j, p = totals
            self.value = abs(i) ** self._root + abs(j) ** self._root
            if self._beta is not None:
                self.value = self._beta * abs(p) ** self._root + self.value
        return self.value

    def load(self, weights, tables):
        """Score a strategy from scratch; rows then lists (table index, parts
        a flip can move, row) for every row of its tables, in flip order."""
        self._a, b, p = tables
        self._receivers = [(*t, p[m] if p else (1,) * len(t[0])) for m, t in enumerate(b)]
        self.rows = [(s, (0, 1), row) for s, table in enumerate(self._a) for row in table]
        self.rows += [(self._k + m, (x,), t[x]) for m, t in enumerate(b) for x in (0, 1)]
        self.rows += [(self._k + m, (2,), row) for m, row in enumerate(p or ())]
        signs = map(self._label_signs, range(len(self._columns)))
        self._signs = [list(part) for part in zip(*signs)]
        self.totals, self._weights, self.value = [0.0, 0.0, None], None, None
        return self.weigh(weights)

    def flip(self, table, column, parts):
        """Rescore once the caller negated an entry of a row that moves these parts."""
        self._saved = (self._weights, self.totals, self.value)
        self._changed = self._resign(self._readers[table][column])
        return self._rescore(parts if self._changed else ())

    def weigh(self, weights):
        """Rescore the current tables under new label weights."""
        self._saved = (self._weights, self.totals, self.value)
        self._changed = ()
        self._weights = [1] * len(self._columns)
        for w, labels in zip(weights, self._source_labels):
            self._weights = [x * w[v] for x, v in zip(self._weights, labels)]
        self._weights = list(map(units, self._weights))
        return self._rescore((0, 1) if self._beta is None else (0, 1, 2))

    def undo(self):
        """Take back the last flip() or weigh()."""
        si, sj, sp = self._signs
        for label, i, j, p in self._changed:
            si[label], sj[label], sp[label] = i, j, p
        self._weights, self.totals, self.value = self._saved


def split_tables(shape, alphabet, tilted, entries):
    """Table entries in flip order as (a_tables, b_tables, p_tables):
    each source agent's a0 and a1 rows, each receiver's b0 and b1 rows,
    then the p rows (None untilted)."""
    block_sizes, reach_sizes, _ = classical._table_bits(shape, alphabet, tilted)
    entries = iter([int(v) for v in entries])

    def row(width):
        return [next(entries) for _ in range(width)]

    a_tables = [[row(size), row(size)] for size in block_sizes]
    b_tables = [[row(size), row(size)] for size in reach_sizes]
    p_tables = [row(size) for size in reach_sizes] if tilted else None
    return a_tables, b_tables, p_tables


def left_fold(values) -> float:
    """values added left to right in plain float arithmetic, one Python
    float at a time."""
    total = 0.0
    for value in values:
        total += value
    return total


def refine(shape, alphabet, beta, seed_strategy, rng, draws, steps, sweeps=None):
    """Stochastic pass: random product label distributions, hill-climbed.

    The first restart starts from the seed strategy's tables, the others
    from random tables; each restart greedily flips table entries, then
    walks the label weights toward random vertices, keeping improvements.
    It reads the draws of `classical._draw_restarts` one restart and one
    move at a time.  One GridScorer, built for the pass, scores every
    candidate; a rejected flip or move is undone in it.  Tables are
    flipped in place on lists, and a HiddenStrategy is built only for a
    restart that beats the best.  Each restart's count of sweeps run is
    appended to sweeps when it is given.
    """
    tilted = beta is not None
    scorer = GridScorer(shape, alphabet, beta)
    seed_tables = (seed_strategy.a_tables, seed_strategy.b_tables, seed_strategy.p_tables)
    best_value = scorer.load(seed_strategy.weights, seed_tables)
    best_strategy = seed_strategy
    starts, draw_weights, sources, vertices, etas = classical._draw_restarts(
        shape, alphabet, tilted, rng, draws, steps
    )
    for draw in range(draws):
        start = seed_tables if draw == 0 else split_tables(shape, alphabet, tilted, starts[draw - 1])
        a_tables = [[list(row) for row in table] for table in start[0]]
        b_tables = [[list(row) for row in table] for table in start[1]]
        p_tables = None if start[2] is None else [list(row) for row in start[2]]
        tables = (a_tables, b_tables, p_tables)
        weights = [tuple(draw_weights[i, :size, draw].tolist()) for i, size in enumerate(alphabet)]
        current_value = scorer.load(weights, tables)
        improved = True
        sweeps_run = 0
        while improved and sweeps_run < classical._REFINE_SWEEPS:
            improved = False
            sweeps_run += 1
            for t, parts, row in scorer.rows:
                for e in range(len(row)):
                    row[e] = -row[e]
                    candidate_value = scorer.flip(t, e, parts)
                    if candidate_value > current_value + 1e-15:
                        current_value = candidate_value
                        improved = True
                    else:
                        row[e] = -row[e]
                        scorer.undo()
        if sweeps is not None:
            sweeps.append(sweeps_run)

        for step in range(steps):
            source = int(sources[step, draw])
            vertex = int(vertices[step, draw])
            eta = float(etas[step, draw])
            mixed = [
                (1 - eta) * w + (eta if v == vertex else 0.0)
                for v, w in enumerate(weights[source])
            ]
            total = left_fold(mixed)
            candidate = list(weights)
            candidate[source] = tuple(w / total for w in mixed)
            candidate_value = scorer.weigh(candidate)
            if candidate_value > current_value:
                weights, current_value = candidate, candidate_value
            else:
                scorer.undo()

        if current_value > best_value:
            best_value = current_value
            best_strategy = classical.HiddenStrategy(shape, alphabet, weights, *tables)
    return best_value, best_strategy
