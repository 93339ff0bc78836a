"""Reference implementations that the tests compare netbell against.

Each function reaches a quantity by a slower or more literal route than
the package takes, and lives here so that `src/` keeps only what a
command runs:

* `joint_state` is the tensor product of every source state, the
  2^n-amplitude register that `src/` never builds; `global_index` places
  a qubit in it, `embed` lifts a source's operator into it, and `lift`
  joins an observable's pieces on the groups of sources into one string
  on it, the n-qubit embedding `src/` no longer makes;
* `dense_expectation` takes an expectation on a statevector's
  amplitudes, the route `codes.SourceState.expectation` replaces with the
  stabilizing and logical operators; `joint_correlator` expands a Bell
  correlator's whole product of local observables term by term on the
  joint state of all sources, which `bell` factors over the source
  agents' groups instead;
* `_random_candidate` draws a random network layout and operator
  selection on small builtin codes, and `random_layouts` keeps the first
  ones that pass every structural and parity check;
* `dense` builds the Kronecker matrix of a Pauli string and
  `table_product` multiplies strings letter by letter from the
  single-qubit table;
* `expectation_combo` takes an observable combination's expectation term
  by term, and `joint_oracle` builds the outcome distribution of
  commuting two-outcome observables from the expectations of their
  products;
* `joint_frame` rotates the joint state into the measurement frame of one
  setting cell and reads the global outcome masks, which the sampler
  builds as one small frame per group instead; `outcome_distribution` is
  the exact distribution of the sampler's group frames at one setting,
  which sampled counts are compared against;
* `draw` inverts each round's uniform through every group's cumulative
  sums by binary search (`invert`), the draw `sampling._draw` makes through
  guide tables instead and must match bit for bit;
* `write_rounds` writes the round record one f-string per round, the
  literal text that `sampling._write_rounds` formats as byte matrices
  instead and must match byte for byte;
* `logical_representative` searches a stabilizer coset for a phase-flip
  representative that meets per-qubit letter constraints;
* `loop_scan` enumerates every response table under every point label
  with one Python evaluation per combination, and `_scan_reachable` every
  response pair a table can show at its column under every label: the
  deterministic maximum that `classical.max_deterministic` gives in
  closed form, with its strategy; `_decode_labels` unflattens their label
  index;
* `correlators` sums a hidden strategy's I, J and P through `grid_sums`,
  which walks the whole label grid of `label_grid` term by term, and
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
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

from netbell import classical
from netbell.codes import StabilizerCode, builtin, codeword
from netbell.network import (
    NetworkLayout,
    OperatorSelection,
    check_parity,
    check_selection,
    classify,
)
from netbell.observables import Synthesis
from netbell.pauli import PauliString
from netbell.sampling import (
    _BASIS_ROTATION,
    _BELOW_ONE,
    MODES,
    PROB_TOL,
    _apply_one_qubit,
    _Frames,
    _letters,
)
from netbell.states import StateVector, _parity, tensor


def joint_state(layout: NetworkLayout) -> StateVector:
    """Joint state: tensor product of the source states in source-id order."""
    return tensor([src.state for src in layout.sources])


def global_index(layout: NetworkLayout, i: int, j: int) -> int:
    """0-based position of qubit (i, j) in the joint state, which lists
    every source's qubits in (i, j) order."""
    if not 1 <= i <= layout.N or not 1 <= j <= layout.source_sizes[i - 1]:
        raise ValueError(f"no qubit ({i},{j}) in this layout")
    return sum(layout.source_sizes[: i - 1]) + j - 1


def embed(layout: NetworkLayout, i: int, op: PauliString) -> PauliString:
    """Lift a source-i operator to the joint register."""
    if op.n != layout.source_sizes[i - 1]:
        raise ValueError(
            f"operator on {op.n} qubits does not fit source {i} "
            f"of size {layout.source_sizes[i - 1]}"
        )
    positions = [global_index(layout, i, j) for j in range(1, op.n + 1)]
    return op.embed(positions, sum(layout.source_sizes))


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


def dense_expectation(state: StateVector, op: PauliString, cache: dict) -> complex:
    """<psi|op|psi> on a statevector, without a hermiticity demand,
    memoized on the letters: the cache keeps the plus-phase value per
    (x, z) mask pair. The amplitude route that
    `codes.SourceState.expectation` replaces in `src/`."""
    key = (op.x, op.z)
    value = cache.get(key)
    if value is None:
        plain = op.with_phase_exponent(0)
        value = cache[key] = complex(np.vdot(state.amplitudes, state.apply(plain).amplitudes))
    return op.phase * value


def joint_correlator(synthesis: Synthesis, thetas, y: int, cache: dict) -> complex:
    """<prod_k (A0 + (-1)^y A1) prod_l B_y> at the given angles, expanded
    term by term on the 2^n-amplitude joint state; expectations are
    memoized in cache."""
    layout = synthesis.layout
    state = joint_state(layout)
    terms: list[tuple[float, PauliString]] = [(1.0, PauliString.identity(state.n))]
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
        out["P"] = joint_state(synthesis.layout).expectation(p)
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


def random_layouts(seed: int = 20260816, count: int = 200) -> list:
    """The first count candidates of _random_candidate that pass
    check_selection and every parity condition: from the default seed,
    the parity-valid layouts of acceptance criterion 6."""
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
                return valid
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


def expectation_combo(state: StateVector, terms: ObservableTerms) -> float:
    """Expectation of a real combination of hermitian strings, term by term."""
    return sum(float(c) * state.expectation(p) for c, p in _as_terms(terms))


def joint_oracle(state: StateVector, observables: Sequence[ObservableTerms]) -> dict:
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
                total += factor * expectation_combo(state, combo)
        out[outcome] = total / 2.0**labels
    return out


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
    amps = joint_state(layout).amplitudes
    for xk, src, theta in zip(x, sources, synthesis.angles(thetas)):
        w = lift(layout, [src.s_piece], [src.agent]) * lift(layout, [src.t_piece], [src.agent])
        sign = 1.0 if xk == 0 else -1.0
        amps = math.cos(theta / 2) * amps + sign * math.sin(theta / 2) * StateVector(
            amps
        ).apply(w).amplitudes
    start = 0  # the group's first position in the joint register
    for k, width in enumerate(layout.group_widths, start=1):
        for q, letter in _letters(synthesis, k, y, mode).items():
            gate = _BASIS_ROTATION[letter]
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
    groups = [
        frames.probabilities(k, x[pos], y)
        for k, pos in enumerate(frames.owners, start=1)
    ]
    grid = np.indices([p.size for p in groups]).reshape(len(groups), -1)
    weights = functools.reduce(np.kron, groups)
    masks = frames.source_masks + frames.receiver_masks(y)
    if synthesis.tilt is not None and all(b == 0 for b in y):
        masks += frames.p_masks
    stacked = np.stack([frames.outcomes(list(grid), mask) for mask in masks], axis=1)
    out: dict[tuple[int, ...], float] = {}
    for idx in np.flatnonzero(weights > 0):
        key = tuple(int(v) for v in stacked[idx])
        out[key] = out.get(key, 0.0) + float(weights[idx])
    return out


def cdf_edges(probabilities: np.ndarray) -> np.ndarray:
    """0 followed by the normalized cumulative sums, as Generator.choice
    forms them."""
    cdf = probabilities.cumsum()
    cdf /= cdf[-1]
    return np.concatenate(([0.0], cdf))


def invert(edges: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The bin of each uniform u by binary search on the edges, and u
    rescaled into [0, 1) from that bin."""
    index = edges.searchsorted(u, side="right") - 1
    low = edges[index]
    return index, np.minimum((u - low) / (edges[index + 1] - low), _BELOW_ONE)


def draw(distributions, rng: np.random.Generator, count: int) -> list[np.ndarray]:
    """count outcome indices per group, group 1 most significant: one
    uniform per round, inverted through each group's distribution in turn
    and rescaled into the chosen bin, which is Generator.choice on the
    product of the distributions."""
    u = rng.random(count)
    out = []
    for probabilities in distributions:
        index, u = invert(cdf_edges(probabilities), u)
        out.append(index)
    return out


def write_rounds(path, header, blocks, rng: np.random.Generator) -> None:
    """The round record: the header, then the rounds of all (settings,
    outcome rows) blocks in the order of one rng.permutation, one line
    "index,settings,outcomes" per round."""
    rounds = [(settings, row) for settings, rows in blocks for row in rows.tolist()]
    order = rng.permutation(len(rounds))
    with open(path, "w", newline="") as handle:
        csv.writer(handle).writerow(header)
        for i, r in enumerate(order):
            settings, row = rounds[r]
            handle.write(f"{i},{settings},{','.join(map(str, row))}\r\n")


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
    """Reference full scan: one Python evaluation per combination.

    Returns (best value, best key, combos scanned); the key is (label
    index, table integers), and ties resolve to the earliest combination
    in enumeration order. Under each label every table integer's (I, J,
    P) sign factors are read off its bits once; a combination multiplies
    its tables' factors.
    """
    tilted = beta is not None
    k, m = shape.k, shape.m
    blocks = [shape.block(s) for s in range(1, k + 1)]
    block_sizes, reach_sizes, widths = classical._table_bits(shape, alphabet, tilted)
    root = 1.0 / k

    def sign(bits, column):
        return 1 - 2 * ((bits >> column) & 1)

    best_value = -1.0
    best_key = None
    scanned = 0
    for label_index in range(math.prod(alphabet)):
        labels = _decode_labels(label_index, alphabet)
        a_cols = [classical._flat(block, labels, alphabet) for block in blocks]
        b_cols = [classical._flat(reach, labels, alphabet) for reach in shape.reach]
        factors = []  # per table, the (I, J, P) factors of each table integer
        for s in range(k):
            pairs = (
                (sign(bits, a_cols[s]), sign(bits, block_sizes[s] + a_cols[s]))
                for bits in range(1 << widths[s])
            )
            factors.append([((a0 + a1) // 2, (a0 - a1) // 2, 1) for a0, a1 in pairs])
        for r in range(m):
            factors.append(
                [
                    (sign(bits, b_cols[r]), sign(bits, reach_sizes[r] + b_cols[r]), 1)
                    for bits in range(1 << widths[k + r])
                ]
            )
        if tilted:
            for r in range(m):
                factors.append(
                    [(1, 1, sign(bits, b_cols[r])) for bits in range(1 << widths[k + m + r])]
                )
        combos = itertools.product(*(range(1 << w) for w in widths))
        for combo, triples in zip(combos, itertools.product(*factors)):
            scanned += 1
            i_sign = j_sign = p_sign = 1
            for i, j, p in triples:
                i_sign *= i
                j_sign *= j
                p_sign *= p
            value = abs(i_sign) ** root + abs(j_sign) ** root
            if tilted:
                value += beta * abs(p_sign) ** root
            if value > best_value:
                best_value = value
                best_key = (label_index, combo)
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


def grid_sums(grid, weights, a_tables, b_tables, p_tables) -> ClassicalCorrelators:
    """I, J (and P when p_tables is given) summed over a label grid, one
    label at a time in grid order, skipping labels of weight 0.

    Tables may be tuples or lists; the summation order is fixed, so the
    same strategy always gives the same floats.
    """
    i_total = 0.0
    j_total = 0.0
    p_total = 0.0 if p_tables is not None else None
    for labels, a_cols, b_cols in grid:
        weight = math.prod(w[v] for w, v in zip(weights, labels))
        if weight == 0.0:
            continue
        half_sum = 1.0
        half_diff = 1.0
        for table, column in zip(a_tables, a_cols):
            a0 = table[0][column]
            a1 = table[1][column]
            half_sum *= (a0 + a1) / 2
            half_diff *= (a0 - a1) / 2
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
        if p_total is not None:
            p_total += weight * p
    return ClassicalCorrelators(i_total, j_total, p_total)


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
    triple and a weight built source by source as math.prod multiplies;
    each total sums weight * sign left to right from +0.0.  Every term is
    +/-weight or +/-0.0 and no total ever becomes -0.0, so the totals are
    the floats of the whole-grid sum, zero-weight labels included.
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
                total = 0.0
                for weight, sign in zip(self._weights, self._signs[part]):
                    total += weight * sign
                totals[part] = total
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


def refine(shape, alphabet, beta, seed_strategy, rng, draws, steps):
    """Stochastic pass: random product label distributions, hill-climbed.

    The first restart starts from the seed strategy's tables, the others
    from random tables; each restart greedily flips table entries, then
    walks the label weights toward random vertices, keeping improvements.
    It reads the draws of `classical._draw_restarts` one restart and one
    move at a time.  One GridScorer, built for the pass, scores every
    candidate; a rejected flip or move is undone in it.  Tables are
    flipped in place on lists, and a HiddenStrategy is built only for a
    restart that beats the best.
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
        sweeps = 0
        while improved and sweeps < classical._REFINE_SWEEPS:
            improved = False
            sweeps += 1
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
