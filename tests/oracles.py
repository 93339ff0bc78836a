"""Reference implementations that the tests compare netbell against.

Each function reaches a quantity by a slower or more literal route than
the package takes, and lives here so that `src/` keeps only what a
command runs:

* `joint_correlator` expands a Bell correlator's whole product of local
  observables term by term on the joint state of all sources, which
  `bell` factors over the source agents' groups instead;
* `dense` builds the Kronecker matrix of a Pauli string and
  `table_product` multiplies strings letter by letter from the
  single-qubit table;
* `expectation_combo` takes an observable combination's expectation term
  by term, and `joint_oracle` builds the outcome distribution of
  commuting two-outcome observables from the expectations of their
  products;
* `outcome_distribution` is the exact distribution of the sampler's
  frame at one setting, which sampled counts are compared against;
* `logical_representative` searches a stabilizer coset for a phase-flip
  representative that meets per-qubit letter constraints;
* `loop_scan` is the classical full scan with one Python evaluation per
  combination, `_scan_reachable` the reachable scan as one Python
  evaluation per response pair under every label, and `correlators` sums
  a hidden strategy's label grid.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

from netbell import bell, classical
from netbell.codes import StabilizerCode
from netbell.observables import Synthesis
from netbell.pauli import PauliString
from netbell.sampling import MODES, _build_frame, _mask_outcomes
from netbell.states import StateVector

# ----------------------------------------------------------------------
# Bell correlators on the joint state


def joint_correlator(synthesis: Synthesis, thetas, y: int, cache: dict) -> complex:
    """<prod_k (A0 + (-1)^y A1) prod_l B_y> at the given angles, expanded
    term by term on the 2^n-amplitude joint state; expectations are
    memoized in cache."""
    state = synthesis.layout.state
    terms: list[tuple[float, PauliString]] = [(1.0, PauliString.identity(state.n))]
    flip = 1.0 if y == 0 else -1.0
    for obs, theta in zip(synthesis.sources, synthesis.angles(thetas)):
        branch = obs.a_terms(0, theta) + [(flip * c, p) for c, p in obs.a_terms(1, theta)]
        terms = [(c1 * c2, p1 * p2) for c1, p1 in terms for c2, p2 in branch]
    for rec in synthesis.receivers:
        b = rec.b_terms(y)
        terms = [(c, p * b) for c, p in terms]
    return sum(c * bell._cached_expectation(state, p, cache) for c, p in terms)


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
        out["P"] = synthesis.layout.state.expectation(synthesis.tilt.p_full)
    return out


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


def outcome_distribution(
    synthesis: Synthesis,
    thetas,
    x: tuple[int, ...],
    y: tuple[int, ...],
    *,
    mode: str = "direct-observable",
) -> dict[tuple[int, ...], float]:
    """Exact joint distribution of the recorded outcomes at one setting.

    Keys are (a_1..a_K, b_1..b_M) tuples, extended by (p_1..p_M) when the
    synthesis has a tilted block and every receiver is on setting 0.
    """
    if mode not in MODES:
        raise ValueError(f"unknown strategy {mode!r}; expected one of {MODES}")
    frame = _build_frame(synthesis, synthesis.angles(thetas), x, y, mode)
    dim = frame.probabilities.size
    indices = np.arange(dim)
    columns = [_mask_outcomes(indices, mask) for mask in frame.source_masks]
    columns += [_mask_outcomes(indices, mask) for mask in frame.receiver_masks]
    if frame.p_masks is not None:
        columns += [_mask_outcomes(indices, mask) for mask in frame.p_masks]
    stacked = np.stack(columns, axis=1)
    out: dict[tuple[int, ...], float] = {}
    for idx in np.flatnonzero(frame.probabilities > 0):
        key = tuple(int(v) for v in stacked[idx])
        out[key] = out.get(key, 0.0) + float(frame.probabilities[idx])
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


def loop_scan(shape, alphabet, beta):
    """Reference full scan: one Python evaluation per combination.

    Returns (best value, best key, combos scanned) with the key and the
    first-in-enumeration-order tie-break of classical._scan_full. Under
    each label every table integer's (I, J, P) sign factors are read off
    its bits once; a combination multiplies its tables' factors.
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
        labels = classical._decode_labels(label_index, alphabet)
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
    labels = classical._decode_labels(label_index, alphabet)
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


def correlators(strategy: classical.HiddenStrategy) -> classical.ClassicalCorrelators:
    """Exact I, J (and P when present) of a strategy, summed over its label grid."""
    return classical._grid_sums(
        classical._label_grid(strategy.shape, strategy.alphabet),
        strategy.weights,
        strategy.a_tables,
        strategy.b_tables,
        strategy.p_tables,
    )
