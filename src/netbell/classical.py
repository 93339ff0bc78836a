"""Classical certification of the network bounds.

Hidden-variable strategies assign each source a discrete label drawn
from a product distribution; every agent answers with a deterministic
+/-1 table over its settings and the labels it can see.  The
deterministic scan enumerates response tables together with point-mass
label assignments and maximizes the same objective the quantum engine
reports, as a single-process numpy scan in bounded slices.  A
stochastic pass then probes mixed label distributions with random
restarts and hill climbing, scored incrementally: a table flip re-reads
the signs of only the labels that read the flipped column, and the
totals are re-summed in grid order, so every score is the float a
whole-grid sum gives.  The scan is falsification pressure for the
analytic bound, not a search for new physics: the objective must never
come out above 1 (or beta + 1 tilted).
"""

from __future__ import annotations

import itertools
import json
import math
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from netbell.states import make_rng

# The deterministic scan is exact arithmetic, so its tolerance is pure
# roundoff; the stochastic pass is allowed refinement noise but no real
# excess.
BOUND_TOL = 1e-12
REFINE_TOL = 1e-9
DEFAULT_BUDGET = 10**8
# Entries per numpy slice of the full scan: keeps its working memory to
# a few MB whatever the scan size.
_SLICE = 1 << 16
# Most greedy passes over the table entries per refine restart.
_REFINE_SWEEPS = 4


class BoundViolation(RuntimeError):
    """A strategy scored above the classical bound; carries the strategy."""

    def __init__(self, message: str, strategy: "HiddenStrategy"):
        super().__init__(message)
        self.strategy = strategy


@dataclass(frozen=True)
class NetworkShape:
    """Who sees which source labels: the causal skeleton of a layout.

    partition follows the layout convention (source agent s serves
    sources partition[s-1]+1 .. partition[s]); reach lists, per
    receiver, the sources whose qubits it holds.
    """

    k: int
    m: int
    n: int
    partition: tuple[int, ...]
    reach: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "partition", tuple(self.partition))
        object.__setattr__(
            self, "reach", tuple(tuple(sorted(r)) for r in self.reach)
        )
        if self.k < 1 or self.m < 1 or self.n < 1:
            raise ValueError("k, m, n must all be at least 1")
        if (
            len(self.partition) != self.k + 1
            or self.partition[0] != 0
            or self.partition[-1] != self.n
            or any(a >= b for a, b in zip(self.partition, self.partition[1:]))
        ):
            raise ValueError(
                "partition must rise strictly from 0 to n with one step per "
                "source agent"
            )
        if len(self.reach) != self.m:
            raise ValueError(f"need one reach entry per receiver, got {len(self.reach)}")
        for sources in self.reach:
            if len(set(sources)) != len(sources) or any(
                not 1 <= i <= self.n for i in sources
            ):
                raise ValueError(f"reach entry {sources} is not a set of source ids")

    @classmethod
    def from_layout(cls, layout) -> "NetworkShape":
        reach = []
        for agent in layout.receivers:
            reach.append(tuple(sorted({i for i, _ in layout.qubits_of(agent)})))
        return cls(
            k=layout.K,
            m=layout.M,
            n=layout.N,
            partition=layout.partition,
            reach=tuple(reach),
        )

    def block(self, s: int) -> tuple[int, ...]:
        """Sources served by source agent s (1-based)."""
        return tuple(range(self.partition[s - 1] + 1, self.partition[s] + 1))


def _flat(sources: tuple[int, ...], labels, alphabet) -> int:
    """Row-major index of the visible label combination."""
    index = 0
    for i in sources:
        index = index * alphabet[i - 1] + labels[i - 1]
    return index


def _decode_labels(value: int, alphabet) -> tuple[int, ...]:
    labels = []
    for size in reversed(alphabet):
        labels.append(value % size)
        value //= size
    return tuple(reversed(labels))


def _normalize_alphabet(shape: NetworkShape, alphabet) -> tuple[int, ...]:
    if isinstance(alphabet, int):
        alphabet = (alphabet,) * shape.n
    alphabet = tuple(int(size) for size in alphabet)
    if len(alphabet) != shape.n or any(size < 1 for size in alphabet):
        raise ValueError("alphabet needs one positive size per source")
    return alphabet


@dataclass(frozen=True)
class HiddenStrategy:
    """One hidden-variable strategy: label distributions plus response tables.

    a_tables[s][x][c] is source agent s's answer to setting x when its
    visible labels flatten to column c; b_tables mirrors that for
    receivers; p_tables (tilted runs only) is the receiver's answer for
    the phase-flip product, setting-free.  Locality is structural: a
    table can only be indexed by the labels its agent can see.
    """

    shape: NetworkShape
    alphabet: tuple[int, ...]
    weights: tuple[tuple[float, ...], ...]
    a_tables: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    b_tables: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    p_tables: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self):
        shape = self.shape
        object.__setattr__(self, "alphabet", _normalize_alphabet(shape, self.alphabet))
        object.__setattr__(
            self, "weights", tuple(tuple(map(float, w)) for w in self.weights)
        )
        object.__setattr__(
            self,
            "a_tables",
            tuple((tuple(t[0]), tuple(t[1])) for t in self.a_tables),
        )
        object.__setattr__(
            self,
            "b_tables",
            tuple((tuple(t[0]), tuple(t[1])) for t in self.b_tables),
        )
        if self.p_tables is not None:
            object.__setattr__(
                self, "p_tables", tuple(tuple(t) for t in self.p_tables)
            )

        if len(self.weights) != shape.n:
            raise ValueError("need one weight vector per source")
        for i, w in enumerate(self.weights, start=1):
            if len(w) != self.alphabet[i - 1]:
                raise ValueError(f"source {i} weights do not match its alphabet")
            if any(p < 0 for p in w) or abs(sum(w) - 1.0) > 1e-9:
                raise ValueError(f"source {i} weights are not a distribution")
        if len(self.a_tables) != shape.k or len(self.b_tables) != shape.m:
            raise ValueError("need one table per source agent and per receiver")
        block_sizes, reach_sizes, _ = _table_bits(shape, self.alphabet, False)
        for s, (table, size) in enumerate(zip(self.a_tables, block_sizes), start=1):
            self._check_table(table, size, f"source agent {s}")
        for m, (table, size) in enumerate(zip(self.b_tables, reach_sizes), start=1):
            self._check_table(table, size, f"receiver {m}")
        if self.p_tables is not None:
            if len(self.p_tables) != shape.m:
                raise ValueError("need one p table per receiver")
            for m, (column, size) in enumerate(zip(self.p_tables, reach_sizes), start=1):
                self._check_table((column,), size, f"receiver {m} p")

    @staticmethod
    def _check_table(table, width: int, who: str) -> None:
        for row in table:
            if len(row) != width:
                raise ValueError(f"{who} table width {len(row)}, expected {width}")
            if any(entry not in (-1, 1) for entry in row):
                raise ValueError(f"{who} table entries must be -1 or +1")

    def to_json(self) -> dict:
        data = {
            "shape": {
                "k": self.shape.k,
                "m": self.shape.m,
                "n": self.shape.n,
                "partition": list(self.shape.partition),
                "reach": [list(r) for r in self.shape.reach],
            },
            "alphabet": list(self.alphabet),
            "weights": [list(w) for w in self.weights],
            "a_tables": [[list(row) for row in t] for t in self.a_tables],
            "b_tables": [[list(row) for row in t] for t in self.b_tables],
        }
        if self.p_tables is not None:
            data["p_tables"] = [list(t) for t in self.p_tables]
        return data


def _table_bits(shape: NetworkShape, alphabet, tilted: bool):
    """Bit widths of every enumerated table, in scan order."""
    block_sizes = [
        math.prod(alphabet[i - 1] for i in shape.block(s))
        for s in range(1, shape.k + 1)
    ]
    reach_sizes = [
        math.prod(alphabet[i - 1] for i in reach) for reach in shape.reach
    ]
    widths = [2 * size for size in block_sizes + reach_sizes]
    if tilted:
        widths += list(reach_sizes)
    return block_sizes, reach_sizes, widths


def _scan_extent(shape, alphabet, tilted, mode) -> tuple[int, int]:
    """(labels, bits): a scan in this mode visits labels << bits combinations,
    every table integer under each point label.  A reachable scan counts
    the tables at alphabet 1, the values each table shows at its active
    column, once per label."""
    tables = alphabet if mode == "full" else (1,) * shape.n
    return math.prod(alphabet), sum(_table_bits(shape, tables, tilted)[2])


def scan_size(
    shape: NetworkShape,
    alphabet,
    *,
    tilted: bool = False,
    mode: str = "full",
    budget: int = DEFAULT_BUDGET,
) -> int | None:
    """How many combinations a scan in this mode visits, or None when that
    is over the budget.  The budget is compared by bit length first, so no
    integer wider than the budget is ever built."""
    labels, bits = _scan_extent(shape, _normalize_alphabet(shape, alphabet), tilted, mode)
    if labels.bit_length() + bits > budget.bit_length():
        return None
    size = labels << bits
    return size if size <= budget else None


def _scan_full(shape, alphabet, beta):
    """Scan every response table for every point-label assignment.

    Returns (best value, best key, combos scanned); the key is
    (label index, table integers), and ties resolve to the earliest
    combination in enumeration order.  Under a fixed point label each
    table reaches I, J and P only through the entries at its active
    column, so the objective over the table grid is an outer product of
    per-table vectors in {-1, 0, +1}.  The trailing tables form one
    grid of at most _SLICE entries (or the last table alone, if larger),
    and the leading tables are iterated around it.
    """
    tilted = beta is not None
    k, m = shape.k, shape.m
    blocks = [shape.block(s) for s in range(1, k + 1)]
    _, _, widths = _table_bits(shape, alphabet, tilted)
    root = 1.0 / k
    split = len(widths) - 1
    trail = 1 << widths[split]
    while split > 0 and trail << widths[split - 1] <= _SLICE:
        split -= 1
        trail <<= widths[split]
    trail_shape = [1 << w for w in widths[split:]]

    best_value = -1.0
    best_key = None
    scanned = 0
    for label_index in range(math.prod(alphabet)):
        labels = _decode_labels(label_index, alphabet)
        columns = [_flat(block, labels, alphabet) for block in blocks]
        columns += [_flat(r, labels, alphabet) for r in shape.reach] * (1 + tilted)
        # rows I, J, P of each table's factor, indexed by the table integer
        factors = []
        for j, (width, column) in enumerate(zip(widths, columns)):
            t = np.arange(1 << width)
            x0 = 1 - 2 * ((t >> column) & 1)
            x1 = 1 - 2 * ((t >> (width // 2 + column)) & 1)
            one = np.ones_like(t)
            if j < k:  # source agent: (a0 + a1) / 2 and (a0 - a1) / 2
                rows = ((x0 + x1) // 2, (x0 - x1) // 2, one)
            elif j < k + m:  # receiver: b0 and b1
                rows = (x0, x1, one)
            else:  # receiver's p table: one row, x1 unused
                rows = (one, one, x0)
            factors.append(np.array(rows, dtype=np.int8))
        grid = np.ones((3, 1), dtype=np.int8)
        for factor in factors[split:]:
            grid = (grid[:, :, None] * factor[:, None, :]).reshape(3, -1)
        for lead in itertools.product(*(range(1 << w) for w in widths[:split])):
            scale = np.ones(3, dtype=np.int8)
            for factor, t in zip(factors[:split], lead):
                scale = scale * factor[:, t]
            powered = np.abs(scale[:, None] * grid) ** root
            values = powered[0] + powered[1]
            if tilted:
                values += beta * powered[2]
            scanned += values.size
            index = int(np.argmax(values))
            if values[index] > best_value:
                best_value = float(values[index])
                trail_key = np.unravel_index(index, trail_shape)
                best_key = (label_index, lead + tuple(int(t) for t in trail_key))
    return best_value, best_key, scanned


def _strategy_from_key(shape, alphabet, beta, key, scan_alphabet) -> HiddenStrategy:
    """Decode a key of a scan at scan_alphabet into a point-mass strategy
    at alphabet.  A key from the scan at alphabet 1 decodes to tables
    constant over their columns, with every source's mass on label 0."""
    tilted = beta is not None
    k, m = shape.k, shape.m
    label_index, combo = key
    labels = _decode_labels(label_index, scan_alphabet)
    scan_blocks, scan_reach, _ = _table_bits(shape, scan_alphabet, tilted)
    block_sizes, reach_sizes, _ = _table_bits(shape, alphabet, tilted)

    def rows(bits, width, size, count):
        flat = [1 - 2 * ((bits >> e) & 1) for e in range(width * count)]
        return tuple(
            tuple(flat[row * width : (row + 1) * width]) * (size // width)
            for row in range(count)
        )

    a_tables = tuple(
        rows(combo[s], scan_blocks[s], block_sizes[s], 2) for s in range(k)
    )
    b_tables = tuple(
        rows(combo[k + r], scan_reach[r], reach_sizes[r], 2) for r in range(m)
    )
    p_tables = tuple(
        rows(combo[k + m + r], scan_reach[r], reach_sizes[r], 1)[0] for r in range(m)
    ) if tilted else None
    weights = tuple(
        tuple(1.0 if v == labels[i] else 0.0 for v in range(alphabet[i]))
        for i in range(shape.n)
    )
    return HiddenStrategy(shape, alphabet, weights, a_tables, b_tables, p_tables)


def _random_tables(shape, alphabet, tilted, rng):
    block_sizes, reach_sizes, _ = _table_bits(shape, alphabet, tilted)

    def row(width):
        return tuple(int(v) for v in rng.choice((-1, 1), size=width))

    a_tables = tuple((row(b), row(b)) for b in block_sizes)
    b_tables = tuple((row(r), row(r)) for r in reach_sizes)
    p_tables = tuple(row(r) for r in reach_sizes) if tilted else None
    return a_tables, b_tables, p_tables


class _GridScorer:
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
        self._columns = [tuple(_flat(r, lab, alphabet) for r in reads) for lab in labels]
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


def _left_sum(values) -> float:
    """values added left to right in plain float arithmetic: the builtin
    sum of Python 3.11 and earlier, which 3.12 replaced by a compensated
    sum that can round differently."""
    total = 0.0
    for value in values:
        total += value
    return total


def _refine(shape, alphabet, beta, seed_strategy, rng, draws, steps):
    """Stochastic pass: random product label distributions, hill-climbed.

    Restarts alternate between the deterministic argmax tables and fresh
    random tables; each restart greedily flips table entries, then walks
    the label weights toward random vertices, keeping improvements.  One
    _GridScorer, built for the pass, scores every candidate; a rejected
    flip or move is undone in it.  Tables are flipped in place on lists,
    and a HiddenStrategy is built only for a restart that beats the best.
    """
    tilted = beta is not None
    scorer = _GridScorer(shape, alphabet, beta)
    seed_tables = (seed_strategy.a_tables, seed_strategy.b_tables, seed_strategy.p_tables)
    best_value = scorer.load(seed_strategy.weights, seed_tables)
    best_strategy = seed_strategy
    for draw in range(draws):
        start = seed_tables if draw == 0 else _random_tables(shape, alphabet, tilted, rng)
        a_tables = [[list(row) for row in table] for table in start[0]]
        b_tables = [[list(row) for row in table] for table in start[1]]
        p_tables = None if start[2] is None else [list(row) for row in start[2]]
        tables = (a_tables, b_tables, p_tables)
        weights = [tuple(map(float, rng.dirichlet(np.ones(size)))) for size in alphabet]
        current_value = scorer.load(weights, tables)
        improved = True
        sweeps = 0
        while improved and sweeps < _REFINE_SWEEPS:
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

        for _ in range(steps):
            source = int(rng.integers(shape.n))
            vertex = int(rng.integers(alphabet[source]))
            eta = float(rng.uniform(0.1, 1.0))
            mixed = [
                (1 - eta) * w + (eta if v == vertex else 0.0)
                for v, w in enumerate(weights[source])
            ]
            total = _left_sum(mixed)
            candidate = list(weights)
            candidate[source] = tuple(w / total for w in mixed)
            candidate_value = scorer.weigh(candidate)
            if candidate_value > current_value:
                weights, current_value = candidate, candidate_value
            else:
                scorer.undo()

        if current_value > best_value:
            best_value = current_value
            best_strategy = HiddenStrategy(shape, alphabet, weights, *tables)
    return best_value, best_strategy


@dataclass(frozen=True)
class ScanReport:
    """Result of the deterministic scan plus the stochastic pass."""

    value: float
    strategy: HiddenStrategy
    stochastic_value: float
    stochastic_strategy: HiddenStrategy
    mode: str
    scanned: int
    alphabet: tuple[int, ...]
    beta: float | None = None


def default_alphabet(shape: NetworkShape, *, tilted: bool = False, budget: int = DEFAULT_BUDGET) -> int:
    """Largest uniform label alphabet (at most 4) the full scan affords."""
    for size in (4, 3, 2):
        if scan_size(shape, size, tilted=tilted, budget=budget) is not None:
            return size
    return 2


def max_deterministic(
    shape: NetworkShape,
    alphabet=None,
    *,
    beta: float | None = None,
    budget: int = DEFAULT_BUDGET,
    seed: int | None = 0,
    refine_draws: int = 40,
    refine_steps: int = 60,
) -> ScanReport:
    """Exhaustive deterministic maximum plus a stochastic refinement pass.

    The full scan enumerates every response table under every point
    label; ties go to the first combination in enumeration order.  When
    it is over the budget the reachable scan runs instead.  Under a point
    label each table is read at one column, so the tables it can show are
    the full table space at alphabet 1, the same for every label: that
    space is scanned once and its argmax widened to constant tables.
    """
    if beta is not None and not beta >= 0:
        raise ValueError(f"beta must be nonnegative, got {beta}")
    tilted = beta is not None
    if alphabet is None:
        alphabet = default_alphabet(shape, tilted=tilted, budget=budget)
    alphabet = _normalize_alphabet(shape, alphabet)
    if scan_size(shape, alphabet, tilted=tilted, budget=budget) is not None:
        mode, scan_alphabet = "full", alphabet
    else:
        mode, scan_alphabet = "reachable", (1,) * shape.n
        if scan_size(shape, alphabet, tilted=tilted, mode=mode, budget=budget) is None:
            labels, bits = _scan_extent(shape, alphabet, tilted, mode)
            raise ValueError(
                f"reachable scan of about 10^{math.log10(labels) + bits * math.log10(2):.1f} "
                f"combinations exceeds the budget of {budget:.3e}"
            )
    # The refine budget counts label-grid terms as if every score summed
    # the whole grid: each restart scores up to _REFINE_SWEEPS flips of
    # every table entry, then refine_steps moves.
    labels, entries = _scan_extent(shape, alphabet, tilted, "full")
    refine = refine_draws * (_REFINE_SWEEPS * entries + refine_steps) * labels
    if refine > budget:
        raise ValueError(
            f"refine pass of about 10^{math.log10(refine):.1f} label-grid terms "
            f"exceeds the budget of {budget:.3e}; shrink the alphabet"
        )
    value, key, scanned = _scan_full(shape, scan_alphabet, beta)
    strategy = _strategy_from_key(shape, alphabet, beta, key, scan_alphabet)
    if mode == "reachable":  # the one scan stands for the same scan under every label
        scanned *= labels
    stochastic_value, stochastic_strategy = _refine(
        shape, alphabet, beta, strategy, make_rng(seed), refine_draws, refine_steps
    )
    return ScanReport(
        value=value,
        strategy=strategy,
        stochastic_value=stochastic_value,
        stochastic_strategy=stochastic_strategy,
        mode=mode,
        scanned=scanned,
        alphabet=alphabet,
        beta=beta,
    )


@dataclass(frozen=True)
class BoundReport:
    """Certification record: both maxima against the analytic bound."""

    deterministic_max: float
    stochastic_max: float
    classical_bound: float
    passed: bool
    scan: ScanReport


def verify_bound(
    shape: NetworkShape,
    alphabet=None,
    *,
    beta: float | None = None,
    seed: int | None = 0,
    **scan_options,
) -> BoundReport:
    """Certify the classical bound for one shape.

    Raises BoundViolation (carrying the offending strategy verbatim)
    when the deterministic maximum exceeds the bound or the stochastic
    pass exceeds the deterministic maximum.
    """
    scan = max_deterministic(shape, alphabet, beta=beta, seed=seed, **scan_options)
    bound = 1.0 if beta is None else beta + 1.0
    if not scan.value <= bound + BOUND_TOL:
        raise BoundViolation(
            f"deterministic strategy scored {scan.value:.12f} above the "
            f"classical bound {bound}: {json.dumps(scan.strategy.to_json())}",
            scan.strategy,
        )
    if not scan.stochastic_value <= scan.value + REFINE_TOL:
        raise BoundViolation(
            f"stochastic refinement scored {scan.stochastic_value:.12f} above "
            f"the deterministic maximum {scan.value:.12f}: "
            f"{json.dumps(scan.stochastic_strategy.to_json())}",
            scan.stochastic_strategy,
        )
    return BoundReport(
        deterministic_max=scan.value,
        stochastic_max=scan.stochastic_value,
        classical_bound=bound,
        passed=True,
        scan=scan,
    )
