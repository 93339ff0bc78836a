"""Classical certification of the network bounds.

Hidden-variable strategies assign each source a discrete label drawn
from a product distribution; every agent answers with a deterministic
+/-1 table over its settings and the labels it can see.  The
deterministic scan enumerates response tables together with point-mass
label assignments and maximizes the same objective the quantum engine
reports, as a single-process numpy scan in bounded slices.  A
stochastic pass then probes mixed label distributions with random
restarts and hill climbing.  The scan is falsification pressure for the
analytic bound, not a search for new physics: the objective must never
come out above 1 (or beta + 1 tilted).
"""

from __future__ import annotations

import itertools
import json
import math
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
        for s, table in enumerate(self.a_tables, start=1):
            self._check_table(table, self.block_size(s), f"source agent {s}")
        for m, table in enumerate(self.b_tables, start=1):
            self._check_table(table, self.reach_size(m), f"receiver {m}")
        if self.p_tables is not None:
            if len(self.p_tables) != shape.m:
                raise ValueError("need one p table per receiver")
            for m, column in enumerate(self.p_tables, start=1):
                self._check_table((column,), self.reach_size(m), f"receiver {m} p")

    @staticmethod
    def _check_table(table, width: int, who: str) -> None:
        for row in table:
            if len(row) != width:
                raise ValueError(f"{who} table width {len(row)}, expected {width}")
            if any(entry not in (-1, 1) for entry in row):
                raise ValueError(f"{who} table entries must be -1 or +1")

    def block_size(self, s: int) -> int:
        return math.prod(self.alphabet[i - 1] for i in self.shape.block(s))

    def reach_size(self, m: int) -> int:
        return math.prod(self.alphabet[i - 1] for i in self.shape.reach[m - 1])

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


@dataclass(frozen=True)
class ClassicalCorrelators:
    i_value: float
    j_value: float
    p_value: float | None = None


def _label_grid(shape: NetworkShape, alphabet) -> list:
    """Every label tuple in product order, with the table column each
    source agent and each receiver reads under it."""
    blocks = [shape.block(s) for s in range(1, shape.k + 1)]
    return [
        (
            labels,
            tuple(_flat(block, labels, alphabet) for block in blocks),
            tuple(_flat(reach, labels, alphabet) for reach in shape.reach),
        )
        for labels in itertools.product(*(range(size) for size in alphabet))
    ]


def _grid_sums(grid, weights, a_tables, b_tables, p_tables) -> ClassicalCorrelators:
    """I, J (and P when p_tables is given) summed over a label grid.

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


def bell_value(corr: ClassicalCorrelators, k: int) -> float:
    return abs(corr.i_value) ** (1.0 / k) + abs(corr.j_value) ** (1.0 / k)


def objective_value(corr: ClassicalCorrelators, k: int, beta: float | None) -> float:
    if beta is None:
        return bell_value(corr, k)
    if corr.p_value is None:
        raise ValueError("tilted objective needs a strategy with p tables")
    return beta * abs(corr.p_value) ** (1.0 / k) + bell_value(corr, k)


def _table_bits(shape: NetworkShape, alphabet, tilted: bool):
    """Bit widths of every enumerated table, in scan order."""
    block_sizes = [
        math.prod(alphabet[i - 1] for i in shape.block(s))
        for s in range(1, shape.k + 1)
    ]
    reach_sizes = [
        math.prod(alphabet[i - 1] for i in reach) for reach in shape.reach
    ]
    widths = [2 * size for size in block_sizes]
    widths += [2 * size for size in reach_sizes]
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
    p_tables = None
    if tilted:
        p_tables = tuple(
            rows(combo[k + m + r], scan_reach[r], reach_sizes[r], 1)[0]
            for r in range(m)
        )
    weights = tuple(
        tuple(1.0 if v == labels[i] else 0.0 for v in range(alphabet[i]))
        for i in range(shape.n)
    )
    return HiddenStrategy(
        shape=shape,
        alphabet=alphabet,
        weights=weights,
        a_tables=a_tables,
        b_tables=b_tables,
        p_tables=p_tables,
    )


def _random_tables(shape, alphabet, tilted, rng):
    block_sizes, reach_sizes, _ = _table_bits(shape, alphabet, tilted)

    def row(width):
        return tuple(int(v) for v in rng.choice((-1, 1), size=width))

    a_tables = tuple((row(b), row(b)) for b in block_sizes)
    b_tables = tuple((row(r), row(r)) for r in reach_sizes)
    p_tables = tuple(row(r) for r in reach_sizes) if tilted else None
    return a_tables, b_tables, p_tables


def _refine(shape, alphabet, beta, seed_strategy, rng, draws, steps):
    """Stochastic pass: random product label distributions, hill-climbed.

    Restarts alternate between the deterministic argmax tables and fresh
    random tables; each restart greedily flips table entries, then walks
    the label weights toward random vertices, keeping improvements.
    Tables are flipped in place on lists; a HiddenStrategy is built only
    for a restart that beats the best so far.
    """
    tilted = beta is not None
    k = shape.k
    grid = _label_grid(shape, alphabet)

    def score(weights, tables):
        return objective_value(_grid_sums(grid, weights, *tables), k, beta)

    seed_tables = (seed_strategy.a_tables, seed_strategy.b_tables, seed_strategy.p_tables)
    best_value = score(seed_strategy.weights, seed_tables)
    best_strategy = seed_strategy
    for draw in range(draws):
        start = seed_tables if draw == 0 else _random_tables(shape, alphabet, tilted, rng)
        a_tables = [[list(row) for row in table] for table in start[0]]
        b_tables = [[list(row) for row in table] for table in start[1]]
        p_tables = None if start[2] is None else [list(row) for row in start[2]]
        tables = (a_tables, b_tables, p_tables)
        weights = [tuple(map(float, rng.dirichlet(np.ones(size)))) for size in alphabet]
        current_value = score(weights, tables)

        rows = [row for table in a_tables + b_tables for row in table] + (p_tables or [])
        improved = True
        sweeps = 0
        while improved and sweeps < _REFINE_SWEEPS:
            improved = False
            sweeps += 1
            for row in rows:
                for e in range(len(row)):
                    row[e] = -row[e]
                    candidate_value = score(weights, tables)
                    if candidate_value > current_value + 1e-15:
                        current_value = candidate_value
                        improved = True
                    else:
                        row[e] = -row[e]

        for _ in range(steps):
            source = int(rng.integers(shape.n))
            size = alphabet[source]
            vertex = int(rng.integers(size))
            eta = float(rng.uniform(0.1, 1.0))
            mixed = [
                (1 - eta) * w + (eta if v == vertex else 0.0)
                for v, w in enumerate(weights[source])
            ]
            total = sum(mixed)
            candidate = list(weights)
            candidate[source] = tuple(w / total for w in mixed)
            candidate_value = score(candidate, tables)
            if candidate_value > current_value:
                weights, current_value = candidate, candidate_value

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
    if alphabet is None:
        alphabet = default_alphabet(shape, tilted=beta is not None, budget=budget)
    alphabet = _normalize_alphabet(shape, alphabet)

    tilted = beta is not None
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
    # Every refine score sums the whole label grid: each restart scores up
    # to _REFINE_SWEEPS flips of every table entry, then refine_steps moves.
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

    rng = make_rng(seed)
    stochastic_value, stochastic_strategy = _refine(
        shape, alphabet, beta, strategy, rng, refine_draws, refine_steps
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
