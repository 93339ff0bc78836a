"""Classical certification of the network bounds.

Hidden-variable strategies assign each source a discrete label drawn
from a product distribution; every agent answers with a deterministic
+/-1 table over its settings and the labels it can see.  The
deterministic maximum is a closed form.  Under a point label each table
is read at one column, so I, J and P are products of per-table factors
in {-1, 0, +1}: a source agent gives (a0 + a1) / 2 to I and
(a0 - a1) / 2 to J, so I is nonzero only when every source agent has
a0 = a1 and J only when every one has a0 != a1.  The objective is
therefore at most 1 (or 1 + beta tilted), and the all-(+1) tables under
label 0 reach it.  A stochastic pass then probes mixed label
distributions with random restarts and hill climbing: its draws come
first, in five bulk calls, then all restarts climb at once in numpy
arrays.  A flip re-reads only the labels that read its column, and
totals are summed left to right in grid order, so every score is the
float of a whole-grid sum.
The pass is falsification pressure for the analytic bound, not a search
for new physics: the objective must never come out above the
deterministic maximum.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from netbell.states import make_rng

# The deterministic maximum is exact, so comparing it with the bound
# allows pure roundoff; the stochastic pass is allowed refinement noise
# but no real excess.
BOUND_TOL = 1e-12
REFINE_TOL = 1e-9
DEFAULT_BUDGET = 10**8
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
    """Column counts of the source agents' and receivers' tables, and the
    entry count of every table: source agents, receivers, then p tables."""
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


def _scan_extent(shape, alphabet, tilted) -> tuple[int, int]:
    """(labels, entries): the label combinations and the table entries of
    every strategy at this alphabet."""
    return math.prod(alphabet), sum(_table_bits(shape, alphabet, tilted)[2])


def scan_size(
    shape: NetworkShape,
    alphabet,
    *,
    tilted: bool = False,
    budget: int = DEFAULT_BUDGET,
) -> int | None:
    """How many point-mass strategies there are at this alphabet (every
    response table under every point label: labels << entries), or None
    when that is over the budget; default_alphabet sizes the alphabet by
    it.  The budget is compared by bit length first, so no integer wider
    than the budget is ever built."""
    labels, bits = _scan_extent(shape, _normalize_alphabet(shape, alphabet), tilted)
    if labels.bit_length() + bits > budget.bit_length():
        return None
    size = labels << bits
    return size if size <= budget else None


def _refine_draws(shape, alphabet, tilted, rng, draws, steps):
    """All draws of a refine pass, in five bulk calls in this order: the
    +/-1 start tables of restarts 1..draws-1 as int8 (draws - 1, entries)
    in flip order (restart 0 starts from the seed); per source, draws
    Dirichlet(1, ..., 1) weights as (source, label value, restart), zero
    past an alphabet; then per (step, restart) each weight move's source,
    the label value it walks toward, and its eta in [0.1, 1).  Every call
    spans all restarts, so restart r's draws depend on draws."""
    entries = sum(_table_bits(shape, alphabet, tilted)[2])
    tables = 1 - 2 * rng.integers(2, size=(max(draws - 1, 0), entries), dtype=np.int8)
    weights = np.zeros((shape.n, max(alphabet), draws))
    for i, size in enumerate(alphabet):
        weights[i, :size] = rng.dirichlet(np.ones(size), size=draws).T
    sources = rng.integers(shape.n, size=(steps, draws))
    vertices = rng.integers(np.asarray(alphabet)[sources])
    etas = rng.uniform(0.1, 1.0, size=(steps, draws))
    return tables, weights, sources, vertices, etas


class _Climb:
    """The refine pass's restarts, scored together: the last axis of every
    array runs over the restarts.

    tables is int8 (entries, restarts), climbed in place: a restart's
    tables are a column of +/-1 entries in flip order (each source agent's
    a0 and a1 rows, each receiver's b0 and b1, then the p rows); weights
    is (source, label value, restart), zero past an alphabet.  Per grid
    label it keeps a sign triple and a weight built source by source as
    math.prod multiplies, and each total sums weight * sign over the
    labels left to right: the floats of a whole-grid sum.  flip() and
    weigh() score a candidate in every restart; settle() keeps it where
    asked.
    """

    def __init__(self, shape, alphabet, beta, tables, weights):
        self._shape, self._alphabet, self._beta = shape, alphabet, beta
        self._grid = np.array(list(itertools.product(*(range(size) for size in alphabet))))
        reads = [shape.block(s) for s in range(1, shape.k + 1)] + list(shape.reach)
        columns = np.array([[_flat(r, g, alphabet) for r in reads] for g in self._grid.tolist()])
        # per row in flip order: its table, and the one part its entries
        # are a factor of (None for an a row, a factor of I and J)
        rows = [(s, None) for s in range(shape.k) for _ in (0, 1)]
        rows += [(shape.k + r, x) for r in range(shape.m) for x in (0, 1)]
        rows += [(shape.k + r, 2) for r in range(shape.m)] if beta is not None else []
        widths = [math.prod(alphabet[i - 1] for i in reads[t]) for t, _ in rows]
        self._starts = np.cumsum([0] + widths)
        shown = self._starts[:-1] + columns[:, [t for t, _ in rows]]  # entry per label and row
        self._flips = []  # per entry: the labels that read it, its part, their entries
        for (t, part), width in zip(rows, widths):
            for column in range(width):
                labels = np.flatnonzero(columns[:, t] == column)
                self._flips.append((labels, part, shown[labels]))
        self.tables, self.weights = tables, weights
        self.signs = self._signs(shown)
        self.totals, self.powered = np.zeros((2, 3, tables.shape[1]))
        self.weigh(weights)
        self.settle(np.ones(tables.shape[1], dtype=bool))

    def _signs(self, reads):
        """(I, J, P) signs of the labels whose entries these are, per restart."""
        v = self.tables[reads]
        k2, m2 = 2 * self._shape.k, 2 * (self._shape.k + self._shape.m)
        a0, a1 = v[:, 0:k2:2], v[:, 1:k2:2]
        i = ((a0 + a1) // 2).prod(1) * v[:, k2:m2:2].prod(1)
        j = ((a0 - a1) // 2).prod(1) * v[:, k2 + 1 : m2 : 2].prod(1)
        return np.stack((i, j, v[:, m2:].prod(1))).astype(np.int8)

    def _score(self, terms, /, **candidate):
        """Stage a candidate whose parts sum these terms (part -> weight *
        sign per label and restart); its objectives.  The powers are
        Python's float **, which np.power does not match."""
        totals, powered = self.totals.copy(), self.powered.copy()
        for part, part_terms in terms.items():
            totals[part] = _left_sum(part_terms, axis=0)
            powered[part] = [abs(x) ** (1.0 / self._shape.k) for x in totals[part].tolist()]
        value = powered[0] + powered[1]
        if self._beta is not None:
            value = self._beta * powered[2] + value
        self._pending = dict(candidate, totals=totals, powered=powered, value=value)
        return value

    def flip(self, entry):
        """Negate one table entry in every restart; the candidate objectives.
        A b or p entry negates its part's sign at the labels that read it;
        an a entry has their I and J re-read."""
        labels, part, reads = self._flips[entry]
        self.tables[entry] *= -1
        signs = self.signs[:, labels]
        if part is None:
            signs[:2] = self._signs(reads)[:2]
        else:
            signs[part] *= -1
        self._flipped = (entry, labels, signs)
        terms = {}
        for p in (0, 1) if part is None else (part,):
            terms[p] = self.label_weights * self.signs[p]
            terms[p][labels] = self.label_weights[labels] * signs[p]
        return self._score(terms)

    def weigh(self, weights):
        """Score new (source, label value, restart) weights; the candidate objectives."""
        label_weights = weights[0, self._grid[:, 0]]
        for i in range(1, self._shape.n):
            label_weights = label_weights * weights[i, self._grid[:, i]]
        self._flipped = None
        parts = (0, 1) if self._beta is None else (0, 1, 2)
        terms = {p: label_weights * self.signs[p] for p in parts}
        return self._score(terms, weights=weights, label_weights=label_weights)

    def settle(self, keep):
        """Keep the last flip() or weigh() in the restarts where keep is
        true and take it back in the others."""
        if self._flipped is not None:
            entry, labels, signs = self._flipped
            self.tables[entry] = np.where(keep, self.tables[entry], -self.tables[entry])
            self.signs[:, labels] = np.where(keep, signs, self.signs[:, labels])
        if keep.any():
            for name, candidate in self._pending.items():
                setattr(self, name, np.where(keep, candidate, getattr(self, name, candidate)))

    def strategy(self, r: int) -> HiddenStrategy:
        """Restart r as a HiddenStrategy."""
        rows = iter([row.tolist() for row in np.split(self.tables[:, r], self._starts[1:-1])])
        a_tables = [(next(rows), next(rows)) for _ in range(self._shape.k)]
        b_tables = [(next(rows), next(rows)) for _ in range(self._shape.m)]
        p_tables = None if self._beta is None else list(rows)
        weights = [self.weights[i, :size, r].tolist() for i, size in enumerate(self._alphabet)]
        return HiddenStrategy(self._shape, self._alphabet, weights, a_tables, b_tables, p_tables)


def _left_sum(values, axis=-1):
    """values added left to right along an axis in plain float arithmetic:
    the builtin sum of Python 3.11 and earlier, which 3.12 replaced by a
    compensated sum that can round differently (np.sum adds pairwise)."""
    return np.add.accumulate(values, axis).take(-1, axis)


def _restart_arrays(strategy: HiddenStrategy):
    """A strategy as one _Climb restart: (entries, 1) int8 tables in flip
    order and (source, label value, 1) weights."""
    rows = [row for table in (*strategy.a_tables, *strategy.b_tables) for row in table]
    weights = np.zeros((len(strategy.alphabet), max(strategy.alphabet), 1))
    for i, w in enumerate(strategy.weights):
        weights[i, : len(w), 0] = w
    tables = np.concatenate(rows + list(strategy.p_tables or ())).astype(np.int8)
    return tables[:, None], weights


def _refine(shape, alphabet, beta, seed_strategy, rng, draws, steps):
    """Stochastic pass: random product label distributions, hill-climbed.

    The first restart starts from the seed strategy's tables, the others
    from random tables; each restart greedily flips table entries, then
    walks the label weights toward random vertices, keeping improvements.
    No draw depends on a score, so _refine_draws takes them all first, in
    five bulk calls that each span every restart (restart r's draws depend
    on the number of restarts); then one _Climb runs all restarts in
    lockstep, each flip or move scored in every restart at once.  A
    restart whose sweep kept no flip keeps none in a later one either, so
    all sweep on while any improves.  The best restart, the first of any
    equals, replaces the seed if it beats it.

    Returns (best value, best strategy, strategies scored): the seed,
    then per restart its start, every flip of every sweep run, and every
    weight move.
    """
    seed_tables, seed_weights = _restart_arrays(seed_strategy)
    [best_value] = _Climb(shape, alphabet, beta, seed_tables, seed_weights).value.tolist()
    if not draws:
        return best_value, seed_strategy, 1
    tables, weights, sources, vertices, etas = _refine_draws(
        shape, alphabet, beta is not None, rng, draws, steps
    )
    climb = _Climb(shape, alphabet, beta, np.concatenate((seed_tables, tables.T), axis=1), weights)
    for sweeps in range(1, _REFINE_SWEEPS + 1):
        improved = np.zeros(draws, dtype=bool)
        for entry in range(len(climb.tables)):
            keep = climb.flip(entry) > climb.value + 1e-15
            climb.settle(keep)
            improved |= keep
        if not improved.any():
            break
    scored = 1 + draws * (1 + sweeps * len(climb.tables) + steps)

    restarts, values = np.arange(draws), np.arange(max(alphabet))
    for source, vertex, eta in zip(sources, vertices, etas):
        mixed = (1 - eta)[:, None] * climb.weights[source, :, restarts]
        mixed = mixed + np.where(values == vertex[:, None], eta[:, None], 0.0)
        candidate = climb.weights.copy()
        candidate[source, :, restarts] = mixed / _left_sum(mixed)[:, None]
        climb.settle(climb.weigh(candidate) > climb.value)

    best_row = None
    for row, value in enumerate(climb.value.tolist()):
        if value > best_value:
            best_value, best_row = value, row
    return best_value, seed_strategy if best_row is None else climb.strategy(best_row), scored


@dataclass(frozen=True)
class ScanReport:
    """The deterministic maximum plus the stochastic pass; scanned counts
    the strategies the pass scored."""

    value: float
    strategy: HiddenStrategy
    stochastic_value: float
    stochastic_strategy: HiddenStrategy
    scanned: int
    alphabet: tuple[int, ...]
    beta: float | None = None


def default_alphabet(shape: NetworkShape, *, tilted: bool = False, budget: int = DEFAULT_BUDGET) -> int:
    """Largest uniform label alphabet (at most 4) whose point-mass
    strategies number within the budget (scan_size); 2 when none does."""
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
    """Deterministic maximum in closed form plus a stochastic refinement pass.

    Over point-mass strategies the objective is at most 1, or 1 + beta
    tilted (see the module docstring), and the all-(+1) tables under
    label 0 reach it: the first strategy when labels and table integers
    are enumerated in order.  That strategy is the maximum's and seeds
    the refine pass, which alone is held to the budget.
    """
    if beta is not None and not beta >= 0:
        raise ValueError(f"beta must be nonnegative, got {beta}")
    tilted = beta is not None
    if alphabet is None:
        alphabet = default_alphabet(shape, tilted=tilted, budget=budget)
    alphabet = _normalize_alphabet(shape, alphabet)
    # The refine budget counts label-grid terms as if every score summed
    # the whole grid: each restart scores up to _REFINE_SWEEPS flips of
    # every table entry, then refine_steps moves.
    labels, entries = _scan_extent(shape, alphabet, tilted)
    refine = refine_draws * (_REFINE_SWEEPS * entries + refine_steps) * labels
    if refine > budget:
        raise ValueError(
            f"refine pass of about 10^{math.log10(refine):.1f} label-grid terms "
            f"exceeds the budget of {budget:.3e}; shrink the alphabet"
        )
    block_sizes, reach_sizes, _ = _table_bits(shape, alphabet, tilted)
    strategy = HiddenStrategy(
        shape,
        alphabet,
        weights=tuple((1.0,) + (0.0,) * (size - 1) for size in alphabet),
        a_tables=tuple(((1,) * size,) * 2 for size in block_sizes),
        b_tables=tuple(((1,) * size,) * 2 for size in reach_sizes),
        p_tables=tuple((1,) * size for size in reach_sizes) if tilted else None,
    )
    stochastic_value, stochastic_strategy, scanned = _refine(
        shape, alphabet, beta, strategy, make_rng(seed), refine_draws, refine_steps
    )
    return ScanReport(
        value=1.0 if beta is None else 1.0 + beta,
        strategy=strategy,
        stochastic_value=stochastic_value,
        stochastic_strategy=stochastic_strategy,
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
    when the stochastic pass exceeds the deterministic maximum.
    """
    scan = max_deterministic(shape, alphabet, beta=beta, seed=seed, **scan_options)
    bound = 1.0 if beta is None else beta + 1.0
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
