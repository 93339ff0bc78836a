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
label 0 reach it.  A stochastic pass then probes mixed label distributions
with random restarts and hill climbing: its draws come first, in five
bulk calls, then all restarts climb at once, each candidate staged in
reused buffers and scored in a few numpy calls.  Label weights are rounded
once onto a 2^-60 grid, so every total is an exact integer sum, and a flip
moves it only at the labels that read its entry.
The pass is falsification pressure for the analytic bound, not a search
for new physics: the objective must never come out above the
deterministic maximum.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from typing import NamedTuple

import numpy as np

from netbell.records import Record
from netbell.states import make_rng

# The deterministic maximum is exact, so comparing it with the bound
# allows pure roundoff; the stochastic pass is allowed refinement noise
# but no real excess.
BOUND_TOL = 1e-12
REFINE_TOL = 1e-9
# Label-grid terms the refine pass may sum; it also sizes the default alphabet.
DEFAULT_BUDGET = 10**8
# Refine restarts, weight moves per restart, and most greedy passes over
# the table entries per restart.
_REFINE_DRAWS = 40
_REFINE_STEPS = 60
_REFINE_SWEEPS = 4
# Refine label weights are whole numbers of 1 / _UNIT.  A flip can move a
# total by twice its size, 2 * _UNIT, which must fit in an int64: 2**62 would not.
_UNIT = 2**60


class BoundViolation(RuntimeError):
    """A strategy scored above the classical bound; carries the strategy."""

    def __init__(self, message: str, strategy: "HiddenStrategy"):
        super().__init__(message)
        self.strategy = strategy


class NetworkShape(Record):
    """Who sees which source labels: the causal skeleton of a layout.

    partition follows the layout convention (source agent s serves
    sources partition[s-1]+1 .. partition[s]); reach lists, per
    receiver, the sources whose qubits it holds.
    """

    _fields = ("k", "m", "n", "partition", "reach")

    def __init__(self, k: int, m: int, n: int, partition, reach):
        reach = tuple(tuple(sorted(r)) for r in reach)
        self.__dict__.update(k=k, m=m, n=n, partition=tuple(partition), reach=reach)
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
        return cls(
            k=layout.K,
            m=layout.M,
            n=layout.N,
            partition=layout.partition,
            reach=tuple(tuple(layout.held(agent)) for agent in layout.receivers),
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


class HiddenStrategy(Record):
    """One hidden-variable strategy: label distributions plus response tables.

    a_tables[s][x][c] is source agent s's answer to setting x when its
    visible labels flatten to column c; b_tables mirrors that for
    receivers; p_tables (tilted runs only) is the receiver's answer for
    the phase-flip product, setting-free.  Locality is structural: a
    table can only be indexed by the labels its agent can see.
    """

    _fields = ("shape", "alphabet", "weights", "a_tables", "b_tables", "p_tables")

    def __init__(self, shape: NetworkShape, alphabet, weights, a_tables, b_tables, p_tables=None):
        self.__dict__.update(
            shape=shape,
            alphabet=_normalize_alphabet(shape, alphabet),
            weights=tuple(tuple(map(float, w)) for w in weights),
            a_tables=tuple((tuple(t[0]), tuple(t[1])) for t in a_tables),
            b_tables=tuple((tuple(t[0]), tuple(t[1])) for t in b_tables),
            p_tables=None if p_tables is None else tuple(tuple(t) for t in p_tables),
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
    blocks = [shape.block(s) for s in range(1, shape.k + 1)]
    block_sizes = [math.prod(alphabet[i - 1] for i in block) for block in blocks]
    reach_sizes = [math.prod(alphabet[i - 1] for i in reach) for reach in shape.reach]
    widths = [2 * size for size in block_sizes + reach_sizes] + (reach_sizes if tilted else [])
    return block_sizes, reach_sizes, widths


def _draw_restarts(shape, alphabet, tilted, rng, draws, steps):
    """All draws of a refine pass, in five bulk calls in this order: the
    +/-1 start tables of restarts 1..draws-1 as int8 (draws - 1, entries)
    in flip order (restart 0 starts from all-(+1) tables); per source, draws
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
    is (source, label value, restart), zero past an alphabet.  Each grid
    label's weight, built source by source as math.prod multiplies, is
    rounded once to units, a whole number of 1 / _UNIT.  Per part (I, J,
    and P when tilted) it keeps every label's sign and the total of units *
    sign, all int64, so a total is exact in any order; state stacks the
    totals' powers, each total taken to float once (np.float_power, the C
    pow of math.pow; np.power may take a SIMD pow that rounds otherwise),
    and the objective.  flip() and weigh() stage a candidate in every
    restart in buffers made once; settle() keeps it where asked.
    """

    def __init__(self, shape, alphabet, beta, tables, weights):
        self._shape, self._alphabet, self._beta = shape, alphabet, beta
        k, m, restarts = shape.k, shape.m, tables.shape[1]
        grid = np.array(list(itertools.product(*(range(size) for size in alphabet))))
        # per source and label, the row of weights.reshape(-1, restarts) it reads
        self._picks = grid.T + max(alphabet) * np.arange(shape.n)[:, None]
        reads = [shape.block(s) for s in range(1, k + 1)] + list(shape.reach)
        columns = np.array([[_flat(r, g, alphabet) for r in reads] for g in grid.tolist()])
        # per table and column, the labels that read it
        readers = [[np.flatnonzero(c == v) for v in range(c.max() + 1)] for c in columns.T]
        # per row in flip order: its table, and the parts its entries are a factor of
        rows = [(s, slice(0, 2)) for s in range(k) for _ in (0, 1)]
        rows += [(k + r, slice(x, x + 1)) for r in range(m) for x in (0, 1)]
        rows += [(k + r, slice(2, 3)) for r in range(m)] if beta is not None else []
        self._starts = np.cumsum([0] + [len(readers[t]) for t, _ in rows])
        shown = (self._starts[:-1] + columns[:, [t for t, _ in rows]]).T  # entry per row and label
        # (x or y, part, factor, label): the entry pairs whose (x + w y) / 2
        # multiply to a label's I and J, factors (a0 +- a1) / 2 and b0 or b1
        pairs = np.array([[np.vstack((shown[a : 2 * k : 2], shown[b : 2 * (k + m) : 2]))
                           for b in (2 * k, 2 * k + 1)] for a in (0, 1)])
        self._w = np.array([[1] * (k + m), [-1] * k + [1] * m], np.int64)[..., None, None]
        # per entry: its parts, its readers, and their pairs for an a entry
        self._flips = [(parts, labels, pairs[..., labels] if t < k else None)
                       for t, parts in rows for labels in readers[t]]
        self.tables, self.weights = tables, weights
        p = np.multiply.reduce(tables[shown[2 * (k + m) :]], 0)[None]  # P: all +1 untilted
        self.signs = np.vstack((self._signs(pairs), p))[: 2 if beta is None else 3]
        self.units = np.zeros((len(grid), restarts), np.int64)
        self.totals = np.zeros((len(self.signs), restarts), np.int64)
        self.state = np.zeros((len(self.signs) + 1, restarts))
        self.value = self.state[-1]
        # each candidate's units, totals and state are staged in these
        self._next = [np.zeros_like(a) for a in (self.units, self.totals, self.state)]
        self.weigh(weights)
        self.settle(np.ones(restarts, dtype=bool))

    def _signs(self, pairs):
        """(I, J) signs of the labels whose entry pairs these are."""
        x, y = self.tables[pairs]
        return np.multiply.reduce((x + self._w * y) >> 1, 1)

    def _score(self, parts, row, resigned, *staged):
        """Stage a candidate with new totals at these parts, the row a flip
        negated and its readers' old and new signs (None for weights), and
        the (array, candidate) pairs to keep; its objectives."""
        totals, state = self._next[1], self._next[2]
        state[...] = self.state
        powered = state[parts]
        powered[...] = totals[parts]  # each total taken to float once
        powered *= 1.0 / _UNIT
        np.abs(powered, out=powered)
        if self._shape.k > 1:  # x ** 1.0 is exactly x
            np.float_power(powered, 1.0 / self._shape.k, out=powered)
        value = np.add(state[0], state[1], out=state[-1])
        if self._beta is not None:
            np.add(self._beta * state[2], value, out=value)
        staged += (self.totals[parts], totals[parts]), (self.state, state)
        self._pending = parts, row, resigned, staged
        return value

    def flip(self, entry):
        """Negate one table entry in every restart; the candidate objectives.
        A b or p entry negates its part's sign at the labels that read it;
        an a entry has their I and J re-read.  Only those labels move its
        parts' totals."""
        parts, labels, pairs = self._flips[entry]
        row = self.tables[entry]
        np.negative(row, out=row)
        old = self.signs[parts].take(labels, 1)
        new = np.negative(old) if pairs is None else self._signs(pairs)
        moved = np.multiply(new - old, self.units.take(labels, 0)).sum(1)
        np.add(self.totals[parts], moved, out=self._next[1][parts])
        return self._score(parts, row, (labels, old, new))

    def weigh(self, weights):
        """Score new (source, label value, restart) weights; the candidate objectives."""
        picked = weights.reshape(-1, weights.shape[-1]).take(self._picks, 0)
        label_weights = functools.reduce(np.multiply, picked)
        units = self._next[0]
        units[...] = np.rint(label_weights * _UNIT)
        np.einsum("plr,lr->pr", self.signs, units, out=self._next[1])
        staged = (self.weights, weights), (self.units, units)
        return self._score(slice(0, len(self.totals)), None, None, *staged)

    def settle(self, keep):
        """Keep the last flip() or weigh() in the restarts where keep is
        true and take it back in the others; how many restarts kept it."""
        parts, row, resigned, staged = self._pending
        kept = np.count_nonzero(keep)
        if row is not None:  # a flip negated it in every restart
            np.negative(row, out=row, where=~keep if kept else True)
        if kept and resigned is not None:
            labels, old, new = resigned
            self.signs[parts, labels] = np.where(keep, new, old)
        for target, candidate in staged if kept else ():
            np.copyto(target, candidate, where=keep)
        return kept

    def strategy(self, r: int) -> HiddenStrategy:
        """Restart r as a HiddenStrategy."""
        rows = iter([row.tolist() for row in np.split(self.tables[:, r], self._starts[1:-1])])
        a_tables = [(next(rows), next(rows)) for _ in range(self._shape.k)]
        b_tables = [(next(rows), next(rows)) for _ in range(self._shape.m)]
        p_tables = None if self._beta is None else list(rows)
        weights = [self.weights[i, :size, r].tolist() for i, size in enumerate(self._alphabet)]
        return HiddenStrategy(self._shape, self._alphabet, weights, a_tables, b_tables, p_tables)


def _refine(shape, alphabet, beta, value, rng, draws, steps):
    """Stochastic pass: random product label distributions, hill-climbed.

    The first restart starts from the all-(+1) tables, the others from
    random tables; each restart greedily flips table entries, then
    walks the label weights toward random vertices, keeping improvements.
    No draw depends on a score, so _draw_restarts takes them all first, in
    five bulk calls that each span every restart (restart r's draws depend
    on the number of restarts); then one _Climb runs all restarts in
    lockstep, each flip or move scored in every restart at once.  A
    restart whose sweep kept no flip keeps none in a later one either, so
    all sweep on while any improves.  Once every entry has been flipped in
    a row with no restart keeping one, the sweep stops: each flip left in
    it was scored and rejected against this same state one sweep before.
    The best restart, the first of any equals, is kept if it beats value,
    the closed form: the exact score of the all-(+1) tables under label 0,
    whose one-hot weights round to exactly _UNIT there and 0 elsewhere.

    Returns (best value, best strategy or None when none beats value,
    strategies scored): the closed form's, then per restart its start,
    every flip of every sweep run, the last one counted whole, and every
    weight move.
    """
    if not draws:
        return value, None, 1
    drawn = _draw_restarts(shape, alphabet, beta is not None, rng, draws, steps)
    tables, weights, sources, vertices, etas = drawn
    ones = np.ones((tables.shape[1], 1), dtype=np.int8)
    climb = _Climb(shape, alphabet, beta, np.concatenate((ones, tables.T), axis=1), weights)
    entries, quiet = len(climb.tables), 0  # quiet: flips in a row that no restart kept
    for sweeps in range(1, _REFINE_SWEEPS + 1):
        bar = climb.value + 1e-15
        for entry in range(entries):
            if climb.settle(climb.flip(entry) > bar):
                quiet, bar = 0, climb.value + 1e-15
            elif (quiet := quiet + 1) == entries:
                break
        if quiet == entries:
            break
    scored = 1 + draws * (1 + sweeps * entries + steps)

    # per move, (label value, restart): the walk's pull toward its vertex,
    # and where in the weights the walked source's weights sit
    values = np.arange(max(alphabet))[:, None]
    pulls = np.where(values == vertices[:, None], etas[:, None], 0.0)
    sites = (sources * (len(values) * draws))[:, None] + values * draws + np.arange(draws)
    candidate, mixed = np.empty_like(climb.weights), np.empty(pulls.shape[1:])
    for site, stay, pull in zip(sites, 1 - etas, pulls):
        np.multiply(stay, climb.weights.take(site), out=mixed)
        mixed += pull
        # added left to right, as Python 3.11's sum (not 3.12's, nor np.sum's)
        mixed /= np.add.accumulate(mixed, 0)[-1]
        candidate[...] = climb.weights
        candidate.put(site, mixed)
        climb.settle(climb.weigh(candidate) > climb.value)

    scores = climb.value.tolist()
    best = scores.index(max(scores))  # the first of any equals
    if scores[best] > value:
        return scores[best], climb.strategy(best), scored
    return value, None, scored


class ScanReport(NamedTuple):
    """The deterministic maximum plus the stochastic pass that checked it;
    scanned counts the strategies the pass scored."""

    value: float
    strategy: HiddenStrategy
    stochastic_value: float
    stochastic_strategy: HiddenStrategy
    scanned: int
    alphabet: tuple[int, ...]
    beta: float | None = None


def default_alphabet(shape: NetworkShape, *, tilted: bool = False) -> int:
    """Largest uniform label alphabet (at most 4) whose point-mass
    strategies (every response table under every point label: labels <<
    entries) number within DEFAULT_BUDGET; 2 when none does.  The rule is
    the count of the exhaustive scan this engine once ran, kept so that
    no default alphabet, and no pin, moves.  Bit lengths are compared
    first, so no integer wider than the budget is ever built."""
    for size in (4, 3, 2):
        sizes = (size,) * shape.n
        labels, entries = math.prod(sizes), sum(_table_bits(shape, sizes, tilted)[2])
        if labels.bit_length() + entries <= DEFAULT_BUDGET.bit_length():
            if labels << entries <= DEFAULT_BUDGET:
                return size
    return 2


def max_deterministic(
    shape: NetworkShape,
    alphabet=None,
    *,
    beta: float | None = None,
    seed: int | None = 0,
) -> ScanReport:
    """The classical engine's one entry point: the deterministic maximum
    in closed form, 1 or 1 + beta, reached by the all-(+1) tables under
    label 0 (see the module docstring), checked by the refine pass, which
    alone is held to DEFAULT_BUDGET.  Raises BoundViolation (carrying the
    offending strategy verbatim) when the pass scores more than
    REFINE_TOL above the closed form.
    """
    if beta is not None and not beta >= 0:
        raise ValueError(f"beta must be nonnegative, got {beta}")
    # The refine score of 1 + beta rounds up to 2 ulps above it, which
    # must stay within REFINE_TOL: beta below 2**22 - 1.
    if beta is not None and 2 * math.ulp(1.0 + beta) > REFINE_TOL:
        raise ValueError(
            f"beta {beta} is too large for the refine check: 2 ulps of 1 + beta "
            f"exceed its tolerance {REFINE_TOL:g}"
        )
    tilted = beta is not None
    if alphabet is None:
        alphabet = default_alphabet(shape, tilted=tilted)
    alphabet = _normalize_alphabet(shape, alphabet)
    block_sizes, reach_sizes, widths = _table_bits(shape, alphabet, tilted)
    # The refine budget counts label-grid terms as if every score summed
    # the whole grid: each restart scores up to _REFINE_SWEEPS flips of
    # every table entry, then _REFINE_STEPS moves.
    labels = math.prod(alphabet)
    refine = _REFINE_DRAWS * (_REFINE_SWEEPS * sum(widths) + _REFINE_STEPS) * labels
    if refine > DEFAULT_BUDGET:
        raise ValueError(
            f"refine pass of about 10^{math.log10(refine):.1f} label-grid terms "
            f"exceeds the budget of {DEFAULT_BUDGET:.3e}; shrink the alphabet"
        )
    strategy = HiddenStrategy(
        shape,
        alphabet,
        weights=tuple((1.0,) + (0.0,) * (size - 1) for size in alphabet),
        a_tables=tuple(((1,) * size,) * 2 for size in block_sizes),
        b_tables=tuple(((1,) * size,) * 2 for size in reach_sizes),
        p_tables=tuple((1,) * size for size in reach_sizes) if tilted else None,
    )
    value = 1.0 if beta is None else 1.0 + beta
    stochastic_value, stochastic_strategy, scanned = _refine(
        shape, alphabet, beta, value, make_rng(seed), _REFINE_DRAWS, _REFINE_STEPS
    )
    stochastic_strategy = stochastic_strategy or strategy
    if not stochastic_value <= value + REFINE_TOL:
        raise BoundViolation(
            f"stochastic refinement scored {stochastic_value:.12f} above "
            f"the deterministic maximum {value:.12f}: "
            f"{json.dumps(stochastic_strategy.to_json())}",
            stochastic_strategy,
        )
    return ScanReport(value=value, strategy=strategy, stochastic_value=stochastic_value,
                      stochastic_strategy=stochastic_strategy, scanned=scanned,
                      alphabet=alphabet, beta=beta)
