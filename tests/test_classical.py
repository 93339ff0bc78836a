"""Classical hidden-strategy certification tests."""

import json
import math

import numpy as np
import pytest

from conftest import bilocal_layout, chsh_layout, star_layout
from netbell import classical, scenarios
from netbell.classical import (
    BoundViolation,
    HiddenStrategy,
    NetworkShape,
    default_alphabet,
    max_deterministic,
    scan_size,
    verify_bound,
)
from netbell.states import make_rng
from oracles import (
    _decode_labels,
    _scan_reachable,
    bell_value,
    correlators,
    grid_sums,
    label_grid,
    loop_scan,
    objective_value,
    refine,
)

BILOCAL = NetworkShape(k=2, m=1, n=2, partition=(0, 1, 2), reach=((1, 2),))
SINGLE = NetworkShape(k=1, m=1, n=1, partition=(0, 1), reach=((1,),))


def constant_strategy(shape, alphabet=2, a=(1, 1), b=(1, 1), p=None):
    sizes = classical._normalize_alphabet(shape, alphabet)
    weights = tuple(tuple(1.0 / size for _ in range(size)) for size in sizes)
    block_sizes = [
        math.prod(sizes[i - 1] for i in shape.block(s))
        for s in range(1, shape.k + 1)
    ]
    reach_sizes = [math.prod(sizes[i - 1] for i in r) for r in shape.reach]
    a_tables = tuple(((a[0],) * size, (a[1],) * size) for size in block_sizes)
    b_tables = tuple(((b[0],) * size, (b[1],) * size) for size in reach_sizes)
    p_tables = (
        tuple((p,) * size for size in reach_sizes) if p is not None else None
    )
    return HiddenStrategy(
        shape=shape,
        alphabet=sizes,
        weights=weights,
        a_tables=a_tables,
        b_tables=b_tables,
        p_tables=p_tables,
    )


def key_strategy(shape, alphabet, beta, key):
    """The point-mass strategy of a loop_scan key: bit e of a table's
    integer is its entry e in row-major order, 0 for +1."""
    label_index, combo = key
    labels = _decode_labels(label_index, alphabet)
    block_sizes, reach_sizes, widths = classical._table_bits(shape, alphabet, beta is not None)
    tables = []
    for bits, width, size in zip(combo, widths, block_sizes + reach_sizes + reach_sizes):
        entries = [1 - 2 * ((bits >> e) & 1) for e in range(width)]
        tables.append([entries[row : row + size] for row in range(0, width, size)])
    k, m = shape.k, shape.m
    return HiddenStrategy(
        shape=shape,
        alphabet=alphabet,
        weights=[[float(v == labels[i]) for v in range(size)] for i, size in enumerate(alphabet)],
        a_tables=tables[:k],
        b_tables=tables[k : k + m],
        p_tables=[t[0] for t in tables[k + m :]] if beta is not None else None,
    )


def random_tables(shape, sizes, tilted, rng):
    """Random (a_tables, b_tables, p_tables), one rng.choice per row."""
    block_sizes, reach_sizes, _ = classical._table_bits(shape, sizes, tilted)

    def row(width):
        return tuple(int(v) for v in rng.choice((-1, 1), size=width))

    a_tables = tuple((row(b), row(b)) for b in block_sizes)
    b_tables = tuple((row(r), row(r)) for r in reach_sizes)
    p_tables = tuple(row(r) for r in reach_sizes) if tilted else None
    return a_tables, b_tables, p_tables


def random_strategy(shape, alphabet, rng, tilted=False):
    sizes = classical._normalize_alphabet(shape, alphabet)
    a_tables, b_tables, p_tables = random_tables(shape, sizes, tilted, rng)
    weights = tuple(tuple(rng.dirichlet(np.ones(size))) for size in sizes)
    return HiddenStrategy(
        shape=shape,
        alphabet=sizes,
        weights=weights,
        a_tables=a_tables,
        b_tables=b_tables,
        p_tables=p_tables,
    )


class TestShapes:
    def test_from_layouts(self):
        assert NetworkShape.from_layout(bilocal_layout()) == BILOCAL
        assert NetworkShape.from_layout(chsh_layout()) == SINGLE
        star = NetworkShape.from_layout(star_layout(3))
        assert (star.k, star.m, star.n) == (3, 1, 3)
        assert star.reach == ((1, 2, 3),)
        assert star.block(2) == (2,)

    def test_bad_partition(self):
        with pytest.raises(ValueError, match="partition"):
            NetworkShape(k=2, m=1, n=2, partition=(0, 2, 2), reach=((1, 2),))

    def test_bad_reach(self):
        with pytest.raises(ValueError, match="reach"):
            NetworkShape(k=1, m=2, n=1, partition=(0, 1), reach=((1,),))
        with pytest.raises(ValueError, match="source ids"):
            NetworkShape(k=1, m=1, n=1, partition=(0, 1), reach=((2,),))


# (I, J, P) as float.hex for 20 seeded random strategies, pinned: any
# change to the summation order of correlators() moves them
PINNED_CORRELATORS = [
    ("0x0.0p+0", "0x1.1599423482a7ap-3", None),
    ("-0x1.5a6ec8ee0eb96p-1", "-0x1.b3fb99ecec480p-3", None),
    ("0x1.1ec42ea625930p-2", "0x1.709de8aced368p-1", None),
    ("-0x1.024629ea80785p-3", "-0x1.0dbb82811387fp-3", None),
    ("-0x1.47aeaeb0df510p-3", "0x0.0p+0", "0x1.e6e954a55a19ep-4"),
    ("0x1.53addd8ef4edap-1", "-0x1.58a444e21624dp-2", "0x1.4eb7763bd3b67p-2"),
    ("-0x1.309f512658886p-1", "-0x1.9ec15db34eef4p-2", "-0x1.0000000000000p+0"),
    ("0x1.32c27b48c38a5p-5", "0x1.2a0b977f61e6cp-5", "0x1.5444782a4009dp-3"),
    ("0x1.46bb1cecaeb4ap-1", "-0x1.7289c626a296bp-2", "0x1.1aec73b2bad29p-2"),
    ("0x1.485da70abcab8p-5", "0x0.0p+0", "0x1.0000000000000p+0"),
    ("0x1.4796dc0695811p-6", "-0x1.712a1421987fbp-1", "0x1.23cd0a96b9f2ep-3"),
    ("0x1.be58a490245f2p-3", "0x1.b53ab58ab3758p-2", None),
    ("0x1.16e188d34f84bp-2", "-0x1.7c0dcbb56aea6p-7", "-0x1.00e8e00abd0b8p-1"),
    ("0x1.8ba1a56fccbf6p-4", "0x1.ce8bcb5206681p-1", None),
    ("0x0.0p+0", "-0x1.ad72a0e029566p-4", None),
    ("0x0.0p+0", "0x1.ddd91c7fbdd20p-2", "-0x1.f3b5f5b854bd6p-2"),
    ("0x0.0p+0", "0x0.0p+0", None),
    ("0x1.43e1f246a070ep-4", "-0x1.ec4ffc934b8b6p-5", None),
    ("0x0.0p+0", "-0x1.a3de685414390p-1", None),
    ("-0x1.0000000000000p+0", "0x0.0p+0", None),
]


class TestCorrelators:
    def test_constant_agreement(self):
        corr = correlators(constant_strategy(BILOCAL))
        assert corr.i_value == 1.0
        assert corr.j_value == 0.0
        assert bell_value(corr, 2) == 1.0

    def test_setting_sensitive_sources(self):
        corr = correlators(constant_strategy(BILOCAL, a=(1, -1)))
        assert corr.i_value == 0.0
        assert corr.j_value == 1.0
        assert bell_value(corr, 2) == 1.0

    def test_p_product(self):
        corr = correlators(constant_strategy(SINGLE, p=-1))
        assert corr.p_value == -1.0
        assert abs(objective_value(corr, 1, 0.5) - 1.5) < 1e-12

    def test_tilted_objective_needs_p(self):
        corr = correlators(constant_strategy(SINGLE))
        with pytest.raises(ValueError, match="p tables"):
            objective_value(corr, 1, 0.5)

    def test_sign_flip_symmetry(self):
        # flipping one source agent and compensating at the receiver
        # leaves both correlators alone
        rng = np.random.default_rng(7)
        strategy = random_strategy(BILOCAL, 3, rng)
        base = correlators(strategy)
        flipped = HiddenStrategy(
            shape=strategy.shape,
            alphabet=strategy.alphabet,
            weights=strategy.weights,
            a_tables=(
                tuple(tuple(-v for v in row) for row in strategy.a_tables[0]),
                strategy.a_tables[1],
            ),
            b_tables=(
                tuple(tuple(-v for v in row) for row in strategy.b_tables[0]),
            ),
        )
        after = correlators(flipped)
        assert abs(after.i_value - base.i_value) < 1e-12
        assert abs(after.j_value - base.j_value) < 1e-12

    def test_label_relabel_symmetry(self):
        # permuting one source's label values with its weights and table
        # columns is a pure renaming
        rng = np.random.default_rng(11)
        strategy = random_strategy(BILOCAL, 2, rng)
        base = correlators(strategy)
        perm = (1, 0)

        def permute_columns(row, reach):
            # source 1 is the leading index in both tables here
            width = len(row) // 2
            blocks = [row[v * width : (v + 1) * width] for v in range(2)]
            return tuple(blocks[perm[0]] + blocks[perm[1]]) if reach else tuple(
                row[perm[v]] for v in range(2)
            )

        relabeled = HiddenStrategy(
            shape=strategy.shape,
            alphabet=strategy.alphabet,
            weights=(
                tuple(strategy.weights[0][perm[v]] for v in range(2)),
                strategy.weights[1],
            ),
            a_tables=(
                tuple(permute_columns(row, False) for row in strategy.a_tables[0]),
                strategy.a_tables[1],
            ),
            b_tables=(
                tuple(permute_columns(row, True) for row in strategy.b_tables[0]),
            ),
        )
        after = correlators(relabeled)
        assert abs(after.i_value - base.i_value) < 1e-12
        assert abs(after.j_value - base.j_value) < 1e-12

    def test_correlators_are_pinned(self):
        rng = np.random.default_rng(2024)
        for expected in PINNED_CORRELATORS:
            shape = (SINGLE, BILOCAL)[int(rng.integers(2))]
            strategy = random_strategy(
                shape, int(rng.integers(2, 5)), rng, tilted=bool(rng.integers(2))
            )
            corr = correlators(strategy)
            p_hex = None if corr.p_value is None else corr.p_value.hex()
            assert (corr.i_value.hex(), corr.j_value.hex(), p_hex) == expected


STAR3 = NetworkShape(k=3, m=1, n=3, partition=(0, 1, 2, 3), reach=((1, 2, 3),))
STAR5 = NetworkShape(
    k=5, m=1, n=5, partition=(0, 1, 2, 3, 4, 5), reach=((1, 2, 3, 4, 5),)
)
# one source agent serving both sources, and two receivers that see
# different sources: block columns and reach columns that differ
SPLIT = NetworkShape(k=1, m=2, n=2, partition=(0, 2), reach=((1,), (1, 2)))


STAR7 = NetworkShape(k=7, m=1, n=7, partition=tuple(range(8)), reach=(tuple(range(1, 8)),))


class TestGridScorer:
    """The refine pass's batched scorer, one restart row at a time, against
    the oracle's whole-grid sum, compared bit for bit (float.hex), never
    approximately."""

    RESTARTS = 3

    @staticmethod
    def weights_with_zeros(sizes, rng):
        # about half the sources get an exact 0.0 on one label
        weights = []
        for size in sizes:
            w = [float(v) for v in rng.dirichlet(np.ones(size))]
            if rng.integers(2):
                w[int(rng.integers(size))] = 0.0
            weights.append(tuple(w))
        return weights

    @staticmethod
    def slab(weights, sizes):
        """Per-restart weights as the scorer's (source, label value, restart) array."""
        out = np.zeros((len(sizes), max(sizes), len(weights)))
        for r, per_source in enumerate(weights):
            for i, w in enumerate(per_source):
                out[i, : len(w), r] = w
        return out

    @staticmethod
    def objectives(shape, sizes, beta, weights, tables):
        """Each restart's whole-grid sums and objective, from the oracle."""
        sums = [grid_sums(label_grid(shape, sizes), w, *t) for w, t in zip(weights, tables)]
        return sums, [objective_value(want, shape.k, beta).hex() for want in sums]

    def assert_rows_match(self, climb, shape, sizes, beta, weights, tables):
        """The scorer's settled totals and objectives, one restart at a time."""
        sums, objectives = self.objectives(shape, sizes, beta, weights, tables)
        for r, want in enumerate(sums):
            totals = [want.i_value, want.j_value] + ([want.p_value] if beta is not None else [])
            got = climb.totals[: len(totals), r].tolist()
            assert [v.hex() for v in got] == [v.hex() for v in totals]
            assert climb.value[r].item().hex() == objectives[r]

    @pytest.mark.parametrize("beta", [None, 0.7], ids=["untilted", "tilted"])
    @pytest.mark.parametrize(
        "shape, alphabet",
        [
            (SINGLE, 4),
            (BILOCAL, 2),
            (BILOCAL, (2, 3)),
            (SPLIT, (3, 2)),
            (STAR3, 2),
            (STAR5, 2),
        ],
        ids=["single4", "bilocal2", "bilocal23", "split32", "star3", "star5"],
    )
    def test_flips_and_weight_moves_match_the_grid_sum(self, shape, alphabet, beta):
        rng = np.random.default_rng(31)
        sizes = classical._normalize_alphabet(shape, alphabet)
        for _ in range(3):  # fresh tables and weights in a new batch
            tables = []
            for _ in range(self.RESTARTS):
                a, b, p = random_tables(shape, sizes, beta is not None, rng)
                tables.append(
                    (
                        [[list(row) for row in table] for table in a],
                        [[list(row) for row in table] for table in b],
                        None if p is None else [list(row) for row in p],
                    )
                )
            # every row of a restart's tables in flip order, and each entry's place
            rows = [
                [row for table in a + b for row in table] + (p or [])
                for a, b, p in tables
            ]
            places = [(i, e) for i, row in enumerate(rows[0]) for e in range(len(row))]
            weights = [self.weights_with_zeros(sizes, rng) for _ in range(self.RESTARTS)]
            entries = np.array([sum(r, []) for r in rows], dtype=np.int8).T.copy()
            climb = classical._Climb(shape, sizes, beta, entries, self.slab(weights, sizes))
            assert len(climb.tables) == len(places)
            self.assert_rows_match(climb, shape, sizes, beta, weights, tables)
            for _ in range(40):
                keep = rng.integers(2, size=self.RESTARTS).astype(bool)
                if rng.random() < 0.25:
                    candidate = [self.weights_with_zeros(sizes, rng) for _ in weights]
                    values = climb.weigh(self.slab(candidate, sizes))
                    _, want = self.objectives(shape, sizes, beta, candidate, tables)
                    assert [v.hex() for v in values.tolist()] == want
                    climb.settle(keep)
                    weights = [c if k else w for c, k, w in zip(candidate, keep, weights)]
                else:
                    entry = int(rng.integers(len(places)))
                    i, e = places[entry]
                    values = climb.flip(entry)
                    for row in rows:
                        row[i][e] = -row[i][e]
                    _, want = self.objectives(shape, sizes, beta, weights, tables)
                    assert [v.hex() for v in values.tolist()] == want
                    climb.settle(keep)
                    for row, kept in zip(rows, keep):
                        if not kept:  # restored, as a rejected flip is
                            row[i][e] = -row[i][e]
                self.assert_rows_match(climb, shape, sizes, beta, weights, tables)
                assert climb.tables.T.tolist() == [sum(r, []) for r in rows]

    def test_point_mass_seed_strategy_matches(self):
        # the refine pass first scores the scan's point-mass strategy,
        # given as tuples: all weight on one label, every other label 0.0
        report = max_deterministic(STAR3, 2, beta=0.7, refine_draws=0)
        strategy = report.strategy
        tables = (strategy.a_tables, strategy.b_tables, strategy.p_tables)
        climb = classical._Climb(STAR3, strategy.alphabet, 0.7, *classical._restart_arrays(strategy))
        self.assert_rows_match(
            climb, STAR3, strategy.alphabet, 0.7, [strategy.weights], [tables]
        )
        assert climb.value[0] == report.value
        assert climb.strategy(0) == strategy


# (shape, alphabet, beta of its tilted run): single sources at alphabets 4
# and 3, the bilocal network, one source agent serving two receivers, stars
REFINE_CASES = [
    (SINGLE, 4, 0.7),
    (SINGLE, 3, 0.7),
    (BILOCAL, 2, 0.7),
    (BILOCAL, (2, 3), 0.5),
    (SPLIT, (3, 2), 0.7),
    (STAR3, 2, 0.7),
    (STAR5, 2, 0.7),
    (STAR7, 2, 0.7),
]
REFINE_IDS = ["single4", "single3", "bilocal2", "bilocal23", "split32", "star3", "star5", "star7"]


class TestRefineDraws:
    """classical._refine_draws: five bulk arrays, in range, in the
    documented order, and the same for the same seed."""

    @pytest.mark.parametrize("draws, steps", [(40, 60), (1, 60), (40, 0), (3, 5)])
    @pytest.mark.parametrize("tilted", [False, True], ids=["untilted", "tilted"])
    @pytest.mark.parametrize(
        "shape, alphabet",
        [(SINGLE, 4), (SINGLE, 1), (BILOCAL, (2, 3)), (SPLIT, (3, 2)), (STAR3, 2), (STAR3, 1)],
        ids=["chsh4", "chsh1", "bilocal23", "split32", "star3", "star3-1"],
    )
    def test_draws_are_in_range(self, shape, alphabet, tilted, draws, steps):
        sizes = classical._normalize_alphabet(shape, alphabet)
        tables, weights, sources, vertices, etas = classical._refine_draws(
            shape, sizes, tilted, make_rng(5), draws, steps
        )
        entries = sum(classical._table_bits(shape, sizes, tilted)[2])
        # restart 0 starts from the seed strategy: one table fewer than draws
        assert tables.dtype == np.int8 and tables.shape == (draws - 1, entries)
        assert set(np.unique(tables).tolist()) <= {-1, 1}
        assert weights.shape == (shape.n, max(sizes), draws)
        for i, size in enumerate(sizes):
            assert (weights[i, :size] >= 0).all() and not weights[i, size:].any()
            assert all(abs(math.fsum(w) - 1) <= 1e-12 for w in weights[i, :size].T.tolist())
        assert sources.shape == vertices.shape == etas.shape == (steps, draws)
        assert ((0 <= sources) & (sources < shape.n)).all()
        assert ((0 <= vertices) & (vertices < np.asarray(sizes)[sources])).all()
        assert ((0.1 <= etas) & (etas < 1.0)).all()

    def test_draws_follow_the_documented_order(self):
        sizes, draws, steps = (2, 3), 4, 6
        got = classical._refine_draws(BILOCAL, sizes, True, make_rng(9), draws, steps)
        rng = make_rng(9)
        entries = sum(classical._table_bits(BILOCAL, sizes, True)[2])
        tables = 1 - 2 * rng.integers(2, size=(draws - 1, entries), dtype=np.int8)
        per_source = [rng.dirichlet(np.ones(size), size=draws) for size in sizes]
        sources = rng.integers(BILOCAL.n, size=(steps, draws))
        vertices = rng.integers(np.asarray(sizes)[sources])
        etas = rng.uniform(0.1, 1.0, size=(steps, draws))
        assert np.array_equal(got[0], tables)
        for i, w in enumerate(per_source):
            assert np.array_equal(got[1][i, : sizes[i]], w.T)
        for array, want in zip(got[2:], (sources, vertices, etas)):
            assert np.array_equal(array, want)

    @pytest.mark.parametrize("seed", [0, 7, 901])
    def test_same_seed_same_draws(self, seed):
        one, two = make_rng(seed), make_rng(seed)
        first = classical._refine_draws(STAR3, (2, 2, 2), True, one, 40, 60)
        second = classical._refine_draws(STAR3, (2, 2, 2), True, two, 40, 60)
        for a, b in zip(first, second):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert one.bit_generator.state == two.bit_generator.state


class TestBatchedRefine:
    """classical._refine climbs every restart at once, oracles.refine one
    after another: the same value (float.hex), the same strategy and the
    same generator state afterwards."""

    @staticmethod
    def assert_same_pass(shape, alphabet, beta, seed, draws=40, steps=60):
        sizes = classical._normalize_alphabet(shape, alphabet)
        start = max_deterministic(shape, sizes, beta=beta, refine_draws=0).strategy
        batched, serial = make_rng(seed), make_rng(seed)
        value, strategy, _ = classical._refine(shape, sizes, beta, start, batched, draws, steps)
        want_value, want_strategy = refine(shape, sizes, beta, start, serial, draws, steps)
        assert type(value) is float
        assert value.hex() == want_value.hex()
        assert strategy.to_json() == want_strategy.to_json()
        assert batched.bit_generator.state == serial.bit_generator.state

    @pytest.mark.parametrize("seed", [0, 7, 901])
    @pytest.mark.parametrize("tilted", [False, True], ids=["untilted", "tilted"])
    @pytest.mark.parametrize("shape, alphabet, beta", REFINE_CASES, ids=REFINE_IDS)
    def test_matches_the_serial_pass(self, shape, alphabet, beta, tilted, seed):
        self.assert_same_pass(shape, alphabet, beta if tilted else None, seed)

    @pytest.mark.parametrize("draws, steps", [(0, 60), (1, 60), (40, 0)])
    @pytest.mark.parametrize("tilted", [False, True], ids=["untilted", "tilted"])
    @pytest.mark.parametrize(
        "shape, alphabet", [(SINGLE, 4), (BILOCAL, (2, 3)), (STAR3, 2)],
        ids=["single4", "bilocal23", "star3"],
    )
    def test_short_passes_match(self, shape, alphabet, tilted, draws, steps):
        self.assert_same_pass(shape, alphabet, 0.5 if tilted else None, 7, draws, steps)

    @pytest.mark.parametrize("tilted", [False, True], ids=["untilted", "tilted"])
    @pytest.mark.parametrize("shape", [SINGLE, STAR3], ids=["chsh", "star3"])
    def test_alphabet_one_matches(self, shape, tilted):
        # one label per source: every weight move walks to the only vertex
        self.assert_same_pass(shape, 1, 0.7 if tilted else None, 7)


class TestStrategyValidation:
    def test_unnormalized_weights(self):
        with pytest.raises(ValueError, match="distribution"):
            HiddenStrategy(
                shape=SINGLE,
                alphabet=(2,),
                weights=((0.5, 0.4),),
                a_tables=(((1, 1), (1, 1)),),
                b_tables=(((1, 1), (1, 1)),),
            )

    def test_wrong_table_width(self):
        with pytest.raises(ValueError, match="width"):
            HiddenStrategy(
                shape=SINGLE,
                alphabet=(2,),
                weights=((0.5, 0.5),),
                a_tables=(((1,), (1, 1)),),
                b_tables=(((1, 1), (1, 1)),),
            )

    def test_non_sign_entry(self):
        with pytest.raises(ValueError, match="-1 or \\+1"):
            HiddenStrategy(
                shape=SINGLE,
                alphabet=(2,),
                weights=((0.5, 0.5),),
                a_tables=(((1, 0), (1, 1)),),
                b_tables=(((1, 1), (1, 1)),),
            )

    def test_json_round_trip(self):
        rng = np.random.default_rng(3)
        strategy = random_strategy(BILOCAL, 2, rng, tilted=True)
        data = json.loads(json.dumps(strategy.to_json()))
        fields = ("alphabet", "weights", "a_tables", "b_tables", "p_tables")
        assert set(data) == {"shape", *fields}
        again = HiddenStrategy(
            shape=NetworkShape(**data["shape"]), **{key: data[key] for key in fields}
        )
        assert again == strategy


class TestScan:
    def test_canonical_two_source_shape_is_exactly_one(self):
        report = max_deterministic(BILOCAL, 2, refine_draws=10)
        assert report.value == 1.0
        # the seed, then per restart its start, 16 flips per sweep run and 60 moves
        assert report.scanned in {1 + 10 * (1 + sweeps * 16 + 60) for sweeps in range(1, 5)}
        assert report.stochastic_value <= 1.0 + 1e-9

    def test_single_source_default_alphabet(self):
        report = max_deterministic(SINGLE, refine_draws=10)
        assert report.alphabet == (4,)
        assert report.value == 1.0
        assert report.strategy.a_tables == (((1,) * 4, (1,) * 4),)

    def test_reachable_matches_full(self):
        # both oracles, and the closed form, on the pair network
        sizes = (2, 2)
        value, key, scanned = loop_scan(BILOCAL, sizes, None)
        reachable_value, reachable_strategy, _ = _scan_reachable(BILOCAL, sizes, None)
        report = max_deterministic(BILOCAL, sizes, refine_draws=5)
        assert value == reachable_value == report.value == 1.0
        assert key_strategy(BILOCAL, sizes, None, key) == reachable_strategy == report.strategy

    def test_large_shape_falls_back(self):
        # past the budget as a count of point-mass strategies (2.1e9), which
        # only sizes the default alphabet: the closed form still holds
        shape = NetworkShape.from_layout(star_layout(3))
        assert scan_size(shape, 2) is None
        report = max_deterministic(shape, 2, refine_draws=5)
        assert report.value == 1.0
        assert report.stochastic_value <= report.value + 1e-9

    def test_tilted_single_source(self):
        report = max_deterministic(SINGLE, 2, beta=0.7, refine_draws=10)
        assert abs(report.value - 1.7) < 1e-12
        assert report.strategy.p_tables is not None
        assert report.stochastic_value <= report.value + 1e-9

    def test_tilted_two_source_reachable(self):
        report = max_deterministic(BILOCAL, 2, beta=0.5, refine_draws=5)
        value, strategy, _ = _scan_reachable(BILOCAL, (2, 2), 0.5)
        assert report.value == value == 1.5
        assert report.strategy == strategy

    @pytest.mark.parametrize("beta", [None, 0.7], ids=["untilted", "tilted"])
    @pytest.mark.parametrize(
        "name, alphabet",
        [
            pytest.param(name, 2, id=name)
            for name in (
                *(f"star({n})" for n in range(1, 6)),
                "chsh",
                "example-a",
                "example-b",
                "five-one-three-split",
                "ghz-split(4,2)",
            )
        ]
        + [pytest.param("example-a", (2, 3), id="bilocal23")],
    )
    def test_reachable_scan_matches_oracle(self, name, alphabet, beta):
        shape = NetworkShape.from_layout(scenarios.builtin_scenario(name).layout)
        sizes = classical._normalize_alphabet(shape, alphabet)
        report = max_deterministic(shape, sizes, beta=beta, refine_draws=0)
        value, strategy, _ = _scan_reachable(shape, sizes, beta)
        assert report.value == value
        assert report.strategy.to_json() == strategy.to_json()

    @pytest.mark.parametrize(
        "shape, alphabet, beta",
        [
            (SINGLE, 2, None),
            (SINGLE, 2, 0.7),
            (SINGLE, 3, None),
            (SINGLE, 3, 0.7),
            (BILOCAL, 2, None),
            (BILOCAL, 2, 0.3),
            (BILOCAL, (2, 3), None),
        ],
        ids=[
            "single2",
            "single2-tilted",
            "single3",
            "single3-tilted",
            "bilocal2",
            "bilocal2-tilted",
            "bilocal23",
        ],
    )
    def test_vectorized_scan_matches_loop(self, shape, alphabet, beta):
        # the closed form against the literal enumeration of every table
        # under every point label
        sizes = classical._normalize_alphabet(shape, alphabet)
        value, key, scanned = loop_scan(shape, sizes, beta)
        report = max_deterministic(shape, sizes, beta=beta, refine_draws=0)
        assert report.value == value
        assert key == (0, (0,) * len(classical._table_bits(shape, sizes, beta is not None)[2]))
        assert report.strategy == key_strategy(shape, sizes, beta, key)
        assert scanned == scan_size(shape, sizes, tilted=beta is not None)

    def test_budget_refusal(self):
        # below the refine pass's label-grid terms
        with pytest.raises(ValueError, match="budget"):
            max_deterministic(BILOCAL, 2, budget=100)

    def test_refine_over_budget_is_refused_before_scanning(self, monkeypatch):
        # at alphabet 512 the refine pass would sum its 512-label grid for
        # every flip of 2048 table entries: about 1.7e8 terms
        class Refined(Exception):
            pass

        def refine_pass(*args):
            raise Refined

        monkeypatch.setattr(classical, "_refine", refine_pass)
        with pytest.raises(Refined):
            max_deterministic(SINGLE, 256)
        with pytest.raises(ValueError, match="refine pass .* exceeds the budget of 1.000e"):
            max_deterministic(SINGLE, 512)

    def test_default_alphabet_choices(self):
        assert default_alphabet(SINGLE) == 4
        assert default_alphabet(BILOCAL) == 2

    def test_option_validation(self):
        # the closed form has no scan to pick
        with pytest.raises(TypeError, match="mode"):
            max_deterministic(SINGLE, 2, mode="full")
        with pytest.raises(ValueError, match="beta"):
            max_deterministic(SINGLE, 2, beta=-0.2)

    def test_seeded_refinement_is_deterministic(self):
        one = max_deterministic(BILOCAL, 2, seed=5)
        two = max_deterministic(BILOCAL, 2, seed=5)
        assert one.stochastic_value == two.stochastic_value
        assert one.scanned == two.scanned > 0
        # with no restarts the pass scores the seed strategy alone
        assert max_deterministic(BILOCAL, 2, seed=5, refine_draws=0).scanned == 1

    @pytest.mark.parametrize(
        "shape, alphabet, beta, value, strategy",
        [
            (
                SINGLE,
                4,
                0.7,
                "1.7000000000000006",
                {
                    "shape": {"k": 1, "m": 1, "n": 1, "partition": [0, 1], "reach": [[1]]},
                    "alphabet": [4],
                    "weights": [
                        [
                            0.17946675859265546,
                            0.5228984696701848,
                            0.25823927804046487,
                            0.039395493696695094,
                        ]
                    ],
                    "a_tables": [[[-1, 1, -1, 1], [1, -1, -1, -1]]],
                    "b_tables": [[[-1, -1, -1, 1], [-1, 1, -1, 1]]],
                    "p_tables": [[1, 1, 1, 1]],
                },
            ),
            (
                # no restart beats the seed strategy at this seed
                BILOCAL,
                2,
                None,
                "1.0",
                {
                    "shape": {
                        "k": 2,
                        "m": 1,
                        "n": 2,
                        "partition": [0, 1, 2],
                        "reach": [[1, 2]],
                    },
                    "alphabet": [2, 2],
                    "weights": [[1.0, 0.0], [1.0, 0.0]],
                    "a_tables": [[[1, 1], [1, 1]], [[1, 1], [1, 1]]],
                    "b_tables": [[[1, 1, 1, 1], [1, 1, 1, 1]]],
                },
            ),
        ],
        ids=["single4-tilted", "bilocal2"],
    )
    def test_seeded_refinement_is_pinned(self, shape, alphabet, beta, value, strategy):
        # seed-7 results of the refine pass, pinned: any change to its
        # draw order or summation order moves them
        report = max_deterministic(shape, alphabet, beta=beta, seed=7)
        assert repr(report.stochastic_value) == value
        assert report.stochastic_strategy.to_json() == strategy

    def test_weight_walk_renormalizes_left_to_right(self):
        # the plain float fold, which Python 3.12's compensated sum
        # would round to 1.0: the pins were walked with the fold
        assert classical._left_sum([0.1] * 10) == 0.9999999999999999
        assert classical._left_sum([1.0, 2.0**-53, 2.0**-53]) == 1.0
        # a compensated renormalization walks this seed to other weights
        report = max_deterministic(SINGLE, (3,), seed=0)
        assert report.stochastic_strategy.weights == (
            (0.3794852371420029, 0.5421185165346941, 0.07839624632330314),
        )


class TestVerifyBound:
    def test_canonical_shape_certifies(self):
        report = verify_bound(BILOCAL, 2, refine_draws=10)
        assert report.passed
        assert report.deterministic_max == 1.0
        assert report.classical_bound == 1.0
        assert report.stochastic_max <= 1.0 + 1e-9

    def test_tilted_bound(self):
        report = verify_bound(SINGLE, 2, beta=0.7, refine_draws=10)
        assert report.classical_bound == 1.7
        assert abs(report.deterministic_max - 1.7) < 1e-12

    def test_stochastic_excess_raises(self, monkeypatch):
        bad = constant_strategy(BILOCAL)

        def fake_refine(shape, alphabet, beta, seed, rng, draws, steps):
            return 1.001, bad, 1

        monkeypatch.setattr(classical, "_refine", fake_refine)
        with pytest.raises(BoundViolation, match="stochastic refinement"):
            verify_bound(BILOCAL, 2)
