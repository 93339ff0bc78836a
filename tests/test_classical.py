"""Classical hidden-strategy certification tests."""

import json
import math

import numpy as np
import pytest

from conftest import bilocal_layout, chsh_layout, star_layout
from netbell import classical
from netbell.classical import (
    BoundViolation,
    HiddenStrategy,
    NetworkShape,
    bell_value,
    default_alphabet,
    max_deterministic,
    objective_value,
    scan_size,
    verify_bound,
)
from oracles import correlators, loop_scan

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


def random_strategy(shape, alphabet, rng, tilted=False):
    sizes = classical._normalize_alphabet(shape, alphabet)
    a_tables, b_tables, p_tables = classical._random_tables(
        shape, sizes, tilted, rng
    )
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
        assert report.mode == "full"
        assert report.scanned == scan_size(BILOCAL, 2)
        assert report.stochastic_value <= 1.0 + 1e-9

    def test_single_source_default_alphabet(self):
        report = max_deterministic(SINGLE, refine_draws=10)
        assert report.alphabet == (4,)
        assert report.value == 1.0
        assert report.scanned == scan_size(SINGLE, 4)

    def test_reachable_matches_full(self):
        full = max_deterministic(BILOCAL, 2, mode="full", refine_draws=5)
        reachable = max_deterministic(BILOCAL, 2, mode="reachable", refine_draws=5)
        assert full.value == reachable.value == 1.0

    def test_large_shape_falls_back(self):
        shape = NetworkShape.from_layout(star_layout(3))
        report = max_deterministic(shape, 2, refine_draws=5)
        assert report.mode == "reachable"
        assert report.value == 1.0

    def test_tilted_single_source(self):
        report = max_deterministic(SINGLE, 2, beta=0.7, refine_draws=10)
        assert abs(report.value - 1.7) < 1e-12
        assert report.strategy.p_tables is not None
        assert report.stochastic_value <= report.value + 1e-9

    def test_tilted_two_source_reachable(self):
        report = max_deterministic(
            BILOCAL, 2, beta=0.5, mode="reachable", refine_draws=5
        )
        assert abs(report.value - 1.5) < 1e-12

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
        sizes = classical._normalize_alphabet(shape, alphabet)
        expected = loop_scan(shape, sizes, beta)
        assert classical._scan_full(shape, sizes, beta) == expected
        assert expected[2] == scan_size(shape, sizes, tilted=beta is not None)

    @pytest.mark.parametrize("shape, beta", [(SINGLE, 0.7), (BILOCAL, None)])
    def test_slice_size_does_not_change_the_scan(self, monkeypatch, shape, beta):
        # a slice smaller than the last table: every other table is
        # iterated in Python around it
        sizes = classical._normalize_alphabet(shape, 2)
        expected = loop_scan(shape, sizes, beta)
        monkeypatch.setattr(classical, "_SLICE", 2)
        assert classical._scan_full(shape, sizes, beta) == expected

    def test_budget_refusal(self):
        with pytest.raises(ValueError, match="budget"):
            max_deterministic(BILOCAL, 2, mode="full", budget=1000)

    def test_refine_over_budget_is_refused_before_scanning(self, monkeypatch):
        # at alphabet 512 the refine pass would sum its 512-label grid for
        # every flip of 2048 table entries: about 1.7e8 terms
        class Scanned(Exception):
            pass

        def scan(*args):
            raise Scanned

        monkeypatch.setattr(classical, "_scan_full", scan)
        monkeypatch.setattr(classical, "_scan_reachable", scan)
        with pytest.raises(Scanned):
            max_deterministic(SINGLE, 256)
        with pytest.raises(ValueError, match="refine pass .* exceeds the budget of 1.000e"):
            max_deterministic(SINGLE, 512)

    def test_oversize_scan_warns(self, monkeypatch):
        monkeypatch.setattr(classical, "WARN_LIMIT", 100)
        with pytest.warns(UserWarning, match="enumerating"):
            report = max_deterministic(SINGLE, 2, refine_draws=0)
        assert report.value == 1.0

    def test_default_alphabet_choices(self):
        assert default_alphabet(SINGLE) == 4
        assert default_alphabet(BILOCAL) == 2

    def test_option_validation(self):
        with pytest.raises(ValueError, match="mode"):
            max_deterministic(SINGLE, 2, mode="partial")
        with pytest.raises(ValueError, match="beta"):
            max_deterministic(SINGLE, 2, beta=-0.2)

    def test_seeded_refinement_is_deterministic(self):
        one = max_deterministic(BILOCAL, 2, mode="reachable", seed=5)
        two = max_deterministic(BILOCAL, 2, mode="reachable", seed=5)
        assert one.stochastic_value == two.stochastic_value

    @pytest.mark.parametrize(
        "shape, alphabet, beta, value, strategy",
        [
            (
                SINGLE,
                4,
                0.7,
                "1.7000000000000002",
                {
                    "shape": {"k": 1, "m": 1, "n": 1, "partition": [0, 1], "reach": [[1]]},
                    "alphabet": [4],
                    "weights": [
                        [
                            0.19686770150711563,
                            0.3958741018069986,
                            0.1581968045246664,
                            0.24906139216121942,
                        ]
                    ],
                    "a_tables": [[[1, 1, 1, 1], [1, 1, 1, 1]]],
                    "b_tables": [[[1, 1, 1, 1], [1, 1, 1, 1]]],
                    "p_tables": [[1, 1, 1, 1]],
                },
            ),
            (
                BILOCAL,
                2,
                None,
                "1.0000000000000002",
                {
                    "shape": {
                        "k": 2,
                        "m": 1,
                        "n": 2,
                        "partition": [0, 1, 2],
                        "reach": [[1, 2]],
                    },
                    "alphabet": [2, 2],
                    "weights": [
                        [0.7203506230908565, 0.27964937690914354],
                        [0.8012864101461495, 0.1987135898538506],
                    ],
                    "a_tables": [[[-1, -1], [-1, -1]], [[1, -1], [1, -1]]],
                    "b_tables": [[[-1, 1, -1, 1], [-1, 1, 1, 1]]],
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

    def test_deterministic_excess_raises(self, monkeypatch):
        bad = constant_strategy(BILOCAL)

        def fake_scan(shape, alphabet, beta):
            return 1.25, bad, 7

        monkeypatch.setattr(classical, "_scan_reachable", fake_scan)
        with pytest.raises(BoundViolation, match="above the classical bound") as info:
            verify_bound(BILOCAL, 2, mode="reachable", refine_draws=0)
        assert info.value.strategy == bad
        assert "a_tables" in str(info.value)

    def test_stochastic_excess_raises(self, monkeypatch):
        bad = constant_strategy(BILOCAL)

        def fake_refine(shape, alphabet, beta, seed, rng, draws, steps):
            return 1.001, bad

        monkeypatch.setattr(classical, "_refine", fake_refine)
        with pytest.raises(BoundViolation, match="stochastic refinement"):
            verify_bound(BILOCAL, 2, mode="reachable")
