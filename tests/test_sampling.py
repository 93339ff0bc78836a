"""Sampling layer: exact frames, estimators, and the per-round record.

Statistical assertions run at fixed seeds chosen once so they pass; a seed
change may require re-picking them (4-sigma bands make that rare). The
Born-rule checks compare empirical counts against the exact setting-wise
outcome distributions with a chi-squared statistic held under the 0.999
quantile for its cell count.
"""

import csv
import functools
import itertools
import json
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    FIVE,
    H_FLIP,
    bilocal_layout,
    chsh_layout,
    chsh_selection,
    chsh_y,
    selection_a,
    split_receiver_star_layout,
    star_layout,
    star_selection,
    two_source_group_layout,
)
from netbell import bell, observables, sampling, scenarios, states
from netbell.network import OperatorSelection
from netbell.pauli import PauliString
from netbell.reports import atomic_write
from netbell.sampling import RunConfig, run
from oracles import (
    as_record,
    basis_letters,
    cdf_edges,
    conditionals,
    expectation_combo,
    frame_law,
    invert,
    joint_frame,
    joint_oracle,
    joint_outcomes,
    joint_state,
    lift,
    marginal_hypergeometric,
    outcome_distribution,
    outcomes,
    random_layouts,
    residuals,
    sample_rounds,
    tilted_layouts,
    write_matrices,
    write_rounds,
)

# 0.999 chi-squared quantiles by degrees of freedom.
CHI2_999 = {3: 16.266, 7: 24.322, 15: 37.697}

DATA = Path(__file__).parent / "data"

# Round records pinned as files in tests/data/rounds-<name>.csv; each entry
# is (builtin scenario, RunConfig keywords, beta). The five-round record
# leaves a receiver setting empty.
PINNED_RECORDS = {
    "example-a-direct": ("example-a", dict(rounds=500, seed=1), None),
    "example-a-per-qubit": (
        "example-a",
        dict(rounds=500, seed=1, strategy="per-qubit-discard"),
        None,
    ),
    "chsh-tilted-direct": ("chsh-tilted", dict(rounds=500, seed=1), 0.7),
    "chsh-tilted-per-qubit": (
        "chsh-tilted",
        dict(rounds=500, seed=1, strategy="per-qubit-discard"),
        0.7,
    ),
    "example-a-five-rounds": ("example-a", dict(rounds=5, seed=3), None),
}


# Builtins whose joint state fits the statevector cap: name -> (builtin,
# builtin parameters).
JOINT_SCENARIOS = {
    "chsh": ("chsh", {}),
    "chsh-tilted": ("chsh-tilted", {}),
    "example-a": ("example-a", {}),
    "example-b": ("example-b", {}),
    "star(3)": ("star(3)", {}),
    "star(3)-tilted": ("star(3)", {"phibar": 0.3927}),
}


def _two_source_group_mixed_h():
    layout, selection = two_source_group_layout()
    h = (H_FLIP, FIVE.generators[0], H_FLIP)
    return layout, OperatorSelection(selection.g, h, selection.h_prime)


# Layouts the builtins lack, on joint states within the cap: tilted
# star(3) with its receiver split in two, so every group's receiver
# letters come from two receivers; groups of 10 and 5 qubits whose
# sources differ in h, so the groups' letters differ at the same
# positions; and CHSH measured in Y, which no builtin measures.
# name -> (layout and selection, angles).
JOINT_LAYOUTS = {
    "chsh-y": (chsh_y, [0.7]),
    "star(3)-split-receiver": (
        lambda: (split_receiver_star_layout(3, np.pi / 7), star_selection(3)),
        [0.3, 0.6, 0.9],
    ),
    "two-source-group": (_two_source_group_mixed_h, [0.4, 1.1]),
}


def joint_a(synthesis, pos, x, theta):
    """Source observable pos's A_x terms, lifted to the joint register."""
    obs = synthesis.sources[pos]
    return [(c, lift(synthesis.layout, [p], [obs.agent])) for c, p in obs.a_terms(x, theta)]


def builtin_synthesis(name):
    """The synthesis and angles of one of JOINT_SCENARIOS or JOINT_LAYOUTS."""
    if name in JOINT_LAYOUTS:
        build, thetas = JOINT_LAYOUTS[name]
        return synth(*build(), thetas, allow=True)
    builtin, params = JOINT_SCENARIOS[name]
    return builtin_scenario_synthesis(builtin, **params)


def builtin_scenario_synthesis(name, **params):
    """The synthesis and default angles of a builtin scenario."""
    scenario = scenarios.builtin_scenario(name, **params)
    return synth(
        scenario.layout,
        scenario.selection,
        scenario.thetas,
        allow=scenario.allow_commuting_pair,
    )


def synth(layout, selection, thetas, *, allow=False):
    """The observables of layout and selection, with the angles to run them at."""
    synthesis = observables.synthesize(layout, selection, allow_commuting_pair=allow)
    return synthesis, tuple(thetas)


def stack(distributions):
    """One group's stacked guide table over rows of the given weights on
    every index, reading no strings."""
    return sampling._table(
        [(np.arange(p.size), p, np.zeros((p.size, 1), dtype=np.uint8)) for p in distributions]
    )


def setting_cells(k, m):
    """Every (x, y) setting pair, in product order."""
    return [
        (x, y)
        for x in itertools.product((0, 1), repeat=k)
        for y in itertools.product((0, 1), repeat=m)
    ]


def record_tallies(path, synthesis):
    """The tallies of a round record, read back from its lines: per
    receiver setting, its rounds, the sum of the product of all outcomes
    (times (-1)^|x| at y = 1...1) and of the phase-flip product where it is
    collected. A per-qubit record's receiver outcomes are the products of
    its qubits' columns over each receiver's pieces' letters, times their
    sign."""
    layout, receivers, tilt = synthesis.layout, synthesis.receivers, synthesis.tilt

    def read(row, rec, pieces, column):
        if column in row:
            return int(row[column])
        out = int(pieces[0].phase.real)
        for i, j in rec.qubits:
            group, position = layout.place(i, j)
            bit = 1 << (layout.group_widths[group - 1] - 1 - position)
            if (pieces[group - 1].x | pieces[group - 1].z) & bit:
                out *= int(row[f"q({i},{j})"])
        return out

    sums = {}
    with open(path, newline="") as handle:
        for row in csv.DictReader(handle):
            x, y = row["settings"].split("|")
            product = np.prod([int(row[f"a{k}"]) for k in range(1, layout.K + 1)])
            for r, (rec, ym) in enumerate(zip(receivers, map(int, y)), start=1):
                product *= read(row, rec, rec.b_pieces(ym), f"b{r}")
            if set(y) == {"1"}:
                product *= (-1) ** x.count("1")
            tally = sums.setdefault(tuple(map(int, y)), [0, 0, 0])
            tally[0] += 1
            tally[1] += product
            if tilt is not None and set(y) == {"0"}:
                tally[2] += np.prod([
                    read(row, rec, block.p_part_pieces, f"p{r}")
                    for r, (rec, block) in enumerate(zip(receivers, tilt.receivers), start=1)
                ])
    out = []
    for y in itertools.product((0, 1), repeat=layout.M):
        rounds, product, flip = sums.get(y, [0, 0, 0])
        collected = synthesis.tilt is not None and not any(y)
        out.append(sampling.SettingTally(y, rounds, product, flip if collected else None))
    return tuple(out)


def write_pinned_record(name, path):
    builtin, config, beta = PINNED_RECORDS[name]
    synthesis, thetas = builtin_scenario_synthesis(builtin)
    run(synthesis, thetas, RunConfig(**config), beta=beta, record_path=path)


class TestRunConfig:
    def test_rejects_zero_rounds(self):
        with pytest.raises(ValueError, match="rounds"):
            RunConfig(rounds=0)

    def test_rejects_rounds_past_the_limit(self):
        RunConfig(rounds=sampling.MAX_ROUNDS)
        for rounds in (sampling.MAX_ROUNDS + 1, 2**63, 2**70):
            with pytest.raises(ValueError, match="rounds must be at most"):
                RunConfig(rounds=rounds)

    def test_rejects_unknown_strategy(self):
        with pytest.raises(ValueError, match="strategy"):
            RunConfig(rounds=10, strategy="adaptive")

class TestFrames:
    @pytest.mark.parametrize("mode", sampling.MODES)
    @pytest.mark.parametrize("setting", [((0,), (0,)), ((1,), (0,)), ((0,), (1,)), ((1,), (1,))])
    def test_chsh_distribution_matches_projector_oracle(self, mode, setting):
        layout = chsh_layout(np.pi / 8)
        selection = chsh_selection()
        synthesis, thetas = synth(layout, selection, [0.3])
        x, y = setting
        dist = outcome_distribution(synthesis, thetas, x, y, mode=mode)
        state = joint_state(layout)
        receiver = synthesis.receivers[0]
        a_terms = joint_a(synthesis, 0, x[0], thetas[0])
        b_op = lift(layout, receiver.b_pieces(y[0]))
        oracle = joint_oracle(state, [a_terms, b_op])
        for outcome, expected in oracle.items():
            assert dist.get(outcome, 0.0) == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("mode", sampling.MODES)
    def test_bilocal_distribution_matches_projector_oracle(self, mode):
        layout = bilocal_layout(np.pi / 5)
        selection = selection_a()
        synthesis, thetas = synth(layout, selection, [0.4, 1.1], allow=True)
        x, y = (1, 0), (0,)
        dist = outcome_distribution(synthesis, thetas, x, y, mode=mode)
        state = joint_state(layout)
        oracle = joint_oracle(
            state,
            [
                joint_a(synthesis, 0, x[0], thetas[0]),
                joint_a(synthesis, 1, x[1], thetas[1]),
                lift(layout, synthesis.receivers[0].b0_pieces),
            ],
        )
        for outcome, expected in oracle.items():
            assert dist.get(outcome, 0.0) == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("mode", sampling.MODES)
    def test_tilted_chsh_distribution_includes_phase_flip(self, mode):
        layout = chsh_layout(np.pi / 8)
        selection = chsh_selection(tilted=True)
        synthesis, thetas = synth(layout, selection, [0.6])
        dist = outcome_distribution(synthesis, thetas, (0,), (0,), mode=mode)
        state = joint_state(layout)
        oracle = joint_oracle(
            state,
            [
                joint_a(synthesis, 0, 0, thetas[0]),
                lift(layout, synthesis.receivers[0].b0_pieces),
                lift(layout, synthesis.tilt.receivers[0].p_part_pieces),
            ],
        )
        for outcome, expected in oracle.items():
            assert dist.get(outcome, 0.0) == pytest.approx(expected, abs=1e-9)

    def test_distribution_is_normalized_and_sign_valued(self):
        layout = star_layout(3, np.pi / 5)
        selection = star_selection(3)
        synthesis, thetas = synth(layout, selection, [0.5] * 3)
        dist = outcome_distribution(synthesis, thetas, (0, 1, 0), (0,))
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-9)
        for outcome in dist:
            assert set(outcome) <= {1, -1}

    def test_agent_order_does_not_change_the_distribution(self):
        layout = bilocal_layout(np.pi / 6)
        selection = selection_a()
        synthesis, thetas = synth(layout, selection, [0.3, 0.9], allow=True)
        x = (0, 1)
        forward = outcome_distribution(synthesis, thetas, x, (0,))
        swapped = outcome_distribution(
            synthesis._replace(sources=tuple(reversed(synthesis.sources))),
            tuple(reversed(thetas)),
            tuple(reversed(x)),
            (0,),
        )
        for (a1, a2, b), weight in forward.items():
            assert swapped[(a2, a1, b)] == pytest.approx(weight, abs=1e-12)

    def test_rejects_unknown_mode(self):
        layout = chsh_layout()
        selection = chsh_selection()
        synthesis, thetas = synth(layout, selection, [0.3])
        with pytest.raises(ValueError, match="strategy"):
            outcome_distribution(synthesis, thetas, (0,), (0,), mode="all-at-once")

    @settings(max_examples=20, deadline=None)
    @given(
        phi=st.floats(0.05, np.pi / 2 - 0.05),
        theta=st.floats(0.0, np.pi / 2),
    )
    def test_chsh_single_agent_marginal_matches_expectation(self, phi, theta):
        layout = chsh_layout(phi)
        selection = chsh_selection()
        synthesis, thetas = synth(layout, selection, [theta])
        dist = outcome_distribution(synthesis, thetas, (0,), (0,))
        marginal = sum(a * w for (a, _), w in dist.items())
        expected = expectation_combo(joint_state(layout), joint_a(synthesis, 0, 0, theta))
        assert marginal == pytest.approx(expected, abs=1e-9)


# Every builtin at its defaults, and the tilted star: name -> (builtin,
# builtin parameters).
BASIS_BUILTINS = {name: (name, {}) for name in scenarios.BUILTIN_SCENARIOS}
BASIS_BUILTINS["star-tilted"] = ("star", {"phibar": 0.3927})


def oracle_basis(synthesis, k, y, mode):
    """basis_letters as the (x, z) masks that sampling._basis returns."""
    letters = basis_letters(synthesis, k, y, mode)
    top = synthesis.layout.group_widths[k - 1] - 1
    x = sum(int(letter in "XY") << (top - q) for q, letter in letters.items())
    z = sum(int(letter in "ZY") << (top - q) for q, letter in letters.items())
    return x, z


def bases(route, synthesis):
    """Per strategy, route's basis of every group at every receiver
    setting, or the text of the first CrossCheckError it raises there."""
    layout, out = synthesis.layout, []
    for mode in sampling.MODES:
        try:
            out.append([
                route(synthesis, k, y, mode)
                for y in itertools.product((0, 1), repeat=layout.M)
                for k in layout.source_agents
            ])
        except observables.CrossCheckError as err:
            out.append(str(err))
    return out


class TestBasis:
    """Each group's measured basis, ORed from the observables' pieces as
    bit masks, against the letter-by-letter route of tests/oracles.py,
    which reads the receivers' local letters and the classification."""

    @pytest.mark.parametrize("name", sorted(BASIS_BUILTINS))
    def test_builtin_basis_is_the_letter_route(self, name):
        builtin, params = BASIS_BUILTINS[name]
        synthesis, _ = builtin_scenario_synthesis(builtin, **params)
        want = bases(oracle_basis, synthesis)
        assert not any(isinstance(per_mode, str) for per_mode in want)
        assert bases(sampling._basis, synthesis) == want

    def test_random_layout_basis_is_the_letter_route(self):
        layouts = random_layouts()
        assert len(layouts) == 200
        for index, (layout, selection) in enumerate(layouts):
            synthesis = observables.synthesize(layout, selection)
            assert bases(sampling._basis, synthesis) == bases(oracle_basis, synthesis), index

    def test_tilted_random_layout_basis_is_the_letter_route(self):
        # direct mode measures B0bar and Ppart on every y = 0 receiver
        for index, (layout, selection) in enumerate(tilted_layouts()):
            synthesis = observables.synthesize(layout, selection)
            want = bases(oracle_basis, synthesis)
            assert not any(isinstance(per_mode, str) for per_mode in want), index
            assert bases(sampling._basis, synthesis) == want, index

    @pytest.mark.parametrize("name", ["chsh", "example-a", "star-tilted"])
    def test_tampered_source_piece_fails_alike(self, name):
        # S given each letter on each receiver-held qubit of its group: the
        # letter a receiver measures there passes, and any other one is
        # refused with the same text by both routes.
        builtin, params = BASIS_BUILTINS[name]
        synthesis, _ = builtin_scenario_synthesis(builtin, **params)
        layout, source = synthesis.layout, synthesis.sources[0]
        width = layout.group_widths[source.agent - 1]
        held = [
            layout.place(i, j)[1]
            for i, j, agent in layout.assignment
            if agent > layout.K and layout.place(i, j)[0] == source.agent
        ]
        refusals = []
        for q, letter in itertools.product(held, "XYZ"):
            extra = PauliString("I" * q + letter + "I" * (width - 1 - q))
            tampered = source._replace(s_piece=source.s_piece * extra)
            synthesis_q = synthesis._replace(sources=(tampered,) + synthesis.sources[1:])
            got = bases(sampling._basis, synthesis_q)
            assert got == bases(oracle_basis, synthesis_q), (q, letter)
            refusals += [
                (mode, text) for mode, text in zip(sampling.MODES, got) if isinstance(text, str)
            ]
        # per-qubit-discard also measures the idle qubits direct mode leaves
        assert {mode for mode, _ in refusals} == set(sampling.MODES)
        assert all("would be measured in both" in text for _, text in refusals)


class TestGroupFrames:
    """The sampler's per-group frames against the joint-state frame of
    tests/oracles.py, and its nested draw against Generator.choice."""

    @pytest.mark.parametrize("mode", sampling.MODES)
    @pytest.mark.parametrize("name", sorted(JOINT_SCENARIOS) + sorted(JOINT_LAYOUTS))
    def test_group_frames_multiply_to_the_joint_frame(self, name, mode):
        synthesis, thetas = builtin_synthesis(name)
        layout = synthesis.layout
        frames = sampling._Frames(synthesis, thetas, mode)
        codewords = {}
        per_group = [list(frames.group_frames(k, codewords)) for k in layout.source_agents]
        for x, y in setting_cells(layout.K, layout.M):
            # each group's frame at y runs over (x_k, outcome): its half at x_k
            at = frames.ys.index(y)
            groups = [np.split(per_y[at], 2)[xk] for per_y, xk in zip(per_group, x)]
            joint = joint_frame(synthesis, thetas, x, y, mode)
            product = functools.reduce(np.kron, groups)
            assert np.max(np.abs(product - joint.probabilities)) <= 1e-12
            # Every joint index read through the global masks gives the
            # outcomes its group indices give through the cut masks.
            grid = list(np.indices([g.size for g in groups]).reshape(len(groups), -1))
            masks = [frames.source_masks, frames.receiver_masks(y)]
            joint_masks = [joint.source_masks, joint.receiver_masks]
            if joint.p_masks is not None:
                masks.append(frames.p_masks)
                joint_masks.append(joint.p_masks)
            everywhere = np.arange(product.size)
            for group_masks, global_masks in zip(masks, joint_masks):
                want = joint_outcomes(everywhere, global_masks)
                got = [outcomes(grid, mask) for mask in group_masks]
                assert np.array_equal(got, want)

    def test_one_group_draw_is_rng_choice(self):
        probabilities = np.random.default_rng(3).random(32)
        probabilities[[0, 7, 8, 31]] = 0.0
        probabilities /= probabilities.sum()
        table = stack([probabilities])
        for seed in range(5):
            guided, choice = np.random.default_rng(seed), np.random.default_rng(seed)
            bins = table.locate(guided.random(10000), 0)
            assert np.array_equal(table.index[bins], choice.choice(32, 10000, p=probabilities))
            assert guided.bit_generator.state == choice.bit_generator.state

    def test_frames_are_built_once_per_group_setting(self, monkeypatch, tmp_path):
        # star(3)'s three groups share one codeword, built once per run with
        # a round record; each group's state is built once, and each frame
        # half once
        synthesis, thetas = builtin_synthesis("star(3)")
        built, calls = [], []
        original = sampling._Frames.group_frames

        def spy(self, k, codewords):
            for y, frame in zip(self.ys, original(self, k, codewords)):
                built.append((k, y))
                yield frame

        def counted(name, func):
            def wrapper(*args):
                calls.append(name)
                return func(*args)
            return wrapper

        monkeypatch.setattr(sampling._Frames, "group_frames", spy)
        for module, name in ((states, "codeword_state"), (sampling, "group_state"),
                             (sampling, "basis_probabilities")):
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        run(synthesis, thetas, RunConfig(rounds=2000, seed=1), record_path=tmp_path / "r.csv")
        assert sorted(built) == sorted(itertools.product((1, 2, 3), ((0,), (1,))))
        assert [calls.count(name) for name in ("codeword_state", "group_state")] == [1, 3]
        assert calls.count("basis_probabilities") == 3 * 2 * 2  # per group, x_k and y

    def test_tables_keep_no_group_state(self):
        # once tables returns only the tables are left: each group's state
        # and its two rotations go with its frames
        synthesis, thetas = builtin_scenario_synthesis("ghz-split(14,7)")
        mode = sampling.MODES[0]
        sampling._Frames(synthesis, thetas, mode).tables([])  # searches the logical basis
        frames = sampling._Frames(synthesis, thetas, mode)
        tracemalloc.start()
        try:
            tables, _ = frames.tables([])
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        kept = sum(t.index.nbytes + t.codes.nbytes + t.upper.nbytes + t.start.nbytes for t in tables)
        assert held - kept < 2**14 * 16, (held, kept)

    def test_source_observable_outside_its_group_is_refused(self):
        # pieces of the wrong width: S1's S and T with letters on source 2
        synthesis, thetas = builtin_synthesis("star(3)")
        obs = synthesis.sources[0]
        stray = obs._replace(
            s_piece=PauliString(obs.s_piece.letters + "IZIII"),
            t_piece=PauliString(obs.t_piece.letters + "IIIII"),
        )
        broken = synthesis._replace(sources=(stray, *synthesis.sources[1:]))
        # the law multiplies S by the receivers' piece on the group
        text = "length mismatch: cannot multiply strings on 10 and 5 qubits"
        with pytest.raises(ValueError, match=text):
            run(broken, thetas, RunConfig(rounds=100, seed=1))

    def test_too_many_receiver_settings_are_refused_before_sampling(self, monkeypatch):
        # each group stacks a frame per receiver setting: with the bound
        # lowered to 2, one receiver runs and two are refused before any
        # frame is built
        monkeypatch.setattr(sampling, "MAX_RECEIVER_SETTINGS", 2)
        synthesis, thetas = builtin_synthesis("chsh")
        assert run(synthesis, thetas, RunConfig(rounds=10)).rounds == 10
        monkeypatch.setattr(sampling, "_Frames", None)  # never reached
        synthesis, thetas = builtin_synthesis("star(3)-split-receiver")
        with pytest.raises(ValueError, match=r"^sampling needs 2\^2 receiver settings \(M=2\), more than the 2 allowed$"):
            run(synthesis, thetas, RunConfig(rounds=10))


# Builtins on whose every joint frame, in both strategies, the guide tables
# are compared with the binary search.
GUIDE_SCENARIOS = (
    "chsh",
    "chsh-tilted",
    "example-a",
    "example-b",
    "five-one-three-split",
    "ghz-split(4,2)",
    "star(3)",
)


def zero_run_distributions(seed, count=40):
    """Random distributions over 2..64 outcomes, each with runs of zero
    probability at the start, inside and at the end."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        size = int(rng.integers(2, 65))
        p = rng.random(size)
        lead, trail = rng.integers(0, size // 4 + 1, size=2)
        p[:lead] = 0.0
        p[size - trail :] = 0.0
        inside = int(rng.integers(0, size))
        p[inside : inside + int(rng.integers(1, 8))] = 0.0
        if not p.any():
            p[size // 2] = 1.0
        out.append(p / p.sum())
    return out


# Distributions whose edges sit on or next to bucket boundaries: uniform
# over 1..200 outcomes, and dyadic weights whose edges are exact.
ALIGNED = [np.full(n, 1.0 / n) for n in range(1, 201)] + [
    np.array([0.5, 0.25, 0.0, 0.125, 0.125]),
    np.array([0.0, 0.0, 0.25, 0.25, 0.0, 0.5, 0.0]),
    np.array([2.0**-k for k in range(1, 40)] + [2.0**-39]),
]


def probe_points(edges, buckets, seed):
    """Uniforms at every edge below 1 and just under it, at 0 and just
    under 1, at every boundary of buckets equal buckets and just under it,
    and 10^4 at random."""
    inner = edges[edges < 1.0]
    bounds = np.arange(buckets) / buckets
    return np.concatenate([
        inner,
        np.nextafter(inner[inner > 0.0], 0.0),
        [0.0, np.nextafter(1.0, 0.0)],
        bounds,
        np.nextafter(bounds[1:], 0.0),
        np.random.default_rng(seed).random(10**4),
    ])


def assert_same_inversion(table, frame, probabilities, seed=0):
    """Frame frame of a stacked table inverts every probe point to the
    index the binary search on the probabilities' edges finds."""
    edges = cdf_edges(probabilities)
    u = probe_points(edges, table.buckets, seed)
    bins = table.locate(u, frame * table.buckets)
    assert np.array_equal(table.index[bins], invert(edges, u))


def assert_alone_and_stacked(distributions):
    """Each distribution inverts as the binary search in a table of its
    own, and as one frame of a table stacked over all of them, whose
    buckets are set by the frame with the most bins."""
    stacked = stack(distributions)
    for number, probabilities in enumerate(distributions):
        assert_same_inversion(stack([probabilities]), 0, probabilities, seed=number)
        assert_same_inversion(stacked, number, probabilities, seed=number)


class TestGuideTable:
    """The stacked guide tables against the binary search of
    tests/oracles.py: every index."""

    @pytest.mark.parametrize("seed", range(5))
    def test_zero_runs_invert_as_the_binary_search(self, seed):
        assert_alone_and_stacked(zero_run_distributions(seed))

    def test_aligned_edges_invert_as_the_binary_search(self):
        assert_alone_and_stacked(ALIGNED)

    def test_buckets_split_the_unit_interval_exactly(self):
        # u * buckets is exact, so a bucket's left end and the double below
        # it fall on either side of the boundary, as the start table assumes
        for probabilities in ALIGNED + zero_run_distributions(0):
            buckets = stack([probabilities]).buckets
            b = np.arange(1, buckets)
            assert np.array_equal(((b / buckets) * buckets).astype(np.intp), b)
            below = np.nextafter(b / buckets, 0.0) * buckets
            assert np.array_equal(below.astype(np.intp), b - 1)

    def test_one_outcome(self):
        table = stack([np.array([1.0])])
        assert table.steps == 0
        assert_same_inversion(table, 0, np.array([1.0]))
        bins = table.locate(np.array([0.0, 0.5, np.nextafter(1.0, 0.0)]), 0)
        assert table.index[bins].tolist() == [0, 0, 0]

    def test_at_most_two_steps_on_the_builtins(self):
        for name in GUIDE_SCENARIOS:
            synthesis, thetas = builtin_scenario_synthesis(name)
            for mode in sampling.MODES:
                tables, _ = sampling._Frames(synthesis, thetas, mode).tables([])
                assert all(table.steps <= 2 for table in tables), name

    @pytest.mark.parametrize("count", [0, 1, 10**4])
    def test_draw_matches_the_binary_search(self, count):
        # each group's distribution is the middle frame of a stacked table,
        # and reads its own column of uniforms
        groups = zero_run_distributions(7, count=3)
        groups.insert(1, np.array([1.0]))
        others = zero_run_distributions(8, count=2 * len(groups))
        tables = [stack([others[2 * g], p, others[2 * g + 1]]) for g, p in enumerate(groups)]
        for seed in range(3):
            u = np.random.default_rng(seed).random((count, len(groups))).T
            for table, p, column in zip(tables, groups, u):
                got = table.index[table.locate(column, table.buckets)]
                assert got.shape == (count,)
                assert np.array_equal(got, invert(cdf_edges(p), column))

    @pytest.mark.parametrize("mode", sampling.MODES)
    @pytest.mark.parametrize("name", GUIDE_SCENARIOS)
    def test_every_setting_cell_of_the_builtins(self, name, mode):
        # group k's row (y, r) runs over (x_k, outcome), its frame at y
        # weighted by the later groups' tails at each residual
        synthesis, thetas = builtin_scenario_synthesis(name)
        frames = sampling._Frames(synthesis, thetas, mode)
        tables, _ = frames.tables([])
        rows = conditionals(frames, residuals(frames, {}))
        assert {g for g, _, _ in rows} == set(range(len(tables)))
        for (g, v, r), weights in rows.items():
            assert_same_inversion(tables[g], v * frames.cells + r, weights, seed=v)
        # a start row per round, as the pass reads them, against one binary
        # search per row
        u = np.random.default_rng(1).random(5000)
        for g, table in enumerate(tables):
            reached = [(v * frames.cells + r, w) for (h, v, r), w in rows.items() if h == g]
            pick = np.random.default_rng(2).integers(0, len(reached), 5000)
            starts = np.array([row for row, _ in reached])[pick]
            got = table.index[table.locate(u, starts * table.buckets)]
            for at, (_, weights) in enumerate(reached):
                assert np.array_equal(got[pick == at], invert(cdf_edges(weights), u[pick == at]))


class TestRun:
    def test_balanced_pair_reaches_root_two(self):
        layout = bilocal_layout()
        selection = selection_a()
        synthesis, thetas = synth(layout, selection, [np.pi / 4] * 2, allow=True)
        report = run(synthesis, thetas, RunConfig(rounds=40000, seed=3))
        assert sum(t.rounds for t in report.tallies) == report.rounds == 40000
        assert report.seed == 3
        assert report.k == 2
        assert report.value_se is not None
        assert abs(report.value_estimate - np.sqrt(2.0)) < 4 * report.value_se
        assert report.p_estimate is None and report.g_estimate is None

    def test_same_seed_reproduces_the_report(self):
        layout = chsh_layout(np.pi / 8)
        selection = chsh_selection()
        synthesis, thetas = synth(layout, selection, [0.5])
        config = RunConfig(rounds=5000, seed=17)
        first = run(synthesis, thetas, config)
        second = run(synthesis, thetas, config)
        assert first == second

    def test_seed_changes_the_draw(self):
        layout = chsh_layout(np.pi / 8)
        selection = chsh_selection()
        synthesis, thetas = synth(layout, selection, [0.5])
        first = run(synthesis, thetas, RunConfig(rounds=5000, seed=1))
        second = run(synthesis, thetas, RunConfig(rounds=5000, seed=2))
        assert first.tallies != second.tallies

    def test_strategies_agree_within_errors(self):
        layout = bilocal_layout()
        selection = selection_a()
        synthesis, thetas = synth(layout, selection, [np.pi / 4] * 2, allow=True)
        direct = run(synthesis, thetas, RunConfig(rounds=20000, seed=29))
        per_qubit = run(
            synthesis,
            thetas,
            RunConfig(rounds=20000, seed=31, strategy="per-qubit-discard"),
        )
        gap = abs(direct.value_estimate - per_qubit.value_estimate)
        assert gap < 4 * np.hypot(direct.value_se, per_qubit.value_se)

    @pytest.mark.parametrize("name", scenarios.BUILTIN_SCENARIOS)
    def test_strategies_agree_on_every_builtin(self, name):
        # I, J and P within 4 sigma, from independent seeds
        scenario = scenarios.builtin_scenario(name)
        synthesis, thetas = builtin_scenario_synthesis(name)
        beta, _ = scenarios.resolve_beta(scenario)
        direct, per_qubit = (
            run(synthesis, thetas, RunConfig(rounds=100000, seed=seed, strategy=mode), beta=beta)
            for seed, mode in enumerate(sampling.MODES, start=1)
        )
        pairs = [("i_estimate", "i_se"), ("j_estimate", "j_se")]
        if synthesis.tilt is not None:
            pairs.append(("p_estimate", "p_se"))
        for value, se in pairs:
            gap = getattr(direct, value) - getattr(per_qubit, value)
            assert abs(gap) < 4 * np.hypot(getattr(direct, se), getattr(per_qubit, se)), value

    def test_zero_angle_makes_the_first_correlator_exact(self):
        # At theta 0 both A settings equal the stabilizer restriction, so
        # every setting-0 product is the generator-product outcome +1.
        layout = bilocal_layout(np.pi / 7)
        selection = selection_a()
        synthesis, thetas = synth(layout, selection, [0.0, 0.0], allow=True)
        report = run(synthesis, thetas, RunConfig(rounds=8000, seed=11))
        assert report.i_estimate == 1.0
        assert abs(report.j_estimate) < 4 * max(report.j_se, 1e-3)

    def test_empty_correlator_cells_give_conservative_errors(self):
        # I pools the rounds at y = 0 and J those at y = 1; one round
        # leaves a receiver setting empty, which counts as a zero mean with
        # a unit standard error
        layout = bilocal_layout()
        selection = selection_a()
        synthesis, thetas = synth(layout, selection, [np.pi / 4] * 2, allow=True)
        report = run(synthesis, thetas, RunConfig(rounds=5, seed=2))
        for tally, mean, se in zip(
            report.tallies, (report.i_estimate, report.j_estimate), (report.i_se, report.j_se)
        ):
            assert 0 < tally.rounds < 5
            assert mean == tally.product_sum / tally.rounds
            assert se == pytest.approx(np.sqrt((1 - mean**2) / tally.rounds))
        report = run(synthesis, thetas, RunConfig(rounds=1, seed=2))
        [empty] = [t for t in report.tallies if not t.rounds]
        [full] = [t for t in report.tallies if t.rounds]
        estimates = {(0,): (report.i_estimate, report.i_se), (1,): (report.j_estimate, report.j_se)}
        assert estimates[empty.y] == (0.0, 1.0)
        assert abs(full.product_sum) == 1
        assert estimates[full.y] == (full.product_sum, 0.0)
        assert report.value_se is None

    def test_beta_without_tilt_is_rejected(self):
        layout = chsh_layout()
        selection = chsh_selection()
        synthesis, thetas = synth(layout, selection, [0.5])
        with pytest.raises(ValueError, match="beta"):
            run(synthesis, thetas, RunConfig(rounds=10), beta=0.5)

    def test_negative_beta_is_rejected(self):
        layout = chsh_layout(np.pi / 8)
        selection = chsh_selection(tilted=True)
        synthesis, thetas = synth(layout, selection, [0.5])
        with pytest.raises(ValueError, match="beta"):
            run(synthesis, thetas, RunConfig(rounds=10), beta=-0.1)

    def test_report_round_trips_through_json(self):
        layout = chsh_layout(np.pi / 8)
        selection = chsh_selection()
        synthesis, thetas = synth(layout, selection, [0.5])
        report = run(synthesis, thetas, RunConfig(rounds=500, seed=2))
        payload = json.loads(json.dumps(report.as_dict()))
        assert payload["rounds"] == 500
        assert payload["seed"] == 2
        assert payload["P"] is None
        assert [tally["y"] for tally in payload["tallies"]] == ["0", "1"]
        assert set(payload["tallies"][0]) == {"y", "rounds", "product_mean", "p_mean"}


class TestTiltedRun:
    def test_tilted_point_estimates_hit_closed_forms(self):
        parameters = bell.tilt_parameters(np.pi / 8, 1, 1)
        layout = chsh_layout(np.pi / 8)
        selection = chsh_selection(tilted=True)
        synthesis, thetas = synth(layout, selection, [parameters.theta_max])
        report = run(
            synthesis, thetas, RunConfig(rounds=60000, seed=21), beta=parameters.beta_max
        )
        assert report.p_se is not None and report.g_se is not None
        assert abs(report.p_estimate - np.cos(np.pi / 4)) < 4 * report.p_se
        assert abs(report.g_estimate - parameters.g_opt) < 4 * report.g_se
        assert report.beta == parameters.beta_max

    def test_tilted_star_per_qubit_mode_estimates_phase_flip(self):
        layout = star_layout(3, np.pi / 5)
        selection = star_selection(3)
        synthesis, thetas = synth(layout, selection, [0.5] * 3)
        report = run(
            synthesis,
            thetas,
            RunConfig(rounds=30000, seed=9, strategy="per-qubit-discard"),
            beta=0.2,
        )
        target = np.cos(2 * np.pi / 5) ** 3
        assert abs(report.p_estimate - target) < 4 * report.p_se
        collected = [t for t in report.tallies if t.p_sum is not None]
        assert all(t.y == (0,) for t in collected)

    def test_tilt_without_beta_reports_phase_flip_only(self):
        layout = chsh_layout(np.pi / 8)
        selection = chsh_selection(tilted=True)
        synthesis, thetas = synth(layout, selection, [0.5])
        report = run(synthesis, thetas, RunConfig(rounds=2000, seed=7))
        assert report.p_estimate is not None
        assert report.g_estimate is None and report.beta is None


class TestBornRule:
    """Empirical counts from round records of runs with uniform settings."""

    def test_chsh_counts_follow_the_exact_distribution(self, tmp_path):
        # every (x, y, a, b) of the record against 1/4 of p(a, b | x, y):
        # the draw of the settings and of the outcomes together
        layout = chsh_layout(np.pi / 8)
        selection = chsh_selection()
        synthesis, thetas = synth(layout, selection, [0.7])
        path = tmp_path / "rounds.csv"
        run(synthesis, thetas, RunConfig(rounds=120000, seed=1234), record_path=path)
        counts = {}
        with open(path, newline="") as handle:
            for row in csv.DictReader(handle):
                key = (row["settings"], int(row["a1"]), int(row["b1"]))
                counts[key] = counts.get(key, 0) + 1
        chi2 = 0.0
        cells = 0
        for x, y in setting_cells(1, 1):
            dist = outcome_distribution(synthesis, thetas, x, y)
            for (a, b), weight in dist.items():
                expected = weight / 4 * 120000
                assert expected > 5
                chi2 += (counts.pop((f"{x[0]}|{y[0]}", a, b), 0) - expected) ** 2 / expected
                cells += 1
        assert cells == 16 and not counts
        assert chi2 < CHI2_999[cells - 1]

    def test_bilocal_joint_counts_pass_chi_squared(self, tmp_path):
        layout = bilocal_layout()
        selection = selection_a()
        synthesis, thetas = synth(layout, selection, [np.pi / 4] * 2, allow=True)
        path = tmp_path / "rounds.csv"
        run(synthesis, thetas, RunConfig(rounds=192000, seed=4321), record_path=path)
        counts = {}
        with open(path, newline="") as handle:
            rows = [row for row in csv.DictReader(handle) if row["settings"] == "00|0"]
        for row in rows:
            key = (int(row["a1"]), int(row["a2"]), int(row["b1"]))
            counts[key] = counts.get(key, 0) + 1
        dist = outcome_distribution(synthesis, thetas, (0, 0), (0,))
        chi2 = 0.0
        cells = 0
        for outcome, weight in dist.items():
            expected = weight * len(rows)
            assert expected > 5
            chi2 += (counts.get(outcome, 0) - expected) ** 2 / expected
            cells += 1
        assert cells == 8
        assert chi2 < CHI2_999[cells - 1]


class TestRoundRecord:
    def test_direct_record_layout(self, tmp_path):
        layout = chsh_layout(np.pi / 8)
        selection = chsh_selection(tilted=True)
        synthesis, thetas = synth(layout, selection, [0.6])
        path = tmp_path / "rounds.csv"
        run(synthesis, thetas, RunConfig(rounds=400, seed=6), beta=0.3, record_path=path)
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["round", "settings", "a1", "b1", "p1"]
        assert len(rows) == 401
        assert [row[0] for row in rows[1:]] == [str(idx) for idx in range(400)]
        for row in rows[1:]:
            x_text, y_text = row[1].split("|")
            assert set(x_text) <= {"0", "1"} and set(y_text) <= {"0", "1"}
            assert row[2] in {"1", "-1"} and row[3] in {"1", "-1"}
            # The phase-flip column is collected only on settings-0 rounds.
            if y_text == "0":
                assert row[4] in {"1", "-1"}
            else:
                assert row[4] == "0"

    def test_per_qubit_record_lists_receiver_qubits(self, tmp_path):
        layout = bilocal_layout()
        selection = selection_a()
        synthesis, thetas = synth(layout, selection, [np.pi / 4] * 2, allow=True)
        path = tmp_path / "rounds.csv"
        run(
            synthesis,
            thetas,
            RunConfig(rounds=200, seed=8, strategy="per-qubit-discard"),
            record_path=path,
        )
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        qubit_columns = rows[0][4:]
        # Qubit (i,4) of each source is idle with a repeated letter, so it
        # is measured and recorded even though no product uses it at y=0.
        assert qubit_columns == [
            "q(1,2)",
            "q(1,3)",
            "q(1,4)",
            "q(1,5)",
            "q(2,2)",
            "q(2,3)",
            "q(2,4)",
            "q(2,5)",
        ]
        for row in rows[1:]:
            assert all(value in {"1", "-1"} for value in row[2:])

    def test_record_is_deterministic(self, tmp_path):
        layout = chsh_layout(np.pi / 8)
        selection = chsh_selection()
        synthesis, thetas = synth(layout, selection, [0.5])
        first = tmp_path / "one.csv"
        second = tmp_path / "two.csv"
        for path in (first, second):
            run(synthesis, thetas, RunConfig(rounds=300, seed=15), record_path=path)
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("name", sorted(PINNED_RECORDS))
    def test_record_is_pinned(self, tmp_path, name):
        path = tmp_path / "rounds.csv"
        write_pinned_record(name, path)
        assert path.read_bytes() == (DATA / f"rounds-{name}.csv").read_bytes()

    def test_chunk_size_does_not_change_the_tallies(self, tmp_path, monkeypatch):
        # each chunk draws its cells from the counts left, so the chunk size
        # moves the rounds but neither the report nor the record's tallies
        builtin, config, beta = PINNED_RECORDS["example-a-per-qubit"]
        synthesis, thetas = builtin_scenario_synthesis(builtin)
        want = run(synthesis, thetas, RunConfig(**config), beta=beta)
        monkeypatch.setattr(sampling, "_RECORD_CHUNK", 7)
        path = tmp_path / "rounds.csv"
        assert run(synthesis, thetas, RunConfig(**config), beta=beta, record_path=path) == want
        assert record_tallies(path, synthesis) == want.tallies
        assert path.read_bytes() != (DATA / "rounds-example-a-per-qubit.csv").read_bytes()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        width=st.sampled_from([1, 39, 40, 45, 60]),
        rounds=st.sampled_from([1, 9, 10, 11, 100, 101]),
        chunk=st.sampled_from([1, 7, sampling._RECORD_CHUNK]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_writer_matches_the_literal_writer(self, width, rounds, chunk, seed):
        # Near-duplicate rows: repeats, rows differing only in the last
        # column, and two rows whose base-3 readings differ by 2**64.
        rng = np.random.default_rng(seed)
        rows = rng.integers(-1, 2, size=(rounds, width)).astype(np.int8)
        third = rounds // 3
        rows[third : 2 * third] = rows[:third]
        rows[2 * third : 3 * third, :-1] = rows[:third, :-1]
        rows[2 * third : 3 * third, -1] = (rows[:third, -1] + 2) % 3 - 1
        if width > 40 and rounds > 1:
            for r, code in ((-2, 12345), (-1, 12345 + 2**64)):
                rows[r] = [(code // 3**e) % 3 - 1 for e in reversed(range(width))]
        # settings texts of 1 to 9 x bits, so some fill their last word
        settings = [
            "".join(map(str, rng.integers(0, 2, int(rng.integers(1, 10))))) + "|" + str(r % 2)
            for r in range(rounds)
        ]
        header = ["round", "settings"] + [f"q{c}" for c in range(width)]
        with tempfile.TemporaryDirectory() as work:
            ours, theirs = Path(work, "ours.csv"), Path(work, "theirs.csv")
            with mock.patch.object(sampling, "_RECORD_CHUNK", chunk):
                write_matrices(ours, header, *as_record(header, settings, rows))
            write_rounds(theirs, header, settings, rows)
            assert ours.read_bytes() == theirs.read_bytes()

    @pytest.mark.parametrize("chunk", [7, 8192])
    @pytest.mark.parametrize("rounds", [10_001, 100_003])
    def test_writer_matches_the_literal_writer_across_index_places(self, tmp_path, rounds, chunk):
        # One chunk holds index 9,999 and 10,000, and one 99,999 and
        # 100,000: a round index gains a 4-digit word or a place in one.
        rng = np.random.default_rng(rounds + chunk)
        rows = rng.integers(-1, 2, size=(rounds, 3)).astype(np.int8)
        settings = [f"{r % 4:02b}|{r % 2}" for r in rng.integers(0, 8, rounds)]
        header = ["round", "settings", "a1", "b1", "p1"]
        ours, theirs = tmp_path / "ours.csv", tmp_path / "theirs.csv"
        with mock.patch.object(sampling, "_RECORD_CHUNK", chunk):
            write_matrices(ours, header, *as_record(header, settings, rows))
        write_rounds(theirs, header, settings, rows)
        assert ours.read_bytes() == theirs.read_bytes()

    def test_record_width_must_match_the_header(self, tmp_path):
        # rows of two cells, or of one padded word but one round too few,
        # against a header of three outcomes
        header = ["round", "settings", "a1", "b1", "b2"]
        for rounds, cells, shape in [
            (3, np.ones((3, 2), dtype=np.uint8), r"\(3, 2\)"),
            (4, np.ones((3, 4), dtype=np.uint8), r"\(3, 4\)"),
        ]:
            settings, _ = as_record(header, ["0|1"] * rounds, np.ones((rounds, 3), dtype=np.int8))
            text = f"shape {shape} does not match {rounds} rounds and header width 3"
            with pytest.raises(RuntimeError, match=text):
                write_matrices(tmp_path / "r.csv", header, settings, cells)
        assert list(tmp_path.iterdir()) == []

    def test_record_does_not_change_estimates(self, tmp_path):
        layout = chsh_layout(np.pi / 8)
        selection = chsh_selection()
        synthesis, thetas = synth(layout, selection, [0.5])
        bare = run(synthesis, thetas, RunConfig(rounds=300, seed=15))
        recorded = run(
            synthesis,
            thetas,
            RunConfig(rounds=300, seed=15),
            record_path=tmp_path / "rounds.csv",
        )
        assert bare == recorded

    def test_frame_refusal_opens_no_record(self, tmp_path, monkeypatch):
        # every frame and table is built before the record is opened
        synthesis, thetas = builtin_scenario_synthesis("chsh")
        source = synthesis.sources[0]
        tampered = source._replace(s_piece=source.s_piece * PauliString("IX"))
        synthesis = synthesis._replace(sources=(tampered,) + synthesis.sources[1:])
        opened = []
        monkeypatch.setattr(
            sampling, "atomic_write", lambda *args: opened.append(args) or atomic_write(*args)
        )
        with pytest.raises(observables.CrossCheckError, match="qubit 1 would be measured"):
            run(synthesis, thetas, RunConfig(rounds=50, seed=1), record_path=tmp_path / "r.csv")
        assert opened == []
        assert list(tmp_path.iterdir()) == []


# The refusal texts of S tampered with each letter on each qubit of its
# group, pinned from the per-cell sampler: (scenario, qubit, letter) -> text,
# the same in both strategies. Every other tampered S runs.
TAMPERED_REFUSALS = {
    ("chsh", 0, "X"): "ValueError: measured string must carry a real sign, got phase i^1",
    ("chsh", 0, "Y"): "ValueError: measured string must carry a real sign, got phase i^3",
    ("chsh", 1, "X"):
        "CrossCheckError: receiver agent 2 in group 1: "
        "qubit 1 would be measured in both X and Z bases",
    ("chsh", 1, "Y"):
        "CrossCheckError: receiver agent 2 in group 1: "
        "qubit 1 would be measured in both Y and Z bases",
    ("chsh", 1, "Z"):
        "CrossCheckError: receiver agent 2 in group 1: "
        "qubit 1 would be measured in both Z and X bases",
    ("example-a", 0, "X"): "ValueError: measured string must carry a real sign, got phase i^1",
    ("example-a", 0, "Y"): "ValueError: measured string must carry a real sign, got phase i^3",
    ("example-a", 1, "X"):
        "CrossCheckError: receiver agent 3 in group 1: "
        "qubit 1 would be measured in both X and Z bases",
    ("example-a", 1, "Y"):
        "CrossCheckError: receiver agent 3 in group 1: "
        "qubit 1 would be measured in both Y and Z bases",
    ("example-a", 1, "Z"):
        "CrossCheckError: receiver agent 3 in group 1: "
        "qubit 1 would be measured in both Z and X bases",
    ("example-a", 2, "Y"):
        "CrossCheckError: receiver agent 3 in group 1: "
        "qubit 2 would be measured in both Y and X bases",
    ("example-a", 2, "Z"):
        "CrossCheckError: receiver agent 3 in group 1: "
        "qubit 2 would be measured in both Z and X bases",
    ("example-a", 3, "Y"):
        "CrossCheckError: receiver agent 3 in group 1: "
        "qubit 3 would be measured in both Y and X bases",
    ("example-a", 3, "Z"):
        "CrossCheckError: receiver agent 3 in group 1: "
        "qubit 3 would be measured in both Z and X bases",
    ("example-a", 4, "Y"):
        "CrossCheckError: receiver agent 3 in group 1: "
        "qubit 4 would be measured in both Y and X bases",
    ("example-a", 4, "Z"):
        "CrossCheckError: receiver agent 3 in group 1: "
        "qubit 4 would be measured in both Z and X bases",
    ("star-tilted", 0, "X"):
        "CrossCheckError: receiver agent 4 in group 1: "
        "qubit 0 would be measured in both X and Z bases",
    ("star-tilted", 0, "Y"):
        "CrossCheckError: receiver agent 4 in group 1: "
        "qubit 0 would be measured in both Y and Z bases",
    ("star-tilted", 0, "Z"):
        "CrossCheckError: receiver agent 4 in group 1: "
        "qubit 0 would be measured in both Z and X bases",
    ("star-tilted", 1, "X"): "ValueError: measured string must carry a real sign, got phase i^1",
    ("star-tilted", 1, "Y"): "ValueError: measured string must carry a real sign, got phase i^3",
    ("star-tilted", 2, "Y"):
        "CrossCheckError: receiver agent 4 in group 1: "
        "qubit 2 would be measured in both Y and X bases",
    ("star-tilted", 2, "Z"):
        "CrossCheckError: receiver agent 4 in group 1: "
        "qubit 2 would be measured in both Z and X bases",
    ("star-tilted", 3, "Y"):
        "CrossCheckError: receiver agent 4 in group 1: "
        "qubit 3 would be measured in both Y and X bases",
    ("star-tilted", 3, "Z"):
        "CrossCheckError: receiver agent 4 in group 1: "
        "qubit 3 would be measured in both Z and X bases",
    ("star-tilted", 4, "Y"):
        "CrossCheckError: receiver agent 4 in group 1: "
        "qubit 4 would be measured in both Y and X bases",
    ("star-tilted", 4, "Z"):
        "CrossCheckError: receiver agent 4 in group 1: "
        "qubit 4 would be measured in both Z and X bases",
}


# Every builtin at its defaults, every tilted form, and star(7): name ->
# (builtin, builtin parameters).
CELL_LOOP_FORMS = {name: (name, {}) for name in scenarios.BUILTIN_SCENARIOS}
CELL_LOOP_FORMS.update({
    "star-tilted": ("star", {"phibar": 0.3927}),
    "star(5)-tilt-2": ("star(5)", {"phibar": 0.3927, "tilt_count": 2}),
    "star(7)": ("star(7)", {}),
})
# One round, a few, one round short of a chunk, a chunk, one round past it,
# and several chunks.
CELL_LOOP_ROUNDS = (1, 37, 8191, 8192, 8193, 40000)


def assert_same_run(synthesis, thetas, config, beta, tmp_path):
    """run and the round-by-round sample_rounds give equal reports, every
    field, and equal round records, byte for byte."""
    ours, theirs = tmp_path / "ours.csv", tmp_path / "theirs.csv"
    got = run(synthesis, thetas, config, beta=beta, record_path=ours)
    want = sample_rounds(synthesis, thetas, config, beta=beta, record_path=theirs)
    assert got == want
    assert ours.read_bytes() == theirs.read_bytes()


class TestChunkedPass:
    """run, one pass over chunks of rounds reading per-bin parities through
    guide tables, against sample_rounds in tests/oracles.py, which reads
    every round's outcomes by binary search, one receiver setting at a
    time."""

    @pytest.mark.parametrize("mode", sampling.MODES)
    @pytest.mark.parametrize("name", sorted(CELL_LOOP_FORMS))
    def test_builtins_equal_the_cell_loop(self, tmp_path, name, mode):
        builtin, params = CELL_LOOP_FORMS[name]
        scenario = scenarios.builtin_scenario(builtin, **params)
        synthesis, thetas = builtin_scenario_synthesis(builtin, **params)
        beta, _ = scenarios.resolve_beta(scenario)
        for rounds in CELL_LOOP_ROUNDS:
            config = RunConfig(rounds=rounds, seed=rounds, strategy=mode)
            assert_same_run(synthesis, thetas, config, beta, tmp_path)

    @pytest.mark.parametrize("family", ["random", "tilted"])
    def test_random_layouts_equal_the_cell_loop(self, tmp_path, monkeypatch, family):
        layouts = random_layouts() if family == "random" else tilted_layouts()
        assert len(layouts) == {"random": 200, "tilted": 155}[family]
        rng = np.random.default_rng(23)
        for index, (layout, selection) in enumerate(layouts):
            synthesis = observables.synthesize(layout, selection)
            thetas = tuple(rng.uniform(0.1, np.pi / 2 - 0.1, layout.K))
            beta = None if synthesis.tilt is None else 0.4
            # chunks of 7, 50 and 8192 rounds
            monkeypatch.setattr(sampling, "_RECORD_CHUNK", (7, 50, 8192)[index % 3])
            for mode in sampling.MODES:
                config = RunConfig(rounds=150, seed=index, strategy=mode)
                try:
                    assert_same_run(synthesis, thetas, config, beta, tmp_path)
                except AssertionError as err:
                    raise AssertionError(f"{family} layout {index}, {mode}: {err}") from err

    @pytest.mark.parametrize("name", ["chsh", "example-a", "star-tilted"])
    def test_refusals_equal_the_cell_loop(self, name):
        # S given each letter on each receiver-held qubit of its group:
        # both routes build the frames in the same order, so they run or
        # refuse with the same text
        builtin, params = BASIS_BUILTINS[name]
        synthesis, thetas = builtin_scenario_synthesis(builtin, **params)
        layout, source = synthesis.layout, synthesis.sources[0]
        width = layout.group_widths[source.agent - 1]
        refused = 0
        for q, letter, mode in itertools.product(range(width), "XYZ", sampling.MODES):
            extra = PauliString("I" * q + letter + "I" * (width - 1 - q))
            tampered = source._replace(s_piece=source.s_piece * extra)
            synthesis_q = synthesis._replace(sources=(tampered,) + synthesis.sources[1:])
            config = RunConfig(rounds=50, seed=1, strategy=mode)
            texts = []
            for route in (run, sample_rounds):
                try:
                    texts.append(route(synthesis_q, thetas, config))
                except (ValueError, observables.CrossCheckError) as err:
                    texts.append(f"{type(err).__name__}: {err}")
            assert texts[0] == texts[1], (q, letter, mode)
            want = TAMPERED_REFUSALS.get((name, q, letter))
            if want is None:
                assert not isinstance(texts[0], str), (q, letter, mode)
            else:
                assert texts[0] == want, (q, letter, mode)
            refused += isinstance(texts[0], str)
        assert refused == 2 * sum(key[0] == name for key in TAMPERED_REFUSALS)

    def test_memory_does_not_grow_with_the_rounds(self):
        # without a record a run holds one chunk of rounds at a time
        synthesis, thetas = builtin_scenario_synthesis("example-a")
        run(synthesis, thetas, RunConfig(rounds=1000, seed=1))  # the group states
        peaks = []
        for rounds in (100_000, 2_000_000):
            tracemalloc.start()
            try:
                run(synthesis, thetas, RunConfig(rounds=rounds, seed=1))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) < 2 * 2**20, peaks
        assert abs(peaks[1] - peaks[0]) < 2**19, peaks

    def test_record_memory_does_not_grow_with_the_rounds(self, tmp_path):
        # each chunk's lines of the record are written as it is drawn
        synthesis, thetas = builtin_scenario_synthesis("example-a")
        path = tmp_path / "rounds.csv"
        run(synthesis, thetas, RunConfig(rounds=1000, seed=1), record_path=path)
        peaks = []
        for rounds in (100_000, 2_000_000):
            tracemalloc.start()
            try:
                run(synthesis, thetas, RunConfig(rounds=rounds, seed=1), record_path=path)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            path.unlink()
        assert max(peaks) < 2 * 2**20, peaks
        assert abs(peaks[1] - peaks[0]) < 2**19, peaks


def assert_law_is_the_frames(synthesis, thetas, where):
    """The exact law of the tallied cells, from the group expectations,
    against the frames' law of tests/oracles.py and the one the guide
    tables are built from, within 1e-12 in both strategies; both strategies
    tally the same strings, so they share one law."""
    law = sampling._Frames(synthesis, synthesis.angles(thetas), sampling.MODES[0]).law()
    assert np.allclose(law.sum(axis=1), 1.0, rtol=0.0, atol=1e-12), where
    for mode in sampling.MODES:
        frames = sampling._Frames(synthesis, synthesis.angles(thetas), mode)
        assert np.array_equal(frames.law(), law), (where, mode)
        for route in (frame_law(synthesis, thetas, mode), frames.tables([])[1]):
            assert np.max(np.abs(route - law)) <= 1e-12, (where, mode)


class TestLaw:
    """The tallies' exact law, from the group expectations, against the
    sampler's dense group frames, and a round record drawn on its counts."""

    @pytest.mark.parametrize("name", sorted(CELL_LOOP_FORMS))
    def test_builtin_law_is_the_frames(self, name):
        builtin, params = CELL_LOOP_FORMS[name]
        assert_law_is_the_frames(*builtin_scenario_synthesis(builtin, **params), name)

    @pytest.mark.parametrize("family", ["random", "tilted"])
    def test_random_layout_law_is_the_frames(self, family):
        layouts = random_layouts() if family == "random" else tilted_layouts()
        assert len(layouts) == {"random": 200, "tilted": 155}[family]
        rng = np.random.default_rng(29)
        for index, (layout, selection) in enumerate(layouts):
            synthesis = observables.synthesize(layout, selection)
            thetas = tuple(rng.uniform(0.0, np.pi / 2, layout.K))
            assert_law_is_the_frames(synthesis, thetas, f"{family} layout {index}")

    @pytest.mark.parametrize("mode", sampling.MODES)
    @pytest.mark.parametrize("name", ["chsh-tilted", "example-a", "star-tilted", "star(5)-tilt-2"])
    def test_record_tallies_are_the_report(self, tmp_path, name, mode):
        builtin, params = CELL_LOOP_FORMS[name]
        scenario = scenarios.builtin_scenario(builtin, **params)
        synthesis, thetas = builtin_scenario_synthesis(builtin, **params)
        beta, _ = scenarios.resolve_beta(scenario)
        path = tmp_path / "rounds.csv"
        config = RunConfig(rounds=3000, seed=5, strategy=mode)
        report = run(synthesis, thetas, config, beta=beta, record_path=path)
        assert record_tallies(path, synthesis) == report.tallies

    def test_drawn_cell_of_zero_frame_probability_is_refused(self, tmp_path, monkeypatch):
        # the frames give 0 to a cell that the law gives its rounds to
        synthesis, thetas = builtin_synthesis("chsh")
        tables = sampling._Frames.tables

        def emptied(self, columns):
            built, law = tables(self, columns)
            law[1, 1] = 0.0
            return built, law

        monkeypatch.setattr(sampling._Frames, "tables", emptied)
        path = tmp_path / "rounds.csv"
        text = r"^cell 1 at receiver settings \(1,\) was drawn, but its frame probability is 0$"
        with pytest.raises(observables.CrossCheckError, match=text):
            run(synthesis, thetas, RunConfig(rounds=1000, seed=1), record_path=path)
        assert list(tmp_path.iterdir()) == []

    def test_law_far_from_the_frames_is_refused(self, tmp_path, monkeypatch):
        synthesis, thetas = builtin_synthesis("chsh")
        law = sampling._Frames.law
        monkeypatch.setattr(sampling._Frames, "law", lambda self: law(self)[:, ::-1].copy())
        run(synthesis, thetas, RunConfig(rounds=1000, seed=1))  # no frames to check it against
        text = r"^the frames' law of the tallied outcomes is 0\.707 from the group expectations'$"
        with pytest.raises(observables.CrossCheckError, match=text):
            run(synthesis, thetas, RunConfig(rounds=1000, seed=1), record_path=tmp_path / "r.csv")
        assert list(tmp_path.iterdir()) == []

    def test_round_off_its_cell_is_refused(self, tmp_path, monkeypatch):
        # the last group's residuals read wrong: a round ends owing its cell
        synthesis, thetas = builtin_synthesis("example-a")
        tables = sampling._Frames.tables

        def misread(self, columns):
            built, law = tables(self, columns)
            codes = built[-1].codes.copy()
            codes[:, 0] ^= 1
            return built[:-1] + [built[-1]._replace(codes=codes)], law

        monkeypatch.setattr(sampling._Frames, "tables", misread)
        text = r"^a drawn round's outcomes do not read its tallied cell$"
        with pytest.raises(observables.CrossCheckError, match=text):
            run(synthesis, thetas, RunConfig(rounds=1000, seed=1), record_path=tmp_path / "r.csv")
        assert list(tmp_path.iterdir()) == []

    def test_take_splits_counts_past_numpy_limit(self):
        # numpy's marginals method refuses 10^9 rounds, which MAX_ROUNDS allows
        left = np.array([3, 250_000_000, 249_999_997, 0, 300_000_000, 200_000_000])
        assert left.sum() == sampling.MAX_ROUNDS
        with pytest.raises(ValueError, match="must be less than"):
            np.random.default_rng(1).multivariate_hypergeometric(left, 10, method="marginals")
        for size in (1, sampling._RECORD_CHUNK):
            take = sampling._take(np.random.default_rng(size), left, size)
            assert take.sum() == size and np.all((0 <= take) & (take <= left))
        small = left // 2
        for route in (sampling._take, marginal_hypergeometric):
            rng = np.random.default_rng(3)
            assert np.array_equal(
                route(rng, small, 8192),
                np.random.default_rng(3).multivariate_hypergeometric(small, 8192, method="marginals"),
            )
