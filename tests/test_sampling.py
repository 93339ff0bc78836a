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
from dataclasses import replace
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
    selection_a,
    split_receiver_star_layout,
    star_layout,
    star_selection,
    two_source_group_layout,
)
from netbell import bell, observables, sampling, scenarios
from netbell.pauli import PauliString
from netbell.sampling import RunConfig, run
from oracles import (
    cdf_edges,
    draw,
    expectation_combo,
    invert,
    joint_frame,
    joint_oracle,
    joint_outcomes,
    joint_state,
    lift,
    outcome_distribution,
    write_rounds,
)

# 0.999 chi-squared quantiles by degrees of freedom.
CHI2_999 = {3: 16.266, 7: 24.322}

DATA = Path(__file__).parent / "data"

# Round records pinned as files in tests/data/rounds-<name>.csv; each entry
# is (builtin scenario, RunConfig keywords, beta). The 500-round records were
# written by the earlier writer that made one csv.writerow call per round.
# The five-round record leaves four of the eight setting cells empty.
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
    "example-a-five-rounds": ("example-a", dict(rounds=5, seed=2), None),
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
    return layout, replace(selection, h=(H_FLIP, FIVE.generators[0], H_FLIP))


# Layouts the builtins lack, on joint states within the cap: tilted
# star(3) with its receiver split in two, so every group's receiver
# letters come from two receivers; and groups of 10 and 5 qubits whose
# sources differ in h, so the groups' letters differ at the same
# positions. name -> (layout and selection, angles).
JOINT_LAYOUTS = {
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
            replace(synthesis, sources=tuple(reversed(synthesis.sources))),
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


class TestGroupFrames:
    """The sampler's per-group frames against the joint-state frame of
    tests/oracles.py, and its nested draw against Generator.choice."""

    @pytest.mark.parametrize("mode", sampling.MODES)
    @pytest.mark.parametrize("name", sorted(JOINT_SCENARIOS) + sorted(JOINT_LAYOUTS))
    def test_group_frames_multiply_to_the_joint_frame(self, name, mode):
        synthesis, thetas = builtin_synthesis(name)
        layout = synthesis.layout
        frames = sampling._Frames(synthesis, thetas, mode)
        for x, y in sampling._setting_combos(layout.K, layout.M):
            groups = [frames.probabilities(k, x[k - 1], y) for k in layout.source_agents]
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
                got = [frames.outcomes(grid, mask) for mask in group_masks]
                assert np.array_equal(got, want)

    def test_one_group_draw_is_rng_choice(self):
        probabilities = np.random.default_rng(3).random(32)
        probabilities[[0, 7, 8, 31]] = 0.0
        probabilities /= probabilities.sum()
        for seed in range(5):
            nested, choice = np.random.default_rng(seed), np.random.default_rng(seed)
            [indices] = sampling._draw([sampling._cdf(probabilities)], nested, 10000)
            assert np.array_equal(indices, choice.choice(32, 10000, p=probabilities))
            assert nested.bit_generator.state == choice.bit_generator.state

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_star3_draw_matches_choice_on_the_joint_frame(self, seed):
        synthesis, thetas = builtin_synthesis("star(3)")
        frames = sampling._Frames(synthesis, thetas, "direct-observable")
        for x, y in [((0, 0, 0), (0,)), ((1, 0, 1), (1,)), ((1, 1, 1), (0,))]:
            joint = joint_frame(synthesis, thetas, x, y, "direct-observable")
            nested, choice = np.random.default_rng(seed), np.random.default_rng(seed)
            first, second, third = sampling._draw(frames.cdfs(x, y), nested, 20000)
            want = choice.choice(joint.probabilities.size, 20000, p=joint.probabilities)
            assert np.array_equal((first << 10) | (second << 5) | third, want)
            assert nested.bit_generator.state == choice.bit_generator.state

    def test_frames_are_built_once_per_group_setting(self, monkeypatch):
        synthesis, thetas = builtin_synthesis("star(3)")
        built = []
        original = sampling._Frames.probabilities

        def spy(self, k, xk, y):
            built.append((k, xk, y))
            return original(self, k, xk, y)

        monkeypatch.setattr(sampling._Frames, "probabilities", spy)
        run(synthesis, thetas, RunConfig(rounds=2000, seed=1))
        assert sorted(built) == sorted(itertools.product((1, 2, 3), (0, 1), ((0,), (1,))))

    def test_source_observable_outside_its_group_is_refused(self):
        # pieces of the wrong width: S1's S and T with letters on source 2
        synthesis, thetas = builtin_synthesis("star(3)")
        obs = synthesis.sources[0]
        stray = replace(
            obs,
            s_piece=PauliString(obs.s_piece.letters + "IZIII"),
            t_piece=PauliString(obs.t_piece.letters + "IIIII"),
        )
        broken = replace(synthesis, sources=(stray, *synthesis.sources[1:]))
        with pytest.raises(ValueError, match="operator on 10 qubits applied to 5-qubit state"):
            run(broken, thetas, RunConfig(rounds=100, seed=1))

    def test_too_many_setting_cells_are_refused_before_sampling(self, monkeypatch):
        monkeypatch.setattr(sampling, "_setting_combos", None)  # never reached
        scenario = scenarios.builtin_scenario("star(13)")
        synthesis, thetas = synth(scenario.layout, scenario.selection, scenario.thetas)
        with pytest.raises(ValueError, match=r"2\^14 setting cells \(K=13, M=1\), more than the 4096"):
            run(synthesis, thetas, RunConfig(rounds=10))


# Builtins on whose every setting cell, in both strategies, the guide
# tables are compared with the binary search.
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
        [0.0, sampling._BELOW_ONE],
        bounds,
        np.nextafter(bounds[1:], 0.0),
        np.random.default_rng(seed).random(10**4),
    ])


def assert_same_inversion(probabilities, seed=0):
    cdf = sampling._cdf(probabilities)
    edges = cdf_edges(probabilities)
    u = probe_points(edges, cdf.buckets, seed)
    bins = cdf.bins(u)
    got_index, got_u = cdf.index[bins], cdf.rescale(u, bins)
    want_index, want_u = invert(edges, u)
    assert np.array_equal(got_index, want_index)
    assert np.array_equal(got_u.view(np.int64), want_u.view(np.int64))


class TestGuideTable:
    """The guide-table draw against the binary search of tests/oracles.py,
    bit for bit: every index, every rescaled uniform, the generator state."""

    @pytest.mark.parametrize("seed", range(5))
    def test_zero_runs_invert_as_the_binary_search(self, seed):
        for number, probabilities in enumerate(zero_run_distributions(seed)):
            assert_same_inversion(probabilities, seed=number)

    def test_aligned_edges_invert_as_the_binary_search(self):
        for number, probabilities in enumerate(ALIGNED):
            assert_same_inversion(probabilities, seed=number)

    def test_buckets_split_the_unit_interval_exactly(self):
        # u * buckets is exact, so a bucket's left end and the double below
        # it fall on either side of the boundary, as the start table assumes
        for probabilities in ALIGNED + zero_run_distributions(0):
            buckets = sampling._cdf(probabilities).buckets
            b = np.arange(1, buckets)
            assert np.array_equal(((b / buckets) * buckets).astype(np.intp), b)
            below = np.nextafter(b / buckets, 0.0) * buckets
            assert np.array_equal(below.astype(np.intp), b - 1)

    def test_one_outcome(self):
        cdf = sampling._cdf(np.array([1.0]))
        assert cdf.steps == 0
        assert_same_inversion(np.array([1.0]))
        u = np.array([0.0, 0.5, sampling._BELOW_ONE])
        bins = cdf.bins(u)
        assert cdf.index[bins].tolist() == [0, 0, 0]
        assert np.array_equal(cdf.rescale(u, bins).view(np.int64), u.view(np.int64))

    def test_at_most_two_steps_on_the_builtins(self):
        for name in GUIDE_SCENARIOS:
            synthesis, thetas = builtin_scenario_synthesis(name)
            for mode in sampling.MODES:
                frames = sampling._Frames(synthesis, thetas, mode)
                for x, y in sampling._setting_combos(synthesis.layout.K, synthesis.layout.M):
                    assert all(cdf.steps <= 2 for cdf in frames.cdfs(x, y)), name

    @pytest.mark.parametrize("count", [0, 1, 10**4])
    def test_draw_matches_the_binary_search(self, count):
        groups = zero_run_distributions(7, count=3)
        groups.insert(1, np.array([1.0]))
        for seed in range(3):
            guided, searched = np.random.default_rng(seed), np.random.default_rng(seed)
            got = sampling._draw([sampling._cdf(p) for p in groups], guided, count)
            want = draw(groups, searched, count)
            assert len(got) == len(want) == len(groups)
            for g, w in zip(got, want):
                assert g.shape == (count,)
                assert np.array_equal(g, w)
            assert guided.bit_generator.state == searched.bit_generator.state

    @pytest.mark.parametrize("mode", sampling.MODES)
    @pytest.mark.parametrize("name", GUIDE_SCENARIOS)
    def test_every_setting_cell_of_the_builtins(self, name, mode):
        synthesis, thetas = builtin_scenario_synthesis(name)
        frames = sampling._Frames(synthesis, thetas, mode)
        cells = sampling._setting_combos(synthesis.layout.K, synthesis.layout.M)
        for seed, (x, y) in enumerate(cells):
            groups = [
                frames.probabilities(k, x[pos], y)
                for k, pos in enumerate(frames.owners, start=1)
            ]
            for probabilities in groups:
                assert_same_inversion(probabilities, seed)
            guided, searched = np.random.default_rng(seed), np.random.default_rng(seed)
            got = sampling._draw(frames.cdfs(x, y), guided, 2000)
            want = draw(groups, searched, 2000)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))
            assert guided.bit_generator.state == searched.bit_generator.state


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
        # Five rounds leave four of the eight setting cells empty; an empty
        # cell counts as a zero mean with a unit standard error.
        layout = bilocal_layout()
        selection = selection_a()
        synthesis, thetas = synth(layout, selection, [np.pi / 4] * 2, allow=True)
        report = run(synthesis, thetas, RunConfig(rounds=5, seed=2))
        empty = [(t.x, t.y) for t in report.tallies if not t.rounds]
        assert empty == [((0, 0), (0,)), ((0, 0), (1,)), ((0, 1), (1,)), ((1, 1), (0,))]
        # I: two empty cells, a two-round cell at mean 0, a one-round cell
        assert report.i_se == pytest.approx(np.sqrt(1 + 1 + 1 / 2) / 4)
        # J: two empty cells, two one-round cells of opposite sign
        assert report.j_estimate == 0.0
        assert report.j_se == pytest.approx(np.sqrt(2) / 4)
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
        assert len(payload["tallies"]) == 4


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
    """Each check reads one setting cell of a run with uniform settings."""

    def test_chsh_counts_follow_the_exact_distribution(self):
        layout = chsh_layout(np.pi / 8)
        selection = chsh_selection()
        synthesis, thetas = synth(layout, selection, [0.7])
        dist = outcome_distribution(synthesis, thetas, (0,), (0,))
        report = run(synthesis, thetas, RunConfig(rounds=120000, seed=1234))
        cell = next(t for t in report.tallies if t.x == (0,) and t.y == (0,))
        # Two-observable products only expose a*b; rebuild cell counts from
        # the recorded mean and check the product marginal instead.
        empirical_mean = cell.product_mean
        exact_mean = sum(a * b * w for (a, b), w in dist.items())
        se = np.sqrt((1 - exact_mean**2) / cell.rounds)
        assert abs(empirical_mean - exact_mean) < 4 * se

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

    def test_chunk_size_does_not_change_the_record(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sampling, "_RECORD_CHUNK", 7)
        path = tmp_path / "rounds.csv"
        write_pinned_record("example-a-per-qubit", path)
        assert path.read_bytes() == (DATA / "rounds-example-a-per-qubit.csv").read_bytes()

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
        cuts = np.sort(rng.choice(np.arange(1, rounds), min(3, rounds - 1), replace=False))
        blocks = [
            ("".join(map(str, rng.integers(0, 2, 3))) + "|" + str(b % 2), part)
            for b, part in enumerate(np.split(rows, cuts))
        ]
        header = ["round", "settings"] + [f"q{c}" for c in range(width)]
        written, literal = (np.random.default_rng(seed + 1) for _ in range(2))
        with tempfile.TemporaryDirectory() as work:
            ours, theirs = Path(work, "ours.csv"), Path(work, "theirs.csv")
            with mock.patch.object(sampling, "_RECORD_CHUNK", chunk):
                sampling._write_rounds(ours, header, blocks, written)
            write_rounds(theirs, header, blocks, literal)
            assert ours.read_bytes() == theirs.read_bytes()
        assert written.bit_generator.state == literal.bit_generator.state

    def test_record_width_must_match_the_header(self, tmp_path):
        header = ["round", "settings", "a1", "b1", "b2"]
        blocks = [("0|1", np.ones((3, 2), dtype=np.int8))]
        with pytest.raises(RuntimeError, match="width 2 does not match header 3"):
            sampling._write_rounds(tmp_path / "r.csv", header, blocks, np.random.default_rng(0))
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
