"""Sampling layer: exact frames, estimators, and the per-round record.

Statistical assertions run at fixed seeds chosen once so they pass; a seed
change may require re-picking them (4-sigma bands make that rare). The
Born-rule checks compare empirical counts against the exact setting-wise
outcome distributions with a chi-squared statistic held under the 0.999
quantile for its cell count.
"""

import csv
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    bilocal_layout,
    chsh_layout,
    chsh_selection,
    selection_a,
    star_layout,
    star_selection,
)
from netbell import bell, observables, sampling, scenarios
from netbell.sampling import RunConfig, run
from oracles import expectation_combo, joint_oracle, outcome_distribution

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


def synth(layout, selection, thetas, *, allow=False):
    """The observables of layout and selection, with the angles to run them at."""
    synthesis = observables.synthesize(layout, selection, allow_commuting_pair=allow)
    return synthesis, tuple(thetas)


def write_pinned_record(name, path):
    builtin, config, beta = PINNED_RECORDS[name]
    scenario = scenarios.builtin_scenario(builtin)
    synthesis, thetas = synth(
        scenario.layout,
        scenario.selection,
        scenario.thetas,
        allow=scenario.allow_commuting_pair,
    )
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
        state = layout.state
        receiver = synthesis.receivers[0]
        a_terms = synthesis.sources[0].a_terms(x[0], thetas[0])
        b_op = receiver.b0_global if y[0] == 0 else receiver.b1_global
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
        state = layout.state
        oracle = joint_oracle(
            state,
            [
                synthesis.sources[0].a_terms(x[0], thetas[0]),
                synthesis.sources[1].a_terms(x[1], thetas[1]),
                synthesis.receivers[0].b0_global,
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
        state = layout.state
        oracle = joint_oracle(
            state,
            [
                synthesis.sources[0].a_terms(0, thetas[0]),
                synthesis.receivers[0].b0_global,
                synthesis.tilt.receivers[0].p_part_global,
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
        expected = expectation_combo(layout.state, synthesis.sources[0].a_terms(0, theta))
        assert marginal == pytest.approx(expected, abs=1e-9)


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

    def test_record_wider_than_its_code_is_refused(self):
        columns = [np.ones(3, dtype=int)] * (sampling._MAX_CODED_WIDTH + 1)
        with pytest.raises(RuntimeError, match="coded columns"):
            sampling._encode_block("0|0", columns, len(columns), [])

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
