"""Bell quantity evaluation against hand-computed closed forms."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    bilocal_layout,
    chsh_layout,
    chsh_selection,
    ghz_split_layout,
    selection_a,
    selection_b,
    split_receiver_star_layout,
    star_layout,
    star_selection,
    two_source_group_layout,
)
from netbell import bell, scenarios
from netbell.codes import SourceState, StabilizerCode, builtin, codeword, validate
from netbell.bell import (
    evaluate,
    evaluate_tilted,
    g_closed_form,
    maximize,
    tilt_parameters,
)
from netbell.network import OperatorSelection
from netbell.observables import build_tilted, synthesize
from netbell.pauli import PauliString
from oracles import dense_expectation, joint_values, random_layouts

TOL = 1e-9
DATA = Path(__file__).parent / "data"

# the three tilted reference points: (tilt_count, k, phibar)
TILT_CASES = [
    (1, 1, math.pi / 8),
    (1, 3, math.pi / 6),
    (2, 3, math.pi / 5),
]


def synth(layout, selection, allow=False):
    return synthesize(layout, selection, allow_commuting_pair=allow)


def scenario_synthesis(scenario):
    return synthesize(
        scenario.layout,
        scenario.selection,
        allow_commuting_pair=scenario.allow_commuting_pair,
    )


class TestEvaluate:
    def test_nan_angle_fails_the_cross_check(self):
        # NaN compares false against every tolerance; the guards must not
        # read that as agreement
        with pytest.raises(RuntimeError):
            evaluate(synth(chsh_layout(), chsh_selection()), [math.nan])

    def test_example_a_balanced_angles(self):
        synthesis = synth(bilocal_layout(math.pi / 4), selection_a(), allow=True)
        report = evaluate(synthesis, [math.pi / 4] * 2)
        assert report.k == 2
        assert abs(report.i_value - 0.5) < TOL
        assert abs(report.j_value - 0.5) < TOL
        assert abs(report.quantum_value - math.sqrt(2)) < TOL
        assert abs(report.big_c - 1.0) < TOL
        assert report.classical_bound == 1.0
        assert report.violation

    def test_example_a_general_angles(self):
        phi1, phi2 = math.pi / 5, math.pi / 7
        t1, t2 = 0.3, 1.1
        synthesis = synth(bilocal_layout(phi1, phi2), selection_a(), allow=True)
        report = evaluate(synthesis, [t1, t2])
        assert abs(report.i_value - math.cos(t1) * math.cos(t2)) < TOL
        expected_j = (
            math.sin(t1) * math.sin(t2) * math.sin(2 * phi1) * math.sin(2 * phi2)
        )
        assert abs(report.j_value - expected_j) < TOL
        assert abs(report.c_values[0] - math.sin(2 * phi1)) < TOL
        assert abs(report.c_values[1] - math.sin(2 * phi2)) < TOL
        assert report.thetas == (t1, t2)

    def test_example_b_generator_partner(self):
        # h is itself a stabilizer generator, so every c_i is 1
        synthesis = synth(bilocal_layout(math.pi / 6), selection_b(), allow=True)
        report = evaluate(synthesis, [0.4, 0.9])
        assert abs(report.big_c - 1.0) < TOL
        assert abs(report.j_value - math.sin(0.4) * math.sin(0.9)) < TOL
        assert abs(report.i_value - math.cos(0.4) * math.cos(0.9)) < TOL

    def test_single_source_pair_value(self):
        phi = math.pi / 8
        theta = math.atan(math.sin(2 * phi))
        report = evaluate(synth(chsh_layout(phi), chsh_selection()), [theta])
        expected = math.sqrt(1 + math.sin(2 * phi) ** 2)
        assert abs(report.quantum_value - expected) < TOL

    def test_wrong_source_count_raises(self):
        synthesis = synth(bilocal_layout(), selection_a(), allow=True)
        with pytest.raises(ValueError, match="source observables"):
            evaluate(replace(synthesis, sources=synthesis.sources[:1]), [0.5, 0.5])

    def test_selection_mismatch_is_caught(self):
        # observables synthesized for one selection, closed forms for another
        synthesis = synth(bilocal_layout(math.pi / 6), selection_a(), allow=True)
        with pytest.raises(RuntimeError, match="closed forms"):
            evaluate(replace(synthesis, selection=selection_b()), [0.7, 0.7])

    def test_tampered_observable_is_caught(self):
        synthesis = synth(bilocal_layout(math.pi / 6), selection_a(), allow=True)
        sources = synthesis.sources
        broken = replace(sources[0], t_piece=sources[0].s_piece)
        with pytest.raises(RuntimeError, match="closed forms"):
            evaluate(replace(synthesis, sources=(broken, sources[1])), [0.7, 0.7])

    @settings(max_examples=25, deadline=None)
    @given(
        phi1=st.floats(0.05, math.pi / 2 - 0.05),
        phi2=st.floats(0.05, math.pi / 2 - 0.05),
        t1=st.floats(0.0, math.pi / 2),
        t2=st.floats(0.0, math.pi / 2),
    )
    def test_value_never_beats_entanglement_bound(self, phi1, phi2, t1, t2):
        synthesis = synth(bilocal_layout(phi1, phi2), selection_a(), allow=True)
        report = evaluate(synthesis, [t1, t2])
        bound = math.sqrt(1.0 + report.big_c**2)
        assert report.quantum_value <= bound + TOL

    def test_as_dict_round_trip_fields(self):
        report = evaluate(synth(chsh_layout(math.pi / 4), chsh_selection()), [math.pi / 4])
        data = report.as_dict()
        assert data["K"] == 1
        assert abs(data["quantum_value"] - math.sqrt(2)) < TOL
        assert "scenario_hash" not in data  # the CLI stamps it
        assert "tilt" not in data


class TestMaximize:
    def test_example_a_at_pi_eighth(self):
        layout = bilocal_layout(math.pi / 8)
        report = maximize(synth(layout, selection_a(), allow=True))
        assert abs(report.quantum_value - math.sqrt(1.5)) < TOL
        theta_best = math.atan(math.sin(math.pi / 4))
        assert all(abs(t - theta_best) < TOL for t in report.thetas)
        assert report.violation

    def test_example_a_maximally_entangled(self):
        layout = bilocal_layout(math.pi / 4)
        report = maximize(synth(layout, selection_a(), allow=True))
        assert abs(report.quantum_value - math.sqrt(2)) < TOL

    def test_example_b_value_independent_of_phi(self):
        for phi in (0.3, math.pi / 8, 1.2):
            layout = bilocal_layout(phi)
            report = maximize(synth(layout, selection_b(), allow=True))
            assert abs(report.quantum_value - math.sqrt(2)) < TOL

    def test_single_source_family(self):
        for phi in (math.pi / 8, math.pi / 6, math.pi / 4):
            report = maximize(synth(chsh_layout(phi), chsh_selection()))
            expected = math.sqrt(1 + math.sin(2 * phi) ** 2)
            assert abs(report.quantum_value - expected) < TOL
        report = maximize(synth(chsh_layout(math.pi / 4), chsh_selection()))
        assert abs(2 * report.quantum_value - 2 * math.sqrt(2)) < TOL

    def test_ghz_split_behaves_like_single_pair(self):
        phi = math.pi / 6
        layout = ghz_split_layout(4, 2, phi)
        selection = OperatorSelection(
            g=(PauliString("ZIZI"),), h=(PauliString("XXXX"),)
        )
        report = maximize(synth(layout, selection))
        assert abs(report.quantum_value - math.sqrt(1 + math.sin(2 * phi) ** 2)) < TOL

    def test_star_reaches_root_two(self):
        layout = star_layout(3, math.pi / 4)
        report = maximize(synth(layout, star_selection(3, tilted=False)))
        assert abs(report.quantum_value - math.sqrt(2)) < TOL
        assert report.k == 3

    def test_star_expectation_cache_size_is_pinned(self):
        # The joint expansion meets 16 distinct letter patterns across the
        # best angle and the whole grid, the count of its cache when it was
        # keyed on letter text. The block engine reduces four operators on
        # the one codeword that star's equal sources share, <S B_y> and
        # <T B_y> for y = 0, 1 (the source values g and h among them), at
        # any star size, and none on the grid.
        for n in (51, 3):
            layout = star_layout(n, math.pi / 4)
            (state,) = {id(src): src for src in layout.sources}.values()
            synthesis = synth(layout, star_selection(n, tilted=False))
            state._memo.clear()
            report = maximize(synthesis)
            assert len(state._memo) == 4

        joint_cache = {}
        for theta in (report.thetas[0], *np.linspace(0.0, math.pi / 2, 181)):
            joint_values(synthesis, [float(theta)] * 3, cache=joint_cache)
        assert len(joint_cache) == 16

    def test_grid_is_capped(self):
        with pytest.raises(ValueError, match="at most"):
            maximize(
                synth(chsh_layout(), chsh_selection()), grid_points=bell.MAX_GRID_POINTS + 1
            )

    def test_product_sources_sit_on_the_bound(self):
        # phi = 0 kills every c_i, so the best angle is zero mixing
        layout = bilocal_layout(0.0)
        report = maximize(synth(layout, selection_a(), allow=True))
        assert abs(report.quantum_value - 1.0) < TOL
        assert report.big_c == 0.0
        assert not report.violation

    def test_grid_needs_two_points(self):
        with pytest.raises(ValueError, match="grid_points"):
            maximize(synth(chsh_layout(), chsh_selection()), grid_points=1)


class TestTiltParameters:
    def test_r_one_anchor_values(self):
        params = tilt_parameters(math.pi / 8, 1, 1)
        assert abs(params.beta_max - 1 / math.sqrt(3)) < 1e-12
        assert abs(params.theta_max - math.atan(math.sin(math.pi / 4))) < TOL
        expected_g = math.sqrt(1.5) + math.sqrt(2) / (2 * math.sqrt(3))
        assert abs(params.g_opt - expected_g) < TOL

    @pytest.mark.parametrize("tilt_count,k,phibar", TILT_CASES)
    def test_formula_matches_stationarity_solve(self, tilt_count, k, phibar):
        params = tilt_parameters(phibar, tilt_count, k)
        ratio = tilt_count / k
        # independent route: bisect the phi-derivative in beta at the
        # closed-form theta
        theta = math.atan(math.sin(2 * phibar) ** ratio)
        step = 1e-7

        def d_phi(beta):
            return (
                g_closed_form(beta, phibar + step, theta, ratio)
                - g_closed_form(beta, phibar - step, theta, ratio)
            ) / (2 * step)

        lo, hi = 0.0, 10.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if d_phi(mid) > 0:
                lo = mid
            else:
                hi = mid
        assert abs(params.beta_max - 0.5 * (lo + hi)) < 2e-6

    @pytest.mark.parametrize("tilt_count,k,phibar", TILT_CASES)
    def test_grid_never_beats_the_optimum(self, tilt_count, k, phibar):
        params = tilt_parameters(phibar, tilt_count, k)
        angles = np.linspace(0.0, math.pi / 2, 61)
        worst = max(
            g_closed_form(params.beta_max, phi, theta, params.ratio)
            for phi in angles
            for theta in angles
        )
        assert worst <= params.g_opt + 1e-6

    def test_no_tilt_degenerates_to_balanced(self):
        params = tilt_parameters(0.3, 0, 2)
        assert params.theta_max == math.pi / 4
        assert params.beta_max == 0.0
        assert abs(params.g_opt - math.sqrt(2)) < TOL

    def test_domain_errors(self):
        with pytest.raises(ValueError, match="phibar"):
            tilt_parameters(math.pi / 4, 1, 1)
        with pytest.raises(ValueError, match="phibar"):
            tilt_parameters(0.0, 1, 1)
        with pytest.raises(ValueError, match="tilt_count"):
            tilt_parameters(0.3, -1, 1)
        with pytest.raises(ValueError, match="k must"):
            tilt_parameters(0.3, 1, 0)


class TestEvaluateTilted:
    def tilted_report(self, layout, selection, params, beta=None):
        return evaluate_tilted(
            synth(layout, selection),
            [params.theta_max] * layout.K,
            params.beta_max if beta is None else beta,
        )

    def test_single_pair_tilted_point(self):
        params = tilt_parameters(math.pi / 8, 1, 1)
        layout = chsh_layout(math.pi / 8)
        report = self.tilted_report(layout, chsh_selection(tilted=True), params)
        assert abs(report.tilt.p_value - math.cos(math.pi / 4)) < TOL
        assert abs(report.tilt.g_value - params.g_opt) < TOL
        assert report.tilt.classical_bound == params.beta_max + 1.0
        assert report.tilt.violation
        assert report.tilt.tilt_sources == (1,)

    def test_star_all_sources_tilted(self):
        params = tilt_parameters(math.pi / 8, 3, 3)
        layout = star_layout(3, math.pi / 8)
        report = self.tilted_report(layout, star_selection(3), params)
        assert abs(report.tilt.p_value - math.cos(math.pi / 4) ** 3) < TOL
        assert abs(report.tilt.g_value - params.g_opt) < TOL
        assert report.tilt.violation

    def test_star_one_source_tilted(self):
        params = tilt_parameters(math.pi / 6, 1, 3)
        layout = star_layout(3, [math.pi / 6, math.pi / 4, math.pi / 4])
        selection = star_selection(3, tilt_sources={1})
        report = self.tilted_report(layout, selection, params)
        assert abs(report.tilt.p_value - math.cos(math.pi / 3)) < TOL
        assert abs(report.tilt.g_value - params.g_opt) < TOL
        assert report.tilt.tilt_sources == (1,)
        assert report.tilt.violation

    def test_star_two_sources_tilted(self):
        params = tilt_parameters(math.pi / 5, 2, 3)
        layout = star_layout(3, [math.pi / 5, math.pi / 5, math.pi / 4])
        selection = star_selection(3, tilt_sources={1, 2})
        report = self.tilted_report(layout, selection, params)
        assert abs(report.tilt.p_value - math.cos(2 * math.pi / 5) ** 2) < TOL
        assert abs(report.tilt.g_value - params.g_opt) < TOL
        assert report.tilt.violation

    def test_empty_tilt_reduces_to_offset(self):
        # with no tilt source, build_tilted gives the trivial block: P = 1
        synthesis = synth(chsh_layout(math.pi / 4), chsh_selection(tilted=False))
        layout, selection = synthesis.layout, synthesis.selection
        tilt = build_tilted(layout, synthesis.classification, selection, synthesis.receivers)
        report = evaluate_tilted(replace(synthesis, tilt=tilt), [math.pi / 4], 0.4)
        assert report.tilt.p_value == 1.0
        assert abs(report.tilt.g_value - (0.4 + math.sqrt(2))) < TOL
        assert report.tilt.classical_bound == 1.4

    def test_negative_beta_rejected(self):
        params = tilt_parameters(math.pi / 8, 1, 1)
        layout = chsh_layout(math.pi / 8)
        with pytest.raises(ValueError, match="beta"):
            self.tilted_report(layout, chsh_selection(tilted=True), params, beta=-0.1)

    def test_as_dict_includes_tilt_block(self):
        params = tilt_parameters(math.pi / 8, 1, 1)
        layout = chsh_layout(math.pi / 8)
        report = self.tilted_report(layout, chsh_selection(tilted=True), params)
        data = report.as_dict()
        assert abs(data["tilt"]["G"] - params.g_opt) < TOL
        assert data["tilt"]["tilt_sources"] == [1]


# Every builtin whose joint state fits the statevector cap.
JOINT_CASES = [
    ("chsh", {}),
    ("chsh-tilted", {}),
    ("example-a", {}),
    ("example-b", {}),
    ("five-one-three-split", {}),
    ("ghz-split(4,2)", {}),
    ("star(1)", {}),
    ("star(3)", {}),
    ("star(3)", {"phibar": 0.3927, "tilt_count": 1}),
    ("star(3)", {"phibar": 0.3927, "tilt_count": 2}),
    ("star(3)", {"phibar": 0.3927, "tilt_count": 3}),
]


def block_and_joint_values(synthesis, thetas):
    if synthesis.tilt is None:
        report = evaluate(synthesis, thetas)
        got = {"I": report.i_value, "J": report.j_value}
    else:
        report = evaluate_tilted(synthesis, thetas, 0.5)
        got = {"I": report.i_value, "J": report.j_value, "P": report.tilt.p_value}
    return got, joint_values(synthesis, thetas)


class TestJointOracle:
    """The block engine against the term-by-term expansion on the joint state."""

    @pytest.mark.parametrize(
        "name,params",
        JOINT_CASES,
        ids=[name + (f"-tilt{p['tilt_count']}" if p else "") for name, p in JOINT_CASES],
    )
    def test_block_engine_matches_joint_expansion(self, name, params):
        scenario = scenarios.builtin_scenario(name, **params)
        layout = scenario.layout
        synthesis = scenario_synthesis(scenario)
        best = maximize(synthesis)
        for thetas in (scenario.thetas, best.thetas, (0.3,) * layout.K, (0.0,) * layout.K):
            got, want = block_and_joint_values(synthesis, thetas)
            assert got.keys() == want.keys()
            for key in want:
                if layout.K <= 2:
                    # one or two groups: the routes agree to the last bit
                    # on these builtins at these angles (not at every
                    # angle: their roundings differ from K = 2 on)
                    assert got[key] == want[key], (key, thetas)
                else:
                    assert abs(got[key] - want[key]) <= 1e-12, (key, thetas)

    @pytest.mark.parametrize(
        "stem,params",
        [
            ("evaluate", {}),
            ("maximize", {}),
            ("tilted", {"phibar": 0.3927}),
        ],
    )
    def test_joint_expansion_reproduces_the_star3_pins(self, stem, params):
        # tests/data/star3-*.json were written by the joint engine; the
        # oracle must still give their floats to the last digit.
        pinned = json.loads((DATA / f"star3-{stem}.json").read_text())
        synthesis = scenario_synthesis(scenarios.builtin_scenario("star(3)", **params))
        values = joint_values(synthesis, pinned["thetas"])
        assert (values["I"], values["J"]) == (pinned["I"], pinned["J"])
        value = abs(values["I"]) ** (1 / 3) + abs(values["J"]) ** (1 / 3)
        assert value == pinned["quantum_value"]
        if "tilt" in pinned:
            beta = pinned["tilt"]["beta"]
            assert values["P"] == pinned["tilt"]["P"]
            assert beta * abs(values["P"]) ** (1 / 3) + value == pinned["tilt"]["G"]


ENGINE_CODES = ("two-one-two", "five-one-three", "ghz(3)", "ghz-split(4,2)")
# [[4,2,2]]: two logical qubits, so the logical masks have two bits.
FOUR_TWO_TWO = StabilizerCode(
    name="four-two-two",
    n=4,
    k=2,
    generators=(PauliString("XXXX"), PauliString("ZZZZ")),
    logical_x=(PauliString("XXII"), PauliString("XIXI")),
    logical_z=(PauliString("ZIZI"), PauliString("ZZII")),
)


def engine_against_oracles(synthesis, thetas):
    """Evaluate (and, with a tilted block, evaluate_tilted) while recording
    every value codes.SourceState.expectation gives; each must match the
    dense expectation on the source's statevector, built here (which runs
    its generator check), and each report's I, J and P the joint-state
    expansion. Returns how many engine values were checked."""
    values = []
    engine = SourceState.expectation

    def recorded(source, op):
        value = engine(source, op)
        values.append((source, op, value))
        return value

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SourceState, "expectation", recorded)
        reports = [evaluate(synthesis, thetas)]
        if synthesis.tilt is not None:
            reports.append(evaluate_tilted(synthesis, thetas, 0.5))
    want = joint_values(synthesis, thetas)
    for report in reports:
        got = {"I": report.i_value, "J": report.j_value}
        if report.tilt is not None:
            got["P"] = report.tilt.p_value
        for key in got:
            assert abs(got[key] - want[key]) <= 1e-12, (key, got[key], want[key])
    for source, op, value in values:
        dense = dense_expectation(source.state, op, {})
        assert abs(value - dense) <= bell.CROSS_CHECK_TOL, (source.code.name, str(op), value, dense)
    return len(values)


class TestStabilizerEngine:
    """The expectations read off the stabilizing and logical operators,
    against the statevectors they replaced, on every builtin within the
    joint cap and on the 200 random layouts of acceptance criterion 6."""

    @pytest.mark.parametrize(
        "name,params",
        JOINT_CASES,
        ids=[name + (f"-tilt{p['tilt_count']}" if p else "") for name, p in JOINT_CASES],
    )
    def test_builtins_match_the_statevectors(self, name, params):
        scenario = scenarios.builtin_scenario(name, **params)
        synthesis = scenario_synthesis(scenario)
        for thetas in (scenario.thetas, (0.3,) * scenario.layout.K):
            assert engine_against_oracles(synthesis, thetas) > 0

    @pytest.mark.parametrize("name", [*ENGINE_CODES, "four-two-two"])
    @pytest.mark.parametrize("signed", [False, True], ids=["plain", "signed"])
    def test_every_pauli_matches_the_statevector(self, name, signed):
        # complex amplitudes make the logical Y terms nonzero, and negated
        # generators and logicals give the echelon pivots minus signs, so
        # a phase or sign lost in the reduction shows
        code = FOUR_TWO_TWO if name == "four-two-two" else builtin(name)
        if signed:
            code = replace(
                code,
                generators=[-g if i % 2 == 0 else g for i, g in enumerate(code.generators)],
                logical_x=[-p for p in code.logical_x],
                logical_z=[-p for p in code.logical_z],
            )
        assert validate(code).passed
        rng = np.random.default_rng(8)
        amplitudes = rng.normal(size=2**code.k) + 1j * rng.normal(size=2**code.k)
        source = codeword(code, amplitudes / np.linalg.norm(amplitudes))
        for x in range(1 << code.n):
            for z in range(1 << code.n):
                letters = "".join(
                    "IXZY"[(x >> s & 1) | (z >> s & 1) << 1] for s in range(code.n - 1, -1, -1)
                )
                op = PauliString(letters, int(rng.integers(4)))
                dense = dense_expectation(source.state, op, {})
                assert abs(source.expectation(op) - dense) <= bell.CROSS_CHECK_TOL, (str(op), dense)

    def test_random_layouts_match_the_statevectors(self):
        rng = np.random.default_rng(21)
        layouts = random_layouts()
        assert len(layouts) == 200
        for index, (layout, selection) in enumerate(layouts):
            thetas = rng.uniform(0.1, math.pi / 2 - 0.1, layout.K)
            try:
                assert engine_against_oracles(synth(layout, selection), thetas) > 0
            except AssertionError as err:
                raise AssertionError(f"random layout {index}: {err}") from err


class TestGroups:
    def test_group_of_two_sources_matches_joint_expansion(self):
        layout, selection = two_source_group_layout()
        assert [len(state.amplitudes) for state in layout.group_states] == [2**10, 2**5]
        synthesis = synth(layout, selection, allow=True)
        for thetas in ([0.4, 1.1], [0.0, math.pi / 4]):
            report = evaluate(synthesis, thetas)
            want = joint_values(synthesis, thetas)
            assert abs(report.i_value - want["I"]) <= 1e-12
            assert abs(report.j_value - want["J"]) <= 1e-12
            assert abs(report.j_value) > 0.01 or thetas[0] == 0.0
        best = maximize(synthesis)
        assert abs(best.quantum_value - math.sqrt(1 + best.big_c**2)) < TOL

    def test_two_receivers_match_joint_expansion(self):
        # B_y's piece on each group is the product of both receivers' pieces
        layout = split_receiver_star_layout(3, math.pi / 7)
        synthesis = synth(layout, star_selection(3), allow=True)
        thetas = [0.3, 0.6, 0.9]
        report = evaluate_tilted(synthesis, thetas, 0.5)
        want = joint_values(synthesis, thetas)
        assert abs(report.i_value - want["I"]) <= 1e-12
        assert abs(report.j_value - want["J"]) <= 1e-12
        assert abs(report.tilt.p_value - want["P"]) <= 1e-12
        assert abs(report.tilt.p_value) > 0.1


def star51(**params):
    scenario = scenarios.builtin_scenario("star(51)", **params)
    return scenario, scenario_synthesis(scenario)


class TestBlockCrossCheck:
    """At K = 51, I and J are near 2.1e-8, so the absolute tolerance of 1e-9
    on the products alone passes a 4% error in one block; the per-block
    comparison catches a wrong block and names it."""

    def test_star51_reaches_root_two(self):
        scenario, synthesis = star51()
        report = evaluate(synthesis, scenario.thetas)
        assert abs(report.i_value - 2 ** -25.5) < 1e-20
        assert abs(report.quantum_value - math.sqrt(2)) < TOL

    @pytest.mark.parametrize("factor", [-1.0, 1.05, 1.04])
    def test_one_wrong_block_raises(self, monkeypatch, factor):
        original = bell._block_terms

        def tampered(synthesis, thetas):
            out = original(synthesis, thetas)
            out[0][16] = [(c, factor * v) for c, v in out[0][16]]
            return out

        monkeypatch.setattr(bell, "_block_terms", tampered)
        scenario, synthesis = star51()
        with pytest.raises(RuntimeError, match="I block of agent S17 disagrees"):
            evaluate(synthesis, scenario.thetas)

    @pytest.mark.parametrize("factor", [-1.0, 1.05, 1.04])
    def test_one_wrong_block_fails_the_grid(self, monkeypatch, factor):
        # the best angle passes; the tampered block only differs on the grid
        original = bell._products
        calls = []

        def tampered(layout, blocks, grid=None):
            calls.append(grid)
            if grid is not None:
                blocks = [
                    ((factor * v if k == 16 else v, w) for k, (v, w) in enumerate(pairs))
                    for pairs in blocks
                ]
            return original(layout, blocks, grid)

        monkeypatch.setattr(bell, "_products", tampered)
        synthesis = star51()[1]
        with pytest.raises(RuntimeError, match="I block of agent S17 .* at grid angle"):
            maximize(synthesis)
        assert len(calls) == 2

    def test_one_wrong_tilt_block_raises(self):
        scenario, synthesis = star51(phibar=0.3927)
        # one more letter on a qubit where source 2's h_prime is identity
        pieces = list(synthesis.tilt.p_pieces)
        pieces[1] = pieces[1] * PauliString("IZIII")
        broken = replace(synthesis.tilt, p_pieces=tuple(pieces))
        with pytest.raises(RuntimeError, match="P block of agent S2 disagrees"):
            evaluate_tilted(replace(synthesis, tilt=broken), scenario.thetas, 0.5)

    def test_split_sign_of_p_is_checked(self):
        # each group's P piece carries its own sign, checked block by block
        scenario, synthesis = star51(phibar=0.3927)
        pieces = synthesis.tilt.p_pieces
        broken = replace(synthesis.tilt, p_pieces=(-pieces[0], *pieces[1:]))
        with pytest.raises(RuntimeError, match="P block of agent S1 disagrees"):
            evaluate_tilted(replace(synthesis, tilt=broken), scenario.thetas, 0.5)

    @pytest.mark.parametrize("theta", [0.0, 0.7, math.pi / 2])
    def test_zero_closed_forms_do_not_raise(self, theta):
        # phi = 0 makes every <h_i> zero, theta = 0 (pi/2) every sin (cos)
        for layout, selection in (
            (bilocal_layout(0.0), selection_a()),
            (star_layout(5, 0.0), star_selection(5, tilted=False)),
            (star_layout(5, math.pi / 4), star_selection(5, tilted=False)),
        ):
            synthesis = synth(layout, selection, allow=True)
            report = evaluate(synthesis, [theta] * layout.K)
            assert abs(report.i_value - math.cos(theta) ** layout.K) < TOL
            maximize(synthesis)

    def test_observable_outside_its_group_is_refused(self):
        # a piece of the wrong width: S1's piece with a letter on source 2
        layout = star_layout(3)
        synthesis = synth(layout, star_selection(3, tilted=False))
        sources = synthesis.sources
        stray = PauliString(sources[0].s_piece.letters + "IZIII")
        broken = replace(sources[0], s_piece=stray)
        with pytest.raises(ValueError, match="strings on 10 and 5 qubits"):
            evaluate(replace(synthesis, sources=(broken, *sources[1:])), [0.5] * 3)
