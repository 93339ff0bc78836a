"""Bell quantity evaluation against hand-computed closed forms."""

import math

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
    star_layout,
    star_selection,
)
from netbell import bell
from netbell.bell import (
    evaluate,
    evaluate_tilted,
    g_closed_form,
    maximize,
    tilt_parameters,
)
from netbell.network import OperatorSelection, classify
from netbell.observables import build_receiver, build_source, build_tilted
from netbell.pauli import PauliString

TOL = 1e-9

# the three tilted reference points: (tilt_count, k, phibar)
TILT_CASES = [
    (1, 1, math.pi / 8),
    (1, 3, math.pi / 6),
    (2, 3, math.pi / 5),
]


def synth(layout, selection, thetas, allow=False):
    cls = classify(layout, selection)
    sources = build_source(layout, cls, selection, thetas)
    receivers = build_receiver(
        layout, cls, selection, allow_commuting_pair=allow
    )
    return sources, receivers


class TestEvaluate:
    def test_nan_angle_fails_the_cross_check(self):
        # NaN compares false against every tolerance; the guards must not
        # read that as agreement
        layout = chsh_layout()
        sources, receivers = synth(layout, chsh_selection(), [math.nan])
        with pytest.raises(RuntimeError):
            evaluate(layout, chsh_selection(), sources, receivers)

    def test_example_a_balanced_angles(self):
        layout = bilocal_layout(math.pi / 4)
        sources, receivers = synth(
            layout, selection_a(), [math.pi / 4] * 2, allow=True
        )
        report = evaluate(layout, selection_a(), sources, receivers)
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
        layout = bilocal_layout(phi1, phi2)
        sources, receivers = synth(layout, selection_a(), [t1, t2], allow=True)
        report = evaluate(layout, selection_a(), sources, receivers)
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
        layout = bilocal_layout(math.pi / 6)
        sources, receivers = synth(layout, selection_b(), [0.4, 0.9], allow=True)
        report = evaluate(layout, selection_b(), sources, receivers)
        assert abs(report.big_c - 1.0) < TOL
        assert abs(report.j_value - math.sin(0.4) * math.sin(0.9)) < TOL
        assert abs(report.i_value - math.cos(0.4) * math.cos(0.9)) < TOL

    def test_single_source_pair_value(self):
        phi = math.pi / 8
        theta = math.atan(math.sin(2 * phi))
        layout = chsh_layout(phi)
        sources, receivers = synth(layout, chsh_selection(), [theta])
        report = evaluate(layout, chsh_selection(), sources, receivers)
        expected = math.sqrt(1 + math.sin(2 * phi) ** 2)
        assert abs(report.quantum_value - expected) < TOL

    def test_wrong_source_count_raises(self):
        layout = bilocal_layout()
        sources, receivers = synth(layout, selection_a(), [0.5, 0.5], allow=True)
        with pytest.raises(ValueError, match="source observables"):
            evaluate(layout, selection_a(), sources[:1], receivers)

    def test_selection_mismatch_is_caught(self):
        # observables synthesized for one selection, closed forms for another
        layout = bilocal_layout(math.pi / 6)
        sources, receivers = synth(layout, selection_a(), [0.7, 0.7], allow=True)
        with pytest.raises(RuntimeError, match="closed forms"):
            evaluate(layout, selection_b(), sources, receivers)

    def test_tampered_observable_is_caught(self):
        layout = bilocal_layout(math.pi / 6)
        sources, receivers = synth(layout, selection_a(), [0.7, 0.7], allow=True)
        broken = replace(sources[0], t_global=sources[0].s_global)
        with pytest.raises(RuntimeError, match="closed forms"):
            evaluate(layout, selection_a(), [broken, sources[1]], receivers)

    @settings(max_examples=25, deadline=None)
    @given(
        phi1=st.floats(0.05, math.pi / 2 - 0.05),
        phi2=st.floats(0.05, math.pi / 2 - 0.05),
        t1=st.floats(0.0, math.pi / 2),
        t2=st.floats(0.0, math.pi / 2),
    )
    def test_value_never_beats_entanglement_bound(self, phi1, phi2, t1, t2):
        layout = bilocal_layout(phi1, phi2)
        sources, receivers = synth(layout, selection_a(), [t1, t2], allow=True)
        report = evaluate(layout, selection_a(), sources, receivers)
        bound = math.sqrt(1.0 + report.big_c**2)
        assert report.quantum_value <= bound + TOL

    def test_as_dict_round_trip_fields(self):
        layout = chsh_layout(math.pi / 4)
        sources, receivers = synth(layout, chsh_selection(), [math.pi / 4])
        report = evaluate(layout, chsh_selection(), sources, receivers)
        data = report.as_dict()
        assert data["K"] == 1
        assert abs(data["quantum_value"] - math.sqrt(2)) < TOL
        assert data["scenario_hash"] is None
        assert "tilt" not in data


class TestMaximize:
    def test_example_a_at_pi_eighth(self):
        layout = bilocal_layout(math.pi / 8)
        report = maximize(layout, selection_a(), allow_commuting_pair=True)
        assert abs(report.quantum_value - math.sqrt(1.5)) < TOL
        theta_best = math.atan(math.sin(math.pi / 4))
        assert all(abs(t - theta_best) < TOL for t in report.thetas)
        assert report.violation

    def test_example_a_maximally_entangled(self):
        layout = bilocal_layout(math.pi / 4)
        report = maximize(layout, selection_a(), allow_commuting_pair=True)
        assert abs(report.quantum_value - math.sqrt(2)) < TOL

    def test_example_b_value_independent_of_phi(self):
        for phi in (0.3, math.pi / 8, 1.2):
            layout = bilocal_layout(phi)
            report = maximize(layout, selection_b(), allow_commuting_pair=True)
            assert abs(report.quantum_value - math.sqrt(2)) < TOL

    def test_single_source_family(self):
        for phi in (math.pi / 8, math.pi / 6, math.pi / 4):
            report = maximize(chsh_layout(phi), chsh_selection())
            expected = math.sqrt(1 + math.sin(2 * phi) ** 2)
            assert abs(report.quantum_value - expected) < TOL
        report = maximize(chsh_layout(math.pi / 4), chsh_selection())
        assert abs(2 * report.quantum_value - 2 * math.sqrt(2)) < TOL

    def test_ghz_split_behaves_like_single_pair(self):
        phi = math.pi / 6
        layout = ghz_split_layout(4, 2, phi)
        selection = OperatorSelection(
            g=(PauliString("ZIZI"),), h=(PauliString("XXXX"),)
        )
        report = maximize(layout, selection)
        assert abs(report.quantum_value - math.sqrt(1 + math.sin(2 * phi) ** 2)) < TOL

    def test_star_reaches_root_two(self):
        layout = star_layout(3, math.pi / 4)
        report = maximize(layout, star_selection(3, tilted=False))
        assert abs(report.quantum_value - math.sqrt(2)) < TOL
        assert report.k == 3

    def test_star_expectation_cache_size_is_pinned(self, monkeypatch):
        # 16 distinct letter patterns across the best angle and the whole
        # grid, the count of the cache when it was keyed on letter text.
        caches = {}
        original = bell._cached_expectation

        def spy(state, op, cache):
            caches[id(cache)] = cache
            return original(state, op, cache)

        monkeypatch.setattr(bell, "_cached_expectation", spy)
        maximize(star_layout(3, math.pi / 4), star_selection(3, tilted=False))
        assert [len(cache) for cache in caches.values()] == [16]

    def test_product_sources_sit_on_the_bound(self):
        # phi = 0 kills every c_i, so the best angle is zero mixing
        layout = bilocal_layout(0.0)
        report = maximize(layout, selection_a(), allow_commuting_pair=True)
        assert abs(report.quantum_value - 1.0) < TOL
        assert report.big_c == 0.0
        assert not report.violation

    def test_grid_needs_two_points(self):
        with pytest.raises(ValueError, match="grid_points"):
            maximize(chsh_layout(), chsh_selection(), grid_points=1)


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
        cls = classify(layout, selection)
        sources = build_source(
            layout, cls, selection, [params.theta_max] * layout.K
        )
        receivers = build_receiver(layout, cls, selection)
        tilt = build_tilted(layout, cls, selection, receivers)
        return evaluate_tilted(
            layout,
            selection,
            sources,
            receivers,
            tilt,
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
        layout = chsh_layout(math.pi / 4)
        selection = chsh_selection(tilted=False)
        cls = classify(layout, selection)
        sources = build_source(layout, cls, selection, [math.pi / 4])
        receivers = build_receiver(layout, cls, selection)
        tilt = build_tilted(layout, cls, selection, receivers)
        report = evaluate_tilted(layout, selection, sources, receivers, tilt, 0.4)
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
