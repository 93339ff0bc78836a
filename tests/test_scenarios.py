"""Scenario schema round trips, builtin factories, and beta resolution."""

import copy
import json
import math

import pytest

from netbell import bell, scenarios
from netbell.scenarios import (
    Scenario,
    ScenarioError,
    builtin_scenario,
    diagnose,
    fingerprint,
    load_scenario,
    resolve_beta,
    scenario_from_dict,
    scenario_to_dict,
    source_angle,
)

BUILTIN_NAMES = [
    "chsh",
    "chsh-tilted",
    "five-one-three-split",
    "ghz-split",
    "example-a",
    "example-b",
    "star",
]


def minimal_chsh_dict() -> dict:
    return {
        "name": "pair",
        "sources": [{"code": "two-one-two", "phi": math.pi / 4}],
        "network": {
            "K": 1,
            "M": 1,
            "partition": [0, 1],
            "assignment": [[1, 1, 1], [1, 2, 2]],
        },
        "selection": {"g": ["+ZZ"], "h": ["+XX"]},
    }


class TestRoundTrip:
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_canonical_form_is_a_fixed_point(self, name):
        scenario = builtin_scenario(name)
        first = scenario_to_dict(scenario)
        again = scenario_to_dict(scenario_from_dict(json.loads(json.dumps(first))))
        assert again == first

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_fingerprint_survives_the_round_trip(self, name):
        scenario = builtin_scenario(name)
        reloaded = scenario_from_dict(scenario_to_dict(scenario))
        assert fingerprint(reloaded) == fingerprint(scenario)

    def test_file_round_trip(self, tmp_path):
        scenario = builtin_scenario("example-a")
        path = tmp_path / "example-a.json"
        path.write_text(json.dumps(scenario_to_dict(scenario)))
        reloaded = load_scenario(path)
        assert reloaded == scenario
        assert fingerprint(reloaded) == fingerprint(scenario)

    def test_serialized_sources_use_amplitudes(self):
        data = scenario_to_dict(builtin_scenario("chsh"))
        for entry in data["sources"]:
            assert "amplitudes" in entry
            assert "phi" not in entry

    def test_defaults_are_materialized(self):
        data = scenario_to_dict(scenario_from_dict(minimal_chsh_dict()))
        options = data["options"]
        assert options["thetas"] == [math.pi / 4]
        assert options["rounds"] == 100000
        assert options["grid_points"] == 181
        assert options["strategy"] == "direct-observable"

    def test_assignment_is_sorted(self):
        data = minimal_chsh_dict()
        data["network"]["assignment"] = [[1, 2, 2], [1, 1, 1]]
        out = scenario_to_dict(scenario_from_dict(data))
        assert out["network"]["assignment"] == [[1, 1, 1], [1, 2, 2]]

    def test_fingerprint_tracks_content(self):
        a = builtin_scenario("chsh", phi=math.pi / 4)
        b = builtin_scenario("chsh", phi=math.pi / 8)
        assert fingerprint(a) != fingerprint(b)

    def test_signed_zero_keeps_its_fingerprint(self):
        # The two sources are equal under ==, but the canonical form writes
        # each one's own amplitudes, so a -0.0 must not be merged into 0.0.
        scenario = builtin_scenario("example-a", phi=0.0, phi2=-0.0)
        first, second = scenario.layout.sources
        assert first == second and first is not second
        amplitudes = [src["amplitudes"] for src in scenario_to_dict(scenario)["sources"]]
        assert [[math.copysign(1.0, a) for a in amps] for amps in amplitudes] == [
            [1.0, 1.0], [1.0, -1.0]
        ]
        assert fingerprint(scenario) == "5991b6f29fec"
        assert fingerprint(builtin_scenario("example-a", phi=0.0, phi2=0.0)) != "5991b6f29fec"

    def test_custom_code_round_trips(self):
        data = minimal_chsh_dict()
        data["codes"] = [
            {
                "name": "pair-code",
                "n": 2,
                "k": 1,
                "generators": ["+ZZ"],
                "logical_x": ["+XX"],
                "logical_z": ["+IZ"],
            }
        ]
        data["sources"] = [{"code": "pair-code", "phi": 0.3}]
        scenario = scenario_from_dict(data)
        assert [c.name for c in scenario.custom_codes] == ["pair-code"]
        out = scenario_to_dict(scenario)
        assert scenario_to_dict(scenario_from_dict(out)) == out


class TestBuiltins:
    def test_paren_form_matches_keyword_form(self):
        assert fingerprint(builtin_scenario("star(3)")) == fingerprint(
            builtin_scenario("star", n=3)
        )
        assert fingerprint(builtin_scenario("ghz-split(4,2)")) == fingerprint(
            builtin_scenario("ghz-split", n=4, m=2)
        )

    def test_unknown_name(self):
        with pytest.raises(ScenarioError, match="unknown builtin scenario"):
            builtin_scenario("no-such-thing")

    def test_paren_arguments_rejected_where_unsupported(self):
        with pytest.raises(ScenarioError, match="takes no"):
            builtin_scenario("chsh(3)")

    def test_bad_parameters(self):
        with pytest.raises(ScenarioError, match="bad parameters"):
            builtin_scenario("chsh", m=2)
        with pytest.raises(ScenarioError, match="ghz-split needs"):
            builtin_scenario("ghz-split", n=4, m=4)
        with pytest.raises(ScenarioError, match="tilt_count"):
            builtin_scenario("star", n=3, tilt_count=5)

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_every_builtin_diagnoses_clean(self, name):
        assert diagnose(builtin_scenario(name))[0].passed

    def test_star_tilt_count_marks_leading_sources(self):
        scenario = builtin_scenario("star", n=3, tilt_count=1, phibar=0.4)
        assert scenario.selection.tilt_sources == (1,)
        untilted = builtin_scenario("star", n=3, tilt_count=0)
        assert untilted.selection.tilt_sources == ()
        assert untilted.beta is None


class TestSchemaErrors:
    def test_missing_required_field(self):
        data = minimal_chsh_dict()
        del data["selection"]
        with pytest.raises(ScenarioError, match="missing the 'selection' field"):
            scenario_from_dict(data)

    def test_unknown_builtin_code(self):
        data = minimal_chsh_dict()
        data["sources"] = [{"code": "mystery", "phi": 0.1}]
        with pytest.raises(ScenarioError, match="unknown builtin code 'mystery'"):
            scenario_from_dict(data)

    def test_phi_and_amplitudes_are_exclusive(self):
        data = minimal_chsh_dict()
        data["sources"] = [{"code": "two-one-two", "phi": 0.1, "amplitudes": [1, 0]}]
        with pytest.raises(ScenarioError, match="exactly one of"):
            scenario_from_dict(data)
        data["sources"] = [{"code": "two-one-two"}]
        with pytest.raises(ScenarioError, match="exactly one of"):
            scenario_from_dict(data)

    def test_amplitude_count_must_match_code(self):
        data = minimal_chsh_dict()
        data["sources"] = [{"code": "two-one-two", "amplitudes": [1, 0, 0]}]
        with pytest.raises(ScenarioError, match="needs 2 amplitudes, got 3"):
            scenario_from_dict(data)

    def test_amplitudes_must_not_vanish(self):
        data = minimal_chsh_dict()
        data["sources"] = [{"code": "two-one-two", "amplitudes": [0, 0]}]
        with pytest.raises(ScenarioError, match="must not all vanish"):
            scenario_from_dict(data)

    def test_amplitudes_are_normalized(self):
        data = minimal_chsh_dict()
        data["sources"] = [{"code": "two-one-two", "amplitudes": [3, [0, 4]]}]
        scenario = scenario_from_dict(data)
        amps = scenario.layout.sources[0].amplitudes
        assert amps[0] == pytest.approx(0.6)
        assert amps[1] == pytest.approx(0.8j)

    def test_bad_amplitude_entry(self):
        data = minimal_chsh_dict()
        data["sources"] = [{"code": "two-one-two", "amplitudes": [[1, 2, 3], 0]}]
        with pytest.raises(ScenarioError, match="amplitude entries"):
            scenario_from_dict(data)

    def test_selection_length_mismatch(self):
        data = minimal_chsh_dict()
        data["selection"]["g"] = ["+ZZ", "+ZZ"]
        with pytest.raises(ScenarioError, match="one 'g' entry per source"):
            scenario_from_dict(data)

    def test_selection_operator_size_mismatch(self):
        data = minimal_chsh_dict()
        data["selection"]["h"] = ["+XXX"]
        with pytest.raises(ScenarioError, match="expected 2"):
            scenario_from_dict(data)

    def test_selection_bad_pauli_text(self):
        data = minimal_chsh_dict()
        data["selection"]["g"] = ["+ZQ"]
        with pytest.raises(ScenarioError):
            scenario_from_dict(data)

    def test_h_prime_needs_entry_per_source(self):
        data = minimal_chsh_dict()
        data["selection"]["h_prime"] = ["+IZ", "+IZ"]
        with pytest.raises(ScenarioError, match="h_prime needs one entry"):
            scenario_from_dict(data)

    def test_beta_requires_a_tilt(self):
        data = minimal_chsh_dict()
        data["options"] = {"beta": 0.5}
        with pytest.raises(ScenarioError, match="no source has an h_prime"):
            scenario_from_dict(data)

    def test_beta_must_be_nonnegative(self):
        data = minimal_chsh_dict()
        data["selection"]["h_prime"] = ["+IZ"]
        data["options"] = {"beta": -0.5}
        with pytest.raises(ScenarioError, match="nonnegative"):
            scenario_from_dict(data)

    def test_integral_float_counts_are_accepted(self):
        data = minimal_chsh_dict()
        data["options"] = {"rounds": 1e5, "grid_points": 181.0, "seed": 7.0}
        scenario = scenario_from_dict(data)
        assert (scenario.rounds, scenario.grid_points, scenario.seed) == (100000, 181, 7)
        assert all(type(count) is int for count in (scenario.rounds, scenario.grid_points))

    def test_theta_count_must_match(self):
        data = minimal_chsh_dict()
        data["options"] = {"thetas": [0.1, 0.2]}
        with pytest.raises(ScenarioError, match="need 1 thetas"):
            scenario_from_dict(data)

    def test_scalar_theta_is_replicated(self):
        scenario = builtin_scenario("star", n=3)
        data = scenario_to_dict(scenario)
        data["options"]["thetas"] = 0.3
        assert scenario_from_dict(data).thetas == (0.3, 0.3, 0.3)

    def test_bad_strategy(self):
        data = minimal_chsh_dict()
        data["options"] = {"strategy": "psychic"}
        with pytest.raises(ScenarioError, match="unknown strategy"):
            scenario_from_dict(data)

    def test_bad_network_block(self):
        data = minimal_chsh_dict()
        data["network"]["assignment"] = [[1, 1, 1]]
        with pytest.raises(ScenarioError):
            scenario_from_dict(data)

    def test_custom_code_must_validate(self):
        data = minimal_chsh_dict()
        data["codes"] = [
            {
                "name": "broken",
                "n": 2,
                "k": 1,
                "generators": ["+ZX"],
                "logical_x": ["+XX"],
                "logical_z": ["+IZ"],
            }
        ]
        data["sources"] = [{"code": "broken", "phi": 0.1}]
        with pytest.raises(ScenarioError, match="fails validation"):
            scenario_from_dict(data)

    def test_non_object_scenario(self):
        with pytest.raises(ScenarioError, match="JSON object"):
            scenario_from_dict([1, 2, 3])


class TestSynthesize:
    def test_tilt_built_only_when_selected(self):
        assert diagnose(builtin_scenario("chsh"))[1].tilt is None
        assert diagnose(builtin_scenario("chsh-tilted"))[1].tilt is not None

    def test_theta_override_reaches_the_observables(self):
        synthesis = diagnose(builtin_scenario("chsh"))[1]
        report = bell.evaluate(synthesis, (0.0,))
        assert report.quantum_value == pytest.approx(1.0, abs=1e-12)


class TestResolveBeta:
    def test_absent(self):
        assert resolve_beta(builtin_scenario("chsh")) == (None, None)

    def test_numeric_passthrough(self):
        scenario = builtin_scenario("chsh-tilted")
        beta, parameters = resolve_beta(scenario, 0.25)
        assert beta == 0.25
        assert parameters is None

    def test_negative_override_rejected(self):
        with pytest.raises(ScenarioError, match="nonnegative"):
            resolve_beta(builtin_scenario("chsh-tilted"), -1.0)

    def test_auto_single_tilted_source(self):
        scenario = builtin_scenario("star", n=3, phibar=math.pi / 6, tilt_count=1)
        beta, parameters = resolve_beta(scenario)
        assert beta == pytest.approx(0.276199500690, abs=1e-9)
        assert parameters.theta_max == pytest.approx(0.761433837597, abs=1e-9)
        assert parameters.g_opt == pytest.approx(1.600726220416, abs=1e-9)

    def test_auto_reads_phibar_from_source_angles(self):
        data = scenario_to_dict(builtin_scenario("chsh-tilted"))
        del data["options"]["phibar"]
        beta, parameters = resolve_beta(scenario_from_dict(data))
        assert beta == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-12)
        assert parameters.phibar == pytest.approx(math.pi / 8, abs=1e-9)

    def test_auto_without_any_tilt(self):
        with pytest.raises(ScenarioError, match="no source has an h_prime entry"):
            resolve_beta(builtin_scenario("chsh"), "auto")

    def test_auto_needs_a_shared_angle(self):
        scenario = builtin_scenario("star", n=2, tilt_count=2, phibar=0.2)
        data = scenario_to_dict(scenario)
        del data["options"]["phibar"]
        phi = 0.3
        data["sources"][0]["amplitudes"] = [math.cos(phi), math.sin(phi)]
        with pytest.raises(ScenarioError, match="single shared tilt angle"):
            resolve_beta(scenario_from_dict(data))

    def test_auto_needs_real_pair_amplitudes(self):
        data = scenario_to_dict(builtin_scenario("chsh-tilted"))
        del data["options"]["phibar"]
        data["sources"][0]["amplitudes"] = [[0.8, 0.0], [0.0, 0.6]]
        with pytest.raises(ScenarioError, match="needs options.phibar"):
            resolve_beta(scenario_from_dict(data))


class TestSourceAngle:
    def test_real_pair(self):
        scenario = builtin_scenario("chsh", phi=0.3)
        assert source_angle(scenario.layout.sources[0]) == pytest.approx(0.3)

    def test_complex_pair_has_no_angle(self):
        data = minimal_chsh_dict()
        data["sources"] = [{"code": "two-one-two", "amplitudes": [[0.8, 0.0], [0.0, 0.6]]}]
        scenario = scenario_from_dict(data)
        assert source_angle(scenario.layout.sources[0]) is None


class TestDiagnose:
    def test_commuting_receiver_pair_needs_the_waiver(self):
        scenario = builtin_scenario("example-a")
        assert scenario.allow_commuting_pair
        report, synthesis = diagnose(scenario)
        assert report.passed
        assert synthesis.layout is scenario.layout
        notes = [str(c) for c in report.checks]
        assert any("explicitly allowed" in n for n in notes)

        data = scenario_to_dict(scenario)
        data["options"]["allow_commuting_receiver_pair"] = False
        report, synthesis = diagnose(scenario_from_dict(data))
        assert not report.passed
        assert any("receiver" in str(c) for c in report.failures())
        # the commuting pair stops the synthesis itself, so none comes back
        assert synthesis is None

    def test_anticommuting_h_fails_selection_checks(self):
        data = scenario_to_dict(builtin_scenario("example-a"))
        data["selection"]["h"] = ["+XIIII", "+XXXXX"]
        report, _ = diagnose(scenario_from_dict(data))
        assert not report.passed

    def test_scenarios_compare_by_content(self):
        data = minimal_chsh_dict()
        a = scenario_from_dict(copy.deepcopy(data))
        b = scenario_from_dict(copy.deepcopy(data))
        assert a == b
        assert isinstance(a, Scenario)
