"""Stabilizer code validation, codeword synthesis, and representative search."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import codeword_angle
from netbell import codes
from netbell.codes import StabilizerCode, builtin, codeword, validate
from netbell.pauli import PauliString
from netbell.scenarios import ScenarioError, builtin_scenario, scenario_from_dict
from oracles import logical_representative

PHI_GRID = np.linspace(0.0, np.pi / 4, 7)


def check_named(report, name):
    return next(c for c in report.checks if c.name.startswith(name))


class TestBuiltins:
    @pytest.mark.parametrize(
        "name", ["two-one-two", "five-one-three", "ghz(3)", "ghz(6)", "ghz-split(4,2)"]
    )
    def test_builtin_validates(self, name):
        code = builtin(name)
        report = validate(code)
        assert report.passed, str(report)

    def test_two_one_two_operators(self):
        code = builtin("two-one-two")
        assert [str(g) for g in code.generators] == ["+ZZ"]
        assert str(code.logical_x[0]) == "+XX"
        assert str(code.logical_z[0]) == "+IZ"

    def test_five_one_three_operators(self):
        code = builtin("five-one-three")
        assert [str(g) for g in code.generators] == [
            "+XZZXI",
            "+IXZZX",
            "+XIXZZ",
            "+ZXIXZ",
        ]
        assert str(code.logical_x[0]) == "+XXXXX"
        assert str(code.logical_z[0]) == "+ZZZZZ"

    def test_ghz_chain_shape(self):
        code = builtin("ghz(4)")
        assert [str(g) for g in code.generators] == ["+ZZII", "+IZZI", "+IIZZ"]
        assert str(code.logical_x[0]) == "+XXXX"
        assert str(code.logical_z[0]) == "+ZIII"

    def test_ghz_split_puts_cut_generator_first(self):
        code = builtin("ghz-split(4,2)")
        assert str(code.generators[0]) == "+ZIZI"
        assert str(code.logical_z[0]) == "+IIZI"
        assert {str(g) for g in code.generators[1:]} == {"+ZZII", "+IIZZ"}

    def test_ghz_split_rank_full(self):
        for n, m in [(3, 1), (4, 2), (5, 2), (6, 3)]:
            code = builtin(f"ghz-split({n},{m})")
            assert len(code.generators) == n - 1
            assert validate(code).passed

    @pytest.mark.parametrize(
        "name", ["nonsense", "ghz", "ghz(1)", "ghz-split(3,3)", "ghz-split(3,0)", "two-one-two(2)"]
    )
    def test_unknown_or_malformed_name_rejected(self, name):
        with pytest.raises(ValueError):
            builtin(name)

    def test_builtin_is_built_once_per_name(self, monkeypatch):
        builtin.cache_clear()
        validated = []
        monkeypatch.setattr(codes, "validate", lambda code: validated.append(code) or validate(code))
        first = builtin("five-one-three")
        assert builtin("five-one-three") is first
        assert builtin("ghz-split(40,20)") is builtin("ghz-split(40,20)")
        assert [code.name for code in validated] == ["five-one-three", "ghz-split(40,20)"]

    @pytest.mark.parametrize("name", ["nonsense", "ghz(1)"])
    def test_unknown_name_raises_on_every_call(self, name):
        for _ in range(3):
            with pytest.raises(ValueError):
                builtin(name)


class TestValidateFailures:
    def test_count_mismatch_flagged(self):
        code = StabilizerCode(
            name="bogus",
            n=2,
            k=1,
            generators=(PauliString("XX"), PauliString("ZZ")),
            logical_x=(PauliString("XI"),),
            logical_z=(PauliString("ZI"),),
        )
        report = validate(code)
        assert not report.passed
        assert not check_named(report, "operator counts").passed

    def test_noncommuting_generators_flagged(self):
        code = StabilizerCode(
            name="bogus",
            n=2,
            k=0,
            generators=(PauliString("XI"), PauliString("ZI")),
            logical_x=(),
            logical_z=(),
        )
        report = validate(code)
        assert not check_named(report, "generators mutually commute").passed

    def test_minus_identity_in_group_flagged(self):
        code = StabilizerCode(
            name="bogus",
            n=2,
            k=0,
            generators=(PauliString("XX"), PauliString("XX", phase_exponent=2)),
            logical_x=(),
            logical_z=(),
        )
        report = validate(code)
        assert not check_named(report, "generators independent").passed
        assert not check_named(report, "minus identity").passed

    def test_plain_dependence_keeps_identity_check_green(self):
        code = StabilizerCode(
            name="bogus",
            n=3,
            k=0,
            generators=(PauliString("ZZI"), PauliString("IZZ"), PauliString("ZIZ")),
            logical_x=(),
            logical_z=(),
        )
        report = validate(code)
        assert not check_named(report, "generators independent").passed
        assert check_named(report, "minus identity").passed

    def test_imaginary_generator_phase_flagged(self):
        code = StabilizerCode(
            name="bogus",
            n=2,
            k=1,
            generators=(PauliString("ZZ", phase_exponent=1),),
            logical_x=(PauliString("XX"),),
            logical_z=(PauliString("IZ"),),
        )
        report = validate(code)
        assert not check_named(report, "generator phases").passed

    def test_commuting_logical_pair_flagged(self):
        code = StabilizerCode(
            name="bogus",
            n=2,
            k=1,
            generators=(PauliString("ZZ"),),
            logical_x=(PauliString("IZ"),),
            logical_z=(PauliString("ZI"),),
        )
        report = validate(code)
        assert not check_named(report, "paired logicals anticommute").passed

    def test_logical_clashing_with_generator_flagged(self):
        code = StabilizerCode(
            name="bogus",
            n=2,
            k=1,
            generators=(PauliString("ZZ"),),
            logical_x=(PauliString("XI"),),
            logical_z=(PauliString("IZ"),),
        )
        report = validate(code)
        assert not check_named(report, "logicals commute with generators").passed

    def test_multi_logical_warning(self):
        code = StabilizerCode(
            name="bogus",
            n=2,
            k=2,
            generators=(),
            logical_x=(PauliString("XI"), PauliString("IX")),
            logical_z=(PauliString("ZI"), PauliString("IZ")),
        )
        report = validate(code)
        assert report.passed
        assert any("overlap" in w for w in report.warnings)

    def test_report_prints_failures(self):
        code = StabilizerCode(
            name="bogus",
            n=2,
            k=0,
            generators=(PauliString("XI"), PauliString("ZI")),
            logical_x=(),
            logical_z=(),
        )
        text = str(validate(code))
        assert "[FAIL]" in text and "[pass]" in text


class TestCodeword:
    @pytest.mark.parametrize("phi", PHI_GRID)
    def test_two_one_two_matches_direct_construction(self, phi):
        src = codeword_angle(builtin("two-one-two"), phi)
        want = np.array([np.cos(phi), 0.0, 0.0, np.sin(phi)], dtype=complex)
        assert np.allclose(src.state.amplitudes, want, atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_ghz_matches_direct_construction(self, n):
        phi = 0.3
        src = codeword_angle(builtin(f"ghz({n})"), phi)
        want = np.zeros(1 << n, dtype=complex)
        want[0] = np.cos(phi)
        want[-1] = np.sin(phi)
        assert np.allclose(src.state.amplitudes, want, atol=1e-12)

    def test_ghz_split_state_equals_plain_ghz_state(self):
        plain = codeword_angle(builtin("ghz(4)"), 0.7)
        split = codeword_angle(builtin("ghz-split(4,2)"), 0.7)
        assert np.allclose(plain.state.amplitudes, split.state.amplitudes, atol=1e-12)

    def test_five_qubit_zero_structure(self):
        src = codeword(builtin("five-one-three"), (1.0, 0.0))
        amps = src.state.amplitudes
        live = amps[np.abs(amps) > 1e-12]
        assert live.size == 16
        assert np.allclose(np.abs(live), 0.25, atol=1e-12)
        assert amps[0].real > 0  # canonical phase

    @pytest.mark.parametrize("phi", PHI_GRID)
    def test_five_qubit_generator_expectations(self, phi):
        code = builtin("five-one-three")
        src = codeword_angle(code, phi)
        for g in code.generators:
            assert abs(src.state.expectation(g) - 1.0) < 1e-9

    @pytest.mark.parametrize("phi", PHI_GRID)
    def test_five_qubit_logical_expectations(self, phi):
        code = builtin("five-one-three")
        state = codeword_angle(code, phi).state
        assert abs(state.expectation(code.logical_z[0]) - np.cos(2 * phi)) < 1e-9
        assert abs(state.expectation(code.logical_x[0]) - np.sin(2 * phi)) < 1e-9

    @pytest.mark.parametrize("name", ["two-one-two", "five-one-three", "ghz(3)"])
    def test_bit_flip_maps_zero_to_one(self, name):
        code = builtin(name)
        zero = codeword(code, (1.0, 0.0)).state
        one = codeword(code, (0.0, 1.0)).state
        assert abs(abs(zero.apply(code.logical_x[0]).inner(one)) ** 2 - 1.0) < 1e-12

    def test_complex_amplitudes_give_logical_y_eigenstate(self):
        code = builtin("two-one-two")
        src = codeword(code, (1 / np.sqrt(2), 1j / np.sqrt(2)))
        y_logical = PauliString("XY")  # i * XX * IZ
        assert abs(src.state.expectation(y_logical) - 1.0) < 1e-12
        assert abs(src.state.expectation(code.logical_z[0])) < 1e-12

    def test_rejects_wrong_amplitude_count(self):
        with pytest.raises(ValueError, match="amplitudes"):
            codeword(builtin("two-one-two"), (1.0, 0.0, 0.0))

    def test_rejects_unnormalized_amplitudes(self):
        with pytest.raises(ValueError, match="normalized"):
            codeword(builtin("two-one-two"), (1.0, 1.0))

    def test_angle_family_needs_single_logical_qubit(self):
        code = StabilizerCode(
            name="pair",
            n=2,
            k=2,
            generators=(),
            logical_x=(PauliString("XI"), PauliString("IX")),
            logical_z=(PauliString("ZI"), PauliString("IZ")),
        )
        data = {
            "name": "pair-angle",
            "codes": [code.to_json()],
            "sources": [{"code": "pair", "phi": 0.1}],
            "network": {"K": 1, "M": 1, "partition": [0, 1],
                        "assignment": [[1, 1, 1], [1, 2, 2]]},
            "selection": {"g": ["+ZZ"], "h": ["+XX"]},
        }
        with pytest.raises(ScenarioError, match="k=1"):
            scenario_from_dict(data)

    def test_two_logical_qubits_synthesize(self):
        code = StabilizerCode(
            name="pair",
            n=2,
            k=2,
            generators=(),
            logical_x=(PauliString("XI"), PauliString("IX")),
            logical_z=(PauliString("ZI"), PauliString("IZ")),
        )
        src = codeword(code, (0.5, 0.5, 0.5, 0.5))
        plus = np.full(4, 0.5, dtype=complex)
        assert abs(abs(np.vdot(src.state.amplitudes, plus)) ** 2 - 1.0) < 1e-12

    def test_star51_searches_the_logical_basis_once(self, monkeypatch):
        projections = []
        project = codes._project_stabilized

        def counted(fiducial, ops):
            projections.append(fiducial)
            return project(fiducial, ops)

        monkeypatch.setattr(codes, "_project_stabilized", counted)
        codes._logical_basis.cache_clear()
        codeword(builtin("five-one-three"), (1.0, 0.0)).state
        one_search = len(projections)
        assert one_search >= 1

        codes._logical_basis.cache_clear()
        projections.clear()
        sources = builtin_scenario("star(51)").layout.sources
        assert projections == []  # loading builds no statevector
        states = [source.state for source in sources]
        assert len(projections) == one_search
        # every source's state, bit for bit, as a build with its own search
        for source, state in zip(sources, states):
            codes._logical_basis.cache_clear()
            fresh = codeword(source.code, source.amplitudes)
            assert fresh.state.amplitudes.tobytes() == state.amplitudes.tobytes()

    def test_generators_are_checked_on_every_state(self, monkeypatch):
        # the cached basis is shared; the stabilizer check is per codeword,
        # run where its statevector is built
        code = builtin("five-one-three")
        cached = codes._logical_basis(code)
        broken = (cached[0], codes.StateVector.basis(code.n, 0))
        monkeypatch.setattr(codes, "_logical_basis", lambda code: broken)
        assert codeword(code, (1.0, 0.0)).state.n == 5
        one = codeword(code, (0.0, 1.0))
        with pytest.raises(RuntimeError, match="expectation"):
            one.state

    @given(
        n=st.integers(min_value=2, max_value=7),
        phi=st.floats(min_value=-1.5, max_value=1.5),
    )
    @settings(max_examples=40, deadline=None)
    def test_ghz_family_amplitudes(self, n, phi):
        src = codeword_angle(builtin(f"ghz({n})"), phi)
        amps = src.state.amplitudes
        assert abs(amps[0] - np.cos(phi)) < 1e-12
        assert abs(amps[-1] - np.sin(phi)) < 1e-12
        assert np.allclose(amps[1:-1], 0.0, atol=1e-12)


class TestLogicalRepresentative:
    def test_two_qubit_identity_constraint(self):
        code = builtin("two-one-two")
        found = logical_representative(code, code.logical_z[0], {1: "I"})
        assert found == PauliString("ZI")

    def test_five_qubit_star_constraints(self):
        # restrict the phase-flip to act as Z on qubit 0, nothing on qubit 1,
        # and X-or-nothing on the rest; the answer picks up a minus sign
        code = builtin("five-one-three")
        found = logical_representative(
            code,
            code.logical_z[0],
            {0: "Z", 1: "I", 2: {"X", "I"}, 3: {"X", "I"}, 4: {"X", "I"}},
        )
        assert found is not None
        assert str(found) == "-ZIXXI"

    def test_found_operator_is_logical(self):
        code = builtin("five-one-three")
        found = logical_representative(code, code.logical_z[0], {1: "I"})
        assert found is not None
        assert all(found.commutes(g) for g in code.generators)
        assert found.anticommutes(code.logical_x[0])

    def test_unsatisfiable_returns_none(self):
        code = builtin("five-one-three")
        constraints = {q: "I" for q in range(5)}
        assert logical_representative(code, code.logical_z[0], constraints) is None

    def test_unconstrained_returns_base(self):
        code = builtin("five-one-three")
        assert logical_representative(code, code.logical_z[0], {}) == code.logical_z[0]

    def test_deterministic_first_match_order(self):
        # with only the qubit-1 identity constraint the first subset in
        # ascending order that works is generator 0 alone, not 0 and 2
        code = builtin("five-one-three")
        found = logical_representative(code, code.logical_z[0], {1: "I"})
        assert found == code.generators[0] * code.logical_z[0]

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="qubit count"):
            logical_representative(builtin("two-one-two"), PauliString("ZZZ"), {})


class TestJsonRoundTrip:
    @pytest.mark.parametrize("name", ["two-one-two", "five-one-three", "ghz-split(4,2)"])
    def test_round_trip(self, name):
        code = builtin(name)
        clone = StabilizerCode.from_json(code.to_json())
        assert clone.generators == code.generators
        assert clone.logical_x == code.logical_x
        assert clone.logical_z == code.logical_z
        assert validate(clone).passed

    def test_json_uses_text_form(self):
        data = builtin("two-one-two").to_json()
        assert data["generators"] == ["+ZZ"]
        assert data["logical_x"] == ["+XX"]
        assert data["n"] == 2 and data["k"] == 1
