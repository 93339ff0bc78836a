import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netbell.pauli import PauliString
from netbell.states import StateVector, make_rng, tensor
from oracles import dense, expectation_combo


def random_states(max_n=4):
    def build(n, seed):
        rng = np.random.default_rng(seed)
        amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        return StateVector.from_unnormalized(amps)

    return st.builds(build, st.integers(1, max_n), st.integers(0, 2**32 - 1))


def ghz(phi, n=3):
    amps = np.zeros(1 << n, dtype=complex)
    amps[0] = np.cos(phi)
    amps[-1] = np.sin(phi)
    return StateVector(amps)


class TestConstruction:
    def test_basis_label_forms(self):
        from_string = StateVector.basis(2, "01")
        from_index = StateVector.basis(2, 1)
        from_bits = StateVector.basis(2, [0, 1])
        assert np.array_equal(from_string.amplitudes, from_index.amplitudes)
        assert np.array_equal(from_string.amplitudes, from_bits.amplitudes)
        # qubit 0 is the most significant bit: |01> puts qubit 1 in state 1
        assert from_string.amplitudes[1] == 1.0

    def test_norm_enforced(self):
        with pytest.raises(ValueError, match="norm"):
            StateVector([1.0, 1.0])

    def test_nan_amplitude_fails_the_norm_check(self):
        with pytest.raises(ValueError, match="norm"):
            StateVector([np.nan, 0.0])

    def test_dimension_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            StateVector([1.0, 0.0, 0.0])

    def test_qubit_cap(self):
        with pytest.raises(ValueError, match="cap"):
            StateVector.basis(21, 0)

    def test_qubit_cap_is_checked_before_allocating(self):
        # 2^40 amplitudes are 16 TiB: numpy would refuse them with a MemoryError
        with pytest.raises(ValueError, match="40 qubits exceeds the cap of 20"):
            StateVector.basis(40, 0)

    def test_canonical_phase(self):
        state = StateVector(np.array([0, 1j, 0, 0], dtype=complex))
        fixed = state.with_canonical_phase()
        assert fixed.amplitudes[1] == pytest.approx(1.0)

    def test_amplitudes_read_only(self):
        state = StateVector.basis(1, 0)
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.5


class TestTensor:
    def test_zero_one(self):
        product = tensor([StateVector.basis(1, 0), StateVector.basis(1, 1)])
        assert np.array_equal(product.amplitudes, np.array([0, 1, 0, 0], dtype=complex))

    def test_plus_plus_uniform(self):
        plus = StateVector([1 / np.sqrt(2), 1 / np.sqrt(2)])
        product = tensor([plus, plus])
        assert np.allclose(product.amplitudes, np.full(4, 0.5))

    @given(random_states(max_n=3), random_states(max_n=3))
    def test_norm_multiplicative(self, a, b):
        assert np.linalg.norm(tensor([a, b]).amplitudes) == pytest.approx(1.0)

    def test_cap(self):
        with pytest.raises(ValueError, match="cap"):
            tensor([StateVector.basis(11, 0), StateVector.basis(10, 0)])


class TestApply:
    def test_bit_flip(self):
        flipped = StateVector.basis(1, 0).apply(PauliString("X"))
        assert np.array_equal(flipped.amplitudes, np.array([0, 1], dtype=complex))

    def test_minus_z_on_one(self):
        state = StateVector.basis(1, 1).apply(-PauliString("Z"))
        assert np.array_equal(state.amplitudes, np.array([0, 1], dtype=complex))

    def test_imaginary_phase_exact(self):
        state = StateVector.basis(1, 0).apply(PauliString("X", phase_exponent=1))
        assert state.amplitudes[1] == 1j

    def test_y_action(self):
        plus_i = StateVector.basis(1, 0).apply(PauliString("Y"))
        assert plus_i.amplitudes[1] == 1j
        minus_i = StateVector.basis(1, 1).apply(PauliString("Y"))
        assert minus_i.amplitudes[0] == -1j

    def test_qubit_order(self):
        # X on qubit 0 flips the most significant bit
        state = StateVector.basis(2, "00").apply(PauliString("XI"))
        assert state.amplitudes[int("10", 2)] == 1.0

    @settings(max_examples=60)
    @given(st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            st.builds(
                PauliString,
                st.text(alphabet="IXYZ", min_size=n, max_size=n),
                phase_exponent=st.integers(0, 3),
            ),
            st.integers(0, 2**32 - 1),
        )
    ))
    def test_matches_dense_matrix(self, case):
        p, seed = case
        rng = np.random.default_rng(seed)
        amps = rng.normal(size=1 << p.n) + 1j * rng.normal(size=1 << p.n)
        state = StateVector.from_unnormalized(amps)
        direct = state.apply(p).amplitudes
        oracle = dense(p) @ state.amplitudes
        assert np.allclose(direct, oracle, atol=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            StateVector.basis(2, 0).apply(PauliString("X"))


class TestExpectation:
    def test_plus_x(self):
        plus = StateVector([1 / np.sqrt(2), 1 / np.sqrt(2)])
        assert plus.expectation(PauliString("X")) == pytest.approx(1.0)

    def test_ghz_zzi_all_phi(self):
        for phi in np.linspace(0.0, np.pi / 2, 7):
            value = ghz(phi).expectation(PauliString("ZZI"))
            assert value == pytest.approx(1.0, abs=1e-12)

    def test_identity_is_one(self):
        state = StateVector.from_unnormalized(
            np.random.default_rng(7).normal(size=8) * 1j + 1
        )
        assert state.expectation(PauliString.identity(3)) == pytest.approx(1.0)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="hermitian"):
            StateVector.basis(1, 0).expectation(PauliString("X", phase_exponent=1))

    def test_disjoint_support_factorizes(self):
        rng = np.random.default_rng(11)
        a = StateVector.from_unnormalized(rng.normal(size=4) + 1j * rng.normal(size=4))
        b = StateVector.from_unnormalized(rng.normal(size=4) + 1j * rng.normal(size=4))
        p = PauliString("XY")
        q = PauliString("ZZ")
        joint = tensor([a, b]).expectation(p.embed([0, 1], 4) * q.embed([2, 3], 4))
        assert joint == pytest.approx(a.expectation(p) * b.expectation(q))

    def test_combo(self):
        a0 = [(np.cos(np.pi / 4), PauliString("Z")), (np.sin(np.pi / 4), PauliString("X"))]
        assert expectation_combo(StateVector.basis(1, 0), a0) == pytest.approx(1 / np.sqrt(2))

    def test_imaginary_residue_raises(self, monkeypatch):
        # a runtime check, not an assert, so it also holds under python -O
        monkeypatch.setattr("netbell.states.IMAG_TOL", 0.0)
        with pytest.raises(RuntimeError, match="imaginary residue"):
            StateVector.basis(1, 0).expectation(PauliString("Z"))


class TestRng:
    def test_seed_reproducible(self):
        a = make_rng(42).random(5)
        b = make_rng(42).random(5)
        assert np.array_equal(a, b)
