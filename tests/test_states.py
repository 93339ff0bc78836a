import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netbell import states
from netbell.codes import StabilizerCode, builtin, codeword
from netbell.pauli import PauliString
from netbell.states import apply_pauli, codeword_state, group_state, make_rng
from oracles import dense, embed_positions, expectation, expectation_combo


def free_code(n):
    """n qubits carrying n logical qubits: no generators, so a codeword's
    amplitudes are its logical amplitudes."""
    return StabilizerCode(
        name=f"free({n})",
        n=n,
        k=n,
        generators=(),
        logical_x=tuple(PauliString("I" * a + "X" + "I" * (n - 1 - a)) for a in range(n)),
        logical_z=tuple(PauliString("I" * a + "Z" + "I" * (n - 1 - a)) for a in range(n)),
    )


def free_source(amps):
    amps = np.asarray(amps, dtype=complex)
    return codeword(free_code(amps.size.bit_length() - 1), amps)


def random_sources(max_n=4):
    def build(n, seed):
        rng = np.random.default_rng(seed)
        amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        return free_source(amps / np.linalg.norm(amps))

    return st.builds(build, st.integers(1, max_n), st.integers(0, 2**32 - 1))


def basis(n, index):
    amps = np.zeros(1 << n, dtype=complex)
    amps[index] = 1.0
    return amps


def random_state(rng, n):
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return amps / np.linalg.norm(amps)


def ghz(phi, n=3):
    amps = np.zeros(1 << n, dtype=complex)
    amps[0] = np.cos(phi)
    amps[-1] = np.sin(phi)
    return amps


PLUS = np.array([1 / np.sqrt(2), 1 / np.sqrt(2)], dtype=complex)


class TestConstruction:
    def test_qubit_cap(self):
        with pytest.raises(ValueError, match="cap"):
            codeword_state(codeword(builtin("ghz(21)"), (1.0, 0.0)))

    def test_qubit_cap_is_checked_before_allocating(self):
        # 2^40 amplitudes are 16 TiB: numpy would refuse them with a MemoryError
        source = codeword(builtin("ghz-split(40,20)"), (1.0, 0.0))
        codewords = {}
        with pytest.raises(ValueError, match="40 qubits exceeds the cap of 20"):
            group_state([source], codewords)
        assert codewords == {}
        with pytest.raises(ValueError, match="40 qubits exceeds the cap of 20"):
            codeword_state(source)

    def test_amplitudes_read_only(self):
        # the logical basis is searched once per code and shared
        zero, _ = states._logical_basis(builtin("two-one-two"))
        with pytest.raises(ValueError):
            zero[0] = 0.5


class TestTensor:
    def test_zero_one(self):
        product = group_state([free_source([1, 0]), free_source([0, 1])], {})
        assert np.array_equal(product, np.array([0, 1, 0, 0], dtype=complex))

    def test_plus_plus_uniform(self):
        plus = free_source(PLUS)
        codewords = {}
        product = group_state([plus, plus], codewords)
        assert np.allclose(product, np.full(4, 0.5))
        assert list(codewords) == [plus]

    @given(random_sources(max_n=3), random_sources(max_n=3))
    def test_norm_multiplicative(self, a, b):
        assert np.linalg.norm(group_state([a, b], {})) == pytest.approx(1.0)

    def test_cap(self):
        codewords = {}
        with pytest.raises(ValueError, match="21 qubits exceeds the cap of 20"):
            group_state([free_source(basis(11, 0)), free_source(basis(10, 0))], codewords)
        assert codewords == {}


class TestApply:
    def test_bit_flip(self):
        flipped = apply_pauli(basis(1, 0), PauliString("X"))
        assert np.array_equal(flipped, np.array([0, 1], dtype=complex))

    def test_minus_z_on_one(self):
        state = apply_pauli(basis(1, 1), -PauliString("Z"))
        assert np.array_equal(state, np.array([0, 1], dtype=complex))

    def test_imaginary_phase_exact(self):
        state = apply_pauli(basis(1, 0), PauliString("X", phase_exponent=1))
        assert state[1] == 1j

    def test_y_action(self):
        plus_i = apply_pauli(basis(1, 0), PauliString("Y"))
        assert plus_i[1] == 1j
        minus_i = apply_pauli(basis(1, 1), PauliString("Y"))
        assert minus_i[0] == -1j

    def test_qubit_order(self):
        # X on qubit 0 flips the most significant bit
        state = apply_pauli(basis(2, 0b00), PauliString("XI"))
        assert state[0b10] == 1.0

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
        state = random_state(np.random.default_rng(seed), p.n)
        assert np.allclose(apply_pauli(state, p), dense(p) @ state, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 5, 11, 14])
    def test_bits_equal_the_index_scatter(self, n):
        # the amplitudes scattered to index ^ x, each times the phase and
        # (-1) to the parity of index & z: bit for bit, signed zeros too
        rng = np.random.default_rng(n)
        state = random_state(rng, n)
        state[rng.integers(0, 1 << n, 1 << (n - 1))] = 0.0
        index = np.arange(1 << n)
        for text in ["I" * n, "Z" * n, "X" * n, "Y" * n] + [
            "".join(rng.choice(list("IXYZ"), n)) for _ in range(6)
        ]:
            z = PauliString(text).z
            signs = 1.0 - 2.0 * np.array([bin(i & z).count("1") & 1 for i in index])
            for k in range(4):
                p = PauliString(text, phase_exponent=k)
                phase = (1j) ** ((k + (p.x & p.z).bit_count()) % 4)
                want = np.empty(1 << n, dtype=complex)
                want[index ^ p.x] = phase * signs * state
                assert apply_pauli(state, p).tobytes() == want.tobytes(), (text, k)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            apply_pauli(basis(2, 0), PauliString("X"))


class TestExpectation:
    def test_plus_x(self):
        assert expectation(PLUS, PauliString("X")) == pytest.approx(1.0)

    def test_ghz_zzi_all_phi(self):
        for phi in np.linspace(0.0, np.pi / 2, 7):
            value = expectation(ghz(phi), PauliString("ZZI"))
            assert value == pytest.approx(1.0, abs=1e-12)

    def test_identity_is_one(self):
        amps = np.random.default_rng(7).normal(size=8) * 1j + 1
        state = amps / np.linalg.norm(amps)
        assert expectation(state, PauliString.identity(3)) == pytest.approx(1.0)

    def test_non_hermitian_rejected(self):
        # the codeword check compares the complex <g> with 1: a generator
        # with an imaginary phase has <g> = i on its own fixed state
        code = StabilizerCode(
            name="phased",
            n=1,
            k=0,
            generators=(PauliString("Z", phase_exponent=1),),
            logical_x=(),
            logical_z=(),
        )
        with pytest.raises(RuntimeError, match=r"generator \+iZ has expectation [\d.]+j on"):
            codeword_state(codeword(code, (1.0,)))

    def test_disjoint_support_factorizes(self):
        rng = np.random.default_rng(11)
        a, b = random_state(rng, 2), random_state(rng, 2)
        p = PauliString("XY")
        q = PauliString("ZZ")
        joint = expectation(
            group_state([free_source(a), free_source(b)], {}),
            embed_positions(p, [0, 1], 4) * embed_positions(q, [2, 3], 4),
        )
        assert joint == pytest.approx(expectation(a, p) * expectation(b, q))

    def test_combo(self):
        a0 = [(np.cos(np.pi / 4), PauliString("Z")), (np.sin(np.pi / 4), PauliString("X"))]
        assert expectation_combo(basis(1, 0), a0) == pytest.approx(1 / np.sqrt(2))

    def test_imaginary_residue_raises(self, monkeypatch):
        # a runtime check, not an assert, so it also holds under python -O;
        # it names the generator and its complex expectation
        monkeypatch.setattr("netbell.states.EXPECTATION_TOL", 0.0)
        with pytest.raises(RuntimeError, match=r"generator \+ZZ has expectation \(1(\.0)?\+0j\)"):
            codeword_state(codeword(builtin("two-one-two"), (1.0, 0.0)))


class TestRng:
    def test_seed_reproducible(self):
        a = make_rng(42).random(5)
        b = make_rng(42).random(5)
        assert np.array_equal(a, b)
