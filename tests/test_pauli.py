import numpy as np
import pytest
from hypothesis import given, strategies as st

from netbell.pauli import PauliString
from oracles import dense, table_product

# The four stabilizer generators of the five-qubit code, used across the
# test suite as a source of nontrivial products.
G1 = PauliString("XZZXI")
G2 = PauliString("IXZZX")
G3 = PauliString("XIXZZ")
G4 = PauliString("ZXIXZ")
ZBAR5 = PauliString("ZZZZZ")


def pauli_strings(min_n=1, max_n=6):
    letters = st.text(alphabet="IXYZ", min_size=min_n, max_size=max_n)
    return st.builds(PauliString, letters, phase_exponent=st.integers(0, 3))


def pauli_pairs(min_n=1, max_n=6):
    def make(letters_a, letters_b, ka, kb):
        return PauliString(letters_a, ka), PauliString(letters_b, kb)

    return st.integers(min_n, max_n).flatmap(
        lambda n: st.builds(
            make,
            st.text(alphabet="IXYZ", min_size=n, max_size=n),
            st.text(alphabet="IXYZ", min_size=n, max_size=n),
            st.integers(0, 3),
            st.integers(0, 3),
        )
    )


class TestMultiply:
    def test_single_qubit_xz(self):
        product = PauliString("X") * PauliString("Z")
        assert product.letters == "Y"
        assert product.phase == -1j

    def test_single_qubit_table(self):
        cases = {
            ("X", "Y"): (1j, "Z"),
            ("Y", "X"): (-1j, "Z"),
            ("Y", "Z"): (1j, "X"),
            ("Z", "Y"): (-1j, "X"),
            ("Z", "X"): (1j, "Y"),
            ("X", "X"): (1, "I"),
            ("Y", "Y"): (1, "I"),
            ("Z", "Z"): (1, "I"),
            ("I", "Y"): (1, "Y"),
            ("Y", "I"): (1, "Y"),
        }
        for (a, b), (phase, letter) in cases.items():
            product = PauliString(a) * PauliString(b)
            assert (product.phase, product.letters) == (phase, letter)

    def test_five_qubit_generator_product(self):
        product = PauliString.product([G1, G2, G3, G4])
        assert product.letters == "ZZXIX"
        assert product.phase == 1
        assert str(product) == "+ZZXIX"

    def test_revised_phase_flip_product(self):
        product = G1 * G3 * ZBAR5
        assert product.letters == "ZIXXI"
        assert product.phase == -1
        assert str(product) == "-ZIXXI"

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            PauliString("XX") * PauliString("X")

    def test_empty_product_needs_count(self):
        assert PauliString.product([], n=3) == PauliString.identity(3)
        with pytest.raises(ValueError):
            PauliString.product([])

    @given(pauli_pairs())
    def test_letters_commute_phase_tracks_order(self, pair):
        a, b = pair
        ab = a * b
        ba = b * a
        assert ab.letters == ba.letters
        assert (ab.phase == ba.phase) == a.commutes(b)

    @given(pauli_pairs())
    def test_involution_up_to_phase(self, pair):
        a, b = pair
        assert (a * (a * b)).letters == b.letters

    @given(pauli_strings())
    def test_square_collects_to_identity(self, p):
        square = p * p
        assert square.letters == "I" * p.n
        assert square.phase == (1 if p.is_hermitian() else -1)


class TestCommutes:
    def test_single_anticommuting(self):
        assert not PauliString("X").commutes(PauliString("Z"))

    def test_generators_commute(self):
        gens = [G1, G2, G3, G4]
        for a in gens:
            for b in gens:
                assert a.commutes(b)

    def test_two_clashes_cancel(self):
        assert PauliString("XX").commutes(PauliString("ZZ"))

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            PauliString("XX").commutes(PauliString("X"))

    @given(pauli_pairs())
    def test_parity_rule(self, pair):
        a, b = pair
        clashes = sum(
            1
            for la, lb in zip(a.letters, b.letters)
            if la != "I" and lb != "I" and la != lb
        )
        assert a.commutes(b) == (clashes % 2 == 0)


class TestEmbedRestrict:
    def test_embed_single(self):
        assert PauliString("Z").embed([1], 3) == PauliString("IZI")

    def test_embed_block(self):
        embedded = G4.embed([5, 6, 7, 8, 9], 10)
        assert embedded.letters == "IIIII" + "ZXIXZ"
        assert embedded.phase == 1

    def test_embed_keeps_phase(self):
        embedded = PauliString("XY", phase_exponent=3).embed([0, 2], 4)
        assert embedded == PauliString("XIYI", phase_exponent=3)

    def test_embed_permutes(self):
        assert PauliString("XZ").embed([2, 0], 3) == PauliString("ZIX")

    def test_disjoint_embeds_commute(self):
        a = PauliString("XY").embed([0, 1], 5)
        b = PauliString("ZZ").embed([3, 4], 5)
        assert a.commutes(b)
        assert a * b == b * a

    def test_embed_errors(self):
        with pytest.raises(ValueError, match="positions"):
            PauliString("XX").embed([0], 3)
        with pytest.raises(ValueError, match="duplicate"):
            PauliString("XX").embed([1, 1], 3)
        with pytest.raises(ValueError, match="out of range"):
            PauliString("XX").embed([0, 3], 3)

    def test_restrict_first_qubit(self):
        assert PauliString("ZZXIX").restrict([0]) == PauliString("Z")

    def test_restrict_receiver_letters(self):
        assert PauliString("ZZXIX").restrict([1, 2, 4]) == PauliString("ZXX")

    def test_restrict_everything_is_identity_map(self):
        p = PauliString("ZZXIX")
        assert p.restrict(range(5)) == p

    def test_restrict_drops_phase(self):
        p = PauliString("ZZXIX", phase_exponent=2)
        assert p.restrict([0, 1]).phase == 1

    def test_restrict_errors(self):
        with pytest.raises(ValueError, match="out of range"):
            PauliString("XX").restrict([2])
        with pytest.raises(ValueError, match="empty"):
            PauliString("XX").restrict([])


def wide_letter_pairs(max_n=70):
    """Raw (letters_a, ka, letters_b, kb) on up to 70 qubits, past one 64-bit word."""
    return st.integers(1, max_n).flatmap(
        lambda n: st.tuples(
            st.text(alphabet="IXYZ", min_size=n, max_size=n),
            st.integers(0, 7),
            st.text(alphabet="IXYZ", min_size=n, max_size=n),
            st.integers(0, 7),
        )
    )


class TestWideStrings:
    @given(wide_letter_pairs())
    def test_product_matches_single_qubit_table(self, raw):
        la, ka, lb, kb = raw
        product = PauliString(la, ka) * PauliString(lb, kb)
        assert (product.letters, product.phase_exponent) == table_product(la, ka, lb, kb)

    @given(wide_letter_pairs())
    def test_commutes_matches_single_qubit_table(self, raw):
        la, _, lb, _ = raw
        ab = table_product(la, 0, lb, 0)
        ba = table_product(lb, 0, la, 0)
        assert PauliString(la).commutes(PauliString(lb)) == (ab == ba)

    @given(wide_letter_pairs(), st.data())
    def test_equality_and_hash_follow_letters_and_phase(self, raw, data):
        # b differs from a in at most one letter, so near misses are common.
        la, ka, _, kb = raw
        j = data.draw(st.integers(0, len(la) - 1))
        lb = la[:j] + data.draw(st.sampled_from("IXYZ")) + la[j + 1 :]
        a, b = PauliString(la, ka), PauliString(lb, kb)
        same = (la, ka % 4) == (lb, kb % 4)
        assert (a == b) == same
        assert a == PauliString(la, ka)
        assert hash(a) == hash(PauliString(la, ka))
        assert len({a, b}) == (1 if same else 2)

    @given(wide_letter_pairs())
    def test_accessors_read_back_the_letters(self, raw):
        la, ka, _, _ = raw
        p = PauliString(la, ka)
        assert (p.letters, p.n, p.phase_exponent) == (la, len(la), ka % 4)
        assert p.support == tuple(j for j, c in enumerate(la) if c != "I")
        assert p.weight == len(p.support)
        assert [p.letter(j) for j in range(p.n)] == list(la)


class TestDenseOracle:
    @given(pauli_pairs(max_n=5))
    def test_product_matches_matrix_arithmetic_exactly(self, pair):
        a, b = pair
        product = dense(a * b)
        oracle = dense(a) @ dense(b)
        assert np.array_equal(product, oracle)

    @given(pauli_pairs(max_n=5))
    def test_commutator_matches_matrices_exactly(self, pair):
        a, b = pair
        ma, mb = dense(a), dense(b)
        assert a.commutes(b) == np.array_equal(ma @ mb, mb @ ma)


class TestTextForm:
    @pytest.mark.parametrize(
        "text,letters,phase",
        [
            ("XZZXI", "XZZXI", 1),
            ("+ZZXIX", "ZZXIX", 1),
            ("-IZXXI", "IZXXI", -1),
            ("iXY", "XY", 1j),
            ("+iXY", "XY", 1j),
            ("-iZZ", "ZZ", -1j),
        ],
    )
    def test_parse(self, text, letters, phase):
        p = PauliString.from_text(text)
        assert (p.letters, p.phase) == (letters, phase)

    def test_printer_always_signs(self):
        assert str(PauliString("ZZXIX")) == "+ZZXIX"
        assert str(-PauliString("ZIXXI")) == "-ZIXXI"
        assert str(PauliString("XY", phase_exponent=1)) == "+iXY"
        assert str(PauliString("XY", phase_exponent=3)) == "-iXY"

    @given(pauli_strings())
    def test_round_trip(self, p):
        assert PauliString.from_text(str(p)) == p

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            PauliString.from_text("-")
        with pytest.raises(ValueError):
            PauliString.from_text("XQ")


class TestAccessors:
    def test_weight_and_support(self):
        p = PauliString("ZIXXI")
        assert p.weight == 3
        assert p.support == (0, 2, 3)

    def test_identity_and_hermitian(self):
        assert PauliString.identity(4).letters == "IIII"
        assert PauliString("II", phase_exponent=2).letters == "II"
        assert PauliString("XY").is_hermitian()
        assert not PauliString("XY", phase_exponent=1).is_hermitian()

    def test_negation(self):
        assert (-PauliString("Z")).phase == -1

    def test_value_semantics(self):
        assert PauliString("XZ") == PauliString("XZ")
        assert PauliString("XZ") != PauliString("XZ", phase_exponent=1)
        assert hash(PauliString("XZ")) == hash(PauliString("XZ"))
        assert len({PauliString("XZ"), PauliString("XZ")}) == 1

    def test_rejects_empty_and_bad_letters(self):
        with pytest.raises(ValueError):
            PauliString("")
        with pytest.raises(ValueError):
            PauliString("XA")
