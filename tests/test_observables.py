"""Observable synthesis: A pairs, B pairs, and the tilted construction."""

import numpy as np
import pytest
from conftest import (
    FIVE,
    G_PRODUCT,
    H_FLIP,
    H_PRIME_STAR,
    bilocal_layout,
    chsh_layout,
    chsh_selection,
    ghz_split_layout,
    selection_a,
    star_layout,
    star_selection,
)

from netbell.codes import builtin
from netbell.network import OperatorSelection, classify
from netbell.observables import (
    build_receiver,
    build_source,
    build_tilted,
    synthesize,
    tilt_constraints,
)
from netbell.pauli import PauliString
from oracles import dense, logical_representative


def synth(layout, selection, allow_commuting=False):
    cls = classify(layout, selection)
    sources = build_source(layout, cls, selection)
    receivers = build_receiver(
        layout, cls, selection, allow_commuting_pair=allow_commuting
    )
    return cls, sources, receivers


def local_a(obs, x, theta=np.pi / 4):
    """A_x on the agent's own qubits: cos(theta) s_hat +/- sin(theta) t_hat."""
    sign = 1.0 if x == 0 else -1.0
    return [(np.cos(theta), obs.s_hat), (sign * np.sin(theta), obs.t_hat)]


def grafted_qubits(tilted_receiver, receiver):
    """The qubits where B0bar carries a letter that B0 lacks."""
    return tuple(
        q
        for q, bar, plain in zip(
            receiver.qubits, tilted_receiver.b0_bar.letters, receiver.b0.letters
        )
        if bar != plain
    )


class TestSourceObservables:
    def test_balanced_mixing_on_held_qubit(self):
        layout = bilocal_layout()
        _, sources, _ = synth(layout, selection_a(), allow_commuting=True)
        for obs in sources:
            assert obs.s_hat == PauliString("Z")
            assert obs.t_hat == PauliString("X")
            a0 = sum(c * dense(p) for c, p in local_a(obs, 0))
            want = (dense(PauliString("Z")) + dense(PauliString("X"))) / np.sqrt(2)
            assert np.allclose(a0, want, atol=1e-12)

    def test_sum_and_difference_recover_s_and_t(self):
        layout = chsh_layout()
        theta = 0.37
        _, sources, _ = synth(layout, chsh_selection())
        obs = sources[0]
        a0 = sum(c * dense(p) for c, p in local_a(obs, 0, theta))
        a1 = sum(c * dense(p) for c, p in local_a(obs, 1, theta))
        assert np.allclose(a0 + a1, 2 * np.cos(theta) * dense(obs.s_hat), atol=1e-12)
        assert np.allclose(a1 - a0, -2 * np.sin(theta) * dense(obs.t_hat), atol=1e-12)

    def test_a_pair_anticommutes_at_balanced_angle(self):
        layout = chsh_layout()
        _, sources, _ = synth(layout, chsh_selection())
        obs = sources[0]
        a0 = sum(c * dense(p) for c, p in local_a(obs, 0))
        a1 = sum(c * dense(p) for c, p in local_a(obs, 1))
        assert np.allclose(a0 @ a1 + a1 @ a0, 0.0, atol=1e-12)
        assert np.allclose(a0 @ a0, np.eye(2), atol=1e-12)
        assert np.allclose(a1 @ a1, np.eye(2), atol=1e-12)

    def test_zero_angle_degenerates_to_s(self):
        layout = chsh_layout()
        _, sources, _ = synth(layout, chsh_selection())
        terms0 = sources[0].a_terms(0, 0.0)
        terms1 = sources[0].a_terms(1, 0.0)
        assert terms0[0] == (1.0, PauliString("ZI"))
        assert terms1[1][1] == PauliString("XI")
        assert terms0[1][0] == 0.0
        assert terms1[1][0] == 0.0

    def test_s_t_anticommute_for_valid_layouts(self):
        layout = star_layout(3)
        _, sources, _ = synth(layout, star_selection(3, tilted=False))
        for obs in sources:
            assert obs.s_hat.anticommutes(obs.t_hat)

    def test_refuses_even_source_agent_parity(self):
        layout = star_layout(3)
        plain = OperatorSelection(g=(FIVE.generators[3],) * 3, h=(H_FLIP,) * 3)
        cls = classify(layout, plain)
        with pytest.raises(ValueError, match="would not anticommute"):
            build_source(layout, cls, plain)

    def test_distinct_agents_commute_globally(self):
        layout = star_layout(3)
        _, sources, receivers = synth(layout, star_selection(3, tilted=False))
        tagged = [(obs.agent, op) for obs in sources for op in (obs.s_global, obs.t_global)]
        tagged += [(receivers[0].agent, receivers[0].b0_global)]
        tagged += [(receivers[0].agent, receivers[0].b1_global)]
        for a in range(len(tagged)):
            for b in range(a + 1, len(tagged)):
                if tagged[a][0] != tagged[b][0]:
                    assert tagged[a][1].commutes(tagged[b][1])

    def test_angle_count_must_match(self):
        synthesis = synthesize(bilocal_layout(), selection_a(), allow_commuting_pair=True)
        with pytest.raises(ValueError, match="angles"):
            synthesis.angles((0.1,))


class TestReceiverObservables:
    def test_flip_partner_products(self):
        layout = bilocal_layout()
        _, _, receivers = synth(layout, selection_a(), allow_commuting=True)
        rec = receivers[0]
        assert rec.b0.letters == "ZXIX" * 2
        assert rec.b1.letters == "XXXX" * 2
        assert rec.b0.phase == 1 and rec.b1.phase == 1

    def test_agent_annotated_text_form(self):
        layout = bilocal_layout()
        _, _, receivers = synth(layout, selection_a(), allow_commuting=True)
        lines = receivers[0].describe("R1")
        assert lines[0] == "R1: B0 = Z(1,2)X(1,3)X(1,5)·Z(2,2)X(2,3)X(2,5)"
        assert lines[1] == "R1: B1 = X(1,2)X(1,3)X(1,4)X(1,5)·X(2,2)X(2,3)X(2,4)X(2,5)"

    def test_generator_partner_b1(self):
        layout = bilocal_layout()
        sel = OperatorSelection(
            g=(G_PRODUCT,) * 2, h=(FIVE.generators[0],) * 2
        )
        _, _, receivers = synth(layout, sel, allow_commuting=True)
        lines = receivers[0].describe("R1")
        assert lines[1] == "R1: B1 = Z(1,2)Z(1,3)X(1,4)·Z(2,2)Z(2,3)X(2,4)"

    def test_single_source_split_products(self):
        layout = ghz_split_layout(4, 2)
        code = builtin("ghz-split(4,2)")
        sel = OperatorSelection(g=(code.generators[0],), h=(code.logical_x[0],))
        _, _, receivers = synth(layout, sel)
        rec = receivers[0]
        assert rec.b0.letters == "ZI"
        assert rec.b1.letters == "XX"

    def test_b_pair_anticommutes_when_parity_holds(self):
        layout = star_layout(3)
        _, _, receivers = synth(layout, star_selection(3, tilted=False))
        assert receivers[0].b0.anticommutes(receivers[0].b1)

    def test_commuting_pair_refused_by_default(self):
        layout = bilocal_layout()
        sel = selection_a()
        cls = classify(layout, sel)
        with pytest.raises(ValueError, match="would commute"):
            build_receiver(layout, cls, sel)

    def test_commuting_pair_allowed_when_asked(self):
        layout = bilocal_layout()
        sel = selection_a()
        cls = classify(layout, sel)
        receivers = build_receiver(layout, cls, sel, allow_commuting_pair=True)
        assert receivers[0].b0.commutes(receivers[0].b1)


class TestTilted:
    def test_trivial_when_no_tilt_sources(self):
        layout = chsh_layout()
        sel = chsh_selection(tilted=False)
        cls, _, receivers = synth(layout, sel)
        block = build_tilted(layout, cls, sel, receivers)
        assert block.tilt_sources == ()
        assert block.p_full.weight == 0 and block.p_full.phase == 1
        assert block.receivers[0].b0_bar == receivers[0].b0
        assert grafted_qubits(block.receivers[0], receivers[0]) == ()

    def test_two_qubit_phase_flip_without_graft(self):
        layout = chsh_layout()
        sel = chsh_selection(tilted=True)
        cls, _, receivers = synth(layout, sel)
        block = build_tilted(layout, cls, sel, receivers)
        tr = block.receivers[0]
        assert tr.b0_bar == receivers[0].b0  # nothing grafted
        assert tr.p_part.letters == "Z"
        assert tr.p_part.phase == 1
        assert block.p_full == PauliString("IZ")
        # the sign of h_prime is attributed to the lowest receiver holding
        # its support: here agent 2, the only receiver
        anchor = min(layout.agent_of(1, j + 1) for j in sel.h_prime[0].support)
        assert anchor == 2

    def test_star_graft_and_sign(self):
        layout = star_layout(3)
        sel = star_selection(3)
        cls, _, receivers = synth(layout, sel)
        block = build_tilted(layout, cls, sel, receivers)
        tr = block.receivers[0]
        # the grafted letters sit on the fourth qubit of every source and
        # the three negative phase-flip signs collapse onto the receiver
        graft = -(tr.b0_bar * receivers[0].b0)
        assert graft.letters == "IIXI" * 3
        assert graft.phase == 1
        assert tr.b0_bar.phase == -1
        assert tr.b0_bar.letters == "ZXXX" * 3
        assert grafted_qubits(tr, receivers[0]) == ((1, 4), (2, 4), (3, 4))
        assert tr.p_part.phase == -1
        assert tr.p_part.letters == "ZXXI" * 3
        p_qubits = tuple(q for q, letter in zip(tr.qubits, tr.p_part.letters) if letter != "I")
        assert p_qubits == tuple(
            (i, j) for i in (1, 2, 3) for j in (1, 3, 4)
        )

    def test_star_bar_identity_recovers_b0(self):
        layout = star_layout(3)
        sel = star_selection(3)
        cls, _, receivers = synth(layout, sel)
        block = build_tilted(layout, cls, sel, receivers)
        tr = block.receivers[0]
        # dropping the grafted outcomes and the attributed sign gives B0
        graft_global = PauliString.product(
            [layout.embed(i, PauliString("IIIXI")) for i in (1, 2, 3)]
        )
        recovered = -(tr.b0_bar_global * graft_global)
        assert recovered == receivers[0].b0_global

    def test_full_phase_flip_product(self):
        layout = star_layout(3)
        sel = star_selection(3)
        cls, _, receivers = synth(layout, sel)
        block = build_tilted(layout, cls, sel, receivers)
        want = PauliString.product(
            [layout.embed(i, H_PRIME_STAR) for i in (1, 2, 3)]
        )
        assert block.p_full == want
        assert block.p_full.phase == -1

    def test_bar_commutes_with_p_part(self):
        layout = star_layout(3)
        sel = star_selection(3)
        cls, _, receivers = synth(layout, sel)
        tr = build_tilted(layout, cls, sel, receivers).receivers[0]
        graft = -(tr.b0_bar * receivers[0].b0)
        assert tr.b0_bar.commutes(tr.p_part)
        assert tr.b0_bar.commutes(graft)
        assert tr.p_part.commutes(graft)

    def test_source_side_support_rejected(self):
        layout = chsh_layout()
        sel = OperatorSelection(
            g=(PauliString("ZZ"),),
            h=(PauliString("XX"),),
            h_prime=(PauliString("ZI"),),
        )
        cls, _, receivers = synth(layout, sel)
        with pytest.raises(ValueError, match="identity there"):
            build_tilted(layout, cls, sel, receivers)

    def test_wrong_letter_at_measured_qubit_rejected(self):
        layout = chsh_layout()
        sel = OperatorSelection(
            g=(PauliString("ZZ"),),
            h=(PauliString("XX"),),
            h_prime=(PauliString("IY"),),
        )
        cls, _, receivers = synth(layout, sel)
        with pytest.raises(ValueError, match="receiver measures"):
            build_tilted(layout, cls, sel, receivers)

    def test_wrong_letter_at_idle_qubit_rejected(self):
        layout = star_layout(3)
        bad_prime = PauliString("ZIZXI", phase_exponent=2)  # Z on an X idle qubit
        sel = OperatorSelection(
            g=(G_PRODUCT,) * 3, h=(H_FLIP,) * 3, h_prime=(bad_prime,) * 3
        )
        cls, _, receivers = synth(layout, sel)
        with pytest.raises(ValueError, match="idle"):
            build_tilted(layout, cls, sel, receivers)

    def test_constraints_feed_the_coset_search(self):
        layout = star_layout(3)
        sel = star_selection(3, tilted=False)
        cls = classify(layout, sel)
        constraints = tilt_constraints(layout, cls, sel, 1)
        assert constraints == {
            0: {"Z"},
            1: {"I"},
            2: {"X", "I"},
            3: {"X", "I"},
            4: {"X", "I"},
        }
        found = logical_representative(FIVE, FIVE.logical_z[0], constraints)
        assert found == H_PRIME_STAR

    def test_representative_search_for_two_qubit_code(self):
        # a phase-flip written on the source-side qubit fails the support
        # condition; the coset search relocates it to the receiver
        layout = chsh_layout()
        sel = chsh_selection(tilted=False)
        cls = classify(layout, sel)
        constraints = tilt_constraints(layout, cls, sel, 1)
        assert constraints == {0: {"I"}, 1: {"Z"}}
        code = builtin("two-one-two")
        found = logical_representative(code, PauliString("ZI"), constraints)
        assert found == PauliString("IZ")


class TestDescribe:
    def test_full_listing(self):
        text = synthesize(chsh_layout(), chsh_selection(tilted=True)).describe((np.pi / 4,))
        assert "S1: A0 = cos(0.78540)*Z(1,1) + sin(0.78540)*X(1,1)" in text
        assert "S1: A1 = cos(0.78540)*Z(1,1) - sin(0.78540)*X(1,1)" in text
        assert "R1: B0 = Z(1,2)" in text
        assert "R1: B1 = X(1,2)" in text
        assert "R1: B0bar = Z(1,2)" in text
        assert "R1: Ppart = Z(1,2)" in text

    def test_negative_sign_rendered(self):
        text = synthesize(star_layout(3), star_selection(3)).describe((np.pi / 4,) * 3)
        assert "R1: B0bar = -Z(1,1)X(1,3)X(1,4)X(1,5)·Z(2,1)" in text
