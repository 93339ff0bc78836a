"""Layout construction, qubit classification, and parity conditions."""

import numpy as np
import pytest
from conftest import (
    FIVE,
    G_PRODUCT,
    H_FLIP,
    bilocal_layout,
    chsh_layout,
    codeword_angle,
    selection_a,
    selection_b,
    star_layout,
)

from oracles import embed, global_index, joint_state, random_layouts

from netbell import scenarios
from netbell.codes import builtin
from netbell.network import (
    NetworkLayout,
    OperatorSelection,
    check_parity,
    check_selection,
    classify,
)
from netbell.pauli import PauliString


class TestLayout:
    def test_global_indices_run_source_major(self):
        # the joint register of tests/oracles.py
        layout = bilocal_layout()
        assert global_index(layout, 1, 1) == 0
        assert global_index(layout, 1, 5) == 4
        assert global_index(layout, 2, 1) == 5
        assert global_index(layout, 2, 3) == 7
        with pytest.raises(ValueError, match="no qubit"):
            global_index(layout, 2, 6)

    def test_holder_follows_partition(self):
        layout = bilocal_layout()
        assert layout.holder(1) == 1
        assert layout.holder(2) == 2
        star = star_layout(3)
        assert [star.holder(i) for i in (1, 2, 3)] == [1, 2, 3]

    def test_agent_labels(self):
        layout = bilocal_layout()
        assert layout.agent_label(1) == "S1"
        assert layout.agent_label(2) == "S2"
        assert layout.agent_label(3) == "R1"
        assert layout.receivers == (3,)
        assert layout.source_agents == (1, 2)

    def test_equal_sources_share_one_state(self):
        # star(3)'s three codewords are built apart but kept once, with one
        # statevector; codewords at two angles stay apart
        layout = star_layout(3)
        first = layout.sources[0]
        assert all(src is first for src in layout.sources)
        assert all(src.state is first.state for src in layout.sources)
        apart = bilocal_layout(0.3, 0.5).sources
        assert apart[0] is not apart[1]
        assert apart[0].state is not apart[1].state

    def test_qubits_of_sorted(self):
        layout = bilocal_layout()
        assert layout.qubits_of(1) == ((1, 1),)
        assert layout.qubits_of(3) == (
            (1, 2), (1, 3), (1, 4), (1, 5),
            (2, 2), (2, 3), (2, 4), (2, 5),
        )

    @pytest.mark.parametrize(
        "name", [*sorted(scenarios.BUILTIN_SCENARIOS), "star(9)", "ghz-split(40,20)", "random"]
    )
    def test_qubits_of_index_matches_the_literal_scan(self, name):
        if name == "random":
            layouts = [layout for layout, _ in random_layouts()]
        else:
            layouts = [scenarios.builtin_scenario(name).layout]
        for layout in layouts:
            for agent in range(layout.K + layout.M + 2):
                scan = tuple((i, j) for i, j, a in layout.assignment if a == agent)
                assert layout.qubits_of(agent) == scan

    def test_joint_state_is_tensor_of_sources(self):
        phi = 0.6
        layout = chsh_layout(phi)
        want = np.zeros(4, dtype=complex)
        want[0b00] = np.cos(phi)
        want[0b11] = np.sin(phi)
        assert np.allclose(joint_state(layout).amplitudes, want, atol=1e-12)

        big = bilocal_layout(phi)
        single = codeword_angle(FIVE, phi).state.amplitudes
        assert np.allclose(
            joint_state(big).amplitudes, np.kron(single, single), atol=1e-12
        )

    def test_groups_tile_the_joint_state(self):
        # agent 1 holds sources 1 and 2, agent 2 source 3
        sources = tuple(codeword_angle(builtin("two-one-two"), p) for p in (0.2, 0.5, 0.9))
        layout = NetworkLayout(
            sources=sources,
            K=2,
            M=1,
            partition=(0, 2, 3),
            assignment=[(1, 1, 1), (2, 1, 1), (3, 1, 2)] + [(i, 2, 3) for i in (1, 2, 3)],
        )
        assert layout.group_widths == (4, 2)
        assert [layout.place(i, j) for i in (1, 2, 3) for j in (1, 2)] == [
            (1, 0), (1, 1), (1, 2), (1, 3), (2, 0), (2, 1)
        ]
        first, second = (state.amplitudes for state in layout.group_states)
        assert np.array_equal(first, np.kron(sources[0].state.amplitudes, sources[1].state.amplitudes))
        assert np.allclose(np.kron(first, second), joint_state(layout).amplitudes, atol=1e-15)

    def test_embed_hits_the_right_block(self):
        layout = bilocal_layout(0.3)
        lifted = embed(layout, 2, G_PRODUCT)
        assert lifted.letters == "I" * 5 + "ZZXIX"
        assert abs(joint_state(layout).expectation(lifted) - 1.0) < 1e-9

    def test_embed_rejects_wrong_size(self):
        with pytest.raises(ValueError, match="does not fit"):
            embed(bilocal_layout(), 1, PauliString("ZZ"))

    def test_rejects_double_assignment(self):
        with pytest.raises(ValueError, match="more than once"):
            NetworkLayout(
                sources=(codeword_angle(builtin("two-one-two"), 0.1),),
                K=1,
                M=1,
                partition=(0, 1),
                assignment=[(1, 1, 1), (1, 1, 2), (1, 2, 2)],
            )

    def test_rejects_missing_qubit(self):
        with pytest.raises(ValueError, match="missing"):
            NetworkLayout(
                sources=(codeword_angle(builtin("two-one-two"), 0.1),),
                K=1,
                M=1,
                partition=(0, 1),
                assignment=[(1, 1, 1)],
            )

    def test_rejects_unknown_agent(self):
        with pytest.raises(ValueError, match="unknown agent"):
            NetworkLayout(
                sources=(codeword_angle(builtin("two-one-two"), 0.1),),
                K=1,
                M=1,
                partition=(0, 1),
                assignment=[(1, 1, 1), (1, 2, 5)],
            )

    def test_rejects_qubit_at_foreign_source_agent(self):
        sources = (
            codeword_angle(builtin("two-one-two"), 0.1),
            codeword_angle(builtin("two-one-two"), 0.1),
        )
        with pytest.raises(ValueError, match="held by agent"):
            NetworkLayout(
                sources=sources,
                K=2,
                M=2,
                partition=(0, 1, 2),
                assignment=[(1, 1, 2), (1, 2, 3), (2, 1, 2), (2, 2, 4)],
            )

    def test_rejects_empty_receiver(self):
        with pytest.raises(ValueError, match="receiver R2 holds no qubits"):
            NetworkLayout(
                sources=(codeword_angle(builtin("two-one-two"), 0.1),),
                K=1,
                M=2,
                partition=(0, 1),
                assignment=[(1, 1, 1), (1, 2, 2)],
            )

    def test_rejects_source_with_no_held_qubit(self):
        with pytest.raises(ValueError, match="no qubit"):
            NetworkLayout(
                sources=(codeword_angle(builtin("two-one-two"), 0.1),),
                K=1,
                M=1,
                partition=(0, 1),
                assignment=[(1, 1, 2), (1, 2, 2)],
            )

    def test_rejects_bad_partition(self):
        src = (codeword_angle(builtin("two-one-two"), 0.1),)
        with pytest.raises(ValueError, match="partition"):
            NetworkLayout(
                sources=src, K=1, M=1, partition=(0, 2),
                assignment=[(1, 1, 1), (1, 2, 2)],
            )
        with pytest.raises(ValueError, match="partition"):
            NetworkLayout(
                sources=src, K=2, M=1, partition=(0, 1),
                assignment=[(1, 1, 1), (1, 2, 3)],
            )


def commuting_sets(layout, cls):
    """Per source, the positions whose (g, h) letters commute: those outside d_sets."""
    return tuple(
        tuple(j for j in range(1, size + 1) if not cls.delta(i, j))
        for i, size in enumerate(layout.source_sizes, start=1)
    )


class TestClassify:
    def test_flip_partner_classification(self):
        layout = bilocal_layout()
        cls = classify(layout, selection_a())
        assert cls.d_sets == ((1, 2), (1, 2))
        assert commuting_sets(layout, cls) == ((3, 4, 5), (3, 4, 5))
        assert cls.idle == ((1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5))
        assert cls.o_letter(1, 3) == "X"
        assert cls.o_letter(1, 4) == "X"
        assert cls.o_letter(2, 5) == "X"

    def test_generator_partner_classification(self):
        cls = classify(bilocal_layout(), selection_b())
        assert cls.d_sets == ((1, 3), (1, 3))
        assert cls.idle == ((1, 2), (1, 4), (1, 5), (2, 2), (2, 4), (2, 5))
        assert cls.o_letter(1, 2) == "Z"
        assert cls.o_letter(1, 4) == "X"
        assert cls.o_letter(1, 5) == "X"

    def test_equal_operators_give_empty_d(self):
        sel = OperatorSelection(g=(G_PRODUCT, G_PRODUCT), h=(G_PRODUCT, G_PRODUCT))
        cls = classify(bilocal_layout(), sel)
        assert cls.d_sets == ((), ())

    def test_classification_ignores_shared_identity_positions(self):
        code = builtin("ghz(3)")
        layout = NetworkLayout(
            sources=(codeword_angle(code, 0.4),),
            K=1,
            M=1,
            partition=(0, 1),
            assignment=[(1, 1, 1), (1, 2, 2), (1, 3, 2)],
        )
        bare = OperatorSelection(g=(PauliString("ZZI"),), h=(PauliString("XXI"),))
        dressed = OperatorSelection(g=(PauliString("ZZZ"),), h=(PauliString("XXZ"),))
        a, b = classify(layout, bare), classify(layout, dressed)
        assert a.d_sets == b.d_sets
        assert commuting_sets(layout, a) == commuting_sets(layout, b)

    def test_idle_with_no_letter_gets_no_o(self):
        code = builtin("ghz(3)")
        layout = NetworkLayout(
            sources=(codeword_angle(code, 0.4),),
            K=1,
            M=1,
            partition=(0, 1),
            assignment=[(1, 1, 1), (1, 2, 2), (1, 3, 2)],
        )
        sel = OperatorSelection(g=(PauliString("ZZI"),), h=(PauliString("XXI"),))
        cls = classify(layout, sel)
        assert cls.is_idle(1, 3)
        assert cls.o_letter(1, 3) is None

    def test_size_mismatch_rejected(self):
        sel = OperatorSelection(g=(PauliString("ZZ"), G_PRODUCT), h=(PauliString("XX"), H_FLIP))
        with pytest.raises(ValueError, match="source 1"):
            classify(bilocal_layout(), sel)

    def test_source_count_mismatch_rejected(self):
        sel = OperatorSelection(g=(G_PRODUCT,), h=(H_FLIP,))
        with pytest.raises(ValueError, match="sources"):
            classify(bilocal_layout(), sel)


class TestParity:
    def test_two_source_one_receiver_shape(self):
        # source-side facts hold; the single receiver collects an even
        # count so its fact and the K+M fact fail, by design of the shape
        layout = bilocal_layout()
        report = check_parity(layout, classify(layout, selection_a()))
        assert not report.source_side_failures()
        assert not report.receiver_side_passed
        assert not report.passed
        failed = {c.name for c in report.failures()}
        assert failed == {"agent R1 anticommuting count odd", "agent count K+M even"}

    def test_star_shape_all_pass(self):
        layout = star_layout(3)
        sel = OperatorSelection(g=(G_PRODUCT,) * 3, h=(H_FLIP,) * 3)
        report = check_parity(layout, classify(layout, sel))
        assert report.passed, str(report)

    def test_star_shape_needs_anticommuting_letter_at_held_qubit(self):
        # a single plain generator leaves the held qubit (i,2) commuting,
        # so the source-agent facts fail; the four-generator product fixes it
        layout = star_layout(3)
        plain = OperatorSelection(g=(FIVE.generators[3],) * 3, h=(H_FLIP,) * 3)
        report = check_parity(layout, classify(layout, plain))
        assert report.source_side_failures()

    def test_chsh_shape_all_pass(self):
        layout = chsh_layout()
        sel = OperatorSelection(g=(PauliString("ZZ"),), h=(PauliString("XX"),))
        report = check_parity(layout, classify(layout, sel))
        assert report.passed

    def test_ghz_split_shape_all_pass(self):
        code = builtin("ghz-split(4,2)")
        layout = NetworkLayout(
            sources=(codeword_angle(code, 0.5),),
            K=1,
            M=1,
            partition=(0, 1),
            assignment=[(1, 1, 1), (1, 2, 1), (1, 3, 2), (1, 4, 2)],
        )
        sel = OperatorSelection(g=(code.generators[0],), h=(code.logical_x[0],))
        report = check_parity(layout, classify(layout, sel))
        assert report.passed, str(report)

    def test_split_receiver_shape_fails(self):
        code = builtin("ghz(3)")
        layout = NetworkLayout(
            sources=(codeword_angle(code, 0.4),),
            K=1,
            M=2,
            partition=(0, 1),
            assignment=[(1, 1, 1), (1, 2, 2), (1, 3, 3)],
        )
        sel = OperatorSelection(g=(PauliString("ZZI"),), h=(PauliString("XXX"),))
        report = check_parity(layout, classify(layout, sel))
        assert not report.passed
        names = {c.name for c in report.failures()}
        assert "agent count K+M even" in names
        assert "agent R2 anticommuting count odd" in names

    def test_per_source_even_fact(self):
        layout = chsh_layout()
        sel = OperatorSelection(g=(PauliString("ZZ"),), h=(PauliString("XZ"),))
        report = check_parity(layout, classify(layout, sel))
        assert not any(
            c.passed for c in report.checks if c.name == "source 1 anticommuting count even"
        )

    def test_report_prints_one_line_per_fact(self):
        layout = bilocal_layout()
        report = check_parity(layout, classify(layout, selection_a()))
        lines = str(report).splitlines()
        assert len(lines) == len(report.checks)
        assert len(report.checks) == 2 + 2 + 1 + 1  # sources, S agents, R, K+M


class TestSelectionChecks:
    def test_valid_selection_passes(self):
        report = check_selection(bilocal_layout(), selection_a())
        assert report.passed, str(report)

    def test_generator_partner_passes(self):
        report = check_selection(bilocal_layout(), selection_b())
        assert report.passed

    def test_non_stabilizing_g_flagged(self):
        sel = OperatorSelection(
            g=(PauliString("ZIIII"), G_PRODUCT), h=(PauliString("ZZZZZ"), H_FLIP)
        )
        report = check_selection(bilocal_layout(), sel)
        bad = [c for c in report.checks if not c.passed]
        assert any("stabilizes" in c.name for c in bad)

    def test_noncommuting_pair_flagged(self):
        sel = OperatorSelection(
            g=(G_PRODUCT, G_PRODUCT), h=(PauliString("XIIII"), H_FLIP)
        )
        report = check_selection(bilocal_layout(), sel)
        assert any(
            not c.passed and "commute" in c.name for c in report.checks
        )

    def test_imaginary_phase_flagged(self):
        sel = OperatorSelection(
            g=(PauliString("ZZXIX", phase_exponent=1), G_PRODUCT), h=(H_FLIP, H_FLIP)
        )
        report = check_selection(bilocal_layout(), sel)
        assert any(
            not c.passed and "phases real" in c.name for c in report.checks
        )

    def test_size_mismatch_flagged_not_raised(self):
        sel = OperatorSelection(g=(PauliString("ZZ"), G_PRODUCT), h=(PauliString("XX"), H_FLIP))
        report = check_selection(bilocal_layout(), sel)
        assert not report.passed

    def test_h_prime_commutation_checked(self):
        sel = OperatorSelection(
            g=(G_PRODUCT, G_PRODUCT),
            h=(H_FLIP, H_FLIP),
            h_prime=(PauliString("XZIII"), None),
        )
        report = check_selection(bilocal_layout(), sel)
        assert any(
            not c.passed and "h_prime" in c.name for c in report.checks
        )

    def test_tilt_sources_lists_primed_slots(self):
        sel = OperatorSelection(
            g=(G_PRODUCT, G_PRODUCT),
            h=(H_FLIP, H_FLIP),
            h_prime=(None, FIVE.logical_z[0]),
        )
        assert sel.tilt_sources == (2,)

    def test_slot_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="slot"):
            OperatorSelection(g=(G_PRODUCT,), h=(H_FLIP, H_FLIP))
