"""Observable synthesis: A pairs, B pairs, and the tilted construction."""

import itertools
import sys

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
    chsh_y,
    ghz_split_layout,
    one_group_star5,
    selection_a,
    split_receiver_star_layout,
    star_layout,
    star_selection,
)

from netbell import scenarios, states
from netbell.codes import builtin
from netbell.network import OperatorSelection, classify
from netbell.observables import (
    build_receiver,
    build_source,
    build_tilted,
    synthesize,
)
from netbell.pauli import PauliString
from oracles import (
    _random_candidate,
    custody,
    dense,
    embed,
    embed_positions,
    global_index,
    lift,
    logical_representative,
    random_layouts,
    support,
    synthesize_letters,
    tilt_constraints,
    tilted_layouts,
)


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
        tagged = [
            (obs.agent, lift(layout, [op], [obs.agent]))
            for obs in sources
            for op in (obs.s_piece, obs.t_piece)
        ]
        tagged += [(receivers[0].agent, lift(layout, receivers[0].b0_pieces))]
        tagged += [(receivers[0].agent, lift(layout, receivers[0].b1_pieces))]
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
        block = build_tilted(layout, cls, sel)
        assert block.tilt_sources == ()
        assert block.p_pieces == (PauliString("II"),)
        assert block.receivers[0].b0_bar == receivers[0].b0
        assert grafted_qubits(block.receivers[0], receivers[0]) == ()

    def test_two_qubit_phase_flip_without_graft(self):
        layout = chsh_layout()
        sel = chsh_selection(tilted=True)
        cls, _, receivers = synth(layout, sel)
        block = build_tilted(layout, cls, sel)
        tr = block.receivers[0]
        assert tr.b0_bar == receivers[0].b0  # nothing grafted
        assert tr.p_part.letters == "Z"
        assert tr.p_part.phase == 1
        assert block.p_pieces == (PauliString("IZ"),)
        # the sign of h_prime is attributed to the lowest receiver holding
        # its support: here agent 2, the only receiver
        anchor = min(custody(layout)[1, j + 1] for j in support(sel.h_prime[0]))
        assert anchor == 2

    def test_star_graft_and_sign(self):
        layout = star_layout(3)
        sel = star_selection(3)
        cls, _, receivers = synth(layout, sel)
        block = build_tilted(layout, cls, sel)
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
        block = build_tilted(layout, cls, sel)
        tr = block.receivers[0]
        # dropping the grafted outcomes and the attributed sign gives B0
        graft_global = PauliString.product(
            [embed(layout, i, PauliString("IIIXI")) for i in (1, 2, 3)]
        )
        recovered = -(lift(layout, tr.b0_bar_pieces) * graft_global)
        assert recovered == lift(layout, receivers[0].b0_pieces)

    def test_full_phase_flip_product(self):
        layout = star_layout(3)
        sel = star_selection(3)
        cls, _, receivers = synth(layout, sel)
        block = build_tilted(layout, cls, sel)
        want = PauliString.product(
            [embed(layout, i, H_PRIME_STAR) for i in (1, 2, 3)]
        )
        assert lift(layout, block.p_pieces) == want
        assert lift(layout, block.p_pieces).phase == -1
        # each group's piece carries its own h_prime's sign
        assert block.p_pieces == (H_PRIME_STAR,) * 3

    def test_bar_commutes_with_p_part(self):
        layout = star_layout(3)
        sel = star_selection(3)
        cls, _, receivers = synth(layout, sel)
        tr = build_tilted(layout, cls, sel).receivers[0]
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
            build_tilted(layout, cls, sel)

    def test_wrong_letter_at_measured_qubit_rejected(self):
        layout = chsh_layout()
        sel = OperatorSelection(
            g=(PauliString("ZZ"),),
            h=(PauliString("XX"),),
            h_prime=(PauliString("IY"),),
        )
        cls, _, receivers = synth(layout, sel)
        with pytest.raises(ValueError, match="receiver measures"):
            build_tilted(layout, cls, sel)

    def test_wrong_letter_at_idle_qubit_rejected(self):
        layout = star_layout(3)
        bad_prime = PauliString("ZIZXI", phase_exponent=2)  # Z on an X idle qubit
        sel = OperatorSelection(
            g=(G_PRODUCT,) * 3, h=(H_FLIP,) * 3, h_prime=(bad_prime,) * 3
        )
        cls, _, receivers = synth(layout, sel)
        with pytest.raises(ValueError, match="idle"):
            build_tilted(layout, cls, sel)

    @pytest.mark.parametrize(
        "layout,prime,text",
        [
            (chsh_layout, PauliString("IZ", 1), "source 1: h_prime must carry a real sign"),
            (chsh_layout, PauliString("II"), "source 1: h_prime has no support"),
            (
                chsh_layout,
                PauliString("ZI"),
                "source 1: h_prime acts as Z on source-side qubit (1,1); "
                "it must be identity there",
            ),
            (
                lambda: star_layout(3),
                PauliString("ZIZXI", 2),
                "source 1: h_prime acts as Z on idle qubit (1,3); only the "
                "repeated observable or identity is measurable there",
            ),
            (
                chsh_layout,
                PauliString("IY"),
                "source 1: h_prime acts as Y on qubit (1,2) but the receiver measures Z there",
            ),
            (
                lambda: star_layout(3),
                PauliString("IIXXI", 2),
                "source 1: h_prime acts as I on qubit (1,1) but the receiver measures Z there",
            ),
        ],
        ids=["imaginary", "no-support", "source-side", "idle", "wrong-letter", "missing-letter"],
    )
    def test_refusal_texts_are_pinned(self, layout, prime, text):
        layout = layout()
        plain = star_selection(layout.N, tilted=False) if layout.N > 1 else chsh_selection()
        sel = OperatorSelection(g=plain.g, h=plain.h, h_prime=(prime,) + (None,) * (layout.N - 1))
        with pytest.raises(ValueError) as err:
            build_tilted(layout, classify(layout, sel), sel)
        assert str(err.value) == text

    def test_constraints_feed_the_coset_search(self):
        layout = star_layout(3)
        sel = star_selection(3, tilted=False)
        constraints = tilt_constraints(layout, sel, 1)
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
        constraints = tilt_constraints(layout, sel, 1)
        assert constraints == {0: {"I"}, 1: {"Z"}}
        code = builtin("two-one-two")
        found = logical_representative(code, PauliString("ZI"), constraints)
        assert found == PauliString("IZ")


# tilted stars: name -> (builtin, parameters)
TILTED_STARS = {
    "star(3)-tilted": ("star(3)", {"phibar": 0.3927}),
    "star(5)-tilted": ("star(5)", {"phibar": 0.3927}),
    "star(5)-tilt2": ("star(5)", {"phibar": 0.3927, "tilt_count": 2}),
}


def reference_synthesis(name):
    """The synthesis of a builtin scenario, of a tilted star, of star(3)
    with its receiver split in two, or of star(5) in one 25-qubit group."""
    if name in TILTED_STARS:
        builtin_name, params = TILTED_STARS[name]
        scenario = scenarios.builtin_scenario(builtin_name, **params)
    elif name == "star(3)-split-receiver":
        return synthesize(
            split_receiver_star_layout(3), star_selection(3), allow_commuting_pair=True
        )
    elif name == "star(5)-one-group":
        scenario = scenarios.scenario_from_dict(one_group_star5())
    else:
        scenario = scenarios.builtin_scenario(name)
    return synthesize(
        scenario.layout,
        scenario.selection,
        allow_commuting_pair=scenario.allow_commuting_pair,
    )


REFERENCE_NAMES = sorted(scenarios.BUILTIN_SCENARIOS) + sorted(TILTED_STARS) + [
    "star(3)-split-receiver",
    "star(5)-one-group",
]


class TestPieces:
    """An observable's pieces on the groups of sources, lifted to the joint
    register, are its agent-local string embedded at the qubits' joint
    positions, which tests/oracles.py computes on its own."""

    @pytest.mark.parametrize("name", REFERENCE_NAMES)
    def test_lifted_pieces_are_the_embedded_local_strings(self, name):
        synthesis = reference_synthesis(name)
        layout, selection = synthesis.layout, synthesis.selection
        n = sum(layout.source_sizes)

        def embedded(local, qubits):
            return embed_positions(local, [global_index(layout, i, j) for i, j in qubits], n)

        for obs in synthesis.sources:
            for local, piece in ((obs.s_hat, obs.s_piece), (obs.t_hat, obs.t_piece)):
                assert piece.n == layout.group_widths[obs.agent - 1]
                assert lift(layout, [piece], [obs.agent]) == embedded(local, obs.qubits)
        parts = [
            (rec.qubits, local, pieces)
            for rec in synthesis.receivers
            for local, pieces in ((rec.b0, rec.b0_pieces), (rec.b1, rec.b1_pieces))
        ]
        if selection.tilt_sources:
            parts += [
                (tr.qubits, local, pieces)
                for tr in synthesis.tilt.receivers
                for local, pieces in ((tr.b0_bar, tr.b0_bar_pieces), (tr.p_part, tr.p_part_pieces))
            ]
            want = PauliString.product(
                [embed(layout, i, selection.h_prime[i - 1]) for i in selection.tilt_sources]
            )
            assert lift(layout, synthesis.tilt.p_pieces) == want
        else:
            assert synthesis.tilt is None
        for qubits, local, pieces in parts:
            assert tuple(piece.n for piece in pieces) == layout.group_widths
            assert lift(layout, pieces) == embedded(local, qubits)

    def test_one_group_past_the_cap_synthesizes_without_its_state(self, monkeypatch):
        # group widths come from the source sizes: synthesis never builds
        # the 25-qubit state that sample refuses
        def refuse(*args):
            raise AssertionError("synthesis built an amplitude array")

        builders = (states.group_state, states.codeword_state)
        for module in [m for name, m in sys.modules.items() if name.startswith("netbell")]:
            for attr, value in list(vars(module).items()):
                if any(value is builder for builder in builders):
                    monkeypatch.setattr(module, attr, refuse)
        synthesis = reference_synthesis("star(5)-one-group")
        assert synthesis.layout.group_widths == (25,)
        monkeypatch.undo()
        with pytest.raises(ValueError, match="25 qubits exceeds the cap of 20"):
            states.group_state(synthesis.layout.group_sources(1), {})

    def test_split_receiver_signs_ride_on_group_one(self):
        synthesis = reference_synthesis("star(3)-split-receiver")
        first, second = synthesis.tilt.receivers
        # R1 holds every h_prime's first letter, so it carries their signs
        assert first.p_part.phase == -1 and second.p_part.phase == 1
        assert [piece.phase for piece in first.p_part_pieces] == [-1, 1, 1]
        assert [piece.phase for piece in first.b0_bar_pieces] == [-1, 1, 1]


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


def both_routes(layout, selection, allow=False):
    """The synthesis cut from the x/z masks and the one built letter by
    letter in tests/oracles.py, or the text each refuses it with."""

    def run(route):
        try:
            return route(layout, selection, allow_commuting_pair=allow)
        except ValueError as err:
            return str(err)

    return run(synthesize), run(synthesize_letters)


def assert_routes_agree(got, want):
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
        return
    assert got.classification == want.classification
    assert got.sources == want.sources  # local strings and pieces
    assert got.receivers == want.receivers
    assert got.tilt == want.tilt


def with_letter(op, j0, letter):
    """op with letter at qubit j0, its sign kept."""
    letters = list(op.letters)
    letters[j0] = letter
    return PauliString(letters, op.phase_exponent)


class TestLetterRoute:
    """The classification, every local string and piece, and the tilted
    block, from the x/z masks and from tests/oracles.py's letter-by-letter
    route (the synthesis as it was before the masks), which must agree
    exactly."""

    @pytest.mark.parametrize("name", REFERENCE_NAMES)
    def test_builtins_and_reference_layouts(self, name):
        synthesis = reference_synthesis(name)
        got, want = both_routes(synthesis.layout, synthesis.selection, allow=True)
        assert_routes_agree(got, want)
        assert_routes_agree(synthesis, want)

    def test_chsh_measured_in_y(self):
        # h = -YY: the only Y letters, and a minus sign on h
        assert_routes_agree(*both_routes(*chsh_y()))

    def test_random_layouts(self):
        layouts = random_layouts()
        assert len(layouts) == 200
        for index, (layout, selection) in enumerate(layouts):
            got, want = both_routes(layout, selection)
            assert not isinstance(want, str), index
            assert_routes_agree(got, want)

    def test_tilted_random_layouts(self):
        layouts = tilted_layouts()
        assert len(layouts) == 155
        assert sum(len(selection.tilt_sources) == 2 for _, selection in layouts) == 28
        for index, (layout, selection) in enumerate(layouts):
            got, want = both_routes(layout, selection)
            assert not isinstance(want, str), index
            assert_routes_agree(got, want)

    def test_random_candidates_are_refused_alike(self):
        # unfiltered draws: many fail a parity condition, and both routes
        # must refuse them with the same text
        rng = np.random.default_rng(5)
        refused = 0
        for _ in range(400):
            candidate = _random_candidate(rng)
            if candidate is not None:
                got, want = both_routes(*candidate)
                assert_routes_agree(got, want)
                refused += isinstance(want, str)
        assert refused > 50

    @pytest.mark.parametrize("name", ["chsh-tilted", "star(3)-tilted", "tilted-random"])
    def test_every_h_prime_letter_is_judged_alike(self, name):
        # h_prime given each letter on each qubit of its first tilted
        # source: both routes build equal blocks or refuse with one text
        if name == "tilted-random":
            cases = tilted_layouts()[:40]
        else:
            synthesis = reference_synthesis(name)
            cases = [(synthesis.layout, synthesis.selection)]
        outcomes = []
        for layout, selection in cases:
            source = selection.tilt_sources[0]
            prime = selection.h_prime[source - 1]
            for j0, letter in itertools.product(range(prime.n), "IXYZ"):
                primes = list(selection.h_prime)
                primes[source - 1] = with_letter(prime, j0, letter)
                tilted = OperatorSelection(selection.g, selection.h, tuple(primes))
                got, want = both_routes(layout, tilted)
                assert_routes_agree(got, want)
                outcomes.append(isinstance(want, str))
        assert any(outcomes) and not all(outcomes)
