"""Acceptance gate: ten end-to-end checks, one test per criterion.

Each criterion is a single test function; the conftest terminal hook
prints one PASS/FAIL line per criterion at the end of the run.
"""

import math

import numpy as np

from netbell import bell, classical, sampling, scenarios
from netbell.classical import NetworkShape
from netbell.codes import builtin
from netbell.network import (
    NetworkLayout,
    OperatorSelection,
    check_parity,
    check_selection,
    classify,
)
from netbell.observables import build_receiver, build_source, synthesize
from netbell.pauli import PauliString

from conftest import (
    bilocal_layout,
    chsh_layout,
    chsh_selection,
    codeword_angle,
    selection_a,
    selection_b,
)
from oracles import _random_candidate, dense, loop_scan

CRITERIA = {
    1: "pair-source closed form 2*sqrt(1+sin^2 2phi) over three angles",
    2: "paired five-qubit sources reach sqrt(2) and sqrt(1.5) with measured C",
    3: "logical-basis variant gives C=1 and maximum sqrt(2)",
    4: "substitute states leave both correlators unchanged over a theta grid",
    5: "exhaustive classical enumeration returns exactly 1.0",
    6: "parity-valid random scenarios anticommute; violators are refused",
    7: "tilted optimum is stationary, grid-dominant, and strictly violating",
    8: "five-qubit generators stabilize every codeword; operator prints match",
    9: "seeded sampling lands within four standard errors in both modes",
    10: "string operator algebra matches dense matrix arithmetic exactly",
}

TOL = 1e-9

def evaluate_at(layout, selection, thetas, *, allow=False):
    return bell.evaluate(synthesize(layout, selection, allow_commuting_pair=allow), thetas)


def test_criterion_01_pair_closed_form():
    for phi in (math.pi / 8, math.pi / 6, math.pi / 4):
        report = bell.maximize(synthesize(chsh_layout(phi), chsh_selection()))
        target = 2.0 * math.sqrt(1.0 + math.sin(2 * phi) ** 2)
        assert abs(2.0 * report.quantum_value - target) <= TOL
    report = bell.maximize(synthesize(chsh_layout(math.pi / 4), chsh_selection()))
    assert abs(2.0 * report.quantum_value - 2.0 * math.sqrt(2.0)) <= TOL


def test_criterion_02_paired_five_qubit_sources():
    report = evaluate_at(
        bilocal_layout(math.pi / 4),
        selection_a(),
        (math.pi / 4, math.pi / 4),
        allow=True,
    )
    assert abs(report.quantum_value - math.sqrt(2.0)) <= TOL

    report = bell.maximize(
        synthesize(bilocal_layout(math.pi / 8), selection_a(), allow_commuting_pair=True)
    )
    measured_c = abs(math.sin(math.pi / 4) * math.sin(math.pi / 4)) ** 0.5
    assert abs(report.big_c - measured_c) <= TOL
    assert abs(report.quantum_value - math.sqrt(1.5)) <= TOL


def test_criterion_03_logical_basis_variant():
    layout = bilocal_layout(0.0, math.pi / 2)
    report = bell.maximize(synthesize(layout, selection_b(), allow_commuting_pair=True))
    assert abs(report.big_c - 1.0) <= TOL
    assert abs(report.quantum_value - math.sqrt(2.0)) <= TOL


def pair_substitute_layout(phi):
    code = builtin("two-one-two")
    sources = (codeword_angle(code, phi), codeword_angle(code, phi))
    assignment = [(1, 1, 1), (2, 1, 2), (1, 2, 3), (2, 2, 3)]
    return NetworkLayout(
        sources=sources, K=2, M=1, partition=(0, 1, 2), assignment=assignment
    )


def test_criterion_04_substitute_states():
    thetas = np.linspace(0.0, math.pi / 2, 19)
    pair_selection = OperatorSelection(
        g=(PauliString("ZZ"),) * 2, h=(PauliString("XX"),) * 2
    )
    phi = math.pi / 8
    for theta in thetas:
        full = evaluate_at(
            bilocal_layout(phi), selection_a(), (theta, theta), allow=True
        )
        substitute = evaluate_at(
            pair_substitute_layout(phi), pair_selection, (theta, theta), allow=True
        )
        assert abs(full.i_value - substitute.i_value) <= TOL
        assert abs(full.j_value - substitute.j_value) <= TOL

    phi_prime = 0.4
    for theta in thetas:
        basis = evaluate_at(
            bilocal_layout(0.0, math.pi / 2), selection_b(), (theta, theta), allow=True
        )
        substitute = evaluate_at(
            bilocal_layout(phi_prime, phi_prime),
            selection_b(),
            (theta, theta),
            allow=True,
        )
        assert abs(basis.i_value - substitute.i_value) <= TOL
        assert abs(basis.j_value - substitute.j_value) <= TOL


def test_criterion_05_exhaustive_classical_bound():
    shape = NetworkShape.from_layout(bilocal_layout())
    assert (shape.k, shape.m, shape.n) == (2, 1, 2)
    # the literal enumeration of every table under every point label,
    # against the package's closed form
    value, _, scanned = loop_scan(shape, (2, 2), None)
    assert scanned == 262144
    assert value == 1.0
    report = classical.max_deterministic(shape, (2, 2))
    assert report.value == value
    assert report.stochastic_value <= 1.0 + TOL


def _letters_anticommute_odd(a: PauliString, b: PauliString) -> bool:
    count = sum(
        1
        for x, y in zip(a.letters, b.letters)
        if x != "I" and y != "I" and x != y
    )
    return count % 2 == 1


def _assert_pair_anticommutes(local_a, local_b, qubit_count):
    if qubit_count <= 6:
        da, db = dense(local_a), dense(local_b)
        anti = da @ db + db @ da
        assert np.max(np.abs(anti)) <= 1e-12
    else:
        assert _letters_anticommute_odd(local_a, local_b)


def test_criterion_06_parity_implies_anticommutation():
    rng = np.random.default_rng(20260816)
    valid, source_violators, receiver_violators = [], [], []
    attempts = 0
    while len(valid) < 200 and attempts < 5000:
        attempts += 1
        candidate = _random_candidate(rng)
        if candidate is None:
            continue
        layout, selection = candidate
        if not check_selection(layout, selection).passed:
            continue
        parity = check_parity(layout, classify(layout, selection))
        if parity.passed:
            valid.append(candidate)
        elif parity.source_side_failures():
            source_violators.append(candidate)
        elif len(receiver_violators) < 40:
            receiver_violators.append(candidate)
    assert len(valid) == 200

    for layout, selection in valid:
        classification = classify(layout, selection)
        thetas = tuple(rng.uniform(0.1, math.pi / 2 - 0.1) for _ in range(layout.K))
        sources = build_source(layout, classification, selection)
        receivers = build_receiver(layout, classification, selection)
        for family, theta in zip(sources, thetas):
            n_held = len(family.qubits)
            if n_held <= 6:
                s, t = dense(family.s_hat), dense(family.t_hat)
                # The building blocks anticommute exactly.
                assert np.array_equal(s @ t, -(t @ s))
                # The balanced pair anticommutes as stated.
                half = math.sqrt(0.5)
                a0, a1 = half * (s + t), half * (s - t)
                assert np.max(np.abs(a0 @ a1 + a1 @ a0)) <= 1e-12
                # At a generic angle both settings stay involutions,
                # which needs the anticommutation above.
                eye = np.eye(2**n_held)
                for sign in (1.0, -1.0):
                    ax = math.cos(theta) * s + sign * math.sin(theta) * t
                    assert np.max(np.abs(ax @ ax - eye)) <= 1e-12
            else:
                assert _letters_anticommute_odd(family.s_hat, family.t_hat)
        for pair in receivers:
            _assert_pair_anticommutes(pair.b0, pair.b1, len(pair.qubits))

    assert len(source_violators) >= 40
    assert len(receiver_violators) >= 40
    for layout, selection in source_violators[:40]:
        classification = classify(layout, selection)
        try:
            build_source(layout, classification, selection)
        except ValueError:
            continue
        raise AssertionError("source-side parity violator was not refused")
    for layout, selection in receiver_violators[:40]:
        classification = classify(layout, selection)
        try:
            build_receiver(layout, classification, selection)
        except ValueError:
            build_receiver(
                layout, classification, selection, allow_commuting_pair=True
            )
            continue
        raise AssertionError("receiver-side parity violator was not refused")


def test_criterion_07_tilted_optimum():
    cases = [
        (1, 1, math.pi / 8, "chsh-tilted", {}),
        (1, 3, math.pi / 6, "star", {"n": 3, "tilt_count": 1}),
        (2, 3, math.pi / 5, "star", {"n": 3, "tilt_count": 2}),
    ]
    step = 1e-4
    grid_theta = np.linspace(0.0, math.pi / 2, 181)
    grid_phi = np.linspace(0.0, math.pi / 4, 181)
    for tilt_count, k, phibar, name, params in cases:
        ratio = tilt_count / k
        parameters = bell.tilt_parameters(phibar, tilt_count, k)
        beta = parameters.beta_max
        point = (phibar, parameters.theta_max)

        def g_at(phi, theta):
            return bell.g_closed_form(beta, phi, theta, ratio)

        d_phi = (g_at(point[0] + step, point[1]) - g_at(point[0] - step, point[1]))
        d_theta = (g_at(point[0], point[1] + step) - g_at(point[0], point[1] - step))
        assert abs(d_phi / (2 * step)) < 1e-6
        assert abs(d_theta / (2 * step)) < 1e-6

        # Vectorized reimplementation of the family value over the grid.
        phi_col = grid_phi[:, None]
        surface = (
            beta * np.abs(np.cos(2 * phi_col)) ** ratio
            + np.cos(grid_theta)[None, :]
            + np.sin(grid_theta)[None, :] * np.abs(np.sin(2 * phi_col)) ** ratio
        )
        assert float(surface.max()) <= parameters.g_opt + 1e-6

        # The closed form is anchored to the full evaluation pipeline.
        if name == "chsh-tilted":
            scenario = scenarios.builtin_scenario(name, phi=phibar)
        else:
            scenario = scenarios.builtin_scenario(name, phibar=phibar, **params)
        synthesis = synthesize(scenario.layout, scenario.selection)
        report = bell.evaluate_tilted(synthesis, (parameters.theta_max,) * k, beta)
        assert abs(report.tilt.g_value - parameters.g_opt) <= TOL

    parameters = bell.tilt_parameters(math.pi / 8, 1, 1)
    assert abs(parameters.beta_max - 1.0 / math.sqrt(3.0)) <= 1e-12
    assert abs(parameters.g_opt - 1.6330) <= 5e-5
    assert parameters.g_opt > 1.0 + parameters.beta_max + 1e-9


def test_criterion_08_codeword_validation():
    five = builtin("five-one-three")
    for phi in np.linspace(0.0, 2.0 * math.pi, 29):
        state = codeword_angle(five, float(phi)).state
        for generator in five.generators:
            assert abs(state.expectation(generator) - 1.0) <= TOL
    g1, g2, g3, g4 = five.generators
    assert str(g1 * g2 * g3 * g4) == "+ZZXIX"
    assert str(g1 * g3 * five.logical_z[0]) == "-ZIXXI"


def test_criterion_09_sampling_consistency():
    synthesis = synthesize(bilocal_layout(math.pi / 4), selection_a(), allow_commuting_pair=True)
    results = {}
    for mode in sampling.MODES:
        config = sampling.RunConfig(rounds=100000, seed=2026, strategy=mode)
        report = sampling.run(synthesis, (math.pi / 4,) * 2, config)
        assert abs(report.value_estimate - math.sqrt(2.0)) <= 4.0 * report.value_se
        results[mode] = report
    direct, per_qubit = (results[mode] for mode in sampling.MODES)
    gap = abs(direct.value_estimate - per_qubit.value_estimate)
    assert gap <= 4.0 * math.hypot(direct.value_se, per_qubit.value_se)


def shipped_operators():
    seen = {}
    for name in scenarios.BUILTIN_SCENARIOS:
        scenario = scenarios.builtin_scenario(name)
        ops = list(scenario.selection.g) + list(scenario.selection.h)
        ops += [op for op in scenario.selection.h_prime if op is not None]
        for source in scenario.layout.sources:
            code = source.code
            ops += list(code.generators) + list(code.logical_x) + list(code.logical_z)
        for op in ops:
            if op.n <= 5:
                seen.setdefault((op.n, str(op)), op)
    return list(seen.values())


def test_criterion_10_dense_oracle_equivalence():
    operators = shipped_operators()
    assert len(operators) >= 10
    by_size = {}
    for op in operators:
        by_size.setdefault(op.n, []).append(op)
    for ops in by_size.values():
        for a in ops:
            for b in ops:
                da, db = dense(a), dense(b)
                product = da @ db
                assert np.array_equal(product, dense(a * b))
                if a.commutes(b):
                    assert np.array_equal(product, db @ da)
                else:
                    assert np.array_equal(product, -(db @ da))
