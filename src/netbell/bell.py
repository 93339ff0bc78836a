"""Bell quantities for stabilizer network tests.

The two product correlators and the tilted extension are evaluated two
ways: literally, by expanding the product of local observables into
Pauli terms and taking expectations on the joint state, and through the
stabilizer closed forms built from per-source expectations.  The two
routes must agree to tight tolerance; disagreement means the synthesized
observables do not implement the selected operators, so it raises
instead of reporting a number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from netbell.network import NetworkLayout, OperatorSelection, classify
from netbell.observables import (
    ReceiverObservables,
    SourceObservables,
    TiltedBlock,
    build_receiver,
    build_source,
)
from netbell.pauli import PauliString
from netbell.states import StateVector

# Exact evaluations agree with closed forms to roundoff; anything past
# this is a synthesis bug, not noise.
CROSS_CHECK_TOL = 1e-9
GRID_MARGIN = 1e-9
STATIONARY_TOL = 1e-6
# Strictly-above-bound margin so boundary cases never count as wins.
VIOLATION_MARGIN = 1e-12


@dataclass(frozen=True)
class TiltResult:
    """Tilted extension of a report: the P product and the G value."""

    beta: float
    p_value: float
    g_value: float
    classical_bound: float
    violation: bool
    tilt_sources: tuple[int, ...]


@dataclass(frozen=True)
class TiltParameters:
    """Best common mixing angle and tilt weight for the equal-angle family."""

    phibar: float
    ratio: float
    theta_max: float
    beta_max: float
    g_opt: float


@dataclass(frozen=True)
class BellReport:
    """Evaluated Bell quantities for one scenario and angle choice."""

    k: int
    thetas: tuple[float, ...]
    i_value: float
    j_value: float
    c_values: tuple[float, ...]
    big_c: float
    quantum_value: float
    classical_bound: float
    violation: bool
    tilt: TiltResult | None = None
    scenario_hash: str | None = None

    def as_dict(self) -> dict:
        data = {
            "K": self.k,
            "thetas": list(self.thetas),
            "I": self.i_value,
            "J": self.j_value,
            "c_values": list(self.c_values),
            "C": self.big_c,
            "quantum_value": self.quantum_value,
            "classical_bound": self.classical_bound,
            "violation": self.violation,
            "scenario_hash": self.scenario_hash,
        }
        if self.tilt is not None:
            data["tilt"] = {
                "beta": self.tilt.beta,
                "P": self.tilt.p_value,
                "G": self.tilt.g_value,
                "classical_bound": self.tilt.classical_bound,
                "violation": self.tilt.violation,
                "tilt_sources": list(self.tilt.tilt_sources),
            }
        return data


def _cached_expectation(state: StateVector, op: PauliString, cache: dict) -> complex:
    """<psi|op|psi> without a hermiticity demand, memoized on the letters.

    Cross terms in the expanded products carry +/-i phases; those phases
    factor out of the amplitude sum, so the cache stores the plus-phase
    value once per letter pattern, keyed on the (x, z) masks.
    """
    key = (op.x, op.z)
    value = cache.get(key)
    if value is None:
        plain = op.with_phase_exponent(0)
        value = complex(np.vdot(state.amplitudes, state.apply(plain).amplitudes))
        cache[key] = value
    return op.phase * value


def _correlator(
    state: StateVector,
    sources: list[SourceObservables],
    receivers: list[ReceiverObservables],
    y: int,
    cache: dict,
) -> complex:
    """<prod_k (A0 + (-1)^y A1) prod_l B_y>, expanded term by term."""
    terms: list[tuple[float, PauliString]] = [(1.0, PauliString.identity(state.n))]
    flip = 1.0 if y == 0 else -1.0
    for obs in sources:
        branch = obs.a_terms(0) + [(flip * c, p) for c, p in obs.a_terms(1)]
        terms = [(c1 * c2, p1 * p2) for c1, p1 in terms for c2, p2 in branch]
    for rec in receivers:
        b = rec.b_terms(y)
        terms = [(c, p * b) for c, p in terms]
    return sum(c * _cached_expectation(state, p, cache) for c, p in terms)


def _evaluate(
    layout: NetworkLayout,
    selection: OperatorSelection,
    sources: list[SourceObservables],
    receivers: list[ReceiverObservables],
    cache: dict,
) -> BellReport:
    state = layout.state
    k = layout.K
    if len(sources) != k:
        raise ValueError(f"expected {k} source observables, got {len(sources)}")
    thetas = tuple(obs.theta for obs in sources)

    scale = 1.0 / 2**k
    i_raw = scale * _correlator(state, sources, receivers, 0, cache)
    j_raw = scale * _correlator(state, sources, receivers, 1, cache)
    for name, value in (("I", i_raw), ("J", j_raw)):
        if abs(value.imag) > CROSS_CHECK_TOL:
            raise RuntimeError(
                f"{name} came out complex ({value:.3e}); "
                "the observable product is not hermitian"
            )
    i_value = i_raw.real
    j_value = j_raw.real

    c_values = []
    g_factors = []
    for i in range(1, layout.N + 1):
        g, h, _ = selection.for_source(i)
        c_values.append(layout.sources[i - 1].state.expectation(h))
        g_factors.append(layout.embed(i, g))
    g_product = PauliString.product(g_factors, n=layout.total_qubits)
    cos_all = math.prod(math.cos(t) for t in thetas)
    sin_all = math.prod(math.sin(t) for t in thetas)
    i_closed = cos_all * _cached_expectation(state, g_product, cache).real
    j_closed = sin_all * math.prod(c_values)
    if abs(i_value - i_closed) > CROSS_CHECK_TOL or abs(j_value - j_closed) > CROSS_CHECK_TOL:
        raise RuntimeError(
            "correlators disagree with the stabilizer closed forms "
            f"(I {i_value:+.12f} vs {i_closed:+.12f}, "
            f"J {j_value:+.12f} vs {j_closed:+.12f}); the synthesized "
            "observables do not implement the selected operators"
        )

    big_c = abs(math.prod(c_values)) ** (1.0 / k)
    quantum_value = abs(i_value) ** (1.0 / k) + abs(j_value) ** (1.0 / k)
    return BellReport(
        k=k,
        thetas=thetas,
        i_value=i_value,
        j_value=j_value,
        c_values=tuple(c_values),
        big_c=big_c,
        quantum_value=quantum_value,
        classical_bound=1.0,
        violation=quantum_value > 1.0 + VIOLATION_MARGIN,
    )


def evaluate(
    layout: NetworkLayout,
    selection: OperatorSelection,
    sources: list[SourceObservables],
    receivers: list[ReceiverObservables],
) -> BellReport:
    """Evaluate both correlators and the quantum value at the given angles."""
    return _evaluate(layout, selection, sources, receivers, {})


def evaluate_tilted(
    layout: NetworkLayout,
    selection: OperatorSelection,
    sources: list[SourceObservables],
    receivers: list[ReceiverObservables],
    tilt: TiltedBlock,
    beta: float,
) -> BellReport:
    """Evaluate the tilted value G = beta|P|^(1/K) + |I|^(1/K) + |J|^(1/K)."""
    if beta < 0:
        raise ValueError(f"beta must be nonnegative, got {beta}")
    base = _evaluate(layout, selection, sources, receivers, {})
    p_value = layout.state.expectation(tilt.p_full)
    closed = 1.0
    for i in tilt.tilt_sources:
        prime = selection.for_source(i)[2]
        closed *= layout.sources[i - 1].state.expectation(prime)
    if abs(p_value - closed) > CROSS_CHECK_TOL:
        raise RuntimeError(
            f"P disagrees with the per-source product ({p_value:+.12f} vs "
            f"{closed:+.12f}); the tilt operators do not factor over sources"
        )
    g_value = beta * abs(p_value) ** (1.0 / base.k) + base.quantum_value
    bound = beta + 1.0
    tilted = TiltResult(
        beta=beta,
        p_value=p_value,
        g_value=g_value,
        classical_bound=bound,
        violation=g_value > bound + VIOLATION_MARGIN,
        tilt_sources=tilt.tilt_sources,
    )
    return replace(base, tilt=tilted)


def maximize(
    layout: NetworkLayout,
    selection: OperatorSelection,
    *,
    grid_points: int = 181,
    allow_commuting_pair: bool = False,
) -> BellReport:
    """Evaluate at the common mixing angle that maximizes the quantum value.

    With C = |prod_i <h_i>|^(1/K) the best common angle is arctan(C) and
    the value there is sqrt(1 + C^2).  Both facts are re-verified here:
    the report is evaluated from scratch at the best angle and compared
    to the closed form, and a grid scan over common angles confirms no
    grid point does better.
    """
    if grid_points < 2:
        raise ValueError("grid_points must be at least 2")
    k = layout.K
    product = 1.0
    for i in range(1, layout.N + 1):
        product *= layout.sources[i - 1].state.expectation(selection.for_source(i)[1])
    big_c = abs(product) ** (1.0 / k)
    theta_best = math.atan(big_c)
    bound = math.sqrt(1.0 + big_c**2)

    # Only the source observables depend on the angle.
    classification = classify(layout, selection)
    sources = build_source(layout, classification, selection, [theta_best] * k)
    receivers = build_receiver(
        layout, classification, selection, allow_commuting_pair=allow_commuting_pair
    )
    cache: dict = {}
    best = _evaluate(layout, selection, sources, receivers, cache)
    if abs(best.quantum_value - bound) > CROSS_CHECK_TOL:
        raise RuntimeError(
            f"value at the best angle is {best.quantum_value:.12f}, "
            f"expected sqrt(1 + C^2) = {bound:.12f}"
        )
    for theta in np.linspace(0.0, math.pi / 2, grid_points):
        sources = build_source(layout, classification, selection, [float(theta)] * k)
        report = _evaluate(layout, selection, sources, receivers, cache)
        if report.quantum_value > bound + GRID_MARGIN:
            raise RuntimeError(
                f"grid angle {theta:.6f} beats the closed-form maximum "
                f"({report.quantum_value:.12f} > {bound:.12f})"
            )
    return best


def g_closed_form(beta: float, phi: float, theta: float, ratio: float) -> float:
    """Tilted value along the equal-angle family.

    Every tilt source sits at codeword angle phi, every agent mixes with
    the same theta, and ratio is (tilt source count) / K.  Absolute
    values keep fractional powers real on the far side of maximal
    entanglement.
    """
    return (
        beta * abs(math.cos(2 * phi)) ** ratio
        + math.cos(theta)
        + math.sin(theta) * abs(math.sin(2 * phi)) ** ratio
    )


def tilt_parameters(phibar: float, tilt_count: int, k: int) -> TiltParameters:
    """Closed-form optimum of the equal-angle tilted value.

    phibar is the shared codeword angle of the tilt sources, tilt_count
    how many sources sit there, k the number of source-side agents.  The
    returned point is re-verified to be stationary by central finite
    differences before it is trusted.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if tilt_count < 0:
        raise ValueError("tilt_count must be nonnegative")
    if tilt_count == 0:
        return TiltParameters(
            phibar=phibar,
            ratio=0.0,
            theta_max=math.pi / 4,
            beta_max=0.0,
            g_opt=math.sqrt(2.0),
        )
    if not 0.0 < phibar < math.pi / 4:
        raise ValueError(
            "phibar must lie strictly between 0 and pi/4; at pi/4 the tilt "
            "is pointless (beta_max -> 0) and past it mirror the codeword"
        )
    ratio = tilt_count / k
    tan2 = math.tan(2 * phibar)
    theta_max = math.atan(math.sin(2 * phibar) ** ratio)
    beta_max = tan2 ** (2 * ratio - 2) / math.sqrt(
        (1 + tan2**2) ** ratio + tan2 ** (2 * ratio)
    )
    g_opt = g_closed_form(beta_max, phibar, theta_max, ratio)

    step = 1e-6
    d_phi = (
        g_closed_form(beta_max, phibar + step, theta_max, ratio)
        - g_closed_form(beta_max, phibar - step, theta_max, ratio)
    ) / (2 * step)
    d_theta = (
        g_closed_form(beta_max, phibar, theta_max + step, ratio)
        - g_closed_form(beta_max, phibar, theta_max - step, ratio)
    ) / (2 * step)
    gradient = math.hypot(d_phi, d_theta)
    if gradient > STATIONARY_TOL:
        raise RuntimeError(
            f"closed-form tilt point is not stationary (|grad| = {gradient:.3e})"
        )
    return TiltParameters(
        phibar=phibar,
        ratio=ratio,
        theta_max=theta_max,
        beta_max=beta_max,
        g_opt=g_opt,
    )
