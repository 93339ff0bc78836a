"""Bell quantities for stabilizer network tests.

The two product correlators and the tilted extension are evaluated two
ways: literally, as products over the source agents of Pauli-term
expansions taken on each agent's group of independent sources (the
joint state is never built), and through the stabilizer closed forms
built from per-source expectations.  The routes must agree to tight
tolerance, per group and in the product; disagreement means the
synthesized observables do not implement the selected operators, so it
raises instead of reporting a number.

Every expectation comes from `codes.SourceState.expectation`, which builds
no statevector (no group meets the cap) and reduces each operator once per
distinct codeword and command; the dense statevector route is its oracle.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from netbell.codes import SourceState
from netbell.network import NetworkLayout
from netbell.observables import CrossCheckError, Synthesis
from netbell.pauli import PauliString

# Exact evaluations agree with closed forms to roundoff; anything past
# this is a synthesis bug, not noise.
CROSS_CHECK_TOL = 1e-9
GRID_MARGIN = 1e-9
# Beyond this the grid arrays alone would need gigabytes.
MAX_GRID_POINTS = 10**6
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


def _group_expectation(sources: Sequence[SourceState], op: PauliString) -> complex:
    """<op> on a group's sources without a hermiticity demand: op's phase
    times each source's value on its slice of op's letters."""
    cuts = list(itertools.accumulate((src.code.n for src in sources), initial=0))
    if op.n != cuts[-1]:
        raise ValueError(f"operator on {op.n} qubits does not fit its group")
    windows = zip(sources, cuts, cuts[1:])
    return op.phase * math.prod(src.expectation(op.window(lo, hi)) for src, lo, hi in windows)


def _check(value, want, what: str, grid=None) -> None:
    """Raise unless value is within CROSS_CHECK_TOL of want everywhere (NaN
    never is); both are scalars, or arrays over the angles of grid."""
    missed = np.flatnonzero(~(np.abs(np.asarray(value - want)) <= CROSS_CHECK_TOL))
    if missed.size:
        at = missed[0]
        where = "" if grid is None else f" at grid angle {grid[at]:.6f}"
        raise CrossCheckError(
            f"{what} disagrees with the stabilizer closed forms "
            f"({complex(np.ravel(value)[at]):+.12f} vs {np.ravel(want)[at]:+.12f}{where}); "
            "the synthesized observables do not implement the selected operators"
        )


def _block_terms(synthesis: Synthesis, thetas) -> list[list[list]]:
    """For y = 0, 1 and each source agent k, the four terms (c, <p B_y>) of
    A0_k + (-1)^y A1_k at k's angle in thetas.

    A_k acts only inside k's group G_k of sources, so the y-correlator's
    operator prod_k (A0_k + (-1)^y A1_k) B_y is a tensor product over the
    groups, and its expectation on the product state is the product over
    k of sum_(c,p) c <p B_y|G_k>, each taken on the group's own state.
    B_y's piece on G_k is the product of the receivers' pieces there, so
    B_y's phase rides on group 1's piece. No value depends on the angles,
    and each distinct source state memoizes its own.
    """
    layout, sources = synthesis.layout, synthesis.sources
    if len(sources) != layout.K:
        raise ValueError(f"expected {layout.K} source observables, got {len(sources)}")
    out = []
    for y, flip in ((0, 1.0), (1, -1.0)):
        receivers = zip(*(rec.b_pieces(y) for rec in synthesis.receivers))
        b = [PauliString.product(pieces) for pieces in receivers]
        out.append([])
        for k, (obs, theta, b_k) in enumerate(zip(sources, thetas, b), start=1):
            branch = obs.a_terms(0, theta) + [(flip * c, p) for c, p in obs.a_terms(1, theta)]
            group = layout.group_sources(k)
            out[y].append([(c, _group_expectation(group, p * b_k)) for c, p in branch])
    return out


def _source_values(layout: NetworkLayout, ops) -> tuple[list, list]:
    """<op_i> on each source state i, and their product over each source
    agent's group; ops is the selection's g or h."""
    values = [src.expectation(op).real for src, op in zip(layout.sources, ops)]
    cuts = zip(layout.partition, layout.partition[1:])
    return values, [math.prod(values[lo:hi]) for lo, hi in cuts]


def _products(layout: NetworkLayout, blocks, grid=None) -> list:
    """I and J as products of their per-block halves <(A0_k +/- A1_k) B_y>/2.

    blocks holds, for y = 0 and 1, pairs (half, closed form) per source
    agent: scalars, or arrays over the angles of grid. Each block is
    checked on its own, since the halves are of order one while I and J
    shrink like 2^(-K/2): at large K the absolute check of the products
    alone would pass a wrong sign or factor in one block.
    """
    out = []
    for name, pairs in zip("IJ", blocks):
        total = closed = None
        for k, (value, want) in enumerate(pairs, start=1):
            _check(value, want, f"{name} block of agent {layout.agent_label(k)}", grid)
            total = value if total is None else total * value
            closed = want if closed is None else closed * want
        _check(total.imag, 0.0, f"the imaginary part of {name}", grid)
        _check(total.real, closed, name, grid)
        out.append(total.real)
    return out


def _report(synthesis: Synthesis, thetas: tuple[float, ...], terms) -> BellReport:
    layout, selection = synthesis.layout, synthesis.selection
    k = layout.K
    c_values, c_groups = _source_values(layout, selection.h)
    g_groups = _source_values(layout, selection.g)[1]
    halves = [[0.5 * sum(c * v for c, v in block) for block in by_y] for by_y in terms]
    closed = [
        [math.cos(t) * g for t, g in zip(thetas, g_groups)],
        [math.sin(t) * c for t, c in zip(thetas, c_groups)],
    ]
    i_value, j_value = _products(layout, [zip(h, c) for h, c in zip(halves, closed)])
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


def evaluate(synthesis: Synthesis, thetas) -> BellReport:
    """Evaluate both correlators and the quantum value at the given angles,
    one per source agent."""
    thetas = synthesis.angles(thetas)
    return _report(synthesis, thetas, _block_terms(synthesis, thetas))


def evaluate_tilted(synthesis: Synthesis, thetas, beta: float) -> BellReport:
    """Evaluate the tilted value G = beta|P|^(1/K) + |I|^(1/K) + |J|^(1/K).

    P is the product over source agents of <P's piece> on each group, and
    each piece carries the signs of its group's h_primes.
    """
    synthesis.check_beta(beta)
    tilt = synthesis.tilt
    layout, selection = synthesis.layout, synthesis.selection
    base = evaluate(synthesis, thetas)
    p_value = closed = 1.0
    for k, piece in enumerate(tilt.p_pieces, start=1):
        group = range(layout.partition[k - 1] + 1, layout.partition[k] + 1)
        primes = [(i, selection.h_prime[i - 1]) for i in group if i in tilt.tilt_sources]
        plain = piece == PauliString.identity(piece.n)
        value = 1.0 if plain else _group_expectation(layout.group_sources(k), piece)
        want = math.prod(layout.sources[i - 1].expectation(p).real for i, p in primes)
        _check(value, want, f"P block of agent {layout.agent_label(k)}")
        p_value, closed = p_value * value, closed * want
    _check(p_value.imag, 0.0, "the imaginary part of P")
    p_value = p_value.real
    _check(p_value, closed, "P")
    g_value = beta * abs(p_value) ** (1.0 / base.k) + base.quantum_value
    tilted = TiltResult(
        beta=beta,
        p_value=p_value,
        g_value=g_value,
        classical_bound=beta + 1.0,
        violation=g_value > beta + 1.0 + VIOLATION_MARGIN,
        tilt_sources=tilt.tilt_sources,
    )
    return replace(base, tilt=tilted)


def maximize(synthesis: Synthesis, *, grid_points: int = 181) -> BellReport:
    """Evaluate at the common mixing angle that maximizes the quantum value.

    With C = |prod_i <h_i>|^(1/K) the best common angle is arctan(C) and
    the value there is sqrt(1 + C^2).  Both facts are re-verified here:
    the report is evaluated from scratch at the best angle and compared
    to the closed form, and a grid scan over common angles, with the
    report's checks at every angle, confirms no grid point does better.
    """
    if grid_points < 2:
        raise ValueError("grid_points must be at least 2")
    if grid_points > MAX_GRID_POINTS:
        raise ValueError(f"grid_points must be at most {MAX_GRID_POINTS}, got {grid_points}")
    layout, selection = synthesis.layout, synthesis.selection
    k = layout.K
    c_values, c_groups = _source_values(layout, selection.h)
    big_c = abs(math.prod(c_values)) ** (1.0 / k)
    theta_best = math.atan(big_c)
    bound = math.sqrt(1.0 + big_c**2)

    thetas = (theta_best,) * k
    terms = _block_terms(synthesis, thetas)
    best = _report(synthesis, thetas, terms)
    if not abs(best.quantum_value - bound) <= CROSS_CHECK_TOL:
        raise CrossCheckError(
            f"value at the best angle is {best.quantum_value:.12f}, "
            f"expected sqrt(1 + C^2) = {bound:.12f}"
        )

    # At a common angle theta the halves are cos(theta) <S_k B_0> and
    # sin(theta) <T_k B_1>, the values of the first and second terms:
    # the grid is arithmetic on them, with no synthesis or expectation.
    grid = np.linspace(0.0, math.pi / 2, grid_points)
    cos_g, sin_g = np.cos(grid), np.sin(grid)
    g_groups = _source_values(layout, selection.g)[1]
    i_grid, j_grid = _products(layout, [
        ((cos_g * block[0][1], cos_g * g) for block, g in zip(terms[0], g_groups)),
        ((sin_g * block[1][1], sin_g * c) for block, c in zip(terms[1], c_groups)),
    ], grid)
    values = np.abs(i_grid) ** (1.0 / k) + np.abs(j_grid) ** (1.0 / k)
    beaten = np.flatnonzero(~(values <= bound + GRID_MARGIN))
    if beaten.size:
        raise CrossCheckError(
            f"grid angle {grid[beaten[0]]:.6f} beats the closed-form maximum "
            f"({values[beaten[0]]:.12f} > {bound:.12f})"
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
            phibar=phibar, ratio=0.0, theta_max=math.pi / 4, beta_max=0.0, g_opt=math.sqrt(2.0)
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
    if not gradient <= STATIONARY_TOL:
        raise RuntimeError(
            f"closed-form tilt point is not stationary (|grad| = {gradient:.3e})"
        )
    return TiltParameters(
        phibar=phibar, ratio=ratio, theta_max=theta_max, beta_max=beta_max, g_opt=g_opt
    )
