"""Shared layout and selection builders, and fixtures, for the test suite."""

import os

import numpy as np
import pytest

from netbell.codes import builtin, codeword
from netbell.network import NetworkLayout, OperatorSelection
from netbell.pauli import PauliString

FIVE = builtin("five-one-three")
G_PRODUCT = PauliString("ZZXIX")  # product of all four five-qubit generators
H_FLIP = PauliString("XXXXX")
H_PRIME_STAR = PauliString("ZIXXI", phase_exponent=2)  # -ZIXXI


def codeword_angle(code, phi):
    """The k=1 source state cos(phi)|0-bar> + sin(phi)|1-bar>."""
    return codeword(code, (np.cos(phi), np.sin(phi)))


def bilocal_layout(phi=np.pi / 4, phi2=None):
    # two sources, each handing qubit (i,1) to its own agent and the
    # rest to the single receiver
    sources = (
        codeword_angle(FIVE, phi),
        codeword_angle(FIVE, phi if phi2 is None else phi2),
    )
    assignment = [(i, 1, i) for i in (1, 2)]
    assignment += [(i, j, 3) for i in (1, 2) for j in range(2, 6)]
    return NetworkLayout(
        sources=sources, K=2, M=1, partition=(0, 1, 2), assignment=assignment
    )


def star_layout(n_sources, phi=np.pi / 4):
    # source agent i holds qubit (i,2); one receiver holds everything else
    angles = phi if np.ndim(phi) else [phi] * n_sources
    sources = tuple(codeword_angle(FIVE, p) for p in angles)
    receiver = n_sources + 1
    assignment = [(i, 2, i) for i in range(1, n_sources + 1)]
    assignment += [
        (i, j, receiver)
        for i in range(1, n_sources + 1)
        for j in (1, 3, 4, 5)
    ]
    return NetworkLayout(
        sources=sources,
        K=n_sources,
        M=1,
        partition=tuple(range(n_sources + 1)),
        assignment=assignment,
    )


def chsh_layout(phi=np.pi / 4):
    code = builtin("two-one-two")
    return NetworkLayout(
        sources=(codeword_angle(code, phi),),
        K=1,
        M=1,
        partition=(0, 1),
        assignment=[(1, 1, 1), (1, 2, 2)],
    )


def ghz_split_layout(n, m, phi=np.pi / 4):
    code = builtin(f"ghz-split({n},{m})")
    assignment = [(1, j, 1) for j in range(1, m + 1)]
    assignment += [(1, j, 2) for j in range(m + 1, n + 1)]
    return NetworkLayout(
        sources=(codeword_angle(code, phi),),
        K=1,
        M=1,
        partition=(0, 1),
        assignment=assignment,
    )


def selection_a(n_sources=2):
    return OperatorSelection(g=(G_PRODUCT,) * n_sources, h=(H_FLIP,) * n_sources)


def selection_b(n_sources=2):
    return OperatorSelection(
        g=(G_PRODUCT,) * n_sources, h=(FIVE.generators[0],) * n_sources
    )


def star_selection(n_sources, tilted=True, tilt_sources=None):
    if tilt_sources is None:
        prime = (H_PRIME_STAR,) * n_sources if tilted else ()
    else:
        prime = tuple(
            H_PRIME_STAR if i in tilt_sources else None
            for i in range(1, n_sources + 1)
        )
    return OperatorSelection(
        g=(G_PRODUCT,) * n_sources,
        h=(H_FLIP,) * n_sources,
        h_prime=prime,
    )


def chsh_selection(tilted=False):
    return OperatorSelection(
        g=(PauliString("ZZ"),),
        h=(PauliString("XX"),),
        h_prime=(PauliString("IZ"),) if tilted else (),
    )


@pytest.fixture
def umask_022():
    """Run the test under umask 0o022, then restore the previous umask."""
    previous = os.umask(0o022)
    try:
        yield
    finally:
        os.umask(previous)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # One PASS/FAIL line per acceptance criterion whenever they ran.
    outcomes = {}
    for status in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(status, []):
            nodeid = getattr(report, "nodeid", "")
            marker = "test_acceptance.py::test_criterion_"
            if marker not in nodeid:
                continue
            number = int(nodeid.split(marker)[1][:2])
            if status != "passed" or number not in outcomes:
                outcomes[number] = status
    if not outcomes:
        return
    from test_acceptance import CRITERIA

    terminalreporter.section("acceptance criteria")
    for number in sorted(outcomes):
        status = "PASS" if outcomes[number] == "passed" else "FAIL"
        terminalreporter.write_line(
            f"{status} criterion {number:2d}: {CRITERIA[number]}"
        )
