"""The benchmark's three workloads: CLI commands, their output gates, one pass.

Each command goes through `netbell.cli.main` in this process, from one
client in a closed loop: the next command starts only after the previous
one returned and its report was checked. A command counts as failed when
its exit code is not 0 or when the value in its JSON report misses the
closed-form target.

The star(3) commands pass `--tilt-count 0`. Without it the builtin star
tilts every source at phibar = phi = pi/4 with beta "auto", and
`bell.tilt_parameters` rejects that angle, so `evaluate`, `sample` and
`classical-bound` on "star(3)" exit 1 (see README.md). Timing that failing
form would make its later fix read as a regression.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Callable

from netbell import bell, classical, cli

SQRT2 = math.sqrt(2.0)
# bell.tilt_parameters(0.3927, 3, 3).g_opt: the tilted star(3) optimum.
TILTED_G = 1.6329921621365675
SIGMA_BAND = 4.0
ROUNDS = "100000"

@dataclass(frozen=True)
class Command:
    kind: str
    argv: tuple[str, ...]
    check: Callable[[dict], str | None]  # a miss, described, or None


def _exact_value(report: dict) -> str | None:
    value = report["quantum_value"]
    if abs(value - SQRT2) > bell.CROSS_CHECK_TOL:
        return f"quantum_value {value!r} is not sqrt(2)"
    return None


def _tilted_value(report: dict) -> str | None:
    value = report["tilt"]["G"]
    if abs(value - TILTED_G) > bell.CROSS_CHECK_TOL:
        return f"G {value!r} is not the closed-form optimum {TILTED_G!r}"
    return None


def _bound(beta: float | None) -> Callable[[dict], str | None]:
    want = 1.0 if beta is None else 1.0 + beta

    def check(report: dict) -> str | None:
        bound, found = report["classical_bound"], report["deterministic_max"]
        if abs(bound - want) > classical.BOUND_TOL:
            return f"classical_bound {bound!r} is not {want!r}"
        if abs(found - bound) > classical.BOUND_TOL:
            return f"deterministic_max {found!r} is not the bound {bound!r}"
        return None

    return check


def _sampled_value(report: dict) -> str | None:
    value, se = report["value"], report["value_se"]
    if se is None or abs(value - SQRT2) > SIGMA_BAND * se:
        return f"sampled value {value!r} +- {se!r} is not within 4 sigma of sqrt(2)"
    return None


def commands(workload: str, seed: int, work_dir: str) -> list[Command]:
    """One pass of `workload`; `seed` goes to every command taking --seed."""
    seed_flag = ("--seed", str(seed))
    star3 = ("star(3)", "--tilt-count", "0")
    if workload == "star-exact":
        return [
            Command("evaluate", ("evaluate", *star3), _exact_value),
            Command("maximize", ("maximize", *star3), _exact_value),
            Command(
                "tilted",
                ("tilted", "star", "--N", "3", "--phibar", "0.3927", "--beta", "auto"),
                _tilted_value,
            ),
        ]
    if workload == "classical-scan":
        return [
            # 4.19M combos, above PARALLEL_THRESHOLD: the process pool.
            Command(
                "bound",
                ("classical-bound", "chsh-tilted", "--beta", "0.7", *seed_flag),
                _bound(0.7),
            ),
            # 262,144 combos: a serial full scan, then the refine pass.
            Command("bound", ("classical-bound", "example-a", *seed_flag), _bound(None)),
            # 2.1e9 combos, over budget: reachable mode.
            Command("bound", ("classical-bound", *star3, *seed_flag), _bound(None)),
        ]
    if workload == "sampling":
        sample_a = ("sample", "example-a", "--rounds", ROUNDS, *seed_flag)
        csv_path = os.path.join(work_dir, "rounds.csv")
        return [
            Command("sample", (*sample_a, "--strategy", "direct-observable"), _sampled_value),
            Command("sample", (*sample_a, "--strategy", "per-qubit-discard"), _sampled_value),
            Command("sample", ("sample", *star3, "--rounds", ROUNDS, *seed_flag), _sampled_value),
            Command("sample", (*sample_a, "--rounds-csv", csv_path), _sampled_value),
        ]
    raise ValueError(f"unknown workload {workload!r}")


@dataclass
class PassResult:
    seconds: float  # the commands' times summed
    kind_seconds: dict[str, float]
    spans: list[tuple[float, float]]  # (start, seconds) of each command
    attempted: int
    failed: int


def _report_path(stdout: str) -> str:
    # Every report-writing command ends its line with "-> <base>.json".
    return stdout.strip().splitlines()[-1].rsplit("-> ", 1)[1]


def run_command(command: Command, out_dir: str) -> tuple[float, str | None]:
    """Run one command; return its time and a failure description or None."""
    stdout, stderr = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main([*command.argv, "--out", out_dir])
        seconds = time.perf_counter() - start
        if code != 0:
            return seconds, f"exit code {code}: {stderr.getvalue().strip()}"
        path = _report_path(stdout.getvalue())
        with open(path) as handle:
            report = json.load(handle)
        # A stale report must not pass the next pass's gate.
        os.unlink(path)
        return seconds, command.check(report)
    except Exception:
        # A crash, or a report that is missing or malformed, fails the
        # command; the pass goes on.
        return time.perf_counter() - start, traceback.format_exc()


def run_pass(
    cmds: list[Command], out_dir: str, after_command: Callable[[], None] | None = None
) -> PassResult:
    """Run the commands once, in order; `after_command` runs, untimed,
    after each of them."""
    kind_seconds = dict.fromkeys(sorted({c.kind for c in cmds}), 0.0)
    spans = []
    failed = 0
    for command in cmds:
        start = time.perf_counter()
        seconds, miss = run_command(command, out_dir)
        spans.append((start, seconds))
        kind_seconds[command.kind] += seconds
        if miss is not None:
            failed += 1
            print(f"FAILED {' '.join(command.argv)}: {miss}", file=sys.stderr)
        if after_command is not None:
            after_command()
    total = sum(seconds for _, seconds in spans)
    return PassResult(total, kind_seconds, spans, len(cmds), failed)
