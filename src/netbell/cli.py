"""Command-line front end: scenario validation, Bell evaluation and
maximization, tilted runs, classical bounds, finite-round sampling, and the
bundled reproduction table.

Exit codes: 0 success, 1 validation failure, 2 acceptance failure
(a bound violated or a reproduction row off target), 3 I/O failure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import os
import sys

from . import bell, classical, reports, sampling, scenarios
from .classical import BoundViolation, NetworkShape
from .observables import CrossCheckError, Synthesis
from .scenarios import Scenario

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_ACCEPTANCE = 2
EXIT_IO = 3

OUT_ENV = "NETBELL_OUT"
DEFAULT_OUT = "reports"

CLOSED_FORM_TOL = 1e-9
SIGMA_BAND = 4.0


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


# ----------------------------------------------------------------------
# argument plumbing


class _Parser(argparse.ArgumentParser):
    """A usage error is a validation failure with one error line; the
    subcommand parsers share this class."""

    def error(self, message):
        raise CliError(EXIT_VALIDATION, message)


@functools.cache  # parse_args leaves the parser as it was
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="netbell",
        description="Bell tests on stabilizer-code networks: evaluate, "
        "maximize, tilt, bound, and sample scenarios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    scenario_flags = argparse.ArgumentParser(add_help=False)
    scenario_flags.add_argument(
        "scenario",
        help="scenario JSON path or builtin name "
        "(chsh, chsh-tilted, five-one-three-split, ghz-split(n,m), "
        "example-a, example-b, star(N))",
    )
    scenario_flags.add_argument("--phi", type=float, help="builtin source angle")
    scenario_flags.add_argument("--phi2", type=float, help="builtin second source angle")
    scenario_flags.add_argument("--N", type=int, dest="n", help="builtin source count / chain length")
    scenario_flags.add_argument("--m", type=int, help="builtin ghz-split cut position")
    scenario_flags.add_argument("--phibar", type=float, help="builtin tilt angle")
    scenario_flags.add_argument(
        "--tilt-count", type=int, help="builtin star: how many sources carry the tilt"
    )

    out_flags = argparse.ArgumentParser(add_help=False)
    out_flags.add_argument(
        "--out",
        default=None,
        help=f"report directory (default ${OUT_ENV} or ./{DEFAULT_OUT})",
    )

    sub.add_parser("validate", parents=[scenario_flags], help="check a scenario file")

    evaluate = sub.add_parser(
        "evaluate", parents=[scenario_flags, out_flags], help="Bell value at fixed angles"
    )
    evaluate.add_argument("--theta", help="override angle(s): one value or comma list")
    evaluate.add_argument("--beta", help="tilt weight: number or 'auto'")

    maximize = sub.add_parser(
        "maximize", parents=[scenario_flags, out_flags], help="scan the shared angle"
    )
    maximize.add_argument("--grid", type=int, help="override grid point count")

    tilted = sub.add_parser(
        "tilted", parents=[scenario_flags, out_flags], help="tilted Bell value"
    )
    tilted.add_argument("--theta", help="override angle(s): one value or comma list")
    tilted.add_argument("--beta", help="tilt weight: number or 'auto' (default auto)")

    bound = sub.add_parser(
        "classical-bound",
        parents=[scenario_flags, out_flags],
        help="closed-form deterministic maximum, checked by a stochastic refine pass",
    )
    bound.add_argument("--beta", help="tilt weight for the tilted bound: number or 'auto'")
    bound.add_argument("--alphabet", type=int, help="hidden-label alphabet size per source")
    bound.add_argument("--seed", type=int, default=0, help="stochastic refinement seed")

    sample = sub.add_parser(
        "sample", parents=[scenario_flags, out_flags], help="finite-round simulation"
    )
    sample.add_argument("--theta", help="override angle(s): one value or comma list")
    sample.add_argument("--beta", help="tilt weight: number or 'auto'")
    sample.add_argument("--rounds", type=int, help="override round count")
    sample.add_argument("--seed", type=int, help="override seed")
    sample.add_argument("--strategy", choices=sampling.MODES, help="acquisition strategy")
    sample.add_argument("--rounds-csv", help="also record every round to this CSV path")

    sub.add_parser(
        "reproduce-paper",
        parents=[out_flags],
        help="run the bundled reproduction table",
    )
    return parser


def _builtin_params(args) -> dict:
    keys = ("phi", "phi2", "n", "m", "phibar", "tilt_count")
    return {key: getattr(args, key) for key in keys if getattr(args, key, None) is not None}


def _load_scenario(args) -> Scenario:
    token = args.scenario
    looks_like_path = (
        token.endswith(".json") or os.path.sep in token or os.path.exists(token)
    )
    if looks_like_path:
        if _builtin_params(args):
            raise CliError(
                EXIT_VALIDATION, "builtin parameter flags only apply to builtin names"
            )
        try:
            return scenarios.load_scenario(token)
        except FileNotFoundError as err:
            raise CliError(EXIT_IO, f"cannot read {token}: {err}") from err
        except json.JSONDecodeError as err:
            raise CliError(
                EXIT_VALIDATION,
                f"malformed JSON in {token}: line {err.lineno} column {err.colno}: {err.msg}",
            ) from err
    return scenarios.builtin_scenario(token, **_builtin_params(args))


def _require_valid(scenario: Scenario) -> Synthesis:
    """The scenario's observables, built once by its validation."""
    report, synthesis = scenarios.diagnose(scenario)
    if not report.passed:
        failed = "; ".join(str(check) for check in report.failures())
        raise CliError(
            EXIT_VALIDATION, f"scenario {scenario.name!r} fails validation: {failed}"
        )
    return synthesis


def _where(scenario: Scenario) -> str:
    return f"{scenario.name} [{scenarios.fingerprint(scenario)}]"


@contextlib.contextmanager
def _cross_checked(scenario: Scenario):
    """Name the scenario and its fingerprint when an engine's cross-check
    fails."""
    try:
        yield
    except CrossCheckError as err:
        raise CliError(
            EXIT_VALIDATION, f"cross-check failed for {_where(scenario)}: {err}"
        ) from err


def _write_reports(args, stem, payload, columns=None) -> str:
    """The JSON report and, given columns, its CSV row, projected from the
    same payload, under --out, $NETBELL_OUT or ./reports. The directory is
    made only here, so a refused run leaves none behind."""
    out_dir = args.out if args.out is not None else os.environ.get(OUT_ENV, DEFAULT_OUT)
    base = os.path.join(out_dir, stem)
    row = None if columns is None else reports.csv_row(payload, columns)
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as err:
        raise CliError(EXIT_IO, f"cannot create output directory {out_dir}: {err}") from err
    try:
        reports.write_json(base + ".json", payload)
        if columns is not None:
            reports.write_csv(base + ".csv", columns, [row])
    except OSError as err:
        raise CliError(EXIT_IO, f"cannot write reports under {out_dir}: {err}") from err
    return base


def _parse_thetas(text: str | None, scenario: Scenario) -> tuple[float, ...] | None:
    """The --theta angles, one per source agent; None when not given."""
    if text is None:
        return None
    parts = [p for p in text.split(",") if p.strip()]
    try:
        values = tuple(float(p) for p in parts)
    except ValueError as err:
        raise CliError(EXIT_VALIDATION, f"bad --theta value: {err}") from err
    if not all(math.isfinite(v) for v in values):
        raise CliError(EXIT_VALIDATION, f"--theta values must be finite, got {text!r}")
    if len(values) == 1:
        return values * scenario.layout.K
    if len(values) != scenario.layout.K:
        raise CliError(
            EXIT_VALIDATION,
            f"--theta needs 1 or {scenario.layout.K} values, got {len(values)}",
        )
    return values


def _parse_beta(text: str | None):
    if text is None or text == "auto":
        return text
    try:
        return float(text)
    except ValueError as err:
        raise CliError(EXIT_VALIDATION, f"bad --beta value: {err}") from err


# ----------------------------------------------------------------------
# commands


def _cmd_validate(args) -> int:
    scenario = _load_scenario(args)
    report, _ = scenarios.diagnose(scenario)
    print(f"scenario {scenario.name} [{scenarios.fingerprint(scenario)}]")
    for check in report.checks:
        print(f"  {check}")
    for warning in report.warnings:
        print(f"  [warn] {warning}")
    for line in report.details:
        print(f"  {line}")
    print("PASS" if report.passed else "FAIL")
    return EXIT_OK if report.passed else EXIT_VALIDATION


def _cmd_evaluate(args) -> int:
    scenario = _load_scenario(args)
    synthesis = _require_valid(scenario)
    thetas = _parse_thetas(args.theta, scenario) or scenario.thetas
    beta, parameters = scenarios.resolve_beta(scenario, _parse_beta(args.beta))
    with _cross_checked(scenario):
        if beta is None:
            report = bell.evaluate(synthesis, thetas)
        else:
            report = bell.evaluate_tilted(synthesis, thetas, beta)
    return _emit_bell(args, scenario, "evaluate", report, parameters)


def _cmd_maximize(args) -> int:
    scenario = _load_scenario(args)
    synthesis = _require_valid(scenario)
    grid = args.grid if args.grid is not None else scenario.grid_points
    with _cross_checked(scenario):
        report = bell.maximize(synthesis, grid_points=grid)
    return _emit_bell(args, scenario, "maximize", report, None)


def _cmd_tilted(args) -> int:
    scenario = _load_scenario(args)
    synthesis = _require_valid(scenario)
    if not scenario.selection.tilt_sources:
        raise CliError(
            EXIT_VALIDATION,
            f"scenario {scenario.name!r} has no h_prime entries to tilt",
        )
    beta_text = _parse_beta(args.beta)
    if beta_text is None and scenario.beta is None:
        beta_text = "auto"
    beta, parameters = scenarios.resolve_beta(scenario, beta_text)
    thetas = _parse_thetas(args.theta, scenario)
    if thetas is None and parameters is not None:
        thetas = (parameters.theta_max,) * scenario.layout.K
    with _cross_checked(scenario):
        report = bell.evaluate_tilted(synthesis, thetas or scenario.thetas, beta)
    return _emit_bell(args, scenario, "tilted", report, parameters)


def _emit_bell(args, scenario, command, report, parameters) -> int:
    payload = report.as_dict()
    # The fingerprint sits between the violation flag and the tilt block.
    tilt = payload.pop("tilt", None)
    payload["scenario_hash"] = scenarios.fingerprint(scenario)
    if tilt is not None:
        payload["tilt"] = tilt
    payload["name"] = scenario.name
    payload["seed"] = scenario.seed
    if parameters is not None:
        payload["tilt_parameters"] = dataclasses.asdict(parameters)
    base = _write_reports(args, f"{scenario.name}-{command}", payload, reports.BELL_COLUMNS)
    if report.tilt is None:
        print(
            f"{scenario.name}: value {report.quantum_value:.9f} "
            f"(bound {report.classical_bound:.0f}, "
            f"{'violated' if report.violation else 'not violated'}) -> {base}.json"
        )
    else:
        print(
            f"{scenario.name}: G {report.tilt.g_value:.9f} at beta {report.tilt.beta:.9f} "
            f"(bound {report.tilt.classical_bound:.9f}, "
            f"{'violated' if report.tilt.violation else 'not violated'}) -> {base}.json"
        )
    return EXIT_OK


def _cmd_classical_bound(args) -> int:
    scenario = _load_scenario(args)
    _require_valid(scenario)
    beta, _ = scenarios.resolve_beta(scenario, _parse_beta(args.beta))
    shape = NetworkShape.from_layout(scenario.layout)
    alphabet = None
    if args.alphabet is not None:
        alphabet = (args.alphabet,) * len(scenario.layout.sources)
    try:
        scan = classical.max_deterministic(shape, alphabet, beta=beta, seed=args.seed)
    except BoundViolation as err:
        raise CliError(
            EXIT_ACCEPTANCE, f"classical bound violated for {_where(scenario)}: {err}"
        ) from err
    payload = {
        "name": scenario.name,
        "scenario_hash": scenarios.fingerprint(scenario),
        "K": shape.k,
        "M": shape.m,
        "alphabet": list(scan.alphabet),
        "mode": "closed-form",
        "scanned": scan.scanned,
        "beta": scan.beta,
        "deterministic_max": scan.value,
        "stochastic_max": scan.stochastic_value,
        "classical_bound": scan.value,
        "passed": True,
        "best_strategy": scan.strategy.to_json(),
        "best_stochastic_strategy": scan.stochastic_strategy.to_json(),
    }
    base = _write_reports(
        args, f"{scenario.name}-classical-bound", payload, reports.CLASSICAL_COLUMNS
    )
    print(
        f"{scenario.name}: deterministic max {scan.value:.12f} "
        f"(bound {scan.value}, closed form; refine pass scored "
        f"{scan.scanned} strategies) -> {base}.json"
    )
    return EXIT_OK


def _cmd_sample(args) -> int:
    scenario = _load_scenario(args)
    synthesis = _require_valid(scenario)
    thetas = _parse_thetas(args.theta, scenario) or scenario.thetas
    beta, _ = scenarios.resolve_beta(scenario, _parse_beta(args.beta))
    config = sampling.RunConfig(
        rounds=args.rounds if args.rounds is not None else scenario.rounds,
        seed=args.seed if args.seed is not None else scenario.seed,
        strategy=args.strategy if args.strategy is not None else scenario.strategy,
    )
    try:
        if args.rounds_csv is not None:
            reports.check_target(args.rounds_csv)  # before any round is drawn
        with _cross_checked(scenario):
            report = sampling.run(
                synthesis, thetas, config, beta=beta, record_path=args.rounds_csv
            )
    except OSError as err:
        raise CliError(
            EXIT_IO, f"cannot write round record {args.rounds_csv}: {err.strerror or err}"
        ) from err
    payload = report.as_dict()
    payload["name"] = scenario.name
    payload["scenario_hash"] = scenarios.fingerprint(scenario)
    base = _write_reports(args, f"{scenario.name}-sample", payload, reports.SAMPLE_COLUMNS)
    se = "n/a" if report.value_se is None else f"{report.value_se:.6f}"
    print(
        f"{scenario.name}: value {report.value_estimate:.6f} +- {se} "
        f"({report.rounds} rounds, seed {report.seed}) -> {base}.json"
    )
    return EXIT_OK


# ----------------------------------------------------------------------
# the reproduction table


def _reproduction_rows() -> list[dict]:
    """The table's rows.  A failed cross-check of the quantum engines or
    the sampler names the row's scenario; the classical engine has none."""
    rows = []

    def add(label, got, want, tolerance):
        rows.append(
            {
                "label": label,
                "value": got,
                "target": want,
                "tolerance": tolerance,
                "passed": bool(abs(got - want) <= tolerance),
            }
        )

    # Doubled CHSH closed form over three angles.
    for phi in (math.pi / 8, math.pi / 6, math.pi / 4):
        scenario = scenarios.builtin_scenario("chsh", phi=phi)
        with _cross_checked(scenario):
            report = bell.maximize(_require_valid(scenario))
        add(
            f"chsh phi={phi:.4f}: 2*max vs 2*sqrt(1+sin^2 2phi)",
            2.0 * report.quantum_value,
            2.0 * math.sqrt(1.0 + math.sin(2 * phi) ** 2),
            CLOSED_FORM_TOL,
        )

    # Paired five-qubit sources, balanced and tilted-angle variants.
    scenario = scenarios.builtin_scenario("example-a")
    with _cross_checked(scenario):
        report = bell.evaluate(_require_valid(scenario), scenario.thetas)
    add("example-a phi=pi/4 at theta=pi/4", report.quantum_value, math.sqrt(2.0), CLOSED_FORM_TOL)

    # Paired sources at pi/8 and in the logical basis, single-source
    # splits, and the star.
    maxima = [
        ("example-a phi=pi/8 maximum", "example-a", {"phi": math.pi / 8}, math.sqrt(1.5)),
        ("example-b logical basis maximum", "example-b", {}, math.sqrt(2.0)),
        ("five-one-three-split phi=pi/4 maximum", "five-one-three-split", {}, math.sqrt(2.0)),
        (
            "ghz-split(4,2) phi=pi/6 maximum",
            "ghz-split",
            {"n": 4, "m": 2, "phi": math.pi / 6},
            math.sqrt(1.0 + math.sin(2 * (math.pi / 6)) ** 2),
        ),
        ("star(3) phi=pi/4 maximum", "star", {"n": 3}, math.sqrt(2.0)),
    ]
    for label, name, params, target in maxima:
        scenario = scenarios.builtin_scenario(name, **params)
        with _cross_checked(scenario):
            report = bell.maximize(_require_valid(scenario))
        add(label, report.quantum_value, target, CLOSED_FORM_TOL)

    # Tilted runs at the solved optimum: full, one-of-three, two-of-three.
    tilt_cases = [
        ("chsh-tilted", {"phi": math.pi / 8}, 1, 1),
        ("star", {"n": 3, "phibar": math.pi / 6, "tilt_count": 1}, 1, 3),
        ("star", {"n": 3, "phibar": math.pi / 5, "tilt_count": 2}, 2, 3),
    ]
    for name, params, tilt_count, k in tilt_cases:
        scenario = scenarios.builtin_scenario(name, **params)
        beta, parameters = scenarios.resolve_beta(scenario)
        thetas = (parameters.theta_max,) * scenario.layout.K
        with _cross_checked(scenario):
            report = bell.evaluate_tilted(_require_valid(scenario), thetas, beta)
        label = f"{name} tilt {tilt_count}/{k} phibar={parameters.phibar:.4f}: G vs solved optimum"
        add(label, report.tilt.g_value, parameters.g_opt, CLOSED_FORM_TOL)
        rows[-1]["beta"] = beta
        rows[-1]["tilted_bound"] = report.tilt.classical_bound
        if not report.tilt.violation:
            rows[-1]["passed"] = False

    # Classical bounds: the pair network, and one source untilted and tilted.
    shape = NetworkShape.from_layout(scenarios.builtin_scenario("example-a").layout)
    scan = classical.max_deterministic(shape, (2, 2))
    add("example-a classical maximum", scan.value, 1.0, 0.0)

    shape = NetworkShape.from_layout(scenarios.builtin_scenario("chsh").layout)
    scan = classical.max_deterministic(shape)
    add("chsh classical maximum", scan.value, 1.0, 0.0)

    scan = classical.max_deterministic(shape, beta=0.7)
    add("chsh tilted classical maximum (beta 0.7)", scan.value, 1.7, 1e-12)

    # Finite sampling lands within four standard errors in both strategies.
    scenario = scenarios.builtin_scenario("example-a")
    synthesis = _require_valid(scenario)
    estimates = {}
    for strategy in sampling.MODES:
        config = sampling.RunConfig(rounds=100000, seed=0, strategy=strategy)
        with _cross_checked(scenario):
            tally = sampling.run(synthesis, scenario.thetas, config)
        estimates[strategy] = tally
        add(
            f"example-a sampling ({strategy}, 1e5 rounds)",
            tally.value_estimate,
            math.sqrt(2.0),
            SIGMA_BAND * tally.value_se,
        )
    direct, per_qubit = (estimates[mode] for mode in sampling.MODES)
    gap_tol = SIGMA_BAND * math.hypot(direct.value_se, per_qubit.value_se)
    add(
        "example-a sampling strategies agree",
        direct.value_estimate - per_qubit.value_estimate,
        0.0,
        gap_tol,
    )
    return rows


def _cmd_reproduce(args) -> int:
    rows = _reproduction_rows()
    width = max(len(row["label"]) for row in rows)
    failures = sum(not row["passed"] for row in rows)
    for row in rows:
        status = "PASS" if row["passed"] else "FAIL"
        print(
            f"{status}  {row['label']:<{width}}  value {row['value']: .9f}  "
            f"target {row['target']: .9f}  tol {row['tolerance']:.3g}"
        )
    print(f"{len(rows) - failures}/{len(rows)} reproduction rows pass")
    _write_reports(args, "reproduce-paper", {"rows": rows, "passed": failures == 0})
    return EXIT_OK if failures == 0 else EXIT_ACCEPTANCE


# ----------------------------------------------------------------------


_COMMANDS = {
    "validate": _cmd_validate,
    "evaluate": _cmd_evaluate,
    "maximize": _cmd_maximize,
    "tilted": _cmd_tilted,
    "classical-bound": _cmd_classical_bound,
    "sample": _cmd_sample,
    "reproduce-paper": _cmd_reproduce,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except CliError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.code
    except (ValueError, RuntimeError) as err:  # a ScenarioError is a ValueError
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
