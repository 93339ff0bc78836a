"""Scenario files: a JSON description of sources, wiring, operator choices,
and run options that resolves to engine objects.

Schema (Pauli strings are sign-prefixed letter text such as "-ZIXXI"):

{
  "name": "...",
  "codes": [ ... ],                 # optional custom code definitions, each
                                    # shaped like StabilizerCode.to_json()
  "sources": [                      # one entry per source, in order
      {"code": "five-one-three", "phi": 0.785398...}        # k=1 angle form
    | {"code": "...", "amplitudes": [a0, a1, ...]}          # 2^k amplitudes;
  ],                                #   entries may be numbers or [re, im]
  "network": {
      "K": 2, "M": 1,
      "partition": [0, 1, 2],       # source-agent boundaries over sources
      "assignment": [[i, j, agent], ...]
  },
  "selection": {
      "g": ["+ZZXIX", ...],
      "h": ["+XXXXX", ...],
      "h_prime": ["-ZIXXI", null, ...]      # optional; null = source untilted
  },
  "options": {                      # all optional
      "thetas": 0.785 | [0.785, ...],
      "beta": 0.5 | "auto",
      "phibar": 0.392699...,
      "rounds": 100000, "seed": 0, "grid_points": 181,
      "strategy": "direct-observable",
      "allow_commuting_receiver_pair": false
  }
}

Serialization is canonical: source states are always written as amplitude
lists, defaults are materialized, and the assignment is sorted, so
load -> serialize -> load is an identity on the resolved objects. The
scenario fingerprint is a hash of that canonical form.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass

from . import codes as code_lib
from .bell import MAX_GRID_POINTS, TiltParameters, tilt_parameters
from .codes import CheckResult, SourceState, StabilizerCode, ValidationReport, codeword
from .network import NetworkLayout, OperatorSelection, check_parity, check_selection, classify
from .observables import BETA_WITHOUT_TILT, Synthesis, synthesize
from .pauli import PauliString
from .sampling import MAX_ROUNDS, MODES
from .states import STATE_QUBIT_CAP

DEFAULT_THETA = math.pi / 4
DEFAULT_ROUNDS = 100000
DEFAULT_GRID = 181
ANGLE_TOL = 1e-12


class ScenarioError(ValueError):
    """A scenario file that cannot be resolved into engine objects."""


@dataclass(frozen=True)
class Scenario:
    """A resolved scenario: engine objects plus run options."""

    name: str
    layout: NetworkLayout
    selection: OperatorSelection
    thetas: tuple[float, ...]
    beta: float | str | None
    phibar: float | None
    rounds: int
    seed: int | None
    grid_points: int
    strategy: str
    allow_commuting_pair: bool
    custom_codes: tuple[StabilizerCode, ...] = ()


# ----------------------------------------------------------------------
# resolution


def _number(value, convert, what: str):
    """convert(value) for the scenario field named by what; a value of the
    wrong type, too large to convert, a float that is not finite, or a
    fractional float for an integer field is a ScenarioError."""
    try:
        number = convert(value)
    except (TypeError, ValueError, OverflowError):
        number = math.nan
    if isinstance(number, float) and not math.isfinite(number):
        raise ScenarioError(f"{what} must be a finite number, got {value!r}")
    if isinstance(value, float) and number != value:
        raise ScenarioError(f"{what} must be an integer, got {value!r}")
    return number


def _check_count(value: int, low: int, high: int, name: str) -> None:
    """Refuse an options count outside low..high, the range its engine
    accepts, so that validate passes no file the engine would refuse."""
    if not low <= value <= high:
        bound = f"at least {low}" if value < low else f"at most {high}"
        raise ScenarioError(f"{name} must be {bound}, got {value} (options '{name}')")


def _parse_amplitude(entry) -> complex:
    what = "source 'amplitudes' entry"
    if isinstance(entry, (int, float)):
        return complex(_number(entry, float, what), 0.0)
    if isinstance(entry, (list, tuple)) and len(entry) == 2:
        return complex(_number(entry[0], float, what), _number(entry[1], float, what))
    raise ScenarioError(f"amplitude entries must be numbers or [re, im], got {entry!r}")


def _shaped(value, kind, what: str):
    """value itself when it is a JSON array (kind list) or object (kind dict)."""
    if isinstance(value, (list, tuple) if kind is list else kind):
        return value
    shape = "an array" if kind is list else "an object"
    raise ScenarioError(f"{what} must be {shape}, got {value!r}")


def _resolve_code(name: str, custom: dict[str, StabilizerCode]) -> StabilizerCode:
    if name in custom:
        return custom[name]
    try:
        return code_lib.builtin(name)
    except ValueError as err:
        raise ScenarioError(f"unknown builtin code {name!r}") from err


def _resolve_source(entry, custom) -> SourceState:
    if not isinstance(entry, dict) or "code" not in entry:
        raise ScenarioError(f"source entries need a 'code' field, got {entry!r}")
    code = _resolve_code(str(entry["code"]), custom)
    has_phi = "phi" in entry
    has_amps = "amplitudes" in entry
    if has_phi == has_amps:
        raise ScenarioError(
            f"source on code {code.name!r} needs exactly one of 'phi' or 'amplitudes'"
        )
    if has_phi:
        if code.k != 1:
            raise ScenarioError(
                f"'phi' shorthand needs a k=1 code, {code.name!r} has k={code.k}"
            )
        phi = _number(entry["phi"], float, "source 'phi'")
        amplitudes = [math.cos(phi), math.sin(phi)]
    else:
        entries = _shaped(entry["amplitudes"], list, "source 'amplitudes'")
        amplitudes = [_parse_amplitude(a) for a in entries]
        if len(amplitudes) != 2**code.k:
            raise ScenarioError(
                f"code {code.name!r} needs {2 ** code.k} amplitudes, got {len(amplitudes)}"
            )
        try:
            norm = math.sqrt(sum(abs(a) ** 2 for a in amplitudes))
        except OverflowError as err:
            raise ScenarioError(f"source 'amplitudes' overflow: {err}") from err
        if norm < ANGLE_TOL:
            raise ScenarioError("source amplitudes must not all vanish")
        amplitudes = [a / norm for a in amplitudes]
    try:
        return codeword(code, amplitudes)
    except ValueError as err:
        raise ScenarioError(f"source state on {code.name!r}: {err}") from err


def _parse_pauli(text, size: int, what: str) -> PauliString:
    try:
        op = PauliString.from_text(str(text))
    except ValueError as err:
        raise ScenarioError(f"{what}: {err}") from err
    if op.n != size:
        raise ScenarioError(f"{what} acts on {op.n} qubits, expected {size}")
    return op


def scenario_from_dict(data: dict) -> Scenario:
    """Resolve a scenario dictionary; raises ScenarioError on anything that
    prevents building the layout, states, or selection."""
    if not isinstance(data, dict):
        raise ScenarioError("scenario must be a JSON object")
    for key in ("name", "sources", "network", "selection"):
        if key not in data:
            raise ScenarioError(f"scenario is missing the {key!r} field")
    name = str(data["name"])  # the stem of every report file
    if any(sep and sep in name for sep in (os.sep, os.altsep)):
        raise ScenarioError(f"scenario 'name' must not contain a path separator, got {name!r}")

    custom: dict[str, StabilizerCode] = {}
    for raw in _shaped(data.get("codes", []), list, "'codes'"):
        try:
            code = StabilizerCode.from_json(raw)
        except (KeyError, ValueError, TypeError, OverflowError) as err:
            raise ScenarioError(f"bad custom code definition: {err}") from err
        report = code_lib.validate(code)
        if not report.passed:
            failed = "; ".join(str(c) for c in report.failures())
            raise ScenarioError(f"custom code {code.name!r} fails validation: {failed}")
        custom[code.name] = code

    entries = _shaped(data["sources"], list, "'sources'")
    sources = tuple(_resolve_source(entry, custom) for entry in entries)

    net = data["network"]
    try:
        k, m = (_number(net[key], int, f"network {key!r}") for key in ("K", "M"))
        partition = [_number(v, int, "network 'partition' entry") for v in net["partition"]]
        rows = net["assignment"]
        assignment = [[_number(v, int, "network 'assignment' entry") for v in row] for row in rows]
    except (KeyError, TypeError) as err:
        raise ScenarioError(f"bad network block: {err}") from err
    try:
        layout = NetworkLayout(sources, k, m, partition, assignment)
    except ValueError as err:
        raise ScenarioError(f"network does not resolve: {err}") from err

    sel = _shaped(data["selection"], dict, "'selection'")
    sizes = layout.source_sizes
    n_src = layout.N
    for key in ("g", "h"):
        if key not in sel or len(_shaped(sel[key], list, f"selection {key!r}")) != n_src:
            raise ScenarioError(f"selection needs one {key!r} entry per source")
    g, h = (
        tuple(_parse_pauli(op, sizes[i], f"selection {key}[{i}]") for i, op in enumerate(sel[key]))
        for key in ("g", "h")
    )
    primes = sel.get("h_prime")
    if primes is None:
        h_prime: tuple = ()
    else:
        if len(_shaped(primes, list, "selection 'h_prime'")) != n_src:
            raise ScenarioError("selection h_prime needs one entry (or null) per source")
        h_prime = tuple(
            None
            if text is None
            else _parse_pauli(text, sizes[i], f"selection h_prime[{i}]")
            for i, text in enumerate(primes)
        )
        if all(p is None for p in h_prime):
            h_prime = ()
    try:
        selection = OperatorSelection(g=g, h=h, h_prime=h_prime)
    except ValueError as err:
        raise ScenarioError(f"selection does not resolve: {err}") from err

    options = _shaped(data.get("options", {}), dict, "'options'")
    thetas = options.get("thetas", DEFAULT_THETA)
    if isinstance(thetas, (int, float)):
        thetas = (_number(thetas, float, "options 'thetas'"),) * layout.K
    else:
        entries = _shaped(thetas, list, "options 'thetas'")
        thetas = tuple(_number(t, float, "options 'thetas' entry") for t in entries)
        if len(thetas) != layout.K:
            raise ScenarioError(f"need {layout.K} thetas, got {len(thetas)}")

    beta = options.get("beta")
    if beta is not None and beta != "auto":
        beta = _number(beta, float, "options 'beta'")
        if beta < 0:
            raise ScenarioError(f"beta must be nonnegative, got {beta}")
    if beta is not None and not selection.tilt_sources:
        raise ScenarioError(BETA_WITHOUT_TILT)

    phibar = options.get("phibar")
    phibar = None if phibar is None else _number(phibar, float, "options 'phibar'")
    rounds = _number(options.get("rounds", DEFAULT_ROUNDS), int, "options 'rounds'")
    _check_count(rounds, 1, MAX_ROUNDS, "rounds")
    seed = options.get("seed")
    if seed is not None:
        seed = _number(seed, int, "options 'seed'")
        _check_count(seed, 0, math.inf, "seed")
    grid_points = _number(options.get("grid_points", DEFAULT_GRID), int, "options 'grid_points'")
    _check_count(grid_points, 2, MAX_GRID_POINTS, "grid_points")
    strategy = str(options.get("strategy", MODES[0]))
    if strategy not in MODES:
        raise ScenarioError(f"unknown strategy {strategy!r}; expected one of {MODES}")
    allow = options.get("allow_commuting_receiver_pair", False)
    if not isinstance(allow, bool):
        raise ScenarioError(
            f"options 'allow_commuting_receiver_pair' must be true or false, got {allow!r}"
        )

    return Scenario(
        name=name,
        layout=layout,
        selection=selection,
        thetas=thetas,
        beta=beta,
        phibar=phibar,
        rounds=rounds,
        seed=seed,
        grid_points=grid_points,
        strategy=strategy,
        allow_commuting_pair=allow,
        custom_codes=tuple(custom.values()),
    )


def load_scenario(path) -> Scenario:
    """Load a scenario JSON file. json.JSONDecodeError propagates so the
    caller can report line and column."""
    with open(path) as handle:
        data = json.load(handle)
    return scenario_from_dict(data)


# ----------------------------------------------------------------------
# canonical serialization


def _amplitude_json(value: complex):
    if value.imag == 0.0:
        return value.real
    return [value.real, value.imag]


def scenario_to_dict(scenario: Scenario) -> dict:
    """Canonical dictionary form: amplitude lists, materialized defaults,
    sorted assignment."""
    layout = scenario.layout
    selection = scenario.selection
    out: dict = {"name": scenario.name}
    if scenario.custom_codes:
        out["codes"] = [code.to_json() for code in scenario.custom_codes]
    out["sources"] = [
        {
            "code": src.code.name,
            "amplitudes": [_amplitude_json(a) for a in src.amplitudes],
        }
        for src in layout.sources
    ]
    out["network"] = {
        "K": layout.K,
        "M": layout.M,
        "partition": list(layout.partition),
        "assignment": [list(triple) for triple in layout.assignment],
    }
    out["selection"] = {
        "g": [str(p) for p in selection.g],
        "h": [str(p) for p in selection.h],
    }
    if selection.h_prime:
        out["selection"]["h_prime"] = [
            None if p is None else str(p) for p in selection.h_prime
        ]
    options: dict = {
        "thetas": list(scenario.thetas),
        "rounds": scenario.rounds,
        "grid_points": scenario.grid_points,
        "strategy": scenario.strategy,
        "allow_commuting_receiver_pair": scenario.allow_commuting_pair,
    }
    if scenario.beta is not None:
        options["beta"] = scenario.beta
    if scenario.phibar is not None:
        options["phibar"] = scenario.phibar
    if scenario.seed is not None:
        options["seed"] = scenario.seed
    out["options"] = options
    return out


def fingerprint(scenario: Scenario) -> str:
    """Stable 12-hex-digit digest of the canonical scenario form."""
    text = json.dumps(scenario_to_dict(scenario), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:12]


# ----------------------------------------------------------------------
# synthesis and diagnostics


def source_angle(source: SourceState) -> float | None:
    """The angle phi with amplitudes (cos phi, sin phi), if the source state
    is such a real pair."""
    if len(source.amplitudes) != 2:
        return None
    a0, a1 = source.amplitudes
    if a0.imag != 0.0 or a1.imag != 0.0:
        return None
    return math.atan2(a1.real, a0.real)


def resolve_beta(
    scenario: Scenario, override=None
) -> tuple[float | None, TiltParameters | None]:
    """Concrete beta for tilted evaluation, which needs a source with an
    h_prime entry. "auto" solves for the maximal tilt at the scenario's
    phibar (or the common tilt-source angle)."""
    raw = scenario.beta if override is None else override
    if raw is None:
        return None, None
    tilt_sources = scenario.selection.tilt_sources
    if not tilt_sources:
        raise ScenarioError(BETA_WITHOUT_TILT)
    if raw != "auto":
        value = _number(raw, float, "beta")
        if value < 0:
            raise ScenarioError(f"beta must be nonnegative, got {value}")
        return value, None
    phibar = scenario.phibar
    if phibar is None:
        angles = []
        for i in tilt_sources:
            angle = source_angle(scenario.layout.sources[i - 1])
            if angle is None:
                raise ScenarioError(
                    "beta 'auto' needs options.phibar when tilt-source states "
                    "are not plain (cos, sin) pairs"
                )
            angles.append(angle)
        if max(angles) - min(angles) > ANGLE_TOL:
            raise ScenarioError(
                "beta 'auto' needs a single shared tilt angle; set options.phibar"
            )
        phibar = angles[0]
    parameters = tilt_parameters(phibar, len(tilt_sources), scenario.layout.K)
    return parameters.beta_max, parameters


def diagnose(scenario: Scenario) -> tuple[ValidationReport, Synthesis | None]:
    """Full validation report: selection structure, parity conditions, and
    observable synthesis, whose observables (at the scenario's angles) the
    report's details list; with the synthesis, or None where it failed.
    A group of sources past the statevector cap is a warning, not a
    failure: only sample builds the group's state."""
    layout, selection = scenario.layout, scenario.selection
    checks: list[CheckResult] = list(check_selection(layout, selection).checks)
    warnings = tuple(
        f"agent {layout.agent_label(k)}'s group of sources holds {width} qubits, "
        f"past the cap of {STATE_QUBIT_CAP}: sample will refuse it"
        for k, width in zip(layout.source_agents, layout.group_widths)
        if width > STATE_QUBIT_CAP
    )
    try:
        synthesis = synthesize(
            layout, selection, allow_commuting_pair=scenario.allow_commuting_pair
        )
    except (ValueError, RuntimeError) as err:
        synthesis, failure = None, err
    classification = classify(layout, selection) if synthesis is None else synthesis.classification
    parity = check_parity(layout, classification)
    source_failures = parity.source_side_failures()
    checks.append(
        CheckResult(
            "source-side parity conditions",
            not source_failures,
            "; ".join(str(c) for c in source_failures) or "all hold",
        )
    )
    receiver_ok = parity.receiver_side_passed
    if receiver_ok:
        receiver_note = "receiver pairs anticommute"
    elif scenario.allow_commuting_pair:
        receiver_note = "commuting receiver pair explicitly allowed"
    else:
        receiver_note = "receiver pair commutes; set allow_commuting_receiver_pair"
    checks.append(
        CheckResult(
            "receiver-side parity conditions",
            receiver_ok or scenario.allow_commuting_pair,
            receiver_note,
        )
    )
    if synthesis is None:
        checks.append(CheckResult("observable synthesis", False, str(failure)))
        return ValidationReport(tuple(checks), warnings), None
    checks.append(CheckResult("observable synthesis", True))
    listing = synthesis.describe(scenario.thetas)
    return ValidationReport(tuple(checks), warnings, tuple(listing.splitlines())), synthesis


# ----------------------------------------------------------------------
# built-in scenarios


def _options(**extra) -> dict:
    base = {"seed": 0}
    base.update(extra)
    return base


def _chsh(phi: float = math.pi / 4, tilted: bool = False) -> dict:
    data = {
        "name": "chsh-tilted" if tilted else "chsh",
        "sources": [{"code": "two-one-two", "phi": phi}],
        "network": {
            "K": 1,
            "M": 1,
            "partition": [0, 1],
            "assignment": [[1, 1, 1], [1, 2, 2]],
        },
        "selection": {"g": ["+ZZ"], "h": ["+XX"]},
        "options": _options(),
    }
    if tilted:
        data["selection"]["h_prime"] = ["+IZ"]
        data["options"].update(beta="auto", phibar=phi)
    return data


def _five_split(phi: float = math.pi / 4) -> dict:
    return {
        "name": "five-one-three-split",
        "sources": [{"code": "five-one-three", "phi": phi}],
        "network": {
            "K": 1,
            "M": 1,
            "partition": [0, 1],
            "assignment": [[1, 1, 1]] + [[1, j, 2] for j in range(2, 6)],
        },
        "selection": {"g": ["+ZZXIX"], "h": ["+XXXXX"]},
        "options": _options(),
    }


def _ghz_split(n: int = 4, m: int = 2, phi: float = math.pi / 4) -> dict:
    if not 1 <= m < n:
        raise ScenarioError(f"ghz-split needs 1 <= m < n, got ({n},{m})")
    g = "Z" + "I" * (m - 1) + "Z" + "I" * (n - m - 1)
    return {
        "name": f"ghz-split({n},{m})",
        "sources": [{"code": f"ghz-split({n},{m})", "phi": phi}],
        "network": {
            "K": 1,
            "M": 1,
            "partition": [0, 1],
            "assignment": [[1, j, 1] for j in range(1, m + 1)]
            + [[1, j, 2] for j in range(m + 1, n + 1)],
        },
        "selection": {"g": ["+" + g], "h": ["+" + "X" * n]},
        "options": _options(),
    }


def _pair_network(n_sources: int = 2) -> dict:
    receiver = n_sources + 1
    assignment = [[i, 1, i] for i in range(1, n_sources + 1)]
    assignment += [
        [i, j, receiver] for i in range(1, n_sources + 1) for j in range(2, 6)
    ]
    return {
        "K": n_sources,
        "M": 1,
        "partition": list(range(n_sources + 1)),
        "assignment": assignment,
    }


def _example_a(phi: float = math.pi / 4, phi2: float | None = None) -> dict:
    return {
        "name": "example-a",
        "sources": [
            {"code": "five-one-three", "phi": phi},
            {"code": "five-one-three", "phi": phi if phi2 is None else phi2},
        ],
        "network": _pair_network(),
        "selection": {"g": ["+ZZXIX"] * 2, "h": ["+XXXXX"] * 2},
        "options": _options(allow_commuting_receiver_pair=True),
    }


def _example_b(phi: float = 0.0, phi2: float = math.pi / 2) -> dict:
    return {
        "name": "example-b",
        "sources": [
            {"code": "five-one-three", "phi": phi},
            {"code": "five-one-three", "phi": phi2},
        ],
        "network": _pair_network(),
        "selection": {"g": ["+ZZXIX"] * 2, "h": ["+XZZXI"] * 2},
        "options": _options(allow_commuting_receiver_pair=True),
    }


def _star(
    n: int = 3,
    phi: float = math.pi / 4,
    phibar: float | None = None,
    tilt_count: int | None = None,
) -> dict:
    if n < 1:
        raise ScenarioError(f"star needs at least one source, got {n}")
    # Tilt only at a given phibar: the untilted angle phi = pi/4 lies outside
    # the (0, pi/4) range that tilt_parameters accepts.
    if tilt_count is None:
        tilted = 0 if phibar is None else n
    else:
        tilted = tilt_count
    if not 0 <= tilted <= n:
        raise ScenarioError(f"tilt_count must lie in 0..{n}, got {tilted}")
    if tilted and phibar is None:
        raise ScenarioError("a tilted star needs phibar (--phibar)")
    angle = phi if phibar is None else phibar
    receiver = n + 1
    assignment = [[i, 2, i] for i in range(1, n + 1)]
    assignment += [[i, j, receiver] for i in range(1, n + 1) for j in (1, 3, 4, 5)]
    sources = [
        {"code": "five-one-three", "phi": angle if i <= tilted else phi}
        for i in range(1, n + 1)
    ]
    data = {
        "name": f"star({n})",
        "sources": sources,
        "network": {
            "K": n,
            "M": 1,
            "partition": list(range(n + 1)),
            "assignment": assignment,
        },
        "selection": {"g": ["+ZZXIX"] * n, "h": ["+XXXXX"] * n},
        "options": _options(),
    }
    if tilted:
        data["selection"]["h_prime"] = ["-ZIXXI" if i <= tilted else None
                                        for i in range(1, n + 1)]
        data["options"].update(beta="auto", phibar=angle)
    return data


BUILTIN_SCENARIOS = {
    "chsh": _chsh,
    "chsh-tilted": lambda **kw: _chsh(tilted=True, **{"phi": math.pi / 8, **kw}),
    "five-one-three-split": _five_split,
    "ghz-split": _ghz_split,
    "example-a": _example_a,
    "example-b": _example_b,
    "star": _star,
}

def builtin_scenario(name: str, **params) -> Scenario:
    """Resolve a named built-in scenario. Accepts star(3) / ghz-split(4,2)
    argument forms; keyword parameters override the parsed ones."""
    match = code_lib.BUILTIN_NAME_PATTERN.match(name.strip())
    if not match or match.group(1) not in BUILTIN_SCENARIOS:
        known = ", ".join(sorted(BUILTIN_SCENARIOS))
        raise ScenarioError(f"unknown builtin scenario {name!r}; known: {known}")
    head, first, second = match.groups()
    args = dict(params)
    if head == "star" and first is not None:
        args.setdefault("n", int(first))
    elif head == "ghz-split" and first is not None:
        args.setdefault("n", int(first))
        if second is not None:
            args.setdefault("m", int(second))
    elif first is not None:
        raise ScenarioError(f"builtin scenario {head!r} takes no (...) arguments")
    try:
        data = BUILTIN_SCENARIOS[head](**args)
    except TypeError as err:
        raise ScenarioError(f"bad parameters for builtin {head!r}: {err}") from err
    return scenario_from_dict(data)
