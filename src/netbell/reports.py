"""Report files: JSON and CSV emission with frozen column orders.

Every file, reports and sampling round records alike, goes through a temp
file in the target directory followed by an atomic rename, so a crashed
run never leaves a half-written file; file modes follow the umask.

CSV column orders (one row per evaluated point):

* Bell reports (evaluate / maximize / tilted):
  name, scenario_hash, K, thetas, I, J, C, quantum_value, classical_bound,
  violation, beta, P, G, tilted_bound, tilted_violation
  (the five tilt columns are empty for untilted rows; thetas is a
  space-joined list)
* classical-bound reports:
  name, scenario_hash, K, M, alphabet, mode, scanned, beta,
  deterministic_max, stochastic_max, classical_bound, passed
* sample reports:
  name, scenario_hash, mode, rounds, seed, I, I_se, J, J_se, P, P_se,
  beta, value, value_se, G, G_se
"""

from __future__ import annotations

import csv
import json
import os
import tempfile

BELL_COLUMNS = [
    "name",
    "scenario_hash",
    "K",
    "thetas",
    "I",
    "J",
    "C",
    "quantum_value",
    "classical_bound",
    "violation",
    "beta",
    "P",
    "G",
    "tilted_bound",
    "tilted_violation",
]

CLASSICAL_COLUMNS = [
    "name",
    "scenario_hash",
    "K",
    "M",
    "alphabet",
    "mode",
    "scanned",
    "beta",
    "deterministic_max",
    "stochastic_max",
    "classical_bound",
    "passed",
]

SAMPLE_COLUMNS = [
    "name",
    "scenario_hash",
    "mode",
    "rounds",
    "seed",
    "I",
    "I_se",
    "J",
    "J_se",
    "P",
    "P_se",
    "beta",
    "value",
    "value_se",
    "G",
    "G_se",
]


def atomic_write(path, writer) -> None:
    """Call writer(handle) on a temp file beside path, then rename it onto
    path. The file's mode follows the umask, as with a plain open()."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    descriptor, temp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(descriptor, "w", newline="") as handle:
            writer(handle)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(temp_path, 0o666 & ~umask)
        os.replace(temp_path, path)
    except BaseException:
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise


def write_json(path, payload: dict) -> None:
    atomic_write(path, lambda h: (json.dump(payload, h, indent=2), h.write("\n")))


def write_csv(path, columns: list[str], rows: list[dict]) -> None:
    """Rows are mappings; missing keys become empty cells, extras are an
    error so column drift cannot pass silently."""

    def emit(handle):
        writer = csv.DictWriter(handle, fieldnames=columns, extrasaction="raise")
        writer.writeheader()
        for row in rows:
            writer.writerow({key: _cell(value) for key, value in row.items()})

    atomic_write(path, emit)


def _cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return value


def bell_row(name: str, scenario_hash: str, report) -> dict:
    """Flatten a BellReport (optionally tilted) into the frozen columns."""
    row = {
        "name": name,
        "scenario_hash": scenario_hash,
        "K": report.k,
        "thetas": " ".join(repr(t) for t in report.thetas),
        "I": report.i_value,
        "J": report.j_value,
        "C": report.big_c,
        "quantum_value": report.quantum_value,
        "classical_bound": report.classical_bound,
        "violation": report.violation,
    }
    if report.tilt is not None:
        row.update(
            beta=report.tilt.beta,
            P=report.tilt.p_value,
            G=report.tilt.g_value,
            tilted_bound=report.tilt.classical_bound,
            tilted_violation=report.tilt.violation,
        )
    return row


def classical_row(name: str, scenario_hash: str, k: int, m: int, bound_report) -> dict:
    scan = bound_report.scan
    return {
        "name": name,
        "scenario_hash": scenario_hash,
        "K": k,
        "M": m,
        "alphabet": " ".join(str(size) for size in scan.alphabet),
        "mode": scan.mode,
        "scanned": scan.scanned,
        "beta": scan.beta,
        "deterministic_max": bound_report.deterministic_max,
        "stochastic_max": bound_report.stochastic_max,
        "classical_bound": bound_report.classical_bound,
        "passed": bound_report.passed,
    }


def sample_row(name: str, scenario_hash: str, tally_report) -> dict:
    return {
        "name": name,
        "scenario_hash": scenario_hash,
        "mode": tally_report.mode,
        "rounds": tally_report.rounds,
        "seed": tally_report.seed,
        "I": tally_report.i_estimate,
        "I_se": tally_report.i_se,
        "J": tally_report.j_estimate,
        "J_se": tally_report.j_se,
        "P": tally_report.p_estimate,
        "P_se": tally_report.p_se,
        "beta": tally_report.beta,
        "value": tally_report.value_estimate,
        "value_se": tally_report.value_se,
        "G": tally_report.g_estimate,
        "G_se": tally_report.g_se,
    }
