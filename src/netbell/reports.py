"""Report files: JSON and CSV emission with frozen column orders.

Every file, reports and sampling round records alike, goes through a temp
file in the target directory followed by an atomic rename, so a crashed
run never leaves a half-written file; file modes follow the umask. A
target that exists but is not a regular file (a FIFO or a device such
as /dev/null, or a symlink to one) is refused, not replaced.

Each command's CSV row is its JSON report's fields under these frozen
column orders (`csv_row`; lists such as thetas and alphabet are joined
with spaces):

* Bell reports (evaluate / maximize / tilted):
  name, scenario_hash, K, thetas, I, J, C, quantum_value, classical_bound,
  violation, beta, P, G, tilted_bound, tilted_violation
  (the five tilt columns are the tilt block's beta, P, G, classical_bound
  and violation, and are empty for untilted reports)
* classical-bound reports:
  name, scenario_hash, K, M, alphabet, mode, scanned, beta,
  deterministic_max, stochastic_max, classical_bound, passed
* sample reports:
  name, scenario_hash, mode, rounds, seed, I, I_se, J, J_se, P, P_se,
  beta, value, value_se, G, G_se
"""

from __future__ import annotations

import csv
import errno
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

# Bell tilt column -> field of the report's tilt block.
BELL_TILT_FIELDS = {
    "beta": "beta",
    "P": "P",
    "G": "G",
    "tilted_bound": "classical_bound",
    "tilted_violation": "violation",
}

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


def check_target(path) -> None:
    """Refuse a write target up front with an OSError naming path: one
    whose directory is missing, or one that exists and is not a regular
    file (a directory, a FIFO, a device, or a symlink to one), with
    strerror "not a regular file": the rename would replace it."""
    if os.path.exists(path) and not os.path.isfile(path):
        raise OSError(errno.EEXIST, "not a regular file", os.fspath(path))
    if not os.path.exists(os.path.dirname(os.path.abspath(path))):
        raise OSError(errno.ENOENT, os.strerror(errno.ENOENT), os.fspath(path))


def atomic_write(path, writer) -> None:
    """Call writer(handle) on a temp file beside path, then rename it onto
    path, whose directory must exist. The mode follows the umask. An
    OSError is raised again naming path, never the temp file. A target
    that check_target refuses is refused before anything is written."""
    check_target(path)
    directory = os.path.dirname(os.path.abspath(path))
    temp_path = None
    try:
        descriptor, temp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
        with os.fdopen(descriptor, "w", newline="") as handle:
            writer(handle)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(temp_path, 0o666 & ~umask)
        os.replace(temp_path, path)
    except BaseException as err:
        if temp_path is not None:
            try:
                os.unlink(temp_path)
            except OSError:
                pass
        if isinstance(err, OSError) and err.errno is not None:
            raise OSError(err.errno, err.strerror, os.fspath(path)) from err
        raise


def write_json(path, payload: dict) -> None:
    atomic_write(path, lambda h: h.write(json.dumps(payload, indent=2) + "\n"))


def write_csv(path, columns: list[str], rows: list[dict]) -> None:
    """Rows are mappings; missing keys become empty cells, extras are an
    error so column drift cannot pass silently."""

    def emit(handle):
        writer = csv.DictWriter(handle, fieldnames=columns, extrasaction="raise")
        writer.writeheader()
        for row in rows:
            writer.writerow({key: _cell(value) for key, value in row.items()})

    atomic_write(path, emit)


def csv_row(payload: dict, columns: list[str]) -> dict:
    """The frozen CSV row of a JSON report: each column is the payload's
    field of that name, except that a Bell report's tilt columns come from
    its tilt block and are empty without one. A column the payload lacks
    raises, so columns and report cannot drift apart."""
    fields = dict(payload)
    if columns == BELL_COLUMNS:
        tilt = payload.get("tilt")
        for column, field in BELL_TILT_FIELDS.items():
            fields[column] = None if tilt is None else tilt[field]
    missing = [column for column in columns if column not in fields]
    if missing:
        raise KeyError(f"report has no field for CSV columns {missing}")
    return {column: fields[column] for column in columns}


def _cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, list):
        return " ".join(str(_cell(item)) for item in value)
    return value
