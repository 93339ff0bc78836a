"""The netbell runs that CI makes under `python -O`, one row each, and the
code that runs them: `PYTHONPATH=src python -O tests/cli_checks.py`.

-O strips asserts: these exits show that no guard is an assert, and `check`
tests with `if`s for the same reason.  Each row runs in a fresh
`python -O -m netbell` process whose working directory and NETBELL_OUT are
a new empty directory, which the paths below are relative to.  A refusal
(a nonzero exit) must print one 'error:' line and nothing on stdout.
Tier-1 runs the refusal and pin rows in process through `check`.
"""

import glob
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parent.parent / "src"


class Row(NamedTuple):
    argv: str
    code: int = 0
    name: str = ""  # the row's id, when its argv is not
    pins: tuple = ()  # (written file, tests/data file) pairs that must be equal
    absent: tuple = ()  # glob patterns that must match nothing
    record: tuple | None = None  # (file, line count, last-line prefix)
    fifo: str = ""  # a FIFO made first, which must be left in place
    doc: tuple | None = None  # (key, value) set in example-a's dict, made malformed.json

    @property
    def id(self):
        return self.name or self.argv


def pinned(argv, scenario, pin):
    """A run whose reports, <scenario>-<command>.json and .csv, must equal
    tests/data's pin.json and pin.csv."""
    stem = f"{scenario}-{argv.split()[0]}"
    return Row(argv, name=pin, pins=tuple((f"{stem}.{x}", f"{pin}.{x}") for x in ("json", "csv")))


def refused(argv, code=1, absent=(), **checks):
    """A refusal, which leaves no --out directory."""
    return Row(f"{argv} --out refused", code, argv, absent=("refused", *absent), **checks)


ROWS = [
    *map(Row, (
        "validate chsh", "validate ghz-split(40,20)",
        "evaluate star(51)", "maximize star(51)", "tilted star(51) --phibar 0.3927",
        "tilted star(801) --phibar 0.3927",  # 4,005 qubits
        "evaluate ghz-split(40,20)", "maximize ghz-split(40,20)",
        "classical-bound ghz-split(40,20)", "classical-bound star(5)", "classical-bound star(7)",
        "classical-bound example-a",
        "classical-bound chsh --alphabet 256",  # 4e7 of the refine budget's 1e8 terms
        "classical-bound chsh --alphabet 1", "classical-bound star(3) --alphabet 1",
        "sample example-a --rounds 1000 --strategy direct-observable",
        "sample example-a --rounds 1000 --strategy per-qubit-discard --rounds-csv r.csv",
        "sample star(5)", "sample star(11)", "sample star(11) --rounds 1000000",
        "sample star(21) --rounds 1000000", "sample star(21) --rounds 150000000", "sample star(51)",
        "sample ghz-split(40,20) --strategy direct-observable",
        "sample ghz-split(40,20) --strategy per-qubit-discard",
        # the largest group a record accepts
        "sample ghz-split(20,10) --rounds 1000 --rounds-csv r.csv",
        "sample star(9) --strategy per-qubit-discard --rounds-csv r.csv",
        "sample star(11) --strategy per-qubit-discard --rounds-csv r.csv",
        "sample star --N 3 --phibar 0.3927 --strategy direct-observable --rounds-csv r.csv",
        "sample star --N 3 --phibar 0.3927 --strategy per-qubit-discard --rounds-csv r.csv",
        "reproduce-paper",
    )),
    # the pins were written by the row builders that read the engines' report
    # objects before every CSV row was projected from its JSON report
    pinned("classical-bound example-a --seed 1", "example-a", "classical-example-a"),
    pinned("classical-bound chsh-tilted --beta 0.7", "chsh-tilted", "classical-chsh-tilted-beta"),
    pinned("classical-bound star(3) --tilt-count 0", "star(3)", "classical-star3"),
    # the first pin whose refine pass has 32 labels
    pinned("classical-bound star(5) --tilt-count 0", "star(5)", "classical-star5"),
    pinned("classical-bound star --N 5 --phibar 0.3927", "star(5)", "classical-star5-tilted"),
    # the largest star the refine budget admits, where a flip's readers
    # differ most from the grid: one of 512 labels for each receiver entry
    pinned("classical-bound star(9)", "star(9)", "classical-star9"),
    pinned("sample example-a --rounds 1000 --seed 1 --strategy direct-observable", "example-a",
           "sample-example-a-direct"),
    pinned("sample example-a --rounds 1000 --seed 1 --strategy per-qubit-discard", "example-a",
           "sample-example-a-per-qubit"),
    pinned("sample chsh-tilted --rounds 1000 --seed 1", "chsh-tilted", "sample-chsh-tilted"),
    # a receiver setting left empty, and in example-a's at K = 2 a null value_se
    pinned("sample chsh --rounds 2 --seed 4", "chsh", "sample-chsh-empty"),
    pinned("sample example-a --rounds 5 --seed 3", "example-a", "sample-example-a-empty"),
    pinned("sample star(7) --rounds 3000 --seed 5", "star(7)", "sample-star7"),
    Row("sample example-a --rounds 500 --seed 1 --strategy per-qubit-discard --rounds-csv r.csv",
        name="rounds-example-a-per-qubit", pins=(("r.csv", "rounds-example-a-per-qubit.csv"),)),
    Row("sample chsh-tilted --rounds 500 --seed 1 --beta 0.7 --rounds-csv r.csv",
        name="rounds-chsh-tilted-direct", pins=(("r.csv", "rounds-chsh-tilted-direct.csv"),)),
    # the round index crosses its 4-digit word at 10,000 and a place at 100,000
    Row("sample example-a --rounds 100001 --rounds-csv r.csv", record=("r.csv", 100002, "100000,")),
    # written chunk by chunk as the rounds are drawn
    Row("sample star(21) --rounds 1000000 --seed 1 --rounds-csv r.csv",
        record=("r.csv", 1000001, "999999,")),
    *map(refused, (
        "classical-bound star(11)",  # past the refine budget of 1e8 label-grid terms
        "classical-bound star(51)", "classical-bound chsh --alphabet 512",
        "classical-bound chsh --alphabet 0", "sample chsh --seed -1", "evaluate chsh --theta nan",
        "maximize chsh --grid 100000000000", "sample chsh --rounds 1180591620717411303424",
        "sample ghz-split(40,20) --rounds-csv rounds.csv",  # before any statevector
        "classical-bound chsh --mode full", "maximize chsh --grid abc",
        "evaluate star(3,7)",  # more numbers than the builtin's parameters
        "evaluate chsh --phibar 0.3",  # a flag the builtin does not take
        "classical-bound chsh-tilted --beta 1e8",  # 1 + beta rounded passes REFINE_TOL
    )),
    # a report's path: the report would replace the record
    refused("sample chsh --rounds 10 --rounds-csv refused/chsh-sample.json"),
    refused("sample chsh --rounds 10 --rounds-csv ./refused/chsh-sample.csv"),
    refused("sample chsh --rounds 10 --rounds-csv fifo", 3, fifo="fifo"),
    # refused before sampling
    refused("sample star(11) --strategy per-qubit-discard --rounds-csv missing/r.csv", 3,
            absent=("missing",)),
    *(
        Row(f"{command} malformed.json{out}", 1, f"{command} with {key} {value!r}",
            absent=("refused", "escape-*"), doc=(key, value))
        for key, value in (
            ("grid_points", 10**11), ("rounds", 2**70), ("rounds", True),
            ("allow_commuting_receiver_pair", "false"), ("K", 2.9), ("name", "../escape"),
        )
        for command, out in (("validate", ""), ("evaluate", " --out refused"))
    ),
]


def check(row, out, run):
    """Make the row's run in the empty directory out through run(argv, out),
    which returns the exit code, stdout and stderr; return the exit code
    and what is wrong, an empty list when the row holds."""
    out = Path(out)
    if row.fifo:
        os.mkfifo(out / row.fifo)
    if row.doc:
        _write_malformed(out / "malformed.json", *row.doc)
    code, stdout, stderr = run(row.argv.split(), out)
    problems = [] if code == row.code else [f"exit {code}, expected {row.code}"]
    if row.code and (stdout or [line[:7] for line in stderr.splitlines()] != ["error: "]):
        problems.append(f"stdout {stdout!r}, stderr {stderr!r}: a refusal prints one 'error:' line")
    for written, pin in row.pins:
        path = out / written
        if not path.is_file() or path.read_bytes() != (DATA / pin).read_bytes():
            problems.append(f"{written} differs from tests/data/{pin}")
    problems += [f"{pattern} exists" for pattern in row.absent if glob.glob(pattern, root_dir=out)]
    if row.record:
        written, count, prefix = row.record
        got, last = 0, ""
        if (out / written).is_file():
            with open(out / written) as handle:
                for got, last in enumerate(handle, 1):
                    pass
        if got != count or not last.startswith(prefix):
            problems.append(f"{written}: {got} lines ending {last!r}, expected {count} "
                            f"ending {prefix!r}...")
    if row.fifo and not (out / row.fifo).is_fifo():
        problems.append(f"{row.fifo} is no longer a FIFO")
    return code, problems


def _write_malformed(path, key, value):
    from netbell import scenarios

    doc = scenarios.scenario_to_dict(scenarios.builtin_scenario("example-a"))
    part = next((doc[part] for part in ("options", "network") if key in doc[part]), doc)
    part[key] = value
    path.write_text(json.dumps(doc))


def run_optimized(argv, out):
    env = {**os.environ, "PYTHONPATH": str(SRC), "NETBELL_OUT": "."}
    command = [sys.executable, "-O", "-m", "netbell", *argv]
    done = subprocess.run(command, cwd=out, env=env, capture_output=True, text=True)
    return done.returncode, done.stdout, done.stderr


def drive(rows, run):
    """Check every row in a new directory, print one line per row, and
    return 1 after naming every failing row, 0 when all hold."""
    failed = []
    for row in rows:
        start = time.perf_counter()
        with tempfile.TemporaryDirectory() as out:
            code, problems = check(row, out, run)
        line = f"exit {code} {time.perf_counter() - start:6.2f} s  {row.id}"
        print(f"FAIL {line}: " + "; ".join(problems) if problems else f"ok   {line}", flush=True)
        failed += [row.id] if problems else []
    print(f"{len(failed)} of {len(rows)} rows failed: " + "; ".join(failed) if failed
          else f"all {len(rows)} rows hold")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(drive(ROWS, run_optimized))
