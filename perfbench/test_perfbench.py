"""Checks on the benchmark itself; not part of the package's test suite.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
# Counts a later change may rest a claim on, so they must repeat exactly.
EXACT_COUNTS = ("classical.scanned", "pauli.mul_calls", "states.apply_calls", "sampling.rounds")
# The count that shows each workload's own engine did its work.
ENGINE_COUNT = {
    "star-exact": "pauli.mul_calls",
    "classical-scan": "classical.scanned",
    "sampling": "sampling.rounds",
}


def _run(capsys, workload: str, trace: int):
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    printed = dict(line.split(" ")[0::2] for line in lines[:-1] if not line.startswith("env "))
    return json.loads(lines[-1]), printed


def _assert_printed(result: dict, printed: dict, specs: list[dict]) -> None:
    assert set(result["metrics"]) == {spec["name"] for spec in specs}
    for spec in specs:
        assert result["metrics"][spec["name"]]["unit"] == spec["unit"]
        assert printed[spec["name"]] == spec["unit"]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_counts_repeat(capsys, workload):
    first, printed = _run(capsys, workload, trace=1)
    second, _ = _run(capsys, workload, trace=1)
    assert first["correct"] and second["correct"]
    for name in EXACT_COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert first["metrics"][ENGINE_COUNT[workload]]["value"] > 0
    _assert_printed(first, printed, BENCHMARK["per_layer"])


def test_end_to_end_metrics_printed(capsys):
    result, printed = _run(capsys, "sampling", trace=0)
    assert result["correct"] and result["failed"] == 0
    _assert_printed(result, printed, BENCHMARK["end_to_end"])
    assert printed["wall_s"] == "s"
    assert printed["sample_ms"] == "ms"
    assert printed["reference_ms"] == "ms"
    assert printed["failed_ratio"] == "1"


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", *"--workload sampling --seed 1 --seconds 1 --trace 0".split()],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
