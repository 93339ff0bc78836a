"""Report writers: frozen columns, cell formatting, atomic replacement."""

import csv
import json
import os

import pytest

from netbell import reports


def read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


class TestColumns:
    def test_bell_columns_are_frozen(self):
        assert reports.BELL_COLUMNS == [
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

    def test_classical_columns_are_frozen(self):
        assert reports.CLASSICAL_COLUMNS == [
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

    def test_sample_columns_are_frozen(self):
        assert reports.SAMPLE_COLUMNS == [
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


class TestWriters:
    def test_csv_cells(self, tmp_path):
        path = tmp_path / "out.csv"
        reports.write_csv(
            path,
            ["a", "b", "c", "d"],
            [{"a": None, "b": True, "c": False, "d": 0.5}],
        )
        text = path.read_text()
        assert text.splitlines()[0] == "a,b,c,d"
        assert text.splitlines()[1] == ",true,false,0.5"

    def test_csv_rejects_unknown_columns(self, tmp_path):
        with pytest.raises(ValueError):
            reports.write_csv(tmp_path / "out.csv", ["a"], [{"a": 1, "zzz": 2}])

    def test_json_round_trips(self, tmp_path):
        path = tmp_path / "out.json"
        payload = {"x": [1, 2.5, None], "flag": True}
        reports.write_json(path, payload)
        assert json.load(open(path)) == payload

    def test_write_replaces_atomically(self, tmp_path):
        path = tmp_path / "out.json"
        reports.write_json(path, {"v": 1})
        reports.write_json(path, {"v": 2})
        assert json.load(open(path)) == {"v": 2}
        leftovers = [n for n in os.listdir(tmp_path) if n != "out.json"]
        assert leftovers == []

    def test_failed_write_leaves_no_temp_files(self, tmp_path):
        class Unserializable:
            pass

        with pytest.raises(TypeError):
            reports.write_json(tmp_path / "out.json", {"v": Unserializable()})
        assert os.listdir(tmp_path) == []

    def test_mode_follows_umask(self, tmp_path, umask_022):
        path = tmp_path / "out.json"
        reports.write_json(path, {"v": 1})
        assert os.stat(path).st_mode & 0o777 == 0o644
