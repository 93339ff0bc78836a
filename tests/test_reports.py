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
            ["a", "b", "c", "d", "e"],
            [{"a": None, "b": True, "c": False, "d": 0.5, "e": [0.1, 1.0, 2]}],
        )
        text = path.read_text()
        assert text.splitlines()[0] == "a,b,c,d,e"
        assert text.splitlines()[1] == ",true,false,0.5,0.1 1.0 2"

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

    @pytest.mark.parametrize("case", ["missing directory", "directory in the way"])
    def test_write_error_names_the_target(self, tmp_path, case):
        path = tmp_path / "missing" / "out.json"
        if case == "directory in the way":
            path = tmp_path / "taken"
            path.mkdir()
        with pytest.raises(OSError) as raised:
            reports.write_json(path, {"v": 1})
        assert raised.value.filename == str(path)
        assert ".tmp" not in str(raised.value)
        assert sorted(os.listdir(tmp_path)) == ([] if case == "missing directory" else ["taken"])

    def test_mode_follows_umask(self, tmp_path, umask_022):
        path = tmp_path / "out.json"
        reports.write_json(path, {"v": 1})
        assert os.stat(path).st_mode & 0o777 == 0o644


class TestCsvRow:
    """A CSV row is its JSON report's fields under the frozen columns."""

    def test_row_follows_the_column_order(self):
        payload = {"b": 2, "a": 1, "extra": [3]}
        assert list(reports.csv_row(payload, ["a", "b"]).items()) == [("a", 1), ("b", 2)]

    def test_missing_column_raises(self):
        payload = {column: 0 for column in reports.SAMPLE_COLUMNS if column != "G_se"}
        with pytest.raises(KeyError, match="G_se"):
            reports.csv_row(payload, reports.SAMPLE_COLUMNS)

    def test_bell_tilt_columns_come_from_the_tilt_block(self):
        payload = {column: column for column in reports.BELL_COLUMNS[:10]}
        untilted = reports.csv_row(payload, reports.BELL_COLUMNS)
        assert [untilted[c] for c in reports.BELL_TILT_FIELDS] == [None] * 5
        payload["tilt"] = {
            "beta": 0.5, "P": 0.7, "G": 2.1, "classical_bound": 1.5,
            "violation": True, "tilt_sources": [1],
        }
        tilted = reports.csv_row(payload, reports.BELL_COLUMNS)
        assert [tilted[c] for c in reports.BELL_TILT_FIELDS] == [0.5, 0.7, 2.1, 1.5, True]
        assert tilted["classical_bound"] == "classical_bound"

    def test_tilt_block_missing_a_field_raises(self):
        payload = {column: column for column in reports.BELL_COLUMNS[:10]}
        payload["tilt"] = {"beta": 0.5, "P": 0.7, "G": 2.1, "classical_bound": 1.5}
        with pytest.raises(KeyError, match="violation"):
            reports.csv_row(payload, reports.BELL_COLUMNS)
