"""Command-line behavior: exit codes, report files, overrides, determinism."""

import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import stat
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import one_group_star5
from netbell import bell, classical, cli, network, observables, sampling, scenarios
from netbell.cli import EXIT_ACCEPTANCE, EXIT_IO, EXIT_OK, EXIT_VALIDATION, main
from netbell.pauli import PauliString

PI_4 = "0.7853981633974483"
PI_8 = "0.39269908169872414"
DATA = Path(__file__).parent / "data"


# Replacement values for the scenario mutation test: every JSON type, an
# integer past int64, infinity (written 1e400, which JSON reads as
# infinity) and NaN.
FUZZ_VALUES = (None, True, -1, 0, 2**70, math.inf, math.nan, "x", [], [1], {})


def builtin_documents():
    """Scenario JSON of every builtin, with star(N) for N up to 64."""
    factories = scenarios.BUILTIN_SCENARIOS
    fixed = [factories[name]() for name in sorted(factories) if name != "star"]
    return st.one_of(
        st.sampled_from(fixed),
        st.integers(1, 64).map(lambda n: factories["star"](n=n)),
        st.integers(1, 5).map(lambda n: factories["star"](n=n, phibar=0.3927)),
    )


def value_paths(node, path=()):
    """The path of every value inside a JSON document, the root excluded."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from value_paths(child, path + (key,))


# The refusals of the CI step's exit-1 loop: each exits 1 with one error line.
CI_REFUSALS = (
    "classical-bound star(11)",
    "classical-bound star(51)",
    "classical-bound chsh --alphabet 512",
    "classical-bound chsh --alphabet 0",
    "sample chsh --seed -1",
    "evaluate chsh --theta nan",
    "maximize chsh --grid 100000000000",
    "sample chsh --rounds 1180591620717411303424",
    "sample star(51)",
    "sample ghz-split(40,20)",
    "classical-bound chsh --mode full",
    "maximize chsh --grid abc",
)


def refuse_constant(name):
    raise ValueError(f"{name} in a report")


@pytest.fixture
def out_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("NETBELL_OUT", str(tmp_path))
    return tmp_path


def count_calls(monkeypatch, func):
    """Count calls of func through every netbell module's binding of it."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(func.__name__)
        return func(*args, **kwargs)

    for module in [m for name, m in sys.modules.items() if name.startswith("netbell")]:
        for name, value in list(vars(module).items()):
            if value is func:
                monkeypatch.setattr(module, name, counted)
    return calls


def read_csv_row(path):
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 1
    return rows[0]


class TestValidate:
    def test_builtin_passes(self, capsys):
        assert main(["validate", "chsh"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.strip().endswith("PASS")

    def test_lists_the_synthesized_observables(self, capsys):
        assert main(["validate", "chsh"]) == EXIT_OK
        lines = [line.strip() for line in capsys.readouterr().out.splitlines()]
        assert any(line.startswith("S1: A0 =") for line in lines)
        assert any(line.startswith("R1: B1 =") for line in lines)
        assert lines[-1] == "PASS"

    def test_source_side_detail_names_only_source_failures(self, capsys):
        # star(2) fails only receiver-side conditions
        assert main(["validate", "star(2)"]) == EXIT_VALIDATION
        out = capsys.readouterr().out
        assert "[pass] source-side parity conditions (all hold)" in out

    def test_paren_builtin(self):
        assert main(["validate", "star(3)"]) == EXIT_OK
        assert main(["validate", "ghz-split(4,2)"]) == EXIT_OK

    def test_unknown_builtin(self, capsys):
        assert main(["validate", "no-such-thing"]) == EXIT_VALIDATION
        assert "unknown builtin scenario" in capsys.readouterr().err

    def test_malformed_json_reports_position(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"name": "x",\n  "sources": [}\n')
        assert main(["validate", str(path)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "line 2" in err
        assert "column" in err

    def test_missing_file(self, capsys):
        assert main(["validate", "/no/where/at-all.json"]) == EXIT_IO

    def test_invalid_scenario_fails(self, tmp_path, capsys):
        data = scenarios.scenario_to_dict(scenarios.builtin_scenario("example-a"))
        data["selection"]["h"] = ["+XIIII", "+XXXXX"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert main(["validate", str(path)]) == EXIT_VALIDATION
        assert capsys.readouterr().out.strip().endswith("FAIL")

    @pytest.mark.parametrize(
        "field,mutate",
        [
            ("sources", lambda d: d.update(sources=5)),
            ("codes", lambda d: d.update(codes=5)),
            ("options", lambda d: d.update(options=[1])),
            ("selection", lambda d: d.update(selection=5)),
            ("g", lambda d: d["selection"].update(g=5)),
            ("h_prime", lambda d: d["selection"].update(h_prime=5)),
            ("amplitudes", lambda d: d["sources"][0].update(amplitudes=5)),
            pytest.param("rounds", lambda d: d["options"].update(rounds=[1]), id="rounds-list"),
            pytest.param("seed", lambda d: d["options"].update(seed=[1]), id="seed-list"),
            pytest.param(
                "grid_points", lambda d: d["options"].update(grid_points=[1]), id="grid-list"
            ),
            pytest.param("beta", lambda d: d["options"].update(beta=[1]), id="beta-list"),
            pytest.param("phibar", lambda d: d["options"].update(phibar=[1]), id="phibar-list"),
            pytest.param("thetas", lambda d: d["options"].update(thetas=[[1]]), id="thetas-list"),
            pytest.param(
                "phi",
                lambda d: d["sources"].__setitem__(0, {"code": "five-one-three", "phi": [1]}),
                id="phi-list",
            ),
            pytest.param(
                "rounds", lambda d: d["options"].update(rounds=math.inf), id="rounds-1e400"
            ),
            pytest.param("seed", lambda d: d["options"].update(seed=math.inf), id="seed-1e400"),
            pytest.param(
                "grid_points",
                lambda d: d["options"].update(grid_points=math.inf),
                id="grid-1e400",
            ),
            pytest.param("thetas", lambda d: d["options"].update(thetas=math.nan), id="thetas-nan"),
            pytest.param("beta", lambda d: d["options"].update(beta=math.nan), id="beta-nan"),
            pytest.param(
                "phibar", lambda d: d["options"].update(phibar=math.inf), id="phibar-1e400"
            ),
            pytest.param(
                "phi",
                lambda d: d["sources"].__setitem__(0, {"code": "five-one-three", "phi": math.nan}),
                id="phi-nan",
            ),
            pytest.param(
                "amplitudes",
                lambda d: d["sources"][0].update(amplitudes=[math.nan, 1]),
                id="amplitudes-nan",
            ),
            # past the limits maximize and sample refuse
            pytest.param(
                "grid_points", lambda d: d["options"].update(grid_points=10**11), id="grid-1e11"
            ),
            pytest.param("rounds", lambda d: d["options"].update(rounds=2**70), id="rounds-2e70"),
            # a fractional count is refused, not truncated
            pytest.param("rounds", lambda d: d["options"].update(rounds=2.9), id="rounds-2.9"),
            pytest.param(
                "grid_points", lambda d: d["options"].update(grid_points=100.7), id="grid-100.7"
            ),
            pytest.param("seed", lambda d: d["options"].update(seed=0.5), id="seed-0.5"),
            pytest.param("K", lambda d: d["network"].update(K=2.9), id="K-2.9"),
            pytest.param("M", lambda d: d["network"].update(M=1.5), id="M-1.5"),
            pytest.param(
                "partition", lambda d: d["network"].update(partition=[0, 1.9, 2]), id="partition-1.9"
            ),
            pytest.param(
                "assignment",
                lambda d: d["network"]["assignment"][0].__setitem__(0, 1.9),
                id="assignment-1.9",
            ),
            # only a JSON boolean: bool("false") would read as true
            pytest.param(
                "allow_commuting_receiver_pair",
                lambda d: d["options"].update(allow_commuting_receiver_pair="false"),
                id="allow-string",
            ),
            # the name is every report's file stem
            pytest.param("name", lambda d: d.update(name="../escape"), id="name-escape"),
        ],
    )
    def test_misshapen_field_is_one_error_line(self, tmp_path, capsys, field, mutate):
        data = scenarios.scenario_to_dict(scenarios.builtin_scenario("example-a"))
        mutate(data)
        path = tmp_path / "bad.json"
        # JSON reads 1e400 as infinity
        path.write_text(json.dumps(data).replace("Infinity", "1e400"))
        assert main(["validate", str(path)]) == EXIT_VALIDATION
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error:")
        assert f"'{field}'" in err[0]

    def test_builtin_flags_rejected_on_paths(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(scenarios.scenario_to_dict(scenarios.builtin_scenario("chsh"))))
        assert main(["validate", str(path), "--phi", "0.3"]) == EXIT_VALIDATION


class TestScenarioMutations:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(document=builtin_documents(), data=st.data())
    def test_mutated_builtin_exits_with_one_error_line(self, document, data):
        document = json.loads(json.dumps(document))
        path = data.draw(st.sampled_from(list(value_paths(document))))
        target = document
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = data.draw(st.sampled_from(FUZZ_VALUES))
        with tempfile.TemporaryDirectory() as work:
            scenario = os.path.join(work, "scenario.json")
            with open(scenario, "w") as handle:
                handle.write(json.dumps(document).replace("Infinity", "1e400"))
            out = os.path.join(work, "out")
            for argv in (["validate", scenario], ["evaluate", scenario, "--out", out]):
                stderr = io.StringIO()
                with warnings.catch_warnings(), contextlib.redirect_stdout(
                    io.StringIO()
                ), contextlib.redirect_stderr(stderr):
                    warnings.simplefilter("error")
                    code = main(argv)
                lines = stderr.getvalue().splitlines()
                assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_IO)
                assert len(lines) <= 1 and all(line.startswith("error:") for line in lines)
                if argv[0] == "evaluate":
                    assert len(lines) == (code != EXIT_OK)
            for name in os.listdir(out) if os.path.isdir(out) else ():
                if name.endswith(".json"):
                    with open(os.path.join(out, name)) as handle:
                        json.loads(handle.read(), parse_constant=refuse_constant)


class TestNonFiniteInput:
    @pytest.mark.parametrize(
        "argv",
        [
            ["evaluate", "chsh", "--theta", "nan"],
            ["tilted", "chsh-tilted", "--beta", "nan"],
            ["classical-bound", "chsh-tilted", "--beta", "nan"],
        ],
        ids=["evaluate-theta", "tilted-beta", "classical-bound-beta"],
    )
    def test_refused_with_one_error_line(self, out_dir, capsys, argv):
        assert main(argv) == EXIT_VALIDATION
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert list(out_dir.iterdir()) == []


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["evaluate", "chsh", "--bogus"],
            ["maximize", "chsh", "--grid", "abc"],
            ["sample", "chsh", "--strategy", "nope"],
            ["frobnicate", "chsh"],
            ["classical-bound", "chsh", "--mode", "full"],
        ],
        ids=["unknown-flag", "bad-int", "bad-choice", "unknown-command", "removed-mode"],
    )
    def test_usage_error_is_one_error_line(self, out_dir, capsys, argv):
        assert main(argv) == EXIT_VALIDATION
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert captured.out == ""
        assert list(out_dir.iterdir()) == []

    def test_usage_error_after_a_good_call_is_one_error_line(self, out_dir, capsys):
        # The parser is built once per process and serves both calls.
        assert main(["validate", "chsh"]) == EXIT_OK
        capsys.readouterr()
        assert main(["maximize", "chsh", "--grid", "abc"]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert captured.out == ""

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--help"])
        assert info.value.code == 0
        assert "classical-bound" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["evaluate", "sample", "classical-bound"])
    def test_beta_on_untilted_scenario_is_one_rule(self, out_dir, capsys, command):
        assert main([command, "chsh", "--beta", "0.5"]) == EXIT_VALIDATION
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: beta given but no source has an h_prime entry"]
        assert list(out_dir.iterdir()) == []

    def test_library_refuses_beta_in_the_cli_words(self, out_dir, capsys):
        assert main(["evaluate", "chsh", "--beta", "0.5"]) == EXIT_VALIDATION
        [line] = capsys.readouterr().err.splitlines()
        scenario = scenarios.builtin_scenario("chsh")
        _, synthesis = scenarios.diagnose(scenario)
        config = sampling.RunConfig(rounds=10)
        calls = [
            lambda: scenarios.resolve_beta(scenario, 0.5),
            lambda: bell.evaluate_tilted(synthesis, scenario.thetas, 0.5),
            lambda: sampling.run(synthesis, scenario.thetas, config, beta=0.5),
        ]
        for call in calls:
            with pytest.raises(ValueError) as info:
                call()
            assert line == f"error: {info.value}"


class TestEvaluate:
    def test_chsh_value(self, out_dir):
        assert main(["evaluate", "chsh"]) == EXIT_OK
        payload = json.load(open(out_dir / "chsh-evaluate.json"))
        assert payload["quantum_value"] == pytest.approx(math.sqrt(2.0), abs=1e-12)
        assert payload["name"] == "chsh"
        assert payload["scenario_hash"]
        row = read_csv_row(out_dir / "chsh-evaluate.csv")
        assert float(row["quantum_value"]) == pytest.approx(math.sqrt(2.0), abs=1e-12)
        assert row["violation"] == "true"
        assert row["beta"] == ""

    def test_theta_override(self, out_dir):
        assert main(["evaluate", "chsh", "--theta", "0"]) == EXIT_OK
        payload = json.load(open(out_dir / "chsh-evaluate.json"))
        assert payload["quantum_value"] == pytest.approx(1.0, abs=1e-12)

    def test_theta_list_length_checked(self, out_dir, capsys):
        assert main(["evaluate", "chsh", "--theta", "0.1,0.2"]) == EXIT_VALIDATION
        assert "--theta needs 1" in capsys.readouterr().err

    def test_beta_on_untilted_scenario(self, out_dir, capsys):
        assert main(["evaluate", "chsh", "--beta", "0.5"]) == EXIT_VALIDATION
        assert "h_prime" in capsys.readouterr().err

    def test_invalid_scenario_refused(self, tmp_path, out_dir, capsys):
        data = scenarios.scenario_to_dict(scenarios.builtin_scenario("example-a"))
        data["selection"]["h"] = ["+XIIII", "+XXXXX"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert main(["evaluate", str(path)]) == EXIT_VALIDATION
        assert "fails validation" in capsys.readouterr().err


class TestMaximize:
    def test_example_a_sqrt2(self, out_dir):
        assert main(["maximize", "example-a", "--phi", PI_4]) == EXIT_OK
        row = read_csv_row(out_dir / "example-a-maximize.csv")
        assert float(row["quantum_value"]) == pytest.approx(math.sqrt(2.0), abs=1e-9)
        assert float(row["C"]) == pytest.approx(1.0, abs=1e-9)
        assert row["violation"] == "true"

    def test_grid_override_is_validated(self, out_dir, capsys):
        assert main(["maximize", "chsh", "--grid", "1"]) == EXIT_VALIDATION


class TestTilted:
    def test_star_auto_beta(self, out_dir):
        code = main(
            ["tilted", "star", "--N", "3", "--phibar", PI_8, "--beta", "auto"]
        )
        assert code == EXIT_OK
        payload = json.load(open(out_dir / "star(3)-tilted.json"))
        parameters = payload["tilt_parameters"]
        assert parameters["beta_max"] == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-9)
        assert parameters["theta_max"] == pytest.approx(0.615479708670, abs=1e-9)
        assert payload["tilt"]["G"] == pytest.approx(1.632993161855, abs=1e-9)
        assert payload["thetas"] == [pytest.approx(0.615479708670, abs=1e-9)] * 3
        row = read_csv_row(out_dir / "star(3)-tilted.csv")
        assert float(row["G"]) == pytest.approx(1.632993161855, abs=1e-9)
        assert float(row["beta"]) == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-9)
        assert row["tilted_violation"] == "true"

    def test_beta_defaults_to_auto(self, out_dir):
        assert main(["tilted", "chsh-tilted"]) == EXIT_OK
        payload = json.load(open(out_dir / "chsh-tilted-tilted.json"))
        assert "tilt_parameters" in payload

    def test_numeric_beta_keeps_scenario_thetas(self, out_dir):
        assert main(["tilted", "chsh-tilted", "--beta", "0.2"]) == EXIT_OK
        payload = json.load(open(out_dir / "chsh-tilted-tilted.json"))
        assert payload["tilt"]["beta"] == 0.2
        assert payload["thetas"] == [pytest.approx(math.pi / 4)]
        assert "tilt_parameters" not in payload

    def test_untilted_scenario_rejected(self, out_dir, capsys):
        assert main(["tilted", "chsh"]) == EXIT_VALIDATION
        assert "no h_prime" in capsys.readouterr().err


class TestClassicalBound:
    def test_example_a_exhaustive(self, out_dir, capsys):
        code = main(["classical-bound", "example-a", "--alphabet", "2"])
        assert code == EXIT_OK
        row = read_csv_row(out_dir / "example-a-classical-bound.csv")
        assert float(row["deterministic_max"]) == 1.0
        assert row["passed"] == "true"
        assert row["mode"] == "closed-form"
        assert int(row["scanned"]) == 4361
        payload = json.load(open(out_dir / "example-a-classical-bound.json"))
        assert payload["best_strategy"]["a_tables"] == [[[1, 1], [1, 1]]] * 2
        out = capsys.readouterr().out
        assert "closed form; refine pass scored 4361 strategies) -> " in out

    def test_defaults_pick_a_full_scan(self, out_dir):
        # the largest alphabet (at most 4) whose point-mass strategies
        # number within the budget: 2 for the pair network
        assert main(["classical-bound", "example-a"]) == EXIT_OK
        row = read_csv_row(out_dir / "example-a-classical-bound.csv")
        assert float(row["deterministic_max"]) == 1.0
        assert row["alphabet"] == "2 2"
        assert row["mode"] == "closed-form"

    def test_tilted_bound(self, out_dir):
        assert main(["classical-bound", "chsh-tilted", "--beta", "0.7"]) == EXIT_OK
        row = read_csv_row(out_dir / "chsh-tilted-classical-bound.csv")
        assert float(row["deterministic_max"]) == pytest.approx(1.7, abs=1e-12)
        assert float(row["classical_bound"]) == pytest.approx(1.7, abs=1e-12)

    def test_over_budget_refine_is_one_error_line(self, out_dir, capsys):
        assert main(["classical-bound", "chsh", "--alphabet", "512"]) == EXIT_VALIDATION
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: refine pass")
        assert not list(out_dir.glob("chsh-*"))

    def test_over_budget_star_is_one_error_line(self, out_dir, capsys):
        for name in ("star(11)", "star(51)"):
            assert main(["classical-bound", name]) == EXIT_VALIDATION
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error: refine pass")
            assert "exceeds the budget of 1.000e+08" in err[0]
        assert not list(out_dir.iterdir())

    @pytest.mark.parametrize("size", ["0", "-3"])
    def test_nonpositive_alphabet_is_one_error_line(self, out_dir, capsys, size):
        assert main(["classical-bound", "chsh", "--alphabet", size]) == EXIT_VALIDATION
        assert capsys.readouterr().err.splitlines() == [
            "error: alphabet needs one positive size per source"
        ]
        assert not list(out_dir.iterdir())

    def test_star9_runs(self, out_dir):
        # 512 labels: the refine pass's 8.8e7 label-grid terms fit the budget
        assert main(["classical-bound", "star(9)"]) == EXIT_OK
        row = read_csv_row(out_dir / "star(9)-classical-bound.csv")
        assert float(row["deterministic_max"]) == 1.0
        assert row["passed"] == "true"
        assert int(row["scanned"]) == 129641

    def test_violation_exits_with_acceptance_code(self, out_dir, monkeypatch, capsys):
        def explode(*args, **kwargs):
            raise classical.BoundViolation("planted", None)

        monkeypatch.setattr("netbell.cli.classical.max_deterministic", explode)
        assert main(["classical-bound", "chsh"]) == EXIT_ACCEPTANCE
        assert "planted" in capsys.readouterr().err

    def test_violation_names_the_scenario(self, out_dir, monkeypatch, capsys):
        # a planted stochastic excess with the deterministic maximum's strategy
        def fake_refine(shape, alphabet, beta, value, rng, draws, steps):
            return 1.001, None, 1

        monkeypatch.setattr(classical, "_refine", fake_refine)
        assert main(["classical-bound", "chsh"]) == EXIT_ACCEPTANCE
        fingerprint = scenarios.fingerprint(scenarios.builtin_scenario("chsh"))
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(
            f"error: classical bound violated for chsh [{fingerprint}]: "
            "stochastic refinement scored 1.001000000000 above the deterministic maximum"
        )
        assert not list(out_dir.iterdir())


class TestSample:
    def test_deterministic_given_seed(self, out_dir):
        argv = ["sample", "chsh", "--rounds", "4000", "--seed", "11"]
        assert main(argv) == EXIT_OK
        first = (out_dir / "chsh-sample.json").read_bytes()
        assert main(argv) == EXIT_OK
        assert (out_dir / "chsh-sample.json").read_bytes() == first
        payload = json.loads(first)
        assert payload["rounds"] == 4000
        assert payload["seed"] == 11

    def test_seed_does_not_carry_over_to_the_next_call(self, out_dir):
        assert main(["sample", "chsh", "--rounds", "10", "--seed", "5"]) == EXIT_OK
        assert json.load(open(out_dir / "chsh-sample.json"))["seed"] == 5
        assert main(["sample", "chsh", "--rounds", "10"]) == EXIT_OK
        payload = json.load(open(out_dir / "chsh-sample.json"))
        assert payload["seed"] == scenarios.builtin_scenario("chsh").seed != 5

    def test_estimate_lands_near_truth(self, out_dir):
        argv = ["sample", "example-a", "--rounds", "20000", "--seed", "5"]
        assert main(argv) == EXIT_OK
        row = read_csv_row(out_dir / "example-a-sample.csv")
        value, se = float(row["value"]), float(row["value_se"])
        assert abs(value - math.sqrt(2.0)) < 5 * se

    def test_strategy_override(self, out_dir):
        argv = [
            "sample", "chsh", "--rounds", "100", "--seed", "0",
            "--strategy", "per-qubit-discard",
        ]
        assert main(argv) == EXIT_OK
        payload = json.load(open(out_dir / "chsh-sample.json"))
        assert payload["mode"] == "per-qubit-discard"

    def test_round_record(self, out_dir, tmp_path):
        record = tmp_path / "rounds.csv"
        argv = [
            "sample", "chsh", "--rounds", "250", "--seed", "1",
            "--rounds-csv", str(record),
        ]
        assert main(argv) == EXIT_OK
        lines = record.read_text().splitlines()
        assert lines[0] == "round,settings,a1,b1"
        assert len(lines) == 251
        leftovers = [p.name for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []

    def test_round_record_mode_follows_umask(self, out_dir, tmp_path, umask_022):
        record = tmp_path / "rounds.csv"
        argv = [
            "sample", "chsh", "--rounds", "50", "--seed", "1",
            "--rounds-csv", str(record),
        ]
        assert main(argv) == EXIT_OK
        assert record.stat().st_mode & 0o777 == 0o644

    def test_failed_round_record_exits_io(self, out_dir, tmp_path, capsys):
        record = tmp_path / "taken"
        record.mkdir()
        argv = [
            "sample", "chsh", "--rounds", "50", "--seed", "1",
            "--rounds-csv", str(record),
        ]
        assert main(argv) == EXIT_IO
        assert capsys.readouterr().err.startswith("error: cannot write round record")
        leftovers = [p.name for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []

    def test_round_record_in_a_missing_directory_exits_io(self, out_dir, tmp_path, capsys):
        # the record path is taken as given: its directory is not created
        missing = tmp_path / "missing"
        argv = [
            "sample", "chsh", "--rounds", "10",
            "--rounds-csv", str(missing / "r.csv"),
        ]
        assert main(argv) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write round record")
        assert err.count("\n") == 1
        assert not missing.exists()


    def test_round_record_error_names_the_record(self, out_dir, tmp_path, capsys):
        record = tmp_path / "missing" / "r.csv"
        argv = ["sample", "chsh", "--rounds", "10", "--rounds-csv", str(record)]
        assert main(argv) == EXIT_IO
        assert capsys.readouterr().err.splitlines() == [
            f"error: cannot write round record {record}: No such file or directory"
        ]

    @pytest.mark.parametrize("target", ["fifo", "missing/r.csv"])
    def test_bad_round_record_is_refused_before_sampling(
        self, out_dir, tmp_path, monkeypatch, capsys, target
    ):
        class Sampled(Exception):
            pass

        def sample(*args, **kwargs):
            raise Sampled

        monkeypatch.setattr(sampling, "run", sample)
        os.mkfifo(tmp_path / "fifo")
        record = tmp_path / target
        argv = ["sample", "star(3)", "--rounds-csv", str(record)]
        assert main(argv) == EXIT_IO
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: cannot write round record {record}: ")
        assert not list(out_dir.glob("star*"))

    def test_round_record_onto_a_fifo_exits_io(self, out_dir, tmp_path, capsys):
        # the record is refused before it is drawn up, and the FIFO stays
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        argv = ["sample", "chsh", "--rounds", "10", "--rounds-csv", str(fifo)]
        assert main(argv) == EXIT_IO
        assert capsys.readouterr().err.splitlines() == [
            f"error: cannot write round record {fifo}: not a regular file"
        ]
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)

    def test_report_onto_a_fifo_exits_io(self, out_dir, capsys):
        fifo = out_dir / "chsh-sample.json"
        os.mkfifo(fifo)
        assert main(["sample", "chsh", "--rounds", "10"]) == EXIT_IO
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: cannot write reports under {out_dir}: ")
        assert "not a regular file" in err[0]
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)


class TestDeterminism:
    """Every report-writing command, run twice in one process with the same
    seed, writes byte-identical JSON and CSV reports, and sample the same
    round record."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["evaluate", "example-a"],
            ["maximize", "example-a"],
            ["tilted", "chsh-tilted"],
            ["classical-bound", "chsh-tilted", "--beta", "0.7", "--seed", "3"],
            ["classical-bound", "star(3)", "--tilt-count", "0", "--seed", "3"],
            ["sample", "example-a", "--rounds", "2000", "--seed", "3"],
            ["sample", "star(3)", "--rounds", "2000", "--strategy", "per-qubit-discard"],
            ["reproduce-paper"],
        ],
        ids=" ".join,
    )
    def test_same_seed_writes_the_same_bytes(self, tmp_path, argv):
        written = []
        for run in ("first", "second"):
            out, record = tmp_path / run, tmp_path / f"{run}-rounds.csv"
            extra = ["--rounds-csv", str(record)] if argv[0] == "sample" else []
            assert main([*argv, *extra, "--out", str(out)]) == EXIT_OK
            files = {path.name: path.read_bytes() for path in out.iterdir()}
            if extra:
                files["rounds"] = record.read_bytes()
            written.append(files)
        assert {Path(name).suffix for name in written[0]} >= {".json"}
        assert written[0] == written[1]


class TestBuiltinStar:
    """star(N) is untilted unless --phibar is given; a --tilt-count above 0
    needs --phibar too."""

    def test_evaluate(self, out_dir):
        assert main(["evaluate", "star(3)"]) == EXIT_OK
        payload = json.load(open(out_dir / "star(3)-evaluate.json"))
        assert payload["quantum_value"] == pytest.approx(math.sqrt(2.0), abs=1e-9)
        assert read_csv_row(out_dir / "star(3)-evaluate.csv")["beta"] == ""

    def test_sample(self, out_dir):
        assert main(["sample", "star(3)", "--rounds", "20000", "--seed", "1"]) == EXIT_OK
        payload = json.load(open(out_dir / "star(3)-sample.json"))
        assert abs(payload["value"] - math.sqrt(2.0)) < 4 * payload["value_se"]
        assert payload["beta"] is None

    def test_classical_bound(self, out_dir):
        assert main(["classical-bound", "star(3)"]) == EXIT_OK
        payload = json.load(open(out_dir / "star(3)-classical-bound.json"))
        assert payload["classical_bound"] == 1.0
        assert payload["deterministic_max"] == pytest.approx(1.0, abs=classical.BOUND_TOL)
        assert payload["beta"] is None

    def test_tilt_count_without_phibar_names_the_option(self, out_dir, capsys):
        assert main(["evaluate", "star(3)", "--tilt-count", "2"]) == EXIT_VALIDATION
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: a tilted star needs phibar (--phibar)"]

    @pytest.mark.parametrize(
        "argv,stem",
        [
            (["evaluate", "star(3)", "--tilt-count", "0"], "evaluate"),
            (["maximize", "star(3)", "--tilt-count", "0"], "maximize"),
            (["tilted", "star", "--N", "3", "--phibar", "0.3927", "--beta", "auto"], "tilted"),
        ],
    )
    def test_reports_are_byte_identical_to_pinned(self, out_dir, argv, stem):
        # Pinned from the block-factorized engine (numpy 2.4, OpenBLAS
        # 0.3.31, x86-64). The joint engine's star3-<stem> files stay as
        # the pins of the joint oracle in tests/oracles.py.
        assert main(argv) == EXIT_OK
        for ext in ("json", "csv"):
            written = (out_dir / f"star(3)-{stem}.{ext}").read_bytes()
            assert written == (DATA / f"star3-block-{stem}.{ext}").read_bytes()

    @pytest.mark.parametrize("command", ["evaluate", "maximize", "tilted"])
    def test_star51_past_the_joint_cap(self, out_dir, command):
        # 255 qubits: every group is one 5-qubit source
        argv = [command, "star(51)"]
        if command == "tilted":
            argv += ["--phibar", "0.3927"]
        assert main(argv) == EXIT_OK
        payload = json.load(open(out_dir / f"star(51)-{command}.json"))
        if command == "tilted":
            g_opt = bell.tilt_parameters(0.3927, 51, 51).g_opt
            assert payload["tilt"]["G"] == pytest.approx(g_opt, abs=1e-9)
        else:
            assert payload["quantum_value"] == pytest.approx(math.sqrt(2.0), abs=1e-9)
            assert payload["I"] == pytest.approx(2 ** -25.5, rel=1e-12)

    def test_sample_star5_lands_near_the_exact_values(self, out_dir):
        # 25 qubits: the sampler builds five-qubit group frames only
        assert main(["sample", "star(5)"]) == EXIT_OK
        payload = json.load(open(out_dir / "star(5)-sample.json"))
        scenario = scenarios.builtin_scenario("star(5)")
        synthesis = observables.synthesize(scenario.layout, scenario.selection)
        exact = bell.evaluate(synthesis, scenario.thetas)
        assert payload["rounds"] == 100000
        assert abs(payload["I"] - exact.i_value) < 4 * payload["I_se"]
        assert abs(payload["J"] - exact.j_value) < 4 * payload["J_se"]

    def test_sample_keeps_the_cap_on_one_group(self, out_dir, tmp_path, capsys):
        path = tmp_path / "one-group.json"
        path.write_text(json.dumps(one_group_star5()))
        assert main(["sample", str(path), "--rounds", "10"]) == EXIT_VALIDATION
        assert capsys.readouterr().err.splitlines() == [
            "error: 25 qubits exceeds the cap of 20"
        ]

    def test_validate_warns_about_a_group_past_the_cap(self, out_dir, tmp_path, capsys):
        # validate passes, since every command but sample runs the scenario
        # without its group's statevector, and names the group sample refuses
        path = tmp_path / "one-group.json"
        path.write_text(json.dumps(one_group_star5()))
        assert main(["validate", str(path)]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert [line for line in lines if "[warn]" in line] == [
            "  [warn] agent S1's group of sources holds 25 qubits, past the cap of 20: "
            "sample will refuse it"
        ]
        assert lines[-1] == "PASS"
        assert main(["classical-bound", str(path)]) == EXIT_OK
        for command in ("evaluate", "maximize"):
            assert main([command, str(path)]) == EXIT_OK
            payload = json.load(open(out_dir / f"star(5)-{command}.json"))
            assert payload["quantum_value"] == pytest.approx(math.sqrt(2.0), abs=1e-9)
        capsys.readouterr()
        assert main(["sample", str(path), "--rounds", "10"]) == EXIT_VALIDATION
        assert capsys.readouterr().err == "error: 25 qubits exceeds the cap of 20\n"
        assert main(["validate", "star(5)"]) == EXIT_OK
        assert "[warn]" not in capsys.readouterr().out

    def test_sample_refuses_too_many_setting_cells(self, out_dir, capsys):
        assert main(["sample", "star(51)"]) == EXIT_VALIDATION
        assert capsys.readouterr().err.splitlines() == [
            "error: sampling needs 2^52 setting cells (K=51, M=1), "
            f"more than the {sampling.MAX_SETTING_CELLS} allowed"
        ]

    def test_wide_per_qubit_round_record(self, out_dir, tmp_path):
        # 9 + 36 outcome columns: a base-3 row code wider than one int64
        record = tmp_path / "rounds.csv"
        argv = [
            "sample", "star(9)", "--strategy", "per-qubit-discard", "--rounds", "2000",
            "--rounds-csv", str(record),
        ]
        assert main(argv) == EXIT_OK
        rows = list(csv.reader(open(record, newline="")))
        assert len(rows[0]) == 2 + 9 + 36
        assert len(rows) == 2001
        assert all(len(row) == len(rows[0]) for row in rows)
        assert all(value in {"1", "-1"} for row in rows[1:] for value in row[2:])


class TestSynthesisOnce:
    """An engine command builds the observables once, in its validation, and
    classifies the letters once; the engines take that synthesis."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["evaluate", "star(3)"],
            ["maximize", "example-a"],
            ["tilted", "chsh-tilted"],
            ["sample", "star(3)", "--phibar", "0.3927", "--rounds", "100"],
        ],
        ids=["evaluate", "maximize", "tilted", "sample"],
    )
    def test_observables_are_built_once(self, out_dir, monkeypatch, argv):
        built = count_calls(monkeypatch, observables.build_source)
        classified = count_calls(monkeypatch, network.classify)
        assert main(argv) == EXIT_OK
        assert built == ["build_source"]
        assert classified == ["classify"]


class TestCrossCheckErrors:
    """A failed cross-check prints one line that names the scenario and its
    fingerprint, and exits 1 without writing a report."""

    def tamper(self, monkeypatch, name, **changes):
        """Make the command's synthesis replace source 1's fields by the
        values that changes computes from it."""
        real = cli._require_valid

        def tampered(scenario):
            synthesis = real(scenario)
            sources = list(synthesis.sources)
            fields = {field: change(sources[0]) for field, change in changes.items()}
            sources[0] = dataclasses.replace(sources[0], **fields)
            return dataclasses.replace(synthesis, sources=tuple(sources))

        monkeypatch.setattr(cli, "_require_valid", tampered)
        return scenarios.fingerprint(scenarios.builtin_scenario(name))

    def assert_one_line(self, capsys, out_dir, name, fingerprint, message):
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: cross-check failed for {name} [{fingerprint}]: ")
        assert message in err[0]
        assert not list(out_dir.iterdir())

    @pytest.mark.parametrize("command", ["evaluate", "maximize"])
    def test_closed_form_disagreement(self, out_dir, monkeypatch, capsys, command):
        # T replaced by S: the correlators leave the closed forms
        fingerprint = self.tamper(monkeypatch, "example-a", t_piece=lambda src: src.s_piece)
        assert main([command, "example-a"]) == EXIT_VALIDATION
        self.assert_one_line(
            capsys, out_dir, "example-a", fingerprint, "disagrees with the stabilizer closed forms"
        )

    def test_basis_conflict_in_a_sample_frame(self, out_dir, monkeypatch, capsys):
        # S also on the receiver's qubit, which B1 measures in X
        fingerprint = self.tamper(
            monkeypatch, "chsh", s_piece=lambda src: src.s_piece * PauliString("IZ")
        )
        record = out_dir / "rounds.csv"
        argv = ["sample", "chsh", "--rounds", "100", "--rounds-csv", str(record)]
        assert main(argv) == EXIT_VALIDATION
        self.assert_one_line(
            capsys, out_dir, "chsh", fingerprint, "would be measured in both Z and X bases"
        )


class TestNegativeSeed:
    """A negative seed is refused by name before any report is written,
    from a scenario file and from --seed alike."""

    def test_scenario_seed_fails_validate(self, out_dir, tmp_path, capsys):
        document = scenarios.scenario_to_dict(scenarios.builtin_scenario("chsh"))
        document["options"]["seed"] = -1
        path = tmp_path / "negative.json"
        path.write_text(json.dumps(document))
        for command in ("validate", "sample"):
            assert main([command, str(path)]) == EXIT_VALIDATION
            assert capsys.readouterr().err.splitlines() == [
                "error: seed must be at least 0, got -1 (options 'seed')"
            ]
        assert not list(out_dir.glob("chsh-*"))

    @pytest.mark.parametrize("command", ["sample", "classical-bound"])
    def test_seed_flag(self, out_dir, capsys, command):
        assert main([command, "chsh", "--seed", "-1"]) == EXIT_VALIDATION
        assert capsys.readouterr().err.splitlines() == [
            "error: seed must be a non-negative integer, got -1"
        ]
        assert not list(out_dir.iterdir())


class TestHugeCounts:
    """Grid and round counts past their limits are refused before any
    allocation, from the command line and from a scenario file alike."""

    @pytest.mark.parametrize(
        "argv,option,value",
        [
            (["maximize", "chsh", "--grid", "100000000000"], "grid_points", 10**11),
            (["sample", "chsh", "--rounds", str(2**70)], "rounds", 2**70),
        ],
        ids=["grid", "rounds"],
    )
    def test_refused_with_one_error_line(self, out_dir, tmp_path, capsys, argv, option, value):
        document = scenarios.scenario_to_dict(scenarios.builtin_scenario("chsh"))
        document["options"][option] = value
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(document))
        for command in (argv, [argv[0], str(path)]):
            assert main(command) == EXIT_VALIDATION
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith(f"error: {option} must be at most")
        assert not list(out_dir.glob("chsh-*"))

    @pytest.mark.parametrize("command", ["sample"])
    def test_qubit_cap_refused_before_allocating(self, out_dir, capsys, command):
        # 40 qubits hold 16 TiB of amplitudes: the cap is checked first, and
        # only the sampler's frames need them
        assert main([command, "ghz-split(40,20)"]) == EXIT_VALIDATION
        assert capsys.readouterr().err.splitlines() == [
            "error: 40 qubits exceeds the cap of 20"
        ]
        assert list(out_dir.iterdir()) == []

    @pytest.mark.parametrize(
        "command", ["validate", "evaluate", "maximize", "tilted", "classical-bound"]
    )
    def test_exact_commands_run_past_the_cap(self, out_dir, tmp_path, command):
        # the exact engines read the stabilizing and logical operators and
        # build no statevector: one 40-qubit source, tilted by its logical Z
        phi = 0.3927
        doc = scenarios.scenario_to_dict(
            scenarios.builtin_scenario("ghz-split(40,20)", phi=phi)
        )
        doc["selection"]["h_prime"] = ["+" + "I" * 20 + "Z" + "I" * 19]
        doc["options"].update(beta="auto", phibar=phi)
        path = tmp_path / "ghz40.json"
        path.write_text(json.dumps(doc))
        assert main([command, str(path)]) == EXIT_OK
        if command == "validate":
            return
        payload = json.load(open(out_dir / f"ghz-split(40,20)-{command}.json"))
        optimum = bell.tilt_parameters(phi, 1, 1)
        if command == "classical-bound":
            assert payload["classical_bound"] == 1.0 + optimum.beta_max
        elif command == "maximize":
            want = math.sqrt(1.0 + math.sin(2 * phi) ** 2)
            assert payload["quantum_value"] == pytest.approx(want, abs=1e-12)
        else:
            assert payload["c_values"] == [pytest.approx(math.sin(2 * phi), abs=1e-15)]
            assert payload["tilt"]["P"] == pytest.approx(math.cos(2 * phi), abs=1e-15)
        if command == "tilted":
            assert payload["tilt"]["G"] == pytest.approx(optimum.g_opt, abs=1e-12)


# Classical-bound and sample reports pinned as tests/data/<pin>.{json,csv},
# written by the row builders that read the engines' report objects before
# every CSV row was projected from its JSON report; each entry is
# (argv, the report's file stem, pin).
PINNED_COMMANDS = [
    (["classical-bound", "example-a", "--seed", "1"],
     "example-a-classical-bound", "classical-example-a"),
    (["classical-bound", "chsh-tilted", "--beta", "0.7"],
     "chsh-tilted-classical-bound", "classical-chsh-tilted-beta"),
    (["classical-bound", "star(3)", "--tilt-count", "0"],
     "star(3)-classical-bound", "classical-star3"),
    # written by the refine pass that summed the whole label grid for every
    # score, before the incremental scorer; the first pins whose refine
    # pass has 32 labels (the others have at most 8)
    (["classical-bound", "star(5)", "--tilt-count", "0"],
     "star(5)-classical-bound", "classical-star5"),
    (["classical-bound", "star", "--N", "5", "--phibar", "0.3927"],
     "star(5)-classical-bound", "classical-star5-tilted"),
    (["sample", "example-a", "--rounds", "1000", "--seed", "1",
      "--strategy", "direct-observable"],
     "example-a-sample", "sample-example-a-direct"),
    (["sample", "example-a", "--rounds", "1000", "--seed", "1",
      "--strategy", "per-qubit-discard"],
     "example-a-sample", "sample-example-a-per-qubit"),
    (["sample", "chsh-tilted", "--rounds", "1000", "--seed", "1"],
     "chsh-tilted-sample", "sample-chsh-tilted"),
    # empty setting cells
    (["sample", "chsh", "--rounds", "2", "--seed", "1"], "chsh-sample", "sample-chsh-empty"),
    # empty setting cells, and at K = 2 the zero J leaves value_se null
    (["sample", "example-a", "--rounds", "5", "--seed", "2"],
     "example-a-sample", "sample-example-a-empty"),
]


class TestPinnedReports:
    """Reports and round records pinned byte for byte; not regenerated,
    except once: the five classical-* pins were rewritten when the refine
    pass began to take its random draws in bulk (classical._draw_restarts),
    which moved only their scanned and best_stochastic_strategy fields."""

    @pytest.mark.parametrize(
        "argv,stem,pin", PINNED_COMMANDS, ids=[pin for _, _, pin in PINNED_COMMANDS]
    )
    def test_report_is_pinned(self, out_dir, argv, stem, pin):
        assert main(argv) == EXIT_OK
        for ext in ("json", "csv"):
            written = (out_dir / f"{stem}.{ext}").read_bytes()
            assert written == (DATA / f"{pin}.{ext}").read_bytes()

    def test_maximize_commuting_pair_is_pinned(self, out_dir):
        # example-a allows a commuting receiver pair
        assert main(["maximize", "example-a"]) == EXIT_OK
        for ext in ("json", "csv"):
            written = (out_dir / f"example-a-maximize.{ext}").read_bytes()
            assert written == (DATA / f"example-a-maximize.{ext}").read_bytes()

    def test_star_per_qubit_record_is_pinned(self, out_dir, tmp_path):
        # the receiver holds qubits from all three sources
        record = tmp_path / "rounds.csv"
        argv = [
            "sample", "star(3)", "--tilt-count", "0", "--strategy",
            "per-qubit-discard", "--rounds", "500", "--seed", "1",
            "--rounds-csv", str(record),
        ]
        assert main(argv) == EXIT_OK
        assert record.read_bytes() == (DATA / "rounds-star3-per-qubit.csv").read_bytes()


class TestOutputRouting:
    def test_out_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NETBELL_OUT", str(tmp_path / "env"))
        explicit = tmp_path / "explicit"
        assert main(["evaluate", "chsh", "--out", str(explicit)]) == EXIT_OK
        assert (explicit / "chsh-evaluate.json").exists()
        assert not (tmp_path / "env").exists()

    def test_out_creates_a_new_directory(self, tmp_path):
        out = tmp_path / "new" / "nested"
        assert main(["evaluate", "chsh", "--out", str(out)]) == EXIT_OK
        names = sorted(p.name for p in out.iterdir())
        assert names == ["chsh-evaluate.csv", "chsh-evaluate.json"]

    def test_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NETBELL_OUT", str(tmp_path / "env"))
        assert main(["evaluate", "chsh"]) == EXIT_OK
        assert (tmp_path / "env" / "chsh-evaluate.json").exists()

    def test_no_temp_files_left_behind(self, out_dir):
        assert main(["evaluate", "chsh"]) == EXIT_OK
        names = sorted(p.name for p in out_dir.iterdir())
        assert names == ["chsh-evaluate.csv", "chsh-evaluate.json"]

    def test_report_missing_a_column_writes_nothing(self, out_dir, monkeypatch):
        as_dict = bell.BellReport.as_dict

        def without_c(report):
            return {key: value for key, value in as_dict(report).items() if key != "C"}

        monkeypatch.setattr(bell.BellReport, "as_dict", without_c)
        with pytest.raises(KeyError, match="'C'"):
            main(["evaluate", "chsh"])
        assert list(out_dir.iterdir()) == []

    def test_unwritable_out_dir(self, capsys):
        code = main(["evaluate", "chsh", "--out", "/proc/1/nope"])
        assert code == EXIT_IO

    def test_name_cannot_leave_the_out_directory(self, tmp_path, capsys):
        data = scenarios.scenario_to_dict(scenarios.builtin_scenario("chsh"))
        data["name"] = os.path.join("..", "escape")
        path = tmp_path / "s.json"
        path.write_text(json.dumps(data))
        for command in ("evaluate", "maximize", "classical-bound", "sample"):
            assert main([command, str(path), "--out", str(tmp_path / "o")]) == EXIT_VALIDATION
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and "'name'" in err[0]
        assert [p.name for p in tmp_path.iterdir()] == ["s.json"]

    @pytest.mark.parametrize("command", CI_REFUSALS)
    def test_refusal_leaves_no_out_path(self, tmp_path, capsys, command):
        # the directory is made only when a report is written
        out = tmp_path / "d" / "deeper"
        assert main([*command.split(), "--out", str(out)]) == EXIT_VALIDATION
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert not (tmp_path / "d").exists()


class TestReproduce:
    def test_table_passes(self, out_dir, capsys):
        assert main(["reproduce-paper"]) == EXIT_OK
        out = capsys.readouterr().out
        table = [line for line in out.splitlines() if line.startswith(("PASS", "FAIL"))]
        assert len(table) >= 15
        assert all(line.startswith("PASS") for line in table)
        assert "reproduction rows pass" in out
        payload = json.load(open(out_dir / "reproduce-paper.json"))
        assert payload["passed"] is True

    def test_failure_exits_with_acceptance_code(self, out_dir, monkeypatch, capsys):
        rows = [{"label": "planted", "value": 0.0, "target": 1.0,
                 "tolerance": 1e-9, "passed": False}]
        monkeypatch.setattr("netbell.cli._reproduction_rows", lambda: rows)
        assert main(["reproduce-paper"]) == EXIT_ACCEPTANCE
        assert "FAIL" in capsys.readouterr().out

    def test_cross_check_names_the_row_scenario(self, out_dir, monkeypatch, capsys):
        # T replaced by S in example-b's synthesis alone: its maximize row
        # leaves the closed forms, and the rows before it pass
        real = cli._require_valid

        def tampered(scenario):
            synthesis = real(scenario)
            if scenario.name != "example-b":
                return synthesis
            sources = list(synthesis.sources)
            sources[0] = dataclasses.replace(sources[0], t_piece=sources[0].s_piece)
            return dataclasses.replace(synthesis, sources=tuple(sources))

        monkeypatch.setattr(cli, "_require_valid", tampered)
        assert main(["reproduce-paper"]) == EXIT_VALIDATION
        fingerprint = scenarios.fingerprint(scenarios.builtin_scenario("example-b"))
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: cross-check failed for example-b [{fingerprint}]: ")
        assert "disagrees with the stabilizer closed forms" in err[0]
        assert captured.out == ""
        assert not list(out_dir.iterdir())


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "netbell", "validate", "chsh"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip().endswith("PASS")

    def test_optimized_invocation(self):
        # python -O strips assert statements; validation must not lean on them
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "netbell", "validate", "chsh"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
