"""Every public record type refuses field assignment and compares by value:
records built from equal fields are equal and hash alike."""

import functools
import importlib

import pytest

from netbell import bell, classical, sampling, scenarios
from netbell.network import check_parity
from netbell.records import Record

MODULES = ("codes", "network", "bell", "observables", "scenarios", "classical", "sampling")


@functools.lru_cache(maxsize=None)
def samples() -> dict:
    """One instance of each public record type, built by the engines from
    the tilted CHSH scenario."""
    scenario = scenarios.builtin_scenario("chsh-tilted")
    report, synthesis = scenarios.diagnose(scenario)
    layout, tilt = synthesis.layout, synthesis.tilt
    bell_report = bell.evaluate_tilted(synthesis, scenario.thetas, 0.5)
    shape = classical.NetworkShape.from_layout(layout)
    scan = classical.max_deterministic(shape, 2, beta=0.5)
    config = sampling.RunConfig(rounds=200, seed=1)
    tally = sampling.run(synthesis, scenario.thetas, config, beta=0.5)
    classification = synthesis.classification
    found = [
        report, report.checks[0], layout.sources[0].code, layout.sources[0], layout,
        synthesis.selection, classification, check_parity(layout, classification),
        bell_report, bell_report.tilt, bell.tilt_parameters(0.3927, 1, 1), synthesis,
        synthesis.sources[0], synthesis.receivers[0], tilt, tilt.receivers[0], scenario,
        shape, scan, scan.strategy, config, tally, tally.tallies[0],
    ]
    return {type(record).__name__: record for record in found}


def record_types() -> set[str]:
    """The public NamedTuple and Record classes the modules define."""
    names = set()
    for name in MODULES:
        module = importlib.import_module(f"netbell.{name}")
        for key, obj in vars(module).items():
            if key.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if isinstance(obj, type) and issubclass(obj, (Record, tuple)):
                names.add(key)
    return names


def test_every_record_type_is_sampled():
    assert set(samples()) == record_types()


@pytest.mark.parametrize("name", sorted(record_types()))
def test_record_is_frozen_and_compares_by_value(name):
    record = samples()[name]
    twin = type(record)(**{field: getattr(record, field) for field in record._fields})
    assert twin is not record
    assert twin == record and hash(twin) == hash(record)
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = None
