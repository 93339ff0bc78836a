"""Watch the finite-round estimator converge to the exact Bell value.

Runs the paired five-qubit scenario at its default angles over a ladder
of round counts and a handful of seeds, in both acquisition strategies,
and reports the estimate, its standard error, and the z-score against
the exact value sqrt(2).
"""

import argparse
import math
import os

from netbell import bell, observables, reports, sampling, scenarios

COLUMNS = [
    "strategy",
    "rounds",
    "seed",
    "value",
    "value_se",
    "exact",
    "z",
]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scenario", default="example-a", help="builtin scenario name")
    parser.add_argument("--seeds", type=int, default=3, help="seeds per point")
    parser.add_argument(
        "--ladder",
        default="1000,10000,100000",
        help="comma-separated round counts",
    )
    parser.add_argument("--out", default=os.environ.get("NETBELL_OUT", "reports"))
    args = parser.parse_args()

    scenario = scenarios.builtin_scenario(args.scenario)
    synthesis = observables.synthesize(
        scenario.layout,
        scenario.selection,
        allow_commuting_pair=scenario.allow_commuting_pair,
    )
    exact = bell.evaluate(synthesis, scenario.thetas).quantum_value

    rows = []
    for strategy in sampling.MODES:
        for rounds in (int(r) for r in args.ladder.split(",")):
            for seed in range(args.seeds):
                config = sampling.RunConfig(rounds=rounds, seed=seed, strategy=strategy)
                report = sampling.run(synthesis, scenario.thetas, config)
                se = report.value_se or math.nan
                rows.append(
                    {
                        "strategy": strategy,
                        "rounds": rounds,
                        "seed": seed,
                        "value": report.value_estimate,
                        "value_se": report.value_se,
                        "exact": exact,
                        "z": (report.value_estimate - exact) / se,
                    }
                )
                print(
                    f"{strategy:>18} rounds {rounds:>7} seed {seed}: "
                    f"{report.value_estimate:.6f} +- {se:.6f} "
                    f"(z = {rows[-1]['z']:+.2f})"
                )

    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, f"{args.scenario}-sampling-convergence.csv")
    reports.write_csv(path, COLUMNS, rows)
    print(f"exact value {exact:.12f}")
    print(f"rows -> {path}")


if __name__ == "__main__":
    main()
