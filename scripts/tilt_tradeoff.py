"""Map the tilted inequality across tilt angles and tilt-source counts.

For a star network with a chosen number of sources, every subset size of
tilted sources gets its own curve: the solved tilt weight beta_max, the
best common mixing angle, the tilted value G at the optimum, and the
margin over the classical bound beta_max + 1.  Each optimum is
re-evaluated through the full synthesis pipeline as a cross-check.
"""

import argparse
import math
import os

import numpy as np

from netbell import bell, observables, reports, scenarios

COLUMNS = [
    "tilt_count",
    "phibar",
    "beta_max",
    "theta_max",
    "g_opt",
    "g_evaluated",
    "classical_bound",
    "margin",
]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sources", type=int, default=3, help="star size")
    parser.add_argument("--points", type=int, default=25, help="tilt angles per curve")
    parser.add_argument("--out", default=os.environ.get("NETBELL_OUT", "reports"))
    args = parser.parse_args()

    rows = []
    for tilt_count in range(1, args.sources + 1):
        for phibar in np.linspace(0.05, math.pi / 4 - 0.02, args.points):
            parameters = bell.tilt_parameters(float(phibar), tilt_count, args.sources)
            scenario = scenarios.builtin_scenario(
                "star", n=args.sources, phibar=float(phibar), tilt_count=tilt_count
            )
            synthesis = observables.synthesize(scenario.layout, scenario.selection)
            thetas = (parameters.theta_max,) * args.sources
            report = bell.evaluate_tilted(synthesis, thetas, parameters.beta_max)
            bound = parameters.beta_max + 1.0
            rows.append(
                {
                    "tilt_count": tilt_count,
                    "phibar": float(phibar),
                    "beta_max": parameters.beta_max,
                    "theta_max": parameters.theta_max,
                    "g_opt": parameters.g_opt,
                    "g_evaluated": report.tilt.g_value,
                    "classical_bound": bound,
                    "margin": report.tilt.g_value - bound,
                }
            )

    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, f"star{args.sources}-tilt-tradeoff.csv")
    reports.write_csv(path, COLUMNS, rows)
    drift = max(abs(r["g_opt"] - r["g_evaluated"]) for r in rows)
    print(f"{len(rows)} optima solved, worst closed-form drift {drift:.3e}")
    for tilt_count in range(1, args.sources + 1):
        margin = max(r["margin"] for r in rows if r["tilt_count"] == tilt_count)
        print(f"tilt_count {tilt_count}: best margin over the bound {margin:.6f}")
    print(f"rows -> {path}")


if __name__ == "__main__":
    main()
