"""The machine's current speed, read from a fixed reference loop.

On a shared host the same code runs up to ~1.8x slower for stretches of a
fraction of a second to tens of seconds, while other tenants load the
cores. A run's median pass time then depends on how much of the run fell
in slow stretches, and moves by more than any bound worth gating on.

`SpeedLog.sample()` times a fixed pure-Python loop a few times; the
end-to-end run calls it before its first command and after every command.
`SpeedLog.factor(start, end)` is the mean loop time of the samples taken
within `WINDOW_S` of a command, over the loop's nominal time
`REFERENCE_S`. A command's time divided by that factor is its time at
nominal speed: a slower program shows in full, a slower machine does not.

The loop does the kind of work the netbell layers spend their time on
(bit arithmetic, tuples, string joins, a dict) and uses no numpy, so BLAS
settings cannot change it, and it depends on nothing in `src/`.
"""

from __future__ import annotations

import statistics
import time

# Nominal time of one reference loop: roughly its time on an unloaded
# 2.1 GHz Xeon core. Scaled times are seconds at this speed.
REFERENCE_S = 0.01
ITERATIONS = 4000
SAMPLES = 3
WINDOW_S = 1.0
LETTERS = ("I", "X", "Y", "Z")


def reference_loop() -> int:
    table: dict[str, int] = {}
    acc = 0
    for i in range(ITERATIONS):
        bits = (i * 2654435761) & 0xFFFF
        key = "".join(LETTERS[(bits >> k) & 3] for k in range(0, 8, 2))
        table[key] = table.get(key, 0) + ((bits >> 3) & 1)
        acc += (1 - 2 * ((bits >> 7) & 1)) * (1 - 2 * ((bits >> 9) & 1))
    return acc + len(table)


class SpeedLog:
    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (end time, loop seconds)

    def sample(self) -> None:
        for _ in range(SAMPLES):
            start = time.perf_counter()
            reference_loop()
            end = time.perf_counter()
            self.samples.append((end, end - start))

    def factor(self, start: float, end: float) -> float:
        """Mean reference loop time around [start, end], over REFERENCE_S."""
        near = [s for t, s in self.samples if start - WINDOW_S <= t <= end + WINDOW_S]
        return statistics.mean(near) / REFERENCE_S

    def median_s(self) -> float:
        return statistics.median(s for _, s in self.samples)
