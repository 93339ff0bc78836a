"""netbell benchmark: three CLI workloads, end-to-end times, per-layer metrics.

    python3 perfbench/run.py --workload star-exact --seed 1 --seconds 35 --trace 0

Runs from the root of a source checkout and imports netbell from its
`src/`. After one warm-up pass it repeats passes through the workload's
commands (see workloads.py) for `--seconds`; with `--trace 0` it times a
reference loop after every command (speed.py) and gates pass times scaled
to that loop's nominal speed. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with `--trace 0`, the per-layer metrics
from a traced run (tracing.py) with `--trace 1`. The lines before it give
the environment, every metric by name and unit, and the failed ratio.
README.md says what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("star-exact", "classical-scan", "sampling")
MIN_PASSES = 3
SETUP_REPEATS = 7


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_commit() -> str:
    """HEAD of the checkout's git repository, or "unknown" outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(workload: str, seed: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload,
        "seed": seed,
        "commit": git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}",
        # "unset" means the library's default thread count.
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
    }


def setup_seconds() -> float:
    """Median time for a fresh interpreter to import netbell.cli and exit."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # The child stops itself after 60 s. A `timeout=` here would make
    # subprocess poll for the exit in sleeps of up to 50 ms, and the
    # times would come in 50 ms steps.
    code = "import signal; signal.alarm(60); import netbell.cli"
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest finished child.

    The children are the classical scan's pool workers; call this before
    starting any other subprocess.
    """
    kib = sum(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )
    return kib / 1024.0


def timed_passes(run_pass, seconds: float, minimum: int) -> list:
    """Closed loop: at least `minimum` passes, and more until `seconds` pass."""
    results = []
    deadline = time.perf_counter() + seconds
    while len(results) < minimum or time.perf_counter() < deadline:
        results.append(run_pass())
    return results


def scaled_seconds(result, log) -> float:
    """A pass's time at the reference loop's nominal speed (speed.py)."""
    return sum(seconds / log.factor(start, start + seconds) for start, seconds in result.spans)


def end_to_end(run_pass, seconds: float):
    log = speed.SpeedLog()
    log.sample()
    passes = timed_passes(lambda: run_pass(log.sample), seconds, MIN_PASSES)
    rss = peak_rss_mb()
    metrics = {
        "scaled_wall_s": (statistics.median(scaled_seconds(p, log) for p in passes), "s"),
        "setup_s": (setup_seconds(), "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    detail = {
        "wall_s": (statistics.median(p.seconds for p in passes), "s"),
        **{
            f"{kind}_ms": (statistics.median(p.kind_seconds[kind] for p in passes) * 1e3, "ms")
            for kind in passes[0].kind_seconds
        },
        "reference_ms": (log.median_s() * 1e3, "ms"),
        "passes": (len(passes), "count"),
    }
    return passes, metrics, detail


def per_layer(run_pass, seconds: float, tracer):
    """Alternate untraced and traced passes; per-layer values are medians
    over the traced passes, and the untraced ones give the overhead."""
    untraced, traced, layer_values = [], [], []

    def pair():
        untraced.append(run_pass())
        tracer.install()
        try:
            tracer.new_pass()
            traced.append(run_pass())
            layer_values.append(tracer.new_pass().metrics())
        finally:
            tracer.uninstall()

    timed_passes(pair, seconds, 1)
    metrics = {
        name: (statistics.median_low(values[name][0] for values in layer_values), unit)
        for name, (_, unit) in layer_values[0].items()
    }
    traced_s = statistics.median(p.seconds for p in traced)
    untraced_s = statistics.median(p.seconds for p in untraced)
    metrics["trace.wall_s"] = (traced_s, "s")
    metrics["trace.untraced_wall_s"] = (untraced_s, "s")
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "1")
    detail = {"traced_passes": (len(traced), "count")}
    return [*untraced, *traced], metrics, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "netbell" / "cli.py").is_file():
        print(f"error: no netbell sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads

    work_dir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        cmds = workloads.commands(args.workload, args.seed, work_dir)

        def run_pass(after_command=None):
            return workloads.run_pass(cmds, work_dir, after_command)

        warm = run_pass()
        if args.trace:
            passes, metrics, detail = per_layer(run_pass, args.seconds, tracing.Tracer())
        else:
            passes, metrics, detail = end_to_end(run_pass, args.seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = sum(p.attempted for p in (warm, *passes))
    failed = sum(p.failed for p in (warm, *passes))
    detail["failed_ratio"] = (failed / attempted, "1")
    print("env " + json.dumps(environment(args.workload, args.seed), sort_keys=True))
    for name, (value, unit) in {**metrics, **detail}.items():
        print(f"{name} {value!r} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
