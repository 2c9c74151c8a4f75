"""Kernel micro-benchmark: wall time and event throughput per figure point.

Usage::

    python -m repro.tools.perfbench [--out BENCH_kernel.json]
                                    [--trials 3] [--points quadrics128 ...]
                                    [--big]

Each *point* is one figure-scale barrier experiment (fixed profile,
scheme, node count, iteration schedule).  For every point we report:

- ``wall_s`` — best-of-``trials`` wall-clock for the whole experiment,
- ``events_scheduled`` — heap pushes for the run (deterministic),
- ``events_per_sec`` — raw kernel throughput,
- ``peak_rss_mb`` — the process's resident-set high-water mark after
  the point (a scale point that fits in wall time but not in memory is
  still a failed scale point),
- against the pre-optimization seed kernel, timed on the same host:
  ``wall_speedup`` and ``equivalent_events_per_sec`` (baseline event
  count divided by the new wall time).

The *equivalent* metric matters because the fast-path work removes
events outright (detached timers, inline callbacks, uncontended
resource claims): raw events/sec under-credits an optimization that
does the same simulated work with fewer heap operations.  Wall speedup
against the same-host seed baseline is the honest figure of merit; the raw
rate is kept for profiling.

The baseline wall time is measured on the *same host*, in the same
run: the pre-optimization seed kernel (commit ``d46d0f8``) is
extracted from git history with ``git archive`` and timed on the
identical spec in a child process, best of the same number of trials.
Without git history (an installed package, a shallow clone) the
denominator falls back to a pure-Python calibration loop timed now,
scaled by the seed-to-loop ratio recorded once on a host where both
ran; each row's ``baseline.source`` says which was used.  A frozen
wall time from another machine would gate the host, not the code.

The baseline ``events_scheduled`` and ``mean_latency_us`` values are
deterministic: the latencies are the *current* model outputs,
re-frozen after the deterministic-link-arbitration work moved the
simulated physics, and the optimizations in this tree must reproduce
them bit-for-bit.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from repro.cluster.builder import build_cluster
from repro.cluster.runner import run_barrier_experiment
from repro.collectives.algorithms import schedule_cache_stats
from repro.tools.runcache import (
    RunCache,
    atomic_write_text,
    resolve_cache,
    run_request,
)


@dataclass(frozen=True)
class PointSpec:
    """One benchmarked figure point."""

    name: str
    profile: str
    barrier: str
    nodes: int
    iterations: int = 20
    warmup: int = 5


@dataclass(frozen=True)
class Baseline:
    """Pre-optimization reference for a point (seed kernel).

    ``calibration_ratio`` is the seed kernel's best wall time on the
    point divided by :func:`calibration_s`, both measured on one host;
    it is only used when the seed kernel cannot be run.
    """

    events_scheduled: int
    mean_latency_us: float
    calibration_ratio: float


POINTS = {
    "quadrics128": PointSpec("quadrics128", "elan3_piii700", "nic-chained", 128),
    "myrinet64": PointSpec("myrinet64", "lanai_xp_xeon2400", "nic-collective", 64),
    "lanai91_16": PointSpec("lanai91_16", "lanai91_piii700", "nic-collective", 16),
}

# Extrapolation-scale points (the fig8 extension); excluded from the
# default set because each costs seconds-to-minutes of wall time.  The
# 4096/16384-node points are the scale-wall gate: they only became
# runnable at all with the calendar-queue kernel, the prearmed chain
# batching, and the fat-tree up-edge elision, so they get the tapered
# iteration schedule the scale sweeps use.
BIG_POINTS = {
    "myrinet512": PointSpec(
        "myrinet512", "lanai_xp_xeon2400", "nic-collective", 512,
        iterations=5, warmup=2,
    ),
    "quadrics1024": PointSpec(
        "quadrics1024", "elan3_piii700", "nic-chained", 1024,
        iterations=5, warmup=2,
    ),
    "myrinet4096": PointSpec(
        "myrinet4096", "lanai_xp_xeon2400", "nic-collective", 4096,
        iterations=3, warmup=1,
    ),
    "quadrics16384": PointSpec(
        "quadrics16384", "elan3_piii700", "nic-chained", 16384,
        iterations=3, warmup=1,
    ),
}

BASELINES = {
    "quadrics128": Baseline(events_scheduled=477_784, mean_latency_us=13.5214,
                            calibration_ratio=32.4),
    "myrinet64": Baseline(events_scheduled=183_448, mean_latency_us=34.2683,
                          calibration_ratio=11.8),
    "lanai91_16": Baseline(events_scheduled=30_512, mean_latency_us=25.7377,
                           calibration_ratio=1.48),
}

#: The pre-optimization kernel every ``wall_speedup`` is measured against.
SEED_COMMIT = "d46d0f8"
REPO_ROOT = Path(__file__).resolve().parents[3]

# Run inside the extracted seed tree: best-of-N wall time of one point,
# through the API the seed and this tree share.
_SEED_TIMER = """
import sys, time
from repro.cluster import build_cluster, run_barrier_experiment
profile, barrier, nodes, iterations, warmup, trials = sys.argv[1:]
best = float("inf")
for _ in range(int(trials)):
    cluster = build_cluster(profile, int(nodes))
    start = time.perf_counter()
    run_barrier_experiment(cluster, barrier, iterations=int(iterations),
                           warmup=int(warmup), seed=0)
    best = min(best, time.perf_counter() - start)
print(best)
"""


def calibration_s() -> float:
    """Best-of-three wall time of a fixed pure-Python loop on this host."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(1_000_000):
            acc = (acc + i * i) % 1_000_003
        best = min(best, time.perf_counter() - start)
    return best


def seed_wall_s(spec: PointSpec, trials: int = 3) -> tuple[float, str]:
    """The seed kernel's best-of-``trials`` wall time for ``spec`` on
    this host, and where it came from.

    Runs the seed tree from git history when it is available; otherwise
    scales a fresh :func:`calibration_s` by the point's recorded ratio.
    """
    try:
        with tempfile.TemporaryDirectory() as tmp:
            archive = subprocess.run(
                ["git", "-C", str(REPO_ROOT), "archive", "--format=tar",
                 SEED_COMMIT, "src"],
                capture_output=True, check=True,
            )
            subprocess.run(["tar", "-x", "-C", tmp], input=archive.stdout,
                           capture_output=True, check=True)
            env = {**os.environ, "PYTHONPATH": str(Path(tmp) / "src")}
            out = subprocess.run(
                [sys.executable, "-c", _SEED_TIMER, spec.profile, spec.barrier,
                 str(spec.nodes), str(spec.iterations), str(spec.warmup),
                 str(trials)],
                capture_output=True, check=True, text=True, cwd=tmp, env=env,
            )
        return float(out.stdout.split()[-1]), f"seed kernel {SEED_COMMIT}"
    except (OSError, ValueError, IndexError, subprocess.CalledProcessError):
        ratio = BASELINES[spec.name].calibration_ratio
        return ratio * calibration_s(), "calibration loop"


def bench_point(
    spec: PointSpec, trials: int = 3, cache: Optional[RunCache] = None
) -> dict:
    """Run ``spec`` ``trials`` times and report the best wall time.

    Wall-clock is always re-measured (it depends on the machine, not
    the model).  The deterministic fields — ``events_scheduled`` and
    ``mean_latency_us`` — are cross-checked between trials (any drift
    is a determinism regression) and, with ``cache`` set, against the
    cached values from previous runs of the same code.
    """
    best_wall = None
    best_events = 0
    best_latency = 0.0
    trial_events: list[int] = []
    trial_latencies: list[float] = []
    cache_before = schedule_cache_stats()
    for _ in range(trials):
        cluster = build_cluster(spec.profile, spec.nodes)
        t0 = time.perf_counter()
        result = run_barrier_experiment(
            cluster, spec.barrier,
            iterations=spec.iterations, warmup=spec.warmup, seed=0,
        )
        wall = time.perf_counter() - t0
        trial_events.append(cluster.sim.events_scheduled)
        trial_latencies.append(result.mean_latency_us)
        if best_wall is None or wall < best_wall:
            best_wall = wall
            best_events = cluster.sim.events_scheduled
            best_latency = result.mean_latency_us
    if len(set(trial_events)) > 1 or len(set(trial_latencies)) > 1:
        raise RuntimeError(
            f"determinism violation on {spec.name}: trials disagree "
            f"(events {trial_events}, latencies {trial_latencies})"
        )

    cache_state = "off"
    if cache is not None:
        from repro.cluster import get_profile

        request = run_request(
            "bench-point", params=get_profile(spec.profile),
            barrier=spec.barrier, nodes=spec.nodes,
            iterations=spec.iterations, warmup=spec.warmup, seed=0,
        )
        cached = cache.get(request)
        if cached is None:
            cache.put(
                request,
                {"events_scheduled": best_events, "mean_latency_us": best_latency},
            )
            cache_state = "cold"
        else:
            if (
                cached["events_scheduled"] != best_events
                or cached["mean_latency_us"] != best_latency
            ):
                raise RuntimeError(
                    f"determinism violation on {spec.name}: cached "
                    f"({cached['events_scheduled']} events, "
                    f"{cached['mean_latency_us']}us) != measured "
                    f"({best_events} events, {best_latency}us) under the "
                    "same source digest"
                )
            cache_state = "warm"

    # ru_maxrss is the lifetime high-water mark (KiB on Linux): report
    # it after the trials so a point that balloons memory is visible in
    # the report even though earlier points contribute to the floor.
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    cache_after = schedule_cache_stats()
    sched_hits = cache_after["hits"] - cache_before["hits"]
    sched_misses = cache_after["misses"] - cache_before["misses"]
    sched_total = sched_hits + sched_misses
    row = {
        "point": spec.name,
        "profile": spec.profile,
        "barrier": spec.barrier,
        "nodes": spec.nodes,
        "iterations": spec.iterations,
        "warmup": spec.warmup,
        "trials": trials,
        "cache": cache_state,
        "wall_s": round(best_wall, 4),
        "events_scheduled": best_events,
        "events_per_sec": round(best_events / best_wall),
        "mean_latency_us": round(best_latency, 4),
        "peak_rss_mb": round(peak_rss_kib / 1024, 1),
        # Repeat trials of one point should *hit* the schedule cache
        # (one compile, trials-1 replays); a 0% rate here means the
        # point's working set no longer fits — resize before trusting
        # the wall numbers.
        "schedule_cache": {
            "hits": sched_hits,
            "misses": sched_misses,
            "hit_rate": round(sched_hits / sched_total, 4) if sched_total else 0.0,
        },
    }
    baseline = BASELINES.get(spec.name)
    if baseline is not None:
        base_wall, source = seed_wall_s(spec, trials)
        row["baseline"] = {
            "source": source,
            "wall_s": round(base_wall, 4),
            "events_scheduled": baseline.events_scheduled,
            "events_per_sec": round(baseline.events_scheduled / base_wall),
            "mean_latency_us": baseline.mean_latency_us,
        }
        row["wall_speedup"] = round(base_wall / best_wall, 2)
        row["equivalent_events_per_sec"] = round(
            baseline.events_scheduled / best_wall
        )
    return row


def run_benchmarks(
    names: Sequence[str], trials: int = 3, verbose: bool = True,
    cache: Optional[RunCache] = None,
) -> dict:
    """Benchmark the named points and return the report dict."""
    all_points = {**POINTS, **BIG_POINTS}
    rows = []
    for name in names:
        spec = all_points.get(name)
        if spec is None:
            raise ValueError(
                f"unknown bench point {name!r}; choose from {sorted(all_points)}"
            )
        if verbose:
            print(f"benchmarking {name} ...", file=sys.stderr)
        row = bench_point(spec, trials=trials, cache=cache)
        if verbose:
            speed = (
                f" ({row['wall_speedup']}x vs baseline)"
                if "wall_speedup" in row else ""
            )
            print(
                f"  {name}: wall={row['wall_s']}s "
                f"events={row['events_scheduled']} "
                f"ev/s={row['events_per_sec']:,}{speed}",
                file=sys.stderr,
            )
        rows.append(row)
    return {
        "schema": "repro.perfbench/1",
        "metric_note": (
            "wall_speedup is same-host baseline wall / new wall; "
            "equivalent_events_per_sec is baseline events / new wall "
            "(optimizations eliminate events, so raw events_per_sec "
            "under-credits them)"
        ),
        "points": rows,
        "schedule_cache": schedule_cache_stats(),
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", default="BENCH_kernel.json",
                        help="output JSON path ('-' prints to stdout)")
    parser.add_argument("--trials", type=int, default=3)
    parser.add_argument("--points", nargs="*", default=None,
                        help=f"subset of {sorted(POINTS) + sorted(BIG_POINTS)}")
    parser.add_argument("--big", action="store_true",
                        help="include the 512- to 16384-node extrapolation "
                        "points (the two largest take minutes)")
    parser.add_argument(
        "--cache", action=argparse.BooleanOptionalAction, default=True,
        help="cross-check deterministic fields against the run cache "
        "(wall time is always re-measured)",
    )
    args = parser.parse_args(argv)
    cache = resolve_cache("auto" if args.cache else None)

    names = args.points
    if names is None:
        names = list(POINTS)
        if args.big:
            names += list(BIG_POINTS)
    report = run_benchmarks(names, trials=args.trials, cache=cache)
    text = json.dumps(report, indent=2)
    if args.out == "-":
        print(text)
    else:
        atomic_write_text(args.out, text + "\n")
        print(f"wrote {args.out}", file=sys.stderr)
    if cache is not None:
        cache.write_stats()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
