"""Bench: kernel fast-path throughput against the seed kernel, same host.

The acceptance bar for the fast-path kernel work: >= 3.4x wall speedup
on the 128-node Quadrics nic-chained point versus the pre-optimization
kernel.  The denominator is measured on the host running the test: the
seed kernel (commit d46d0f8) from git history, or, without history, a
calibration loop scaled by the seed-to-loop ratio recorded in
:mod:`repro.tools.perfbench`.  The floor was raised from 3.0x when the
calendar-queue kernel, the chain prearm batching, and the up-edge
elision landed.  The run also emits ``BENCH_kernel.json`` at the repo
root so the numbers are inspectable without re-running.

Speedup is wall-based: the optimizations *remove* events (detached
timers, inline callbacks, uncontended fast paths), so raw events/sec
would under-credit them — see the metric note in perfbench.
"""

import json
import pathlib
import time

import pytest

from repro.cluster import build_myrinet_cluster, run_barrier_experiment
from repro.tools.perfbench import BIG_POINTS, POINTS, bench_point, run_benchmarks

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_quadrics128_speedup_and_report():
    """>= 3.4x on the acceptance point; write BENCH_kernel.json."""
    report = run_benchmarks(list(POINTS), trials=3, verbose=False)
    rows = {row["point"]: row for row in report["points"]}

    quad = rows["quadrics128"]
    base = quad["baseline"]
    assert quad["wall_speedup"] >= 3.4, (
        f"kernel regressed: quadrics128 wall_speedup={quad['wall_speedup']}x "
        f"(wall={quad['wall_s']}s vs {base['source']} {base['wall_s']}s), "
        "need >= 3.4x"
    )
    # The optimizations must not move the simulated physics: latency is
    # a deterministic model output, not a wall-clock measurement.
    assert quad["mean_latency_us"] == pytest.approx(13.5214, abs=0.01)
    # Peak RSS rides along so a memory blow-up is visible in review.
    assert quad["peak_rss_mb"] > 0

    out = REPO_ROOT / "BENCH_kernel.json"
    out.write_text(json.dumps(report, indent=2) + "\n")


def test_lanai91_16_smoke_budget():
    """16-node LANai-9.1 collective point completes well inside budget.

    Pre-optimization this point took 0.182s; the budget is ~10x that so
    the test only trips on a catastrophic kernel regression, never on
    machine noise.
    """
    cluster = build_myrinet_cluster("lanai91_piii700", nodes=16)
    t0 = time.perf_counter()
    result = run_barrier_experiment(
        cluster, "nic-collective", iterations=20, warmup=5, seed=0
    )
    wall = time.perf_counter() - t0
    assert wall < 2.0, f"lanai91_16 took {wall:.2f}s (budget 2.0s)"
    assert result.mean_latency_us == pytest.approx(25.74, rel=0.05)


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(BIG_POINTS))
def test_big_point_completes(name):
    """Extrapolation points (512 up to 16384 nodes) actually run.

    The 4096/16384-node entries are the scale-wall points: before the
    calendar-queue kernel and the chain prearm they were out of reach
    entirely.
    """
    row = bench_point(BIG_POINTS[name], trials=1)
    assert row["events_scheduled"] > 0
    assert row["mean_latency_us"] > 0.0
    assert row["peak_rss_mb"] > 0
