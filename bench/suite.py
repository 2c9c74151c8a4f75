"""Run one benchmark workload in this process and write its raw result.

Started by ``run.py`` in a fresh, hermetic process::

    python3 bench/suite.py --workload multi-job --seed 0 --seconds 40 \\
        --trace 0 --out result.json
    python3 bench/suite.py --import-only    # print the program's import time

The workload's batch is repeated until ``--seconds`` of host time is
used (at least once; with ``--trace 1`` at least once sampled and once
not).  End-to-end timings are medians over the unsampled batches;
per-layer self times come from the sampled ones.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WARM_REPEATS = 25


def import_program() -> float:
    """Import the program from this checkout; returns the seconds taken."""
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import repro.cluster  # noqa: F401
    import repro.mpi  # noqa: F401
    import repro.tools.audit  # noqa: F401
    import repro.tools.chaos  # noqa: F401
    import repro.tools.runcache  # noqa: F401
    import repro.tools.simlint  # noqa: F401
    import repro.workload  # noqa: F401
    elapsed = time.perf_counter() - start
    loaded = Path(sys.modules["repro"].__file__).resolve().parent
    if loaded != (SRC / "repro").resolve():
        raise SystemExit(f"imported repro from {loaded}, not from this checkout")
    return elapsed


def instrument(probe) -> None:
    """Time the public calls the workloads reach inside the program, and
    keep every cluster a call builds so its counters can be read."""
    from repro.cluster.builder import build_cluster
    from repro.mpi import create_communicators
    from repro.tools.audit import audit_counters, audit_group_flows
    from repro.tools.simlint import check_quiescent

    for func, name, capture in (
        (build_cluster, "cluster.build_s", True),
        (create_communicators, "mpi.comm_build_s", False),
        (audit_counters, "audit.s", False),
        (audit_group_flows, "audit.s", False),
        (check_quiescent, "simlint.quiescence_s", False),
    ):
        if not probe.instrument(func, name, capture=capture):
            raise SystemExit(f"{func.__module__}.{func.__qualname__} is no longer bound anywhere")


class WarmReads:
    """The ``store`` callback the workloads hand each unit's result to.

    It puts the result into the batch's run cache, as ``repro report``
    does once a point finishes, and reads it back ``WARM_REPEATS`` times
    right away.  A warm pass is the sum over units of the median read.
    Reading back after each unit, rather than all at the end of the
    batch, spreads the reads over the whole batch: host speed on a
    shared machine changes in phases of seconds, and reads bunched into
    a few milliseconds would each sample a single phase.  The reads are
    kept out of the batch's wall time and out of the sampler.
    """

    def __init__(self, probe, root: Path):
        from repro.tools.runcache import RunCache

        self.probe = probe
        self.cache = RunCache(root)
        self.pass_s = 0.0
        self.get_s = 0.0
        self.excluded_s = 0.0
        self.gets = 0
        self.hits = 0

    def __call__(self, batch, name: str, request: dict, payload) -> None:
        from repro.tools.runcache import jsonable

        with self.probe.span("runcache.put_s"):
            self.cache.put(request, payload)
        start = time.perf_counter()
        self.probe.paused = True
        expected = jsonable(payload)
        reads, gets = [], []
        for _ in range(WARM_REPEATS):
            t0 = time.perf_counter()
            got = self.cache.get(request)
            t1 = time.perf_counter()
            same = got == expected
            reads.append(time.perf_counter() - t0)
            gets.append(t1 - t0)
            self.gets += 1
            self.hits += got is not None
            if not same:
                batch.fail(name, "warm run-cache read differs from the cold result")
                break
        self.pass_s += statistics.median(reads)
        self.get_s += statistics.median(gets)
        self.probe.paused = False
        self.excluded_s += time.perf_counter() - start


def run_batch(workload, probe, cache_root: Path, index: int, traced: bool) -> dict:
    """One cold pass (timed, optionally sampled) with its warm reads."""
    from repro.collectives.algorithms import schedule_cache_stats

    # Every batch starts from a collected heap, so garbage left by the
    # previous one does not land in this one's timing.
    gc.collect()
    probe.reset_spans()
    probe.samples.clear()
    sched_before = schedule_cache_stats()
    warm = WarmReads(probe, cache_root / f"batch{index}")

    start = time.perf_counter()
    if traced:
        with probe.sampling():
            batch = workload.cold(probe, warm)
    else:
        batch = workload.cold(probe, warm)
    wall = time.perf_counter() - start - warm.excluded_s
    spans = probe.reset_spans()
    spans["runcache.get_s"] = warm.get_s

    sched_after = schedule_cache_stats()
    return {
        "traced": traced,
        "wall_s": wall,
        "warm_s": warm.pass_s,
        "warm_gets": warm.gets,
        "warm_hits": warm.hits,
        "sched_hits": sched_after["hits"] - sched_before["hits"],
        "sched_misses": sched_after["misses"] - sched_before["misses"],
        "spans": spans,
        "samples": dict(probe.samples),
        "batch": batch,
    }


def per_op_counts(batch) -> dict:
    """The deterministic per-layer counts of one batch."""
    totals, rank_ops = batch.totals, max(1, batch.rank_ops)
    ledger = {
        "sim.events_per_op": totals["events"] / rank_ops,
        "network.packets_per_op": totals["packets"] / rank_ops,
        "myrinet.lanai_busy_us_per_op": totals["lanai_busy_us"] / rank_ops,
        "quadrics.rdma_per_op": totals["rdma"] / rank_ops,
        "pci.dma_per_op": totals["pci.dma"] / rank_ops,
        "pci.pio_per_op": totals["pci.pio"] / rank_ops,
        "host.cpu_busy_us_per_op": totals["host_busy_us"] / rank_ops,
        "collectives.retransmits_per_op": totals["retransmits"] / rank_ops,
        "faults.inspected_per_op": totals["faults_inspected"] / rank_ops,
        "chaos.detect_us": (
            sum(batch.detect_us) / len(batch.detect_us) if batch.detect_us else 0.0
        ),
        "workload.xtraffic_delivered": totals["xtraffic_delivered"],
    }
    return ledger


def summarize(runs: list, prologue, import_s: float) -> dict:
    """Fold the batches into end-to-end and per-layer metrics."""
    from probe import LAYERS
    from workloads import paper_error_pct

    plain = [r for r in runs if not r["traced"]]
    traced = [r for r in runs if r["traced"]]
    first = runs[0]["batch"]
    counts = per_op_counts(first)
    # The exact ledger: per-layer counts plus per-unit ones (events of
    # each point, collectives of each fuzz plan) that name where a
    # change in simulated work happened.
    ledger = {**counts, **first.ledger}
    problems, attempted, failed = [], 0, 0
    for i, run in enumerate(runs):
        batch = run["batch"]
        if i and ({**per_op_counts(batch), **batch.ledger} != ledger
                  or batch.digests != first.digests):
            batch.fail("batch", f"batch {i} differs from batch 0 on the same inputs (nondeterminism)")
        problems.extend(batch.problems)
        attempted += batch.attempted
        failed += batch.failed
    problems.extend(prologue.problems)
    attempted += prologue.attempted
    failed += prologue.failed

    def median(key, rows=plain):
        return statistics.median(row[key] for row in rows)

    def span_median(*names):
        return statistics.median(
            sum(run["spans"].get(name, 0.0) for name in names) for run in runs
        )

    wall = median("wall_s")
    e2e = {
        "wall_s": wall,
        "ops_per_s": first.ops / wall,
        "warm_s": median("warm_s"),
        "paper_err_pct": paper_error_pct(prologue.anchors),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }

    layers = dict(counts)
    events = max(1, first.totals["events"])
    layers["sim.ns_per_event"] = wall / events * 1e9
    sched_total = sum(r["sched_hits"] + r["sched_misses"] for r in runs)
    layers["collectives.schedule_cache_hit_rate"] = (
        sum(r["sched_hits"] for r in runs) / sched_total if sched_total else 0.0
    )
    gets = sum(r["warm_gets"] for r in runs)
    layers["runcache.warm_hit_rate"] = sum(r["warm_hits"] for r in runs) / gets if gets else 0.0
    for name in ("cluster.build_s", "runcache.get_s", "runcache.put_s", "audit.s",
                 "simlint.quiescence_s", "simlint.replay_s"):
        layers[name] = span_median(name)
    if traced:
        samples = {}
        for run in traced:
            for layer, count in run["samples"].items():
                samples[layer] = samples.get(layer, 0) + count
        total = max(1, sum(samples.values()))
        traced_wall = statistics.mean(r["wall_s"] for r in traced)
        for layer in (*LAYERS, "other", "harness"):
            layers[f"{layer}.self_s"] = samples.get(layer, 0) / total * traced_wall
        layers["trace.overhead"] = median("wall_s", traced) / wall
        layers["trace.samples"] = sum(samples.values())
    if layers["runcache.warm_hit_rate"] != 1.0:
        problems.append(f"warm pass hit rate {layers['runcache.warm_hit_rate']}, expected 1.0")
        failed = max(failed, 1)

    return {
        "import_s": import_s,
        "setup_batch_s": span_median("cluster.build_s", "mpi.comm_build_s"),
        "batches": len(plain),
        "traced_batches": len(traced),
        "ops_per_batch": first.ops,
        "e2e": e2e,
        "layers": layers,
        "ledger": ledger,
        "digests": first.digests,
        "units": first.units,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    parser.add_argument("--import-only", action="store_true")
    args = parser.parse_args(argv)

    import_s = import_program()
    if args.import_only:
        print(repr(import_s))
        return 0

    from probe import Probe

    probe = Probe()
    instrument(probe)
    import workloads

    probe.count_cluster = workloads.add_cluster_counts
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    cache_root = Path(os.environ["REPRO_CACHE_DIR"])

    # The group-normalisation RuntimeWarnings are part of normal
    # operation; they are counted, not printed.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        workload = workloads.WORKLOADS[args.workload](args.seed)
        prologue = workloads.anchor_batch(probe)
        runs = []
        start = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(runs) % 2 == 1
            runs.append(run_batch(workload, probe, cache_root, len(runs), traced))
            print(f"  batch {len(runs)}: {runs[-1]['wall_s']:.3f} s"
                  f"{' (sampled)' if traced else ''}", file=sys.stderr, flush=True)
            elapsed = time.perf_counter() - start
            per_batch = elapsed / len(runs)
            need_more = args.trace and len(runs) < 2
            if not need_more and elapsed + per_batch > args.seconds:
                break
        result = summarize(runs, prologue, import_s)
    from repro.tools.runcache import source_digest

    result["warnings_captured"] = len(caught)
    result["source_digest"] = source_digest()
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
