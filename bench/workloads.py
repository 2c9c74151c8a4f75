"""The benchmark's workloads, driven only through the program's public API.

Each workload turns the benchmark seed into a fixed batch of simulated
work (``cold``).  One batch is the unit every timing is taken over; the
runner repeats it and reports medians.  Each unit's result goes to the
runner's ``store`` callback as soon as the unit ends, which puts it into
the run cache and reads it back (the warm pass).  A batch also returns
the raw counter totals the per-layer metrics are computed from.

Why these workloads:

- ``paper-barriers``: the paper's own experiment.  The event kernel, the
  fabric and the NIC firmware models do most of the work; the host and
  PCI models are loaded only by the host-based points.  One group per
  cluster, no payload, no faults.  Each point's result is cached, as
  ``repro report`` caches them; the other workloads cache one result
  per run or plan.
- ``multi-job``: overlapping jobs on one 64-node cluster per network,
  with Poisson cross-traffic.  Many groups share each NIC and host port;
  the data-collective engines and the schedule IR run with payloads.
  No faults.
- ``chaos-fuzz``: a fixed set of fault plans with node kills, each
  replayed under a seed-chosen tie-break permutation.  The only
  workload where the fault injector, heartbeat detectors,
  revoke/shrink/repair, NACK/retransmit paths and the tie-break
  replayer do real work; the other two bypass all of them.
"""

from __future__ import annotations

import hashlib
import json
import traceback
from collections import Counter
from dataclasses import dataclass, field, replace

from repro.cluster import build_cluster, get_profile, run_barrier_experiment
from repro.sim import DeterministicRng, Simulator
from repro.tools.audit import AUDITABLE_BARRIERS, aggregate_counters, audit_counters
from repro.tools.chaos import make_fuzz_plan, run_fuzz_case
from repro.tools.runcache import point_request, run_request
from repro.tools.simlint import TieBreakSimulator, check_quiescent
from repro.workload import CrossTrafficSpec, generate_trace, run_workload
from repro.workload.trace import render_trace

# ----------------------------------------------------------------------
# Batch accounting
# ----------------------------------------------------------------------


@dataclass
class Batch:
    """What one batch did, for the runner to time, check and aggregate.

    ``ops`` counts collectives finished by every rank of their group;
    ``rank_ops`` counts one per rank taking part, the base of every
    ``*_per_op`` metric.  ``units`` maps each independently checked unit
    (a barrier point, one network's workload run, one fuzz plan) to its
    ops, so a failed check can charge exactly the operations it covers.
    """

    ops: int = 0
    rank_ops: int = 0
    failed: int = 0
    units: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    totals: Counter = field(default_factory=Counter)
    #: unit -> sha256 of its deterministic output (compared across
    #: batches here and against the recorded digests by the runner).
    digests: dict = field(default_factory=dict)
    #: Deterministic per-unit counts for the exact ledger.
    ledger: dict = field(default_factory=dict)
    #: Anchor latencies for the paper comparison, keyed like ANCHORS.
    anchors: dict = field(default_factory=dict)
    #: Simulated kill-to-conviction time of every detected kill.
    detect_us: list = field(default_factory=list)
    _failed_units: set = field(default_factory=set, repr=False)

    def unit(self, name: str, ops: int, rank_ops: int) -> None:
        self.units[name] = ops
        self.ops += ops
        self.rank_ops += rank_ops

    def fail(self, name: str, message: str) -> None:
        """Charge every operation of ``name`` as failed (once per unit)."""
        self.problems.append(f"{name}: {message}")
        if name not in self._failed_units:
            self._failed_units.add(name)
            self.failed += max(1, self.units.get(name, 0))

    @property
    def attempted(self) -> int:
        """Operations checked, counting a unit that produced none as one."""
        return sum(max(1, ops) for ops in self.units.values())


def digest(value) -> str:
    return hashlib.sha256(
        json.dumps(value, sort_keys=True, default=repr).encode()
    ).hexdigest()


def crash_summary(exc: BaseException) -> str:
    """``KeyError: 65 at repro/collectives/broadcast.py:149``."""
    frame = traceback.extract_tb(exc.__traceback__)[-1]
    where = frame.filename.split("/src/")[-1]
    return f"{type(exc).__name__}: {exc} at {where}:{frame.lineno}"


def add_cluster_counts(cluster, totals: Counter) -> None:
    """Sum the counters a cluster already exposes into ``totals``."""
    counters = aggregate_counters(dict(cluster.tracer.counters))
    totals["events"] += cluster.sim.events_scheduled
    totals["packets"] += sum(
        flow["packets"] for flow in cluster.fabric.flow_counters().values()
    )
    totals["pci.dma"] += counters.get("pci.dma", 0)
    totals["pci.pio"] += counters.get("pci.pio", 0)
    totals["rdma"] += counters.get("elan.rdma_issued", 0)
    totals["retransmits"] += counters.get("gm.retransmit", 0) + sum(
        value for name, value in counters.items()
        if name.endswith(".nack_retransmit")
    )
    # Only the LANai models a busy NIC processor; Elan3 has no such clock.
    totals["lanai_busy_us"] += sum(getattr(nic, "busy_us", 0.0) for nic in cluster.nics)
    totals["host_busy_us"] += sum(cpu.busy_us for cpu in cluster.cpus)
    if cluster.faults is not None:
        totals["faults_inspected"] += cluster.faults.inspected


# ----------------------------------------------------------------------
# paper-barriers
# ----------------------------------------------------------------------

#: (name, profile, barrier, nodes, iterations, warmup).  The three named
#: points keep the kernel benchmark's 20+5 schedule so their latencies
#: can be checked against the golden values; the two large points are
#: cut to a single timed barrier (N=1024 alone costs about a second per
#: barrier on one core).
POINTS = (
    ("quadrics8-chained", "elan3_piii700", "nic-chained", 8, 20, 5),
    ("quadrics8-gsync", "elan3_piii700", "gsync", 8, 20, 5),
    ("quadrics8-hgsync", "elan3_piii700", "hgsync", 8, 20, 5),
    ("quadrics128", "elan3_piii700", "nic-chained", 128, 20, 5),
    ("quadrics1024", "elan3_piii700", "nic-chained", 1024, 1, 1),
    ("myrinet8-collective", "lanai_xp_xeon2400", "nic-collective", 8, 20, 5),
    ("myrinet8-direct", "lanai_xp_xeon2400", "nic-direct", 8, 20, 5),
    ("myrinet8-host", "lanai_xp_xeon2400", "host", 8, 20, 5),
    ("myrinet64", "lanai_xp_xeon2400", "nic-collective", 64, 20, 5),
    ("myrinet256", "lanai_xp_xeon2400", "nic-collective", 256, 2, 1),
    ("lanai91_16", "lanai91_piii700", "nic-collective", 16, 20, 5),
    ("lanai91_16-host", "lanai91_piii700", "host", 16, 20, 5),
)
ANCHORS = ("quadrics8-chained", "quadrics8-gsync", "myrinet8-collective", "myrinet8-host")

#: Mean latencies (µs, 4 decimals) the model must reproduce at GOLDEN_SEED.
GOLDEN_SEED = 0
GOLDEN_US = {"quadrics128": 13.5214, "myrinet64": 34.2683, "lanai91_16": 25.7377}

#: The paper's measured numbers: 5.60 µs Quadrics N=8 chained, 14.20 µs
#: LANai-XP N=8 NIC-collective, and the factors over gsync and host.
PAPER_QUADRICS8_US = 5.60
PAPER_MYRINET8_US = 14.20
PAPER_GSYNC_FACTOR = 2.48
PAPER_HOST_FACTOR = 2.64


def paper_error_pct(anchors: dict) -> float:
    """Largest relative error against the paper, in percent."""
    chained = anchors["quadrics8-chained"]
    collective = anchors["myrinet8-collective"]
    pairs = (
        (chained, PAPER_QUADRICS8_US),
        (collective, PAPER_MYRINET8_US),
        (anchors["quadrics8-gsync"] / chained, PAPER_GSYNC_FACTOR),
        (anchors["myrinet8-host"] / collective, PAPER_HOST_FACTOR),
    )
    return 100.0 * max(abs(got - want) / want for got, want in pairs)


def run_point(probe, batch: Batch, store, spec, seed: int) -> None:
    """One barrier point: build, run, audit counters, audit quiescence."""
    name, profile, barrier, nodes, iterations, warmup = spec
    sim = Simulator()
    sim.track_processes()
    cluster = build_cluster(profile, nodes, sim=sim)
    result = run_barrier_experiment(
        cluster, barrier, iterations=iterations, warmup=warmup, seed=seed
    )
    batch.unit(name, iterations + warmup, nodes * (iterations + warmup))
    probe.settle()
    batch.ledger[f"sim.events@{name}"] = cluster.sim.events_scheduled

    if barrier in AUDITABLE_BARRIERS:
        audit = audit_counters(
            dict(cluster.tracer.counters), barrier, nodes, iterations + warmup,
            profile=profile,
        )
        for check in audit.failures():
            batch.fail(name, f"counter {check.name} expected {check.expected}, got {check.actual}")
    report = check_quiescent(
        cluster, must_complete=[f"bench@{node}" for node in range(nodes)]
    )
    for finding in report.findings:
        batch.fail(name, finding.render())
    latency = round(result.mean_latency_us, 4)
    if seed == GOLDEN_SEED and name in GOLDEN_US and latency != GOLDEN_US[name]:
        batch.fail(name, f"mean latency {latency} us, golden {GOLDEN_US[name]} us")
    if name in ANCHORS:
        batch.anchors[name] = result.mean_latency_us

    payload = {
        "mean_latency_us": result.mean_latency_us,
        "events": cluster.sim.events_scheduled,
        "counters": dict(sorted(result.counters.items())),
    }
    batch.digests[name] = digest(payload)
    request = point_request(
        get_profile(profile).network, profile, barrier, "dissemination",
        nodes, iterations, warmup, seed,
    )
    store(batch, name, request, payload)


class PaperBarriers:
    name = "paper-barriers"

    def __init__(self, seed: int):
        self.seed = seed

    def cold(self, probe, store) -> Batch:
        batch = Batch()
        probe.totals = batch.totals
        for spec in POINTS:
            run_point(probe, batch, store, spec, self.seed)
        return batch


def anchor_batch(probe) -> Batch:
    """The paper's anchor points, run untimed before every workload.

    They use the program's seed 0 whatever the benchmark seed is: the
    node permutation a seed draws moves the N=8 latencies by several
    percent, and the comparison with the paper is meant to be one fixed
    number per version of the model.
    """
    batch = Batch()
    probe.totals = batch.totals
    for spec in POINTS:
        if spec[0] in ANCHORS:
            run_point(probe, batch, lambda *_: None, spec, 0)
    return batch


# ----------------------------------------------------------------------
# multi-job
# ----------------------------------------------------------------------

CLUSTER_NODES = 64
JOB_ITERATIONS = 20
TRACES_PER_NETWORK = 2
PAYLOAD_BYTES = 1024
COLLECTIVES = {
    "myrinet": ("allgather", "allreduce", "alltoall", "barrier", "bcast"),
    "quadrics": ("barrier", "bcast"),
}
JOBS_PER_TRACE = 4
XTRAFFIC = CrossTrafficSpec(rate_per_ms=200.0, size_bytes=512)


class MultiJob:
    """Four overlapping jobs (one of 48 nodes, three of 16) per network.

    Arrivals are open-loop at the trace's times; inside a job each rank
    enters iteration k+1 only after k completes.  ``run_workload`` also
    runs every job alone as its silent baseline, so each batch simulates
    every job's collectives twice.  A batch runs ``TRACES_PER_NETWORK``
    independent traces per network.

    Each job runs a single collective, assigned by its slot across the
    network's traces (slot ``k * JOBS_PER_TRACE + j`` takes collective
    ``slot % len(COLLECTIVES)``), so every collective of the network is
    covered and the collective content of a batch is the same at every
    seed.  The seed moves only the arrivals, the cross-traffic and the
    run's own draws; a mix drawn at random would change how many costly
    48-node collectives a batch holds from seed to seed.
    """

    name = "multi-job"

    def __init__(self, seed: int):
        self.runs = []
        for network, ops in COLLECTIVES.items():
            for k in range(TRACES_PER_NETWORK):
                trace_seed = seed * TRACES_PER_NETWORK + k
                jobs = [
                    replace(job, mix=((ops[(k * JOBS_PER_TRACE + j) % len(ops)], 1),))
                    for j, job in enumerate(generate_trace(
                        "skewed", JOBS_PER_TRACE, CLUSTER_NODES, seed=trace_seed,
                        iterations=JOB_ITERATIONS, payload_bytes=PAYLOAD_BYTES,
                    ))
                ]
                self.runs.append((network, trace_seed, jobs))

    def cold(self, probe, store) -> Batch:
        batch = Batch()
        probe.totals = batch.totals
        for network, seed, jobs in self.runs:
            name = f"{network}/{seed}"
            result = run_workload(
                network, CLUSTER_NODES, jobs, seed=seed, xtraffic=XTRAFFIC
            )
            ops = 2 * sum(job.total_iterations for job in jobs)
            rank_ops = 2 * sum(len(job.nodes) * job.total_iterations for job in jobs)
            batch.unit(name, ops, rank_ops)
            probe.settle()
            batch.totals["xtraffic_delivered"] += result["xtraffic"]["delivered"]

            for violation in result["violations"]:
                batch.fail(name, violation)
            for finding in result["quiescence"]:
                batch.fail(name, finding)
            for check in result["group_audit"]:
                if check["expected_packets"] != check["actual_packets"]:
                    batch.fail(name, f"group flow audit {check}")
            by_name = {job.name: job for job in jobs}
            for job in result["jobs"]:
                if job["status"] != "completed" or job["iterations"] != by_name[job["name"]].iterations:
                    batch.fail(name, f"{job['name']} {job['status']} after {job['iterations']} iterations")

            batch.digests[name] = digest(result)
            request = run_request(
                "workload", network=network, cluster_nodes=CLUSTER_NODES,
                seed=seed, trace=render_trace(jobs),
                xtraffic=XTRAFFIC.to_json(), kill=None, baseline=True,
                profile=None,
            )
            store(batch, name, request, result)
        return batch


# ----------------------------------------------------------------------
# chaos-fuzz
# ----------------------------------------------------------------------

FUZZ_NODES = 16
PLANS_PER_NETWORK = 2
_OUTCOME_PREFIXES = ("ok:", "revoked:", "fail:", "wrong:")


def completed_collectives(outcomes) -> int:
    """Collectives finished by every rank of their epoch's group.

    A rank takes part in an epoch unless its record there starts with
    ``dead``; ranks run the same op sequence per epoch, so the count is
    the smallest number of ``ok:`` verdicts among those ranks.
    """
    total = 0
    for epoch in range(len(outcomes[0])):
        oks = [
            sum(verdict.startswith("ok:") for verdict in rank[epoch])
            for rank in outcomes
            if rank[epoch] and rank[epoch][0] != "dead"
        ]
        total += min(oks, default=0)
    return total


class ChaosFuzz:
    """The first ``PLANS_PER_NETWORK`` fuzz plans of each network (fuzz
    seeds ``0 .. PLANS_PER_NETWORK - 1``), each run once and replayed
    once under a tie-break-permuting kernel.

    The plans are the same at every benchmark seed: one plan's cost and
    collective count vary several-fold with its fuzz seed, so plans
    drawn from the benchmark seed would time different work on every
    run.  The benchmark seed picks the replay's tie-break permutation,
    which changes the event order the replay runs in but not its work.
    """

    name = "chaos-fuzz"

    def __init__(self, seed: int):
        self.seed = seed
        self.plans = [
            make_fuzz_plan(network, k, nodes=FUZZ_NODES)
            for network in ("myrinet", "quadrics")
            for k in range(PLANS_PER_NETWORK)
        ]

    def cold(self, probe, store) -> Batch:
        batch = Batch()
        probe.totals = batch.totals
        for plan in self.plans:
            name = f"{plan.network}/{plan.seed}"
            replay_hint = f"replay: run_fuzz_case(make_fuzz_plan({plan.network!r}, {plan.seed}, nodes={FUZZ_NODES}))"
            try:
                result = run_fuzz_case(plan)
            except Exception as exc:  # noqa: BLE001 - a crash is a failed unit, reported
                probe.settle()
                batch.unit(name, 0, 0)
                batch.fail(name, f"crashed: {crash_summary(exc)} ({replay_hint})")
                continue
            probe.settle()
            ops = completed_collectives(result.outcomes)
            rank_ops = sum(
                verdict.startswith(_OUTCOME_PREFIXES)
                for rank in result.outcomes for epoch in rank for verdict in epoch
            )
            batch.unit(name, ops, rank_ops)
            batch.ledger[f"chaos.ops@{name}"] = ops
            for (_victim, at_us), found_us in zip(plan.kills, result.detected_at):
                batch.detect_us.append(found_us - at_us)
            for problem in (*result.violations, *result.quiescence):
                batch.fail(name, f"{problem} ({replay_hint})")

            # The replay's clusters are not counted: its kernel is the
            # lint harness's plain heap, not the one being measured.
            probe.totals = None
            try:
                with probe.span("simlint.replay_s"):
                    replay = run_fuzz_case(
                        plan,
                        sim=TieBreakSimulator(
                            DeterministicRng(self.seed, f"bench/tiebreak/{plan.network}/{plan.seed}")
                        ),
                    )
                if replay.comparable() != result.comparable():
                    batch.fail(name, f"tie-break replay diverged ({replay_hint})")
            except Exception as exc:  # noqa: BLE001 - a crash is a failed unit, reported
                batch.fail(name, f"replay crashed: {crash_summary(exc)} ({replay_hint})")
            finally:
                probe.totals = batch.totals

            comparable = result.comparable()
            batch.digests[name] = digest(comparable)
            store(batch, name, run_request("fuzz-case", plan=plan), comparable)
        return batch


WORKLOADS = {cls.name: cls for cls in (PaperBarriers, MultiJob, ChaosFuzz)}
