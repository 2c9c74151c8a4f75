"""Schedule-race detection by same-timestamp tie-break perturbation.

The kernel breaks same-time ties FIFO (a monotonically increasing
sequence number).  Protocol correctness must not depend on that: two
packets injected at the same microsecond by different NICs have no
causal order, so any permutation of their processing is a legal
schedule.  :class:`TieBreakSimulator` replaces the integer tie-break
with ``(random(), seq)`` — every run executes *some* legal permutation
of each same-timestamp group — and :func:`perturb_barrier_experiment`
asserts that the observable results (latencies, counters, per-iteration
end times) are **bit-identical** across many permutations.  A divergence
is a schedule race (SL101): somewhere the protocol read state whose
value depends on tie-break order.

Causality is preserved: a permuted entry never runs before an entry at
an earlier timestamp, and the trailing ``seq`` keeps the comparison from
ever reaching the (uncomparable) payload.  Delta *phases*
(:meth:`Simulator.schedule_phase`) are likewise preserved: they are a
documented ordering guarantee of the kernel — arbitration passes run
after every same-time lower-phase call — so only same-time, same-phase
groups (whose order the kernel never promises) are permuted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.cluster.builder import build_cluster
from repro.cluster.profiles import get_profile
from repro.cluster.runner import (
    MYRINET_BARRIERS,
    QUADRICS_BARRIERS,
    BarrierResult,
    run_barrier_experiment,
)
from repro.network.faults import FaultInjector
from repro.sim.engine import _COMPACT_MIN_CANCELLED, ScheduledCall, Simulator
from repro.sim.rng import DeterministicRng
from repro.tools.simlint.findings import Finding

from heapq import heapify, heappop, heappush


class TieBreakSimulator(Simulator):
    """A :class:`Simulator` whose same-timestamp pop order is randomized.

    Heap entries are flat tuples ``(time, phase, r, seq, fn, args)``
    with ``r`` drawn fresh per entry from the supplied rng — exactly one
    draw per scheduled call, in scheduling order — so equal-time,
    equal-phase entries pop in a random (but reproducible, given the
    rng seed) order.  Different timestamps and the kernel's delta-phase
    ordering guarantee are untouched, and the unique ``seq`` keeps the
    comparison off the payload.

    The stock kernel is a bucketed calendar queue whose future buckets
    rely on being born sorted; random tie-break keys would break that
    invariant, so this subclass replaces the storage wholesale with a
    single tuple heap and overrides every method that touches it
    (including cancel accounting: there are no buckets to count for).
    """

    def __init__(self, rng: DeterministicRng):
        super().__init__()
        self._draw = rng.random_fn()
        self._tb_heap: list[tuple] = []

    def schedule(self, delay: float, fn: Callable, *args: Any) -> ScheduledCall:
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        self._seq = seq = self._seq + 1
        time = self._now + delay
        call = ScheduledCall(time, seq, fn, args, self)
        heappush(self._tb_heap, (time, 0, self._draw(), seq, call, None))
        if self._cancelled >= _COMPACT_MIN_CANCELLED:
            self._maybe_compact()
        return call

    def schedule_detached(self, delay: float, fn: Callable, *args: Any) -> None:
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        self._seq = seq = self._seq + 1
        heappush(self._tb_heap, (self._now + delay, 0, self._draw(), seq, fn, args))

    def schedule_now(self, fn: Callable, *args: Any) -> None:
        self._seq = seq = self._seq + 1
        heappush(self._tb_heap, (self._now, 0, self._draw(), seq, fn, args))

    def schedule_phase(self, phase: int, fn: Callable, *args: Any) -> None:
        if phase <= self._phase:
            raise ValueError(
                f"phase {phase} not after current phase {self._phase}"
            )
        self._seq = seq = self._seq + 1
        heappush(self._tb_heap, (self._now, phase, self._draw(), seq, fn, args))

    def _note_cancel(self, time: float) -> None:
        self._cancelled += 1

    def _maybe_compact(self) -> None:
        heap = self._tb_heap
        if self._cancelled * 2 <= len(heap):
            return
        kept = []
        for entry in heap:
            if entry[5] is None and entry[4].cancelled:
                entry[4].executed = True
                self._cancelled -= 1
            else:
                kept.append(entry)
        heap[:] = kept
        heapify(heap)

    def peek(self) -> float:
        heap = self._tb_heap
        while heap and heap[0][5] is None and heap[0][4].cancelled:
            heappop(heap)[4].executed = True
            self._cancelled -= 1
        return heap[0][0] if heap else float("inf")

    def step(self) -> bool:
        heap = self._tb_heap
        while heap:
            time, phase, _r, _seq, fn, args = heappop(heap)
            if args is None:
                fn.executed = True
                if fn.cancelled:
                    self._cancelled -= 1
                    continue
                fn, args = fn.fn, fn.args
            self._now = time
            self._phase = phase
            fn(*args)
            if self._unhandled:
                exc = self._unhandled[0]
                self._unhandled.clear()
                raise exc
            return True
        return False

    def _run_to_exhaustion(self) -> None:
        # step() inlined into one drain loop.  The heap is only ever
        # mutated in place (compaction included), so the local stays
        # valid across callbacks.
        heap = self._tb_heap
        pop = heappop
        unhandled = self._unhandled
        while heap:
            time, phase, _r, _seq, fn, args = pop(heap)
            if args is None:
                fn.executed = True
                if fn.cancelled:
                    self._cancelled -= 1
                    continue
                fn, args = fn.fn, fn.args
            self._now = time
            self._phase = phase
            fn(*args)
            if unhandled:
                exc = unhandled[0]
                unhandled.clear()
                raise exc


# ----------------------------------------------------------------------
# Result comparison
# ----------------------------------------------------------------------
#: BarrierResult fields that must be bit-identical under perturbation.
_COMPARED_FIELDS = (
    "mean_latency_us",
    "min_iteration_us",
    "max_iteration_us",
    "total_us",
    "timed_start_us",
    "iteration_ends_us",
    "node_permutation",
    "counters",
)


def _abbreviate(value: Any, limit: int = 80) -> str:
    text = repr(value)
    return text if len(text) <= limit else text[: limit - 3] + "..."


def diff_results(baseline: BarrierResult, other: BarrierResult) -> list[str]:
    """Human-readable field-level differences (empty = bit-identical)."""
    diffs: list[str] = []
    for name in _COMPARED_FIELDS:
        a = getattr(baseline, name)
        b = getattr(other, name)
        if a == b:
            continue
        if name == "iteration_ends_us":
            for i, (x, y) in enumerate(zip(a, b)):
                if x != y:
                    diffs.append(
                        f"iteration_ends_us[{i}]: {x!r} != {y!r} "
                        f"(first divergent iteration)"
                    )
                    break
            else:
                diffs.append(f"iteration_ends_us length: {len(a)} != {len(b)}")
        elif name == "counters":
            keys = sorted(set(a) | set(b))
            changed = [k for k in keys if a.get(k, 0) != b.get(k, 0)]
            diffs.append(
                "counters differ: "
                + ", ".join(
                    f"{k}: {a.get(k, 0)} != {b.get(k, 0)}" for k in changed[:5]
                )
                + ("" if len(changed) <= 5 else f" (+{len(changed) - 5} more)")
            )
        else:
            diffs.append(f"{name}: {_abbreviate(a)} != {_abbreviate(b)}")
    return diffs


@dataclass
class PerturbationReport:
    """Outcome of one perturbation sweep over one barrier scheme."""

    profile: str
    barrier: str
    nodes: int
    rounds: int
    baseline: BarrierResult
    findings: list[Finding] = field(default_factory=list)
    diverged_rounds: tuple[int, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.findings

    def __str__(self) -> str:
        verdict = (
            "bit-identical"
            if self.ok
            else f"DIVERGED in rounds {list(self.diverged_rounds)}"
        )
        return (
            f"{self.profile}/{self.barrier} N={self.nodes}: "
            f"{self.rounds} permutations {verdict}"
        )


def perturb_barrier_experiment(
    profile: str,
    barrier: str,
    nodes: int = 16,
    rounds: int = 20,
    iterations: int = 5,
    warmup: int = 2,
    seed: int = 0,
    drop_probability: float = 0.0,
    corrupt_probability: float = 0.0,
    duplicate_probability: float = 0.0,
    delay_probability: float = 0.0,
    delay_jitter_us: float = 0.0,
    algorithm: str = "dissemination",
) -> PerturbationReport:
    """Run one barrier experiment under ``rounds`` tie-break permutations.

    The baseline runs on the stock FIFO kernel; every round rebuilds the
    cluster from scratch on a :class:`TieBreakSimulator` seeded from
    ``(seed, round)`` and must reproduce the baseline's results exactly.
    With fault probabilities set, each run gets a fault injector built
    from the *same* seed, so the fault pattern itself is
    schedule-independent (per-flow, per-class substreams) and results
    must still match.  The reliability fault classes (drop, corrupt,
    duplicate) need GM's retransmission machinery and are Myrinet-only;
    delay/jitter is a pure timing fault and runs on either network.
    """
    resolved = get_profile(profile)
    reliability_faults = drop_probability or corrupt_probability or duplicate_probability
    if reliability_faults and resolved.network != "myrinet":
        raise ValueError("fault injection is a Myrinet-only experiment")
    any_faults = reliability_faults or delay_probability

    def one_run(sim: Optional[Simulator]) -> BarrierResult:
        faults = None
        if any_faults:
            faults = FaultInjector(
                rng=DeterministicRng(seed, "simlint/faults"),
                drop_probability=drop_probability,
                corrupt_probability=corrupt_probability,
                duplicate_probability=duplicate_probability,
                delay_probability=delay_probability,
                delay_jitter_us=delay_jitter_us,
            )
        cluster = build_cluster(resolved, nodes, faults=faults, sim=sim)
        return run_barrier_experiment(
            cluster,
            barrier,
            algorithm=algorithm,
            iterations=iterations,
            warmup=warmup,
            seed=seed,
        )

    baseline = one_run(None)
    findings: list[Finding] = []
    diverged: list[int] = []
    where = f"{resolved.name}/{barrier}"
    for round_idx in range(rounds):
        rng = DeterministicRng(seed, f"simlint/tiebreak/{round_idx}")
        result = one_run(TieBreakSimulator(rng))
        diffs = diff_results(baseline, result)
        if diffs:
            diverged.append(round_idx)
            findings.append(Finding(
                "SL101", where, 0,
                f"results diverged under tie-break permutation "
                f"(round {round_idx}, N={nodes}): " + "; ".join(diffs),
                fixit="some protocol state depends on same-timestamp event "
                      "order; look for iteration over unordered collections, "
                      "shared mutable state read before all same-time events "
                      "settle, or RNG draws consumed in schedule order",
            ))
    return PerturbationReport(
        profile=resolved.name,
        barrier=barrier,
        nodes=nodes,
        rounds=rounds,
        baseline=baseline,
        findings=findings,
        diverged_rounds=tuple(diverged),
    )


def compare_runs(
    build_and_run: Callable[[Simulator], Any],
    rounds: int = 10,
    seed: int = 0,
    where: str = "model",
) -> list[Finding]:
    """Generic perturbation harness for arbitrary models.

    ``build_and_run`` receives a fresh simulator (stock for the
    baseline, tie-break-perturbed afterwards), builds its model on it,
    runs it, and returns any ``==``-comparable observable.  Returns one
    SL101 finding per diverging round.
    """
    baseline = build_and_run(Simulator())
    findings: list[Finding] = []
    for round_idx in range(rounds):
        rng = DeterministicRng(seed, f"simlint/tiebreak/{round_idx}")
        result = build_and_run(TieBreakSimulator(rng))
        if result != baseline:
            findings.append(Finding(
                "SL101", where, 0,
                f"observable diverged under tie-break permutation "
                f"(round {round_idx}): {_abbreviate(baseline)} != "
                f"{_abbreviate(result)}",
                fixit="remove the dependence on same-timestamp event order",
            ))
    return findings


def all_scheme_reports(
    nodes: int = 16,
    rounds: int = 20,
    iterations: int = 5,
    warmup: int = 2,
    seed: int = 0,
    fault_drop_probability: float = 0.02,
    myrinet_profile: str = "lanai_xp_xeon2400",
    quadrics_profile: str = "elan3_piii700",
) -> list[PerturbationReport]:
    """The full perturbation matrix: every scheme on both networks, plus
    one seeded faulted run per fault class on the scheme with the most
    reliability state (so the recovery machinery itself is checked for
    schedule races, not just the clean path)."""
    reports = [
        perturb_barrier_experiment(
            myrinet_profile, barrier, nodes=nodes, rounds=rounds,
            iterations=iterations, warmup=warmup, seed=seed,
        )
        for barrier in MYRINET_BARRIERS
    ]
    reports.extend(
        perturb_barrier_experiment(
            quadrics_profile, barrier, nodes=nodes, rounds=rounds,
            iterations=iterations, warmup=warmup, seed=seed,
        )
        for barrier in QUADRICS_BARRIERS
    )
    if fault_drop_probability:
        fault_cases = (
            {"drop_probability": fault_drop_probability},
            {"corrupt_probability": fault_drop_probability},
            {"duplicate_probability": fault_drop_probability},
            {"delay_probability": 0.2, "delay_jitter_us": 5.0},
        )
        reports.extend(
            perturb_barrier_experiment(
                myrinet_profile, "nic-collective", nodes=nodes, rounds=rounds,
                iterations=iterations, warmup=warmup, seed=seed, **case,
            )
            for case in fault_cases
        )
    return reports
