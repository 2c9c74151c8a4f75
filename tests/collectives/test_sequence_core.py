"""The shared sequence core: one automaton, one retirement, one restart.

Every Myrinet NIC engine (barrier, data collective, broadcast) runs the
lifecycle in :mod:`repro.collectives.sequence` and dispatches through
``SEQUENCE_AUTOMATON``.  These tests pin that down from the outside:

- shimming one table entry changes the behaviour of all three engines
  (so the table the model checker proves is the table they run);
- a revoke that lands while a completion is yielding resolves every
  rank exactly once (the retire race);
- a LANai restart fails the restarted rank's in-flight data collectives
  and broadcasts, not only its barriers;
- the chaos-fuzz seeds that used to crash on the retire race pass.
"""

from __future__ import annotations

import pytest

from repro.collectives import (
    BarrierFailure,
    NicAllreduceEngine,
    NicBroadcastEngine,
    NicCollectiveBarrierEngine,
    ProcessGroup,
    Revoked,
    nic_allreduce,
    nic_barrier,
    nic_broadcast_recv,
    nic_broadcast_root,
)
from repro.collectives.sequence import SEQUENCE_AUTOMATON
from repro.network import FaultInjector
from repro.sim import DeterministicRng
from repro.tools.chaos import make_fuzz_plan, run_fuzz_case
from repro.tools.simlint import check_quiescent
from repro.tools.simlint.perturb import TieBreakSimulator
from tests.collectives.test_escalation import escalation_cluster

N = 4


def _allreduce_step(cluster, group, node):
    return nic_allreduce(cluster.ports[node], group, 0, node + 1)


def _barrier_step(cluster, group, node):
    return nic_barrier(cluster.ports[node], group, 0)


def _bcast_step(cluster, group, node):
    port = cluster.ports[node]
    if group.rank_of(node) == 0:
        return nic_broadcast_root(port, group, 0, size_bytes=64, payload="x")
    return nic_broadcast_recv(port, group, 0)


ENGINES = {
    "barrier": (NicCollectiveBarrierEngine, _barrier_step),
    "allreduce": (NicAllreduceEngine, _allreduce_step),
    "bcast": (NicBroadcastEngine, _bcast_step),
}


def _run_one(cluster, group, step):
    """Run one sequence on every rank; returns ``{node: outcome}`` with
    ``None`` for a rank whose program never finished."""
    outcomes = {}

    def prog(node):
        try:
            yield from step(cluster, group, node)
        except Revoked:
            outcomes[node] = "revoked"
        except BarrierFailure as failure:
            outcomes[node] = failure.reason
        else:
            outcomes[node] = "ok"

    for node in group.node_ids:
        cluster.sim.process(prog(node), name=f"prog@{node}")
    cluster.sim.run()
    return {node: outcomes.get(node) for node in group.node_ids}


# ----------------------------------------------------------------------
# Automaton conformance: all three engines run the exported table
# ----------------------------------------------------------------------
def _blackholed_run(name):
    """Node 0 is mute: every rank that waits on it exhausts its NACK
    budget (node 0 is the broadcast root, so its subtree starves)."""
    engine_cls, step = ENGINES[name]
    faults = FaultInjector()
    faults.drop_all_matching(lambda p: p.src == 0, label="mute:0")
    cluster = escalation_cluster(faults, n=N)
    group = ProcessGroup(range(N))
    engines = [engine_cls(cluster.nics[n], group, n) for n in range(N)]
    return cluster, engines, _run_one(cluster, group, step)


BUDGET_REASONS = {
    "barrier": "nack-retry-budget-exhausted",
    "allreduce": "datacoll-retry-budget-exhausted",
    "bcast": "bcast-retry-budget-exhausted",
}


@pytest.mark.parametrize("name", sorted(ENGINES))
def test_exhausted_budget_fails_typed(name):
    cluster, engines, outcomes = _blackholed_run(name)
    assert BUDGET_REASONS[name] in outcomes.values()
    assert None not in outcomes.values()
    assert all(engine.states == {} for engine in engines)
    report = check_quiescent(cluster)
    assert report.ok, report.render()


@pytest.mark.parametrize("name", sorted(ENGINES))
def test_engines_dispatch_through_the_shared_automaton(name, monkeypatch):
    # The silent-return hang, reinstated through the table alone: every
    # engine must now park instead of failing typed.
    monkeypatch.setitem(
        SEQUENCE_AUTOMATON, ("running", "timeout_exhausted"), "ignore"
    )
    _cluster, engines, outcomes = _blackholed_run(name)
    assert BUDGET_REASONS[name] not in outcomes.values()
    parked = [node for node, outcome in outcomes.items() if outcome is None]
    assert parked, "no rank parked: the engine bypassed the automaton"
    for node in parked:
        (state,) = engines[node].states.values()
        assert state.started and not state.complete
        assert state.timer.executed  # parked live with a dead timer


# ----------------------------------------------------------------------
# The retire race: a revoke that lands while a completion yields
# ----------------------------------------------------------------------
COMPLETE_COUNTERS = {"barrier": "coll.barrier_complete", "allreduce": "allreduce.complete"}


@pytest.mark.parametrize("name", sorted(COMPLETE_COUNTERS))
def test_revoke_during_completion_resolves_each_rank_once(name):
    engine_cls, step = ENGINES[name]
    cluster = escalation_cluster(FaultInjector(), n=N)
    group = ProcessGroup(range(N))
    engines = [engine_cls(cluster.nics[n], group, n) for n in range(N)]
    revoked_at = []

    def revoke_on_first_commit(engine):
        commit = engine._commit

        def wrapped(state):
            committed = commit(state)
            if committed and not revoked_at:
                # Every member NIC hears the revocation at the instant
                # this rank commits, while its completion still has
                # the LANai CPU and the PCI bus ahead of it.
                revoked_at.append(cluster.sim.now)
                for n in range(N):
                    cluster.nics[n].post_engine_command(
                        (group.group_id, "epoch", -1)
                    )
            return committed

        engine._commit = wrapped

    for engine in engines:
        revoke_on_first_commit(engine)
    outcomes = _run_one(cluster, group, step)

    assert revoked_at
    assert set(outcomes.values()) <= {"ok", "revoked"}
    assert "ok" in outcomes.values()
    assert all(engine.states == {} and engine.closed for engine in engines)
    completed = cluster.tracer.counters.get(COMPLETE_COUNTERS[name], 0)
    assert completed == list(outcomes.values()).count("ok")
    report = check_quiescent(cluster)
    assert report.ok, report.render()


# ----------------------------------------------------------------------
# A LANai restart wipes every engine's SRAM state
# ----------------------------------------------------------------------
def test_restart_fails_in_flight_data_and_broadcast_typed():
    faults = FaultInjector()
    crash_at, restart_delay = 5.0, 60.0
    faults.crash_window(1, crash_at, crash_at + restart_delay)
    cluster = escalation_cluster(faults, n=N)
    cluster.nics[1].schedule_crash(crash_at, restart_delay)
    reduce_group = ProcessGroup(range(N))
    bcast_group = ProcessGroup(range(N))
    for n in range(N):
        NicAllreduceEngine(cluster.nics[n], reduce_group, n)
        NicBroadcastEngine(cluster.nics[n], bcast_group, n)
    # Rank 1 has both sequences in flight when its NIC crashes: the
    # allreduce waits on rank 3 and the broadcast on the root, both of
    # which start long after the restart.
    late = 2 * (crash_at + restart_delay)
    reduce_out = {}
    bcast_out = {}

    def prog(step, group, node, delay, record):
        if delay:
            yield delay
        try:
            yield from step(cluster, group, node)
        except BarrierFailure as failure:
            record[node] = failure.reason
        else:
            record[node] = "ok"

    for n in range(N):
        cluster.sim.process(prog(_allreduce_step, reduce_group, n,
                                 late if n == 3 else 0.0, reduce_out))
        cluster.sim.process(prog(_bcast_step, bcast_group, n,
                                 late if n == 0 else 0.0, bcast_out))
    cluster.sim.run()

    assert reduce_out[1] == "nic-restart"
    assert bcast_out[1] == "nic-restart"
    assert len(reduce_out) == len(bcast_out) == N
    assert cluster.tracer.counters["gm.nic_restart"] == 1
    report = check_quiescent(cluster)
    assert report.ok, report.render()


# ----------------------------------------------------------------------
# Chaos-fuzz seeds that crashed on the retire race
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [14, 67, 118])
def test_myrinet_fuzz_seed_survives_retire_race(seed):
    plan = make_fuzz_plan("myrinet", seed, nodes=16)
    result = run_fuzz_case(plan)
    assert result.violations == ()
    assert result.quiescence == ()
    replay = run_fuzz_case(
        plan,
        sim=TieBreakSimulator(DeterministicRng(seed, "fuzz-test/tiebreak")),
    )
    assert replay.comparable() == result.comparable()
