"""HostCpu.busy_poll and the requests' busy_wait against the explicit loop.

Every case runs twice: once as shipped, once with the collapsed spin
replaced (by monkeypatch, in this file only) by the loop it stands for —
``compute(poll_us, "poll")`` then ``drain()`` until a result, or
``while not (yield from request.test()): pass``.  The two runs must
agree exactly: outcomes, end times, ``busy_us`` and, with tracing on,
every span.
"""

from dataclasses import replace

import pytest

from repro.cluster.builder import build_cluster
from repro.cluster.profiles import get_profile
from repro.collectives.nonblocking import CollectiveRequest
from repro.collectives.quadrics_barrier import QuadricsBarrierRequest
from repro.host import HostCpu, HostParams
from repro.mpi import create_communicators
from repro.myrinet import GmPort
from repro.myrinet.gm_api import GmRecvEvent
from repro.myrinet.structures import SendToken
from repro.network import PacketKind
from repro.sim import SimEvent, Simulator, Store, Tracer
from repro.tools import chaos
from repro.tools.simlint import check_quiescent
from tests.myrinet.conftest import MyrinetTestCluster

PARAMS = HostParams(
    send_overhead_us=0.8,
    recv_overhead_us=0.5,
    poll_us=0.25,
    poll_interval_us=0.1,
    barrier_call_us=0.3,
)


# ----------------------------------------------------------------------
# References: the loops the collapsed spins stand for
# ----------------------------------------------------------------------
def explicit_busy_poll(self, queue, drain):
    while True:
        yield from self.compute(self.params.poll_us, "poll")
        result = drain()
        if result is not None:
            return result


def explicit_busy_poll_matching(self, matches):
    while True:
        event = yield from self.poll_matching(matches)
        if event is not None:
            return event


def explicit_busy_wait(self):
    while not (yield from self.test()):
        pass
    return self.result


def both(monkeypatch, run, **patches):
    """``run()`` as shipped and with ``patches`` applied; assert the two
    records are identical and return it."""
    collapsed = run()
    with monkeypatch.context() as m:
        for target, reference in patches.items():
            owner, name = target.rsplit(".", 1)
            m.setattr(_OWNERS[owner], name, reference)
        explicit = run()
    assert collapsed == explicit
    return collapsed


_OWNERS = {
    "HostCpu": HostCpu,
    "GmPort": GmPort,
    "CollectiveRequest": CollectiveRequest,
    "QuadricsBarrierRequest": QuadricsBarrierRequest,
}


# ----------------------------------------------------------------------
# One HostCpu, one queue: arrivals, contenders, slowdown, tracing
# ----------------------------------------------------------------------
def spin_scenario(
    arrivals,
    want,
    *,
    start=0.0,
    poll_us=0.25,
    slowdown=1.0,
    tracing=False,
    contenders=(),
    cowaiters=(),
    until=None,
    events=None,
):
    """Spin for ``want`` on a queue fed by ``arrivals`` ((time, item)
    pairs; ``("late", item)`` lands in delta phase 1 of that instant,
    after any phase-0 poll there); ``contenders`` are (name, start, [(compute_us, gap_us), ...])
    processes computing on the spinner's CPU; ``cowaiters`` are (name,
    start) processes that block on the queue, pay one poll and buffer
    what they popped (a co-waiter on the same port).  Returns every
    observable; the scheduled-call count, which the collapse exists to
    cut, is appended to ``events`` instead."""
    sim = Simulator()
    tracer = Tracer(enabled=tracing)
    cpu = HostCpu(sim, replace(PARAMS, poll_us=poll_us), node_id=0, tracer=tracer)
    cpu.slowdown = slowdown
    queue = Store(sim, name="host0.events")
    pending = []
    log = []

    def drain():
        while len(queue) > 0 and queue.getters_waiting == 0:
            pending.append(queue.try_get())
        for i, item in enumerate(pending):
            if item == want:
                return pending.pop(i)
        return None

    def putter(at, item):
        yield at
        if isinstance(item, tuple):  # ("late", item): put in delta phase 1
            sim.schedule_phase(1, queue.put, item[1])
        else:
            queue.put(item)

    def spinner():
        if start:
            yield start
        got = yield from cpu.busy_poll(queue, drain)
        log.append(("spin", sim.now, got, cpu.busy_us))

    def contender(name, at, steps):
        yield at
        for us, gap in steps:
            yield from cpu.compute(us, "work")
            log.append((name, sim.now))
            if gap:
                yield gap

    def cowaiter(name, at):
        yield at
        item = yield queue.get()
        yield from cpu.compute(cpu.params.poll_us, "poll")
        pending.append(item)
        log.append((name, sim.now, item))

    # Producers start first: an arrival scheduled before the spin began
    # is ordered before the spinner's wake at the same instant.
    for at, item in arrivals:
        sim.process(putter(at, item), name=f"put@{at}")
    sim.process(spinner(), name="spin")
    for name, at, steps in contenders:
        sim.process(contender(name, at, steps), name=name)
    for name, at in cowaiters:
        sim.process(cowaiter(name, at), name=name)
    sim.run(until=until)
    if events is not None:
        events.append(sim.events_scheduled)
    spans = [(s.start, s.end, s.lane, s.name) for s in tracer.spans]
    return log, cpu.busy_us, sim.now, pending, queue.items, spans


def test_arrivals_between_boundaries(monkeypatch):
    record = both(
        monkeypatch,
        lambda: spin_scenario(
            [(1.13, "x"), (2.71, "y"), (5.07, "m")], "m", start=0.3
        ),
        **{"HostCpu.busy_poll": explicit_busy_poll},
    )
    log, busy_us, *_ = record
    assert log[0][0] == "spin" and log[0][2] == "m"
    assert 5.07 <= log[0][1] < 5.07 + 0.25
    assert busy_us == pytest.approx(log[0][1] - 0.3)


def test_arrival_exactly_on_a_boundary_is_seen_there(monkeypatch):
    # poll_us = 0.25 is exact in binary: 0.5 and 1.0 are boundaries.
    log, *_ = both(
        monkeypatch,
        lambda: spin_scenario([(0.5, "x"), (1.0, "m")], "m"),
        **{"HostCpu.busy_poll": explicit_busy_poll},
    )
    assert log == [("spin", 1.0, "m", 1.0)]


def test_arrival_after_the_poll_at_the_same_instant_waits_a_poll(monkeypatch):
    # "m" lands at the 1.0 boundary but after that boundary's poll (and
    # before the spinner's re-grant): the next poll, at 1.25, sees it.
    log, *_ = both(
        monkeypatch,
        lambda: spin_scenario([(0.9, "x"), (1.0, ("late", "m"))], "m"),
        **{"HostCpu.busy_poll": explicit_busy_poll},
    )
    assert log == [("spin", 1.25, "m", 1.25)]


def test_non_matching_arrivals_stay_buffered_in_order(monkeypatch):
    log, _, _, pending, left, _ = both(
        monkeypatch,
        lambda: spin_scenario(
            [(0.9, "x"), (1.9, "y"), (1.9, "z"), (2.9, "m"), (4.0, "late")], "m"
        ),
        **{"HostCpu.busy_poll": explicit_busy_poll},
    )
    assert pending == ["x", "y", "z"]
    assert left == ("late",)  # arrived after the spin ended: not drained


def test_already_queued_item_is_found_by_the_first_poll(monkeypatch):
    log, *_ = both(
        monkeypatch,
        lambda: spin_scenario([(0.0, "m")], "m", start=0.1),
        **{"HostCpu.busy_poll": explicit_busy_poll},
    )
    assert log == [("spin", 0.35, "m", pytest.approx(0.25))]


@pytest.mark.parametrize("name", ["a-job", "z-job"])  # sorts before / after "spin"
@pytest.mark.parametrize("at", [0.0, 0.6, 0.75, 2.0])  # origin, mid-poll, boundaries
def test_contender_materializes_the_spin(monkeypatch, name, at):
    record = both(
        monkeypatch,
        lambda: spin_scenario(
            [(1.3, "x"), (3.3, "m")],
            "m",
            contenders=[(name, at, [(0.4, 0.0)])],
        ),
        **{"HostCpu.busy_poll": explicit_busy_poll},
    )
    log = record[0]
    assert sorted(entry[0] for entry in log) == sorted(["spin", name])


def test_spin_collapses_again_after_repeated_contention(monkeypatch):
    steps = [(0.3, 0.2), (0.45, 1.1), (0.1, 0.0)]
    events = []  # [collapsed, explicit]
    log, busy_us, *_ = both(
        monkeypatch,
        lambda: spin_scenario(
            [(0.7, "x"), (9.2, "m")],
            "m",
            contenders=[("a-job", 0.55, steps), ("b-job", 3.01, [(0.2, 0.0)])],
            events=events,
        ),
        **{"HostCpu.busy_poll": explicit_busy_poll},
    )
    assert [entry[0] for entry in log].count("a-job") == 3
    # The last contender is done by 3.5 us; from there to 9.25 us the
    # loop makes 23 polls of three scheduled calls each, which the spin,
    # parked again, does not.
    assert events[0] <= events[1] - 60


def test_co_waiter_buffering_the_match_is_seen_by_the_next_poll(monkeypatch):
    # The match goes straight to the co-waiter's pending get; it wins the
    # CPU at the spinner's next boundary, then buffers the match.  The
    # spinner must poll explicitly after that grant to find it.
    log, *_ = both(
        monkeypatch,
        lambda: spin_scenario([(1.3, "m")], "m", cowaiters=[("a-job", 0.1)]),
        **{"HostCpu.busy_poll": explicit_busy_poll},
    )
    assert log == [("a-job", 1.75, "m"), ("spin", 2.0, "m", 2.0)]


@pytest.mark.parametrize("slowdown", [1.7, 3.0])
def test_slowdown_grid_is_built_by_repeated_addition(monkeypatch, slowdown):
    log, busy_us, *_ = both(
        monkeypatch,
        lambda: spin_scenario(
            [(0.77, "x"), (3.141, "y"), (9.9, "m")],
            "m",
            start=0.123,
            poll_us=0.3,
            slowdown=slowdown,
            contenders=[("a-job", 1.9, [(0.2, 0.0)])],
        ),
        **{"HostCpu.busy_poll": explicit_busy_poll},
    )
    assert [entry[0] for entry in log] == ["a-job", "spin"]


def test_tracing_polls_explicitly_with_identical_spans(monkeypatch):
    record = both(
        monkeypatch,
        lambda: spin_scenario(
            [(1.13, "x"), (2.2, "m")], "m", tracing=True,
            contenders=[("a-job", 0.6, [(0.4, 0.0)])],
        ),
        **{"HostCpu.busy_poll": explicit_busy_poll},
    )
    spans = record[-1]
    assert sum(1 for *_, label in spans if label == "poll") >= 8


def test_busy_us_is_settled_when_the_spin_wakes():
    """A parked spin charges its polls when it wakes, not as they
    elapse: read mid-spin, ``busy_us`` lags the explicit loop's."""
    _, busy_us, now, *_ = spin_scenario([(10.1, "m")], "m", until=5.0)
    assert now == 5.0
    assert busy_us == 0.25  # only the first, explicit poll so far


# ----------------------------------------------------------------------
# Myrinet: a send-token completion fires at the drain boundary
# ----------------------------------------------------------------------
def send_token_scenario():
    cluster = MyrinetTestCluster(n=2)
    sim = cluster.sim
    port0, port1 = cluster.ports
    log = []
    token = SendToken(
        dst=1, size_bytes=64, payload="ping", kind=PacketKind.DATA,
        notify_host=True, completion=SimEvent(sim, name="send_done@0"),
    )

    def node0():
        yield from port0.pci.pio_write()
        port0.nic.post_send_event(token)
        reply = yield from port0.busy_poll_matching(
            lambda ev: isinstance(ev, GmRecvEvent) and ev.src == 1
        )
        log.append(("reply", sim.now, reply.payload))

    def node1():
        ev = yield from port1.recv_from(0)
        yield 40.0  # the reply lands well after the send token
        yield from port1.send(0, 32, payload=("pong", ev.payload))

    def watcher():
        done = yield token.completion
        log.append(("token", sim.now, done is token))

    procs = [
        sim.process(node0(), name="n0"),
        sim.process(node1(), name="n1"),
        sim.process(watcher(), name="watch"),
    ]
    sim.run()
    assert all(p.completion.processed for p in procs)
    return log, [cpu.busy_us for cpu in cluster.cpus], sim.now, list(port0._pending)


def test_send_token_completion_fires_at_the_drain_boundary(monkeypatch):
    log, busy, _, pending = both(
        monkeypatch,
        send_token_scenario,
        **{"GmPort.busy_poll_matching": explicit_busy_poll_matching},
    )
    (kind_t, t_token, is_token), (kind_r, t_reply, payload) = log
    assert (kind_t, is_token, kind_r, payload) == ("token", True, "reply", ("pong", "ping"))
    assert t_token < t_reply
    assert pending == [SendToken(
        dst=1, size_bytes=64, payload="ping", kind=PacketKind.DATA,
        enqueued_at=1.5, all_packets_sent=True,
    )]


# ----------------------------------------------------------------------
# Whole fuzz campaigns: busy_wait() against the test() loop
# ----------------------------------------------------------------------
def fuzz_observables(network, seed):
    clusters = []
    real_build = chaos.build_cluster

    def build(*args, **kwargs):
        clusters.append(real_build(*args, **kwargs))
        return clusters[-1]

    chaos.build_cluster = build
    try:
        result = chaos.run_fuzz_case(chaos.make_fuzz_plan(network, seed, nodes=16))
    finally:
        chaos.build_cluster = real_build
    assert result.ok, result.violations + result.quiescence
    return result.comparable(), [cpu.busy_us for cpu in clusters[0].cpus]


@pytest.mark.parametrize("network", ["myrinet", "quadrics"])
@pytest.mark.parametrize("seed", range(8))
def test_fuzz_busy_wait_matches_test_loop(monkeypatch, network, seed):
    both(
        monkeypatch,
        lambda: fuzz_observables(network, seed),
        **{
            "CollectiveRequest.busy_wait": explicit_busy_wait,
            "QuadricsBarrierRequest.busy_wait": explicit_busy_wait,
        },
    )


# ----------------------------------------------------------------------
# Quiescence: a spin nothing will answer parks and is reported
# ----------------------------------------------------------------------
def test_unresolvable_busy_wait_parks_and_is_reported():
    cluster = build_cluster(get_profile("elan3_piii700"), 4)
    sim = cluster.sim
    sim.track_processes()
    comms = create_communicators(cluster)

    def lonely():
        # Rank 0 alone enters a barrier the other ranks never join.
        request = yield from comms[0].ibarrier()
        yield from request.busy_wait()

    sim.process(lonely(), name="lonely@0")
    # The explicit loop would poll past any bound; the parked spin
    # leaves nothing scheduled long before this one.
    sim.run(until=10_000.0)
    assert sim.peek() == float("inf")
    report = check_quiescent(cluster, must_complete=["lonely@0"])
    busy = [f for f in report.findings if "busy-waiting on" in f.message]
    assert [f.code for f in busy] == ["SL102"]
    assert "'elan0.host_events'" in busy[0].message
    assert "lonely@0" in busy[0].message
