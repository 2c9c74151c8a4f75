"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim import Simulator


def test_time_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_schedule_runs_callback_at_delay():
    sim = Simulator()
    seen = []
    sim.schedule(5.0, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [5.0]


def test_schedule_order_by_time():
    sim = Simulator()
    seen = []
    sim.schedule(10.0, seen.append, "late")
    sim.schedule(1.0, seen.append, "early")
    sim.schedule(5.0, seen.append, "mid")
    sim.run()
    assert seen == ["early", "mid", "late"]


def test_same_time_events_fifo():
    sim = Simulator()
    seen = []
    for i in range(20):
        sim.schedule(3.0, seen.append, i)
    sim.run()
    assert seen == list(range(20))


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule(-0.1, lambda: None)


def test_zero_delay_runs_at_current_time():
    sim = Simulator()
    times = []
    sim.schedule(2.0, lambda: sim.schedule(0.0, lambda: times.append(sim.now)))
    sim.run()
    assert times == [2.0]


def test_cancel_prevents_execution():
    sim = Simulator()
    seen = []
    handle = sim.schedule(1.0, seen.append, "x")
    handle.cancel()
    sim.run()
    assert seen == []


def test_cancel_is_idempotent():
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    handle.cancel()
    handle.cancel()
    sim.run()


def test_run_until_advances_clock_even_when_idle():
    sim = Simulator()
    sim.run(until=100.0)
    assert sim.now == 100.0


def test_run_until_excludes_later_events():
    sim = Simulator()
    seen = []
    sim.schedule(5.0, seen.append, "in")
    sim.schedule(50.0, seen.append, "out")
    sim.run(until=10.0)
    assert seen == ["in"]
    assert sim.now == 10.0
    sim.run()
    assert seen == ["in", "out"]


def test_run_until_boundary_inclusive():
    sim = Simulator()
    seen = []
    sim.schedule(10.0, seen.append, "edge")
    sim.run(until=10.0)
    assert seen == ["edge"]


def test_run_until_in_past_rejected():
    sim = Simulator()
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.run(until=1.0)


def test_step_returns_false_when_idle():
    sim = Simulator()
    assert sim.step() is False
    sim.schedule(1.0, lambda: None)
    assert sim.step() is True
    assert sim.step() is False


def test_peek_skips_cancelled():
    sim = Simulator()
    h1 = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    h1.cancel()
    assert sim.peek() == 2.0


def test_peek_empty_is_inf():
    sim = Simulator()
    assert sim.peek() == float("inf")


def test_nested_scheduling_from_callbacks():
    sim = Simulator()
    seen = []

    def chain(n):
        seen.append((sim.now, n))
        if n > 0:
            sim.schedule(1.0, chain, n - 1)

    sim.schedule(0.0, chain, 3)
    sim.run()
    assert seen == [(0.0, 3), (1.0, 2), (2.0, 1), (3.0, 0)]


def test_run_until_event_stops_early():
    from repro.sim import SimEvent

    sim = Simulator()
    ev = SimEvent(sim)
    seen = []
    sim.schedule(1.0, ev.succeed)
    sim.schedule(5.0, seen.append, "later")
    sim.run(until_event=ev)
    assert ev.processed
    assert seen == []


def test_run_until_and_until_event_time_bound_wins():
    """When the time bound hits first, ``now`` still lands on ``until``
    and the event stays pending for a later run."""
    from repro.sim import SimEvent

    sim = Simulator()
    ev = SimEvent(sim)
    sim.schedule(50.0, ev.succeed)
    sim.run(until=10.0, until_event=ev)
    assert not ev.processed
    assert sim.now == 10.0
    sim.run(until_event=ev)
    assert ev.processed
    assert sim.now == 50.0


def test_run_until_and_until_event_event_bound_wins():
    from repro.sim import SimEvent

    sim = Simulator()
    ev = SimEvent(sim)
    seen = []
    sim.schedule(2.0, ev.succeed)
    sim.schedule(8.0, seen.append, "later")
    sim.run(until=10.0, until_event=ev)
    assert ev.processed
    assert sim.now == 2.0
    assert seen == []


def test_run_until_with_event_idle_heap_advances_clock():
    """Time bound + event on an empty heap: clock still advances."""
    from repro.sim import SimEvent

    sim = Simulator()
    ev = SimEvent(sim)
    sim.run(until=25.0, until_event=ev)
    assert not ev.processed
    assert sim.now == 25.0


def test_detached_and_handle_entries_share_fifo_order():
    """Both heap-entry shapes tie-break on the global sequence number:
    same-time entries run in scheduling order regardless of shape."""
    sim = Simulator()
    seen = []
    sim.schedule(1.0, seen.append, "handle-a")
    sim.schedule_detached(1.0, seen.append, "detached-b")
    sim.schedule(1.0, seen.append, "handle-c")
    sim.schedule_detached(1.0, seen.append, "detached-d")
    sim.run()
    assert seen == ["handle-a", "detached-b", "handle-c", "detached-d"]


def test_detached_entries_counted_and_uncancellable():
    sim = Simulator()
    seen = []
    before = sim.events_scheduled
    assert sim.schedule_detached(1.0, seen.append, "x") is None
    assert sim.events_scheduled == before + 1
    with pytest.raises(ValueError):
        sim.schedule_detached(-1.0, seen.append, "never")
    sim.run()
    assert seen == ["x"]


def test_detached_fifo_survives_compaction():
    """Heap compaction (after many cancels) preserves the FIFO
    tie-break between surviving same-time entries of both shapes."""
    sim = Simulator()
    seen = []
    handles = [sim.schedule(5.0, seen.append, f"cancelled{i}") for i in range(2048)]
    sim.schedule(5.0, seen.append, "keep-1")
    sim.schedule_detached(5.0, seen.append, "keep-2")
    sim.schedule(5.0, seen.append, "keep-3")
    for handle in handles:
        handle.cancel()
    sim.schedule(5.0, seen.append, "keep-4")  # triggers compaction
    assert sim._pending < 100, "compaction did not fire"
    sim.schedule_detached(5.0, seen.append, "keep-5")
    sim.run()
    assert seen == ["keep-1", "keep-2", "keep-3", "keep-4", "keep-5"]


def test_clock_monotonic_across_many_events():
    sim = Simulator()
    stamps = []
    import random

    rng = random.Random(7)
    for _ in range(500):
        sim.schedule(rng.uniform(0, 100), lambda: stamps.append(sim.now))
    sim.run()
    assert stamps == sorted(stamps)
    assert len(stamps) == 500


class TestQuiescenceFastForward:
    """The calendar queue drops all-cancelled buckets wholesale: the
    clock jumps over quiescent intervals without materializing their
    timestamps, while armed (live) timers spanning the gap still fire
    at their exact times."""

    def test_all_cancelled_buckets_are_skipped(self):
        sim = Simulator()
        seen = []
        timers = [sim.schedule(float(t), seen.append, t) for t in range(10, 5000, 10)]
        sim.schedule(9000.0, seen.append, "end")
        for timer in timers:
            timer.cancel()
        observed = []
        while sim.step():
            observed.append(sim.now)
        # The clock never lands on any cancelled-timer timestamp.
        assert observed == [9000.0]
        assert seen == ["end"]
        assert sim._cancelled == 0
        assert sim._pending == 0

    def test_armed_timer_spanning_gap_still_fires(self):
        """A live timer in the middle of a field of cancelled ones must
        fire at its exact time — fast-forward may only skip buckets with
        nothing live in them."""
        sim = Simulator()
        seen = []
        cancelled = [
            sim.schedule(float(t), seen.append, ("dead", t))
            for t in range(100, 1000, 100)
        ]
        sim.schedule(550.0, seen.append, ("live-detached", 550.0))
        survivor = sim.schedule(500.0, lambda: seen.append(("live", sim.now)))
        sim.schedule(2000.0, lambda: seen.append(("tail", sim.now)))
        for timer in cancelled:
            timer.cancel()
        sim.run()
        assert seen == [
            ("live", 500.0),
            ("live-detached", 550.0),
            ("tail", 2000.0),
        ]
        assert survivor.executed

    def test_mixed_bucket_reaps_cancelled_but_runs_live(self):
        """Cancelled and live entries at the same timestamp: the live
        ones run (in FIFO order), the cancelled ones are reaped in the
        same activation pass."""
        sim = Simulator()
        seen = []
        a = sim.schedule(5.0, seen.append, "a")
        sim.schedule(5.0, seen.append, "b")
        c = sim.schedule(5.0, seen.append, "c")
        sim.schedule(5.0, seen.append, "d")
        a.cancel()
        c.cancel()
        sim.run()
        assert seen == ["b", "d"]
        assert sim._cancelled == 0

    def test_run_until_fast_forwards_over_cancelled_tail(self):
        """peek() must reap an all-cancelled future bucket rather than
        report its time, so run(until=...) neither stalls nor executes
        anything dead."""
        sim = Simulator()
        timer = sim.schedule(50.0, lambda: None)
        timer.cancel()
        assert sim.peek() == float("inf")
        sim.run(until=100.0)
        assert sim.now == 100.0
        assert sim._pending == 0

    def test_cancel_during_drain_of_same_bucket(self):
        """An entry cancelled by an earlier same-time callback must not
        run even though its bucket was already activated."""
        sim = Simulator()
        seen = []
        handles = {}

        def killer():
            seen.append("killer")
            handles["victim"].cancel()

        sim.schedule(3.0, killer)
        handles["victim"] = sim.schedule(3.0, seen.append, "victim")
        sim.schedule(3.0, seen.append, "after")
        sim.run()
        assert seen == ["killer", "after"]


class TestLateCancel:
    """Regression: cancelling a handle whose call already ran used to
    increment the compaction counter, desynchronizing it from the heap
    (a later compaction pass would then run on wrong accounting)."""

    def test_cancel_after_execution_is_noop(self):
        sim = Simulator()
        seen = []
        call = sim.schedule(1.0, seen.append, "x")
        sim.run()
        assert seen == ["x"]
        assert call.executed
        call.cancel()
        call.cancel()
        assert not call.cancelled
        assert sim._cancelled == 0

    def test_cancel_before_execution_still_counts_once(self):
        sim = Simulator()
        call = sim.schedule(1.0, lambda: None)
        call.cancel()
        call.cancel()
        assert call.cancelled
        assert sim._cancelled == 1

    def test_counter_matches_buried_entries(self):
        # Run a mixed workload, then late-cancel everything that already
        # fired: the counter must only reflect entries still in the heap.
        sim = Simulator()
        fired = [sim.schedule(float(i), lambda: None) for i in range(10)]
        sim.run()
        pending = [sim.schedule(100.0 + i, lambda: None) for i in range(5)]
        for call in fired:
            call.cancel()
        assert sim._cancelled == 0
        for call in pending[:2]:
            call.cancel()
        assert sim._cancelled == 2
        sim.run()
        assert all(c.executed for c in pending[2:])


class TestBucketScopedReaping:
    """Only buckets that hold cancellations are reaped: a cancel aimed at
    a future bucket is counted against that bucket's time, and the count
    is consumed when the bucket is peeked at, activated or compacted."""

    def test_cancel_then_peek_then_activation(self):
        sim = Simulator()
        seen = []
        dead = sim.schedule(5.0, seen.append, "dead")
        sim.schedule(5.0, seen.append, "live")
        sim.schedule(7.0, seen.append, "later")
        dead.cancel()
        assert sim._bucket_cancels == {5.0: 1}
        assert sim.peek() == 5.0
        # peek() reaped the counted bucket; activation has nothing left
        # to filter and a late cancel of the reaped handle is a no-op.
        assert sim._bucket_cancels == {}
        assert sim._cancelled == 0
        assert dead.executed
        dead.cancel()
        assert sim._cancelled == 0
        sim.run()
        assert seen == ["live", "later"]
        assert sim._pending == 0

    def test_peek_drops_all_cancelled_bucket_and_its_count(self):
        sim = Simulator()
        timers = [sim.schedule(5.0, lambda: None) for _ in range(3)]
        sim.schedule(9.0, lambda: None)
        for timer in timers:
            timer.cancel()
        assert sim._bucket_cancels == {5.0: 3}
        assert sim.peek() == 9.0
        assert sim._bucket_cancels == {}
        assert sim._pending == 1

    def test_cancel_at_current_instant_is_not_bucket_counted(self):
        """A same-instant handle sits in the active heap, not in a
        bucket: it is skipped at pop, never counted per bucket."""
        sim = Simulator()
        seen = []
        handles = {}

        def killer():
            handles["victim"].cancel()
            assert sim._bucket_cancels == {}
            assert sim._cancelled == 1

        sim.schedule(3.0, killer)
        handles["victim"] = sim.schedule(3.0, seen.append, "victim")
        sim.schedule(3.0, seen.append, "after")
        sim.run()
        assert seen == ["after"]
        assert sim._cancelled == 0
        assert sim._pending == 0

    def test_trailing_all_cancelled_buckets_leave_now_at_last_live_event(self):
        sim = Simulator()
        sim.schedule(10.0, lambda: None)
        tail = [sim.schedule(t, lambda: None) for t in (20.0, 30.0, 30.0)]
        for timer in tail:
            timer.cancel()
        assert sim._bucket_cancels == {20.0: 1, 30.0: 2}
        sim.run()
        assert sim.now == 10.0
        assert sim._bucket_cancels == {}
        assert sim._cancelled == 0
        assert sim._pending == 0

    def test_uncancelled_bucket_activates_unfiltered(self):
        """A bucket no cancel touched is activated as-is, even while
        cancellations are outstanding elsewhere."""
        sim = Simulator()
        seen = []
        sim.schedule(1.0, seen.append, "a")
        far = sim.schedule(50.0, seen.append, "never")
        far.cancel()
        bucket = sim._buckets[1.0]
        assert sim.step()
        assert sim._current is bucket
        assert sim._bucket_cancels == {50.0: 1}
        sim.run()
        assert seen == ["a"]

    def test_compaction_resets_the_counts(self):
        sim = Simulator()
        seen = []
        handles = [
            sim.schedule(float(t), seen.append, ("dead", t)) for t in range(1, 2049)
        ]
        sim.schedule(5000.0, seen.append, "keep")
        for handle in handles:
            handle.cancel()
        assert len(sim._bucket_cancels) == 2048
        sim.schedule(6000.0, seen.append, "trigger")  # compacts
        assert sim._bucket_cancels == {}
        assert sim._cancelled == 0
        assert sim._pending == 2
        sim.run()
        assert seen == ["keep", "trigger"]
        assert sim.now == 6000.0

    def test_tiebreak_simulator_keeps_no_bucket_counts(self):
        from repro.sim.rng import DeterministicRng
        from repro.tools.simlint import TieBreakSimulator

        sim = TieBreakSimulator(DeterministicRng(0, "test/reaping"))
        seen = []
        timers = [sim.schedule(float(t), seen.append, t) for t in range(1, 6)]
        sim.schedule(10.0, seen.append, "end")
        for timer in timers[:3]:
            timer.cancel()
        assert sim._bucket_cancels == {}
        assert sim._cancelled == 3
        sim.run()
        assert seen == [4, 5, "end"]
        assert sim._bucket_cancels == {}
        assert sim._cancelled == 0


def test_arbitrated_key_fn_runs_once_per_process_name():
    from repro.sim import ArbitratedResource

    sim = Simulator()
    calls = []

    def key_fn(name):
        calls.append(name)
        return (-len(name), name)

    cpu = ArbitratedResource(sim, capacity=1, name="cpu", key_fn=key_fn)
    order = []

    def task(label):
        for _ in range(3):
            yield cpu.request()
            order.append((sim.now, label))
            yield 1.0
            cpu.release()

    sim.process(task("a"), name="a")
    sim.process(task("bb"), name="bb")
    sim.run()
    assert sorted(calls) == ["a", "bb"]
    # The cached key still decides same-instant grants: "bb" sorts first.
    assert order[0] == (0.0, "bb")
    assert len(order) == 6
