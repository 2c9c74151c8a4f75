"""The tie-break replay kernel against an independent reference.

:class:`NestedKeyTieBreak` is the replay kernel as it was first written:
one heap of ``(time, (phase, r, seq), fn, args)`` entries, drained one
:meth:`step` at a time.  The production :class:`TieBreakSimulator`
stores flat ``(time, phase, r, seq, fn, args)`` entries and drains them
in an inlined loop.  Both draw one tie-break number per scheduled call,
in scheduling order, so under the same rng seed they must execute the
*same permutation* — not merely reach an equal outcome.
"""

from heapq import heapify, heappop, heappush

import pytest

from repro.sim.engine import _COMPACT_MIN_CANCELLED, ScheduledCall, Simulator
from repro.sim.rng import DeterministicRng
from repro.tools.chaos import make_fuzz_plan, run_fuzz_case
from repro.tools.simlint import TieBreakSimulator


class NestedKeyTieBreak(Simulator):
    """Reference replay kernel: nested ``(phase, r, seq)`` keys, one heap."""

    def __init__(self, rng):
        super().__init__()
        self._rng = rng
        self._heap = []

    def _push(self, time, phase, fn, args):
        self._seq += 1
        heappush(self._heap, (time, (phase, self._rng.random(), self._seq), fn, args))

    def schedule(self, delay, fn, *args):
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        call = ScheduledCall(self._now + delay, self._seq + 1, fn, args, self)
        self._push(call.time, 0, call, None)
        if self._cancelled >= _COMPACT_MIN_CANCELLED:
            self._maybe_compact()
        return call

    def schedule_detached(self, delay, fn, *args):
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        self._push(self._now + delay, 0, fn, args)

    def schedule_now(self, fn, *args):
        self._push(self._now, 0, fn, args)

    def schedule_phase(self, phase, fn, *args):
        if phase <= self._phase:
            raise ValueError(f"phase {phase} not after current phase {self._phase}")
        self._push(self._now, phase, fn, args)

    def _note_cancel(self, time):
        self._cancelled += 1

    def _maybe_compact(self):
        if self._cancelled * 2 <= len(self._heap):
            return
        kept = []
        for entry in self._heap:
            if entry[3] is None and entry[2].cancelled:
                entry[2].executed = True
                self._cancelled -= 1
            else:
                kept.append(entry)
        self._heap[:] = kept
        heapify(self._heap)

    def peek(self):
        heap = self._heap
        while heap and heap[0][3] is None and heap[0][2].cancelled:
            heappop(heap)[2].executed = True
            self._cancelled -= 1
        return heap[0][0] if heap else float("inf")

    def step(self):
        while self._heap:
            time, key, fn, args = heappop(self._heap)
            if args is None:
                fn.executed = True
                if fn.cancelled:
                    self._cancelled -= 1
                    continue
                fn, args = fn.fn, fn.args
            self._now, self._phase = time, key[0]
            fn(*args)
            if self._unhandled:
                exc = self._unhandled[0]
                self._unhandled.clear()
                raise exc
            return True
        return False

    def _run_to_exhaustion(self):
        while self.step():
            pass


class _Recording:
    """Mixin logging ``(time, seq)`` of every call as it executes.

    Each scheduled function is wrapped with the ``seq`` the kernel is
    about to assign, so the log is the kernel's pop sequence minus the
    cancelled entries it skips.
    """

    def __init__(self, rng):
        super().__init__(rng)
        self.pops = []

    def _logged(self, fn):
        seq, pops = self._seq + 1, self.pops

        def call(*args):
            pops.append((self._now, seq))
            fn(*args)

        return call

    def schedule(self, delay, fn, *args):
        return super().schedule(delay, self._logged(fn), *args)

    def schedule_detached(self, delay, fn, *args):
        super().schedule_detached(delay, self._logged(fn), *args)

    def schedule_now(self, fn, *args):
        super().schedule_now(self._logged(fn), *args)

    def schedule_phase(self, phase, fn, *args):
        super().schedule_phase(phase, self._logged(fn), *args)


class RecordingReference(_Recording, NestedKeyTieBreak):
    pass


class RecordingTieBreak(_Recording, TieBreakSimulator):
    pass


@pytest.mark.parametrize("network,seed", [("myrinet", 1), ("quadrics", 0)])
def test_replay_pops_the_reference_permutation(network, seed):
    plan = make_fuzz_plan(network, seed, nodes=8)
    sims = [
        kernel(DeterministicRng(seed, f"test/tiebreak/{network}"))
        for kernel in (RecordingReference, RecordingTieBreak)
    ]
    reference, flat = (run_fuzz_case(plan, sim=sim) for sim in sims)
    assert reference.ok, "\n".join(reference.violations + reference.quiescence)
    assert flat.comparable() == reference.comparable()
    ref_sim, flat_sim = sims
    assert len(flat_sim.pops) > 1000
    assert flat_sim.pops == ref_sim.pops
    assert flat_sim.events_scheduled == ref_sim.events_scheduled
    # The permutation really differs from FIFO order somewhere.
    assert flat_sim.pops != sorted(flat_sim.pops)
