"""The sequence core shared by every Myrinet NIC collective engine.

The paper's collective protocol (§3, §6) and the direct scheme differ
only in their reliability policy; the lifecycle of one sequence on a
NIC is the same for the barrier engines, the data collectives and the
broadcast.  :class:`SequenceEngine` owns that lifecycle: the state
table, exactly-once retirement into one bounded archive (the payload a
late NACK may still ask for, with ``done_floor`` rising only as the
archive prunes), the receiver-side timer and its NACK budget, the
epoch/teardown/restart sweeps, the refusal of a start that crossed the
bus after a revocation, and the typed ``_fail``.  Every lifecycle
transition dispatches through :data:`SEQUENCE_AUTOMATON`, the table the
IR verifier model-checks (simlint SL207/SL208).

The host half lives here too: one matcher and one interpreter resolve
every engine's :data:`OUTCOMES`, blocking or non-blocking.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.collectives.failures import FailureReason, Revoked
from repro.collectives.group import ProcessGroup
from repro.collectives.messages import (
    BarrierDone,
    BarrierFailed,
    BarrierFailure,
    BcastDone,
    CollectiveFailure,
    DataCollDone,
    DataCollFailed,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.myrinet.nic import LanaiNic

#: The per-sequence lifecycle automaton, exported as *data* so the
#: schedule-IR verifier's bounded model checker (simlint SL207/SL208)
#: checks the same state machine every engine runs.
#: ``(state, event) -> action``:
#:
#: - states: ``idle`` (no state, or a passive early arrival not yet
#:   started here), ``running`` (started), ``complete`` (completion
#:   committed, retirement pending), ``retired`` (completed or failed:
#:   archived or below the floor), ``closed`` (the group's engine was
#:   revoked or torn down);
#: - events: ``start`` (host command), ``arrival`` (collective
#:   message), ``stale_arrival`` (that message is already held),
#:   ``timeout`` / ``timeout_exhausted`` (NACK timer, budget left /
#:   spent), ``invalid`` (``_validate`` rejection), ``ops_done`` (the
#:   schedule ran to its end), ``nack`` (a peer's retransmission
#:   request), ``deadline`` / ``peer_dead`` (escalation signals),
#:   ``revoke`` / ``restart`` / ``teardown`` (group-wide sweeps);
#: - actions: ``run`` (advance the schedule), ``drop``, ``nack_rearm``
#:   (send NACKs, re-arm the timer), ``fail`` (typed teardown via
#:   ``_fail``), ``complete`` (commit the completion),
#:   ``resend_archive`` (answer from the retained payload), ``keep``
#:   (leave the sequence to its committed completion).
#:
#: Two entries are the historical bug sites: ``timeout_exhausted``
#: (anything but ``fail`` parks every rank forever, which the model
#: checker flags as an SL207 absorbing state) and ``("retired",
#: "arrival")`` (anything but ``drop`` resurrects a finished sequence,
#: the SL208 exactly-once violation).
SEQUENCE_AUTOMATON: dict[tuple[str, str], str] = {
    ("idle", "start"): "run",
    ("closed", "start"): "fail",
    ("running", "arrival"): "run",
    ("running", "stale_arrival"): "drop",
    ("retired", "arrival"): "drop",
    ("closed", "arrival"): "drop",
    ("running", "timeout"): "nack_rearm",
    ("running", "timeout_exhausted"): "fail",
    ("running", "invalid"): "fail",
    ("running", "ops_done"): "complete",
    ("retired", "nack"): "resend_archive",
    ("closed", "nack"): "drop",
    ("running", "deadline"): "fail",
    ("running", "peer_dead"): "fail",
    ("idle", "revoke"): "drop",
    ("running", "revoke"): "fail",
    ("complete", "revoke"): "keep",
    ("idle", "restart"): "drop",
    ("running", "restart"): "fail",
    ("complete", "restart"): "keep",
    ("idle", "teardown"): "drop",
    ("running", "teardown"): "drop",
    ("complete", "teardown"): "keep",
}

#: Group-wide sweep event -> (drop counter, failure reason).
_SWEEPS = {
    "revoke": ("epoch_state_dropped", FailureReason.GROUP_REVOKED.value),
    "restart": ("crash_state_dropped", FailureReason.NIC_RESTART.value),
    "teardown": ("teardown_state_dropped", None),
}

#: Escalation command kind -> (automaton event, counter, failure reason).
_SIGNALS = {
    "deadline": ("deadline", "deadline_exceeded",
                 FailureReason.BARRIER_DEADLINE.value),
    "peer-dead": ("peer_dead", "peer_dead_escalation",
                  FailureReason.PEER_DEAD.value),
}


class SequenceState:
    """Lifecycle fields of one (rank, sequence) on the NIC.

    ``timer`` is the sequence's one armed timer: the NACK timer of the
    receiver-driven schemes, or the direct scheme's deadline watchdog.
    """

    __slots__ = ("seq", "started", "complete", "timer", "nack_rounds")

    def __init__(self, seq: int):
        self.seq = seq
        self.started = False
        self.complete = False
        self.timer = None
        self.nack_rounds = 0

    def cancel_timer(self) -> None:
        if self.timer is not None:
            self.timer.cancel()
            self.timer = None


class SequenceEngine:
    """Per-(NIC, group) sequence lifecycle; subclasses add the schedule.

    Hooks: ``_new_state`` (a fresh per-sequence state), ``_on_begin``
    (host start: seed the state, arm its timer), ``_progress`` (advance
    the schedule), ``_send_nacks`` (one NACK round) and ``_retained``
    (what the archive keeps for late NACKs).
    """

    #: Counter namespace of the lifecycle counters.
    counter_prefix = "coll"
    #: Counter name of a typed failure, under the prefix.
    failed_counter = "failed"
    #: Host notification of a typed failure.
    failed_event: type = DataCollFailed
    #: Failure reason once the NACK budget is spent.
    budget_reason = FailureReason.DATACOLL_BUDGET.value
    #: NACK rounds back off with ``nack_backoff_us`` and are bounded by
    #: ``nack_max_rounds`` (the barrier); otherwise a fixed
    #: ``nack_timeout_us`` interval bounded by ``max_retries``.
    nack_backoff = False
    #: Host command kinds that start a sequence.
    start_commands: tuple[str, ...] = ("start",)

    def __init__(self, nic: "LanaiNic", group: ProcessGroup, rank: int):
        if group.node_of(rank) != nic.node_id:
            raise ValueError(
                f"rank {rank} of group {group.group_id} lives on node "
                f"{group.node_of(rank)}, not on {nic.name}"
            )
        self.nic = nic
        self.group = group
        self.rank = rank
        self.states: dict[int, Any] = {}
        #: Recently retired sequences (completed or failed, in any
        #: order) -> the payload kept for late NACKs; pruned FIFO.
        self.archive: dict[int, Any] = {}
        self.done_floor = -1
        #: Failed sequences -> reason.
        self.failed: dict[int, str] = {}
        self.closed = False
        nic.register_engine(group.group_id, self)

    # -- hooks ---------------------------------------------------------
    def _new_state(self, seq: int) -> SequenceState:
        return SequenceState(seq)

    def _on_begin(self, state, args: tuple) -> None:
        self._arm_nack_timer(state)

    def _progress(self, state):
        raise NotImplementedError

    def _send_nacks(self, state):
        raise NotImplementedError

    def _retained(self, state) -> Any:
        return None

    # -- state table and retirement ------------------------------------
    def _state(self, seq: int):
        state = self.states.get(seq)
        if state is None:
            state = self.states[seq] = self._new_state(seq)
        return state

    def _retired(self, seq: int) -> bool:
        return seq <= self.done_floor or seq in self.archive

    @staticmethod
    def _lifecycle(state) -> str:
        """The automaton state of a sequence that has a state entry."""
        if state.complete:
            return "complete"
        return "running" if state.started else "idle"

    def _drops(self, where: str, event: str, counter: str) -> bool:
        """Dispatch a drop-or-proceed transition; count it if dropped."""
        if SEQUENCE_AUTOMATON[where, event] != "drop":
            return False
        self.nic.tracer.count(counter)
        return True

    def _commit(self, state) -> bool:
        """Claim the sequence's completion exactly once (``ops_done``).

        Refused when another loop already committed it, or when it was
        failed while the caller was yielding.
        """
        if state.complete or self.states.get(state.seq) is not state:
            return False
        if SEQUENCE_AUTOMATON["running", "ops_done"] != "complete":
            return False
        state.complete = True
        return True

    def _retire(self, state) -> bool:
        """Move a sequence from the state table into the archive.

        Exactly once: ``False`` when a concurrent revoke, teardown or
        restart already resolved it.  Sweeps keep committed sequences
        (``complete``) for their completion to retire here.
        """
        seq = state.seq
        if self.states.get(seq) is not state:
            return False
        state.cancel_timer()
        del self.states[seq]
        archive = self.archive
        archive[seq] = self._retained(state)
        while len(archive) > self.nic.params.coll_archive_depth:
            pruned = min(archive)
            del archive[pruned]
            self.done_floor = max(self.done_floor, pruned)
        return True

    def _fail(self, state, reason: str):
        """Typed teardown: retire first (timer cancelled, state popped,
        payload archived), then DMA the failure to the host."""
        if self._retire(state):
            self.nic.tracer.count(f"{self.counter_prefix}.{self.failed_counter}")
            yield from self._notify_failed(state.seq, reason)

    def _notify_failed(self, seq: int, reason: str):
        self.failed[seq] = reason
        nic = self.nic
        yield from nic.notify_host(
            self.failed_event(self.group.group_id, seq, reason, nic.sim.now)
        )

    # -- MCP dispatch --------------------------------------------------
    def on_command(self, command: tuple):
        kind = command[0]
        if kind in self.start_commands:
            yield from self._on_start(command[1], command[2:])
        elif kind == "timeout":
            yield from self._on_nack_timeout(command[1])
        elif kind in _SIGNALS:
            yield from self._on_signal(command[1], kind)
        elif kind == "epoch":
            yield from self._sweep("revoke")
        elif kind == "teardown":
            yield from self._sweep("teardown")
        else:
            raise ValueError(f"unknown {self.counter_prefix} command {command!r}")

    def on_barrier_packet(self, packet):
        raise TypeError(f"{self.counter_prefix} engine received a barrier packet")

    def _on_start(self, seq: int, args: tuple):
        nic = self.nic
        yield from nic.cpu_task(nic.params.t_coll_start, "coll_start")
        if SEQUENCE_AUTOMATON["closed" if self.closed else "idle", "start"] == "fail":
            # The group's epoch died while this start crossed the bus:
            # resolve the host now instead of parking it on a sequence
            # no engine will ever run.
            nic.tracer.count(f"{self.counter_prefix}.start_after_revoke")
            yield from self._notify_failed(seq, FailureReason.GROUP_REVOKED.value)
            return
        state = self._state(seq)
        state.started = True
        self._on_begin(state, args)
        yield from self._progress(state)

    # -- receiver-side timers ------------------------------------------
    def _arm_nack_timer(self, state) -> None:
        nic = self.nic
        if self.nack_backoff:
            # A straggler is probed at the base cadence, a dead peer
            # ever more cheaply.
            delay = nic.params.nack_backoff_us(state.nack_rounds)
        else:
            delay = nic.params.nack_timeout_us
        state.timer = nic.sim.schedule(delay, self._timer_fired, state.seq, "timeout")

    def _timer_fired(self, seq: int, kind: str) -> None:
        if seq in self.states:
            self.nic.post_engine_command((self.group.group_id, kind, seq))

    def _awaiting(self, state) -> bool:
        """Does the sequence still wait on the network for NACK rounds?"""
        return state.started and not state.complete

    def _on_nack_timeout(self, seq: int):
        state = self.states.get(seq)
        if state is None or not self._awaiting(state):
            return
        params = self.nic.params
        budget = params.nack_max_rounds if self.nack_backoff else params.max_retries
        state.nack_rounds += 1
        event = "timeout_exhausted" if state.nack_rounds > budget else "timeout"
        action = SEQUENCE_AUTOMATON["running", event]
        if action == "fail":
            # The missing peers are dead: a typed failure instead of
            # leaving the host waiting forever.
            self.nic.tracer.count(f"{self.counter_prefix}.gave_up")
            yield from self._fail(state, self.budget_reason)
        elif action == "nack_rearm":
            yield from self._send_nacks(state)
            self._arm_nack_timer(state)

    def _on_signal(self, seq: int, kind: str):
        event, counter, reason = _SIGNALS[kind]
        state = self.states.get(seq)
        tracer = self.nic.tracer
        if (
            state is None
            or SEQUENCE_AUTOMATON.get((self._lifecycle(state), event)) != "fail"
        ):
            # Completed, already failed, or never entered here before
            # the signal landed: nothing to escalate.
            tracer.count(f"{self.counter_prefix}.stale_failure_signal")
            return
        tracer.count(f"{self.counter_prefix}.{counter}")
        yield from self._fail(state, reason)

    # -- group-wide sweeps ---------------------------------------------
    def on_nic_restart(self):
        """The LANai restarted and its SRAM state is gone: started
        sequences fail up to the host; passive early arrivals are lost
        (peers recover them through their own reliability)."""
        return self._sweep("restart")

    def _sweep(self, event: str):
        """Resolve every sequence for a group-wide event.

        ``revoke`` (the group's epoch died) fails started sequences with
        the typed ``group-revoked`` reason, so blocking and
        non-blocking waiters both resolve; ``teardown`` (silent close)
        drops them without notifying the host.  Both close the engine:
        late traffic is discarded and late starts are refused.
        """
        dropped, reason = _SWEEPS[event]
        if event != "restart":
            self.closed = True
        tracer = self.nic.tracer
        for seq in sorted(self.states):
            state = self.states.get(seq)
            if state is None:  # retired while an earlier _fail yielded
                continue
            action = SEQUENCE_AUTOMATON[self._lifecycle(state), event]
            if action == "fail":
                yield from self._fail(state, reason)
            elif action == "drop":
                state.cancel_timer()
                del self.states[seq]
                tracer.count(f"{self.counter_prefix}.{dropped}")


# ----------------------------------------------------------------------
# Host side: one matcher and one interpreter for every engine
# ----------------------------------------------------------------------
#: Every host notification a sequence can resolve with.
OUTCOMES = (BarrierDone, BarrierFailed, DataCollDone, DataCollFailed, BcastDone)

_FAILURE_OF = {BarrierFailed: BarrierFailure, DataCollFailed: CollectiveFailure}


def sequence_matcher(group: ProcessGroup, seq: int):
    """Event matcher for one sequence's completion or failure."""
    group_id = group.group_id
    return (
        lambda ev: isinstance(ev, OUTCOMES)
        and ev.group_id == group_id
        and ev.seq == seq
    )


def interpret_outcome(event, node_id: int):
    """Turn a sequence's outcome into its result, raising typed
    failures: :class:`Revoked` when the epoch died, otherwise
    :class:`BarrierFailure` (barriers) or :class:`CollectiveFailure`."""
    failure = _FAILURE_OF.get(type(event))
    if failure is not None:
        if event.reason == FailureReason.GROUP_REVOKED.value:
            raise Revoked(event.group_id, event.seq, node=node_id,
                          failed_at=event.failed_at)
        raise failure(event.group_id, event.seq, event.reason, node=node_id)
    return event.result if isinstance(event, DataCollDone) else event


def wait_sequence(port, group: ProcessGroup, seq: int):
    """Blocking wait for a previously-posted sequence of any engine."""
    event = yield from port.recv_matching(sequence_matcher(group, seq))
    return interpret_outcome(event, port.node_id)
