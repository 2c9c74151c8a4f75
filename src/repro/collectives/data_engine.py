"""Shared machinery for data-bearing collectives on the NIC.

The barrier's collective protocol generalizes to data collectives that
replay a precompiled :class:`~repro.collectives.schedule_ir
.CollectiveSchedule` — an ordered list of send/recv/reduce/dma ops per
rank, compiled once per ``(collective, algorithm, group, payload)`` and
cached on the :class:`ProcessGroup`.  Allgather, Alltoall (Bruck) and
Allreduce/Reduce all specialize :class:`DisseminationDataEngine`
through four hooks:

- ``_init_data``      — seed per-sequence state from the host command;
- ``_phase_payload``  — build phase *m*'s outgoing payload (+ wire bytes);
- ``_merge``          — fold an arrived payload into the state;
- ``_finish``         — produce the host-visible result (+ DMA bytes).

The sequence lifecycle — retirement into the bounded archive, the NACK
timer and its budget, epoch/teardown/restart, typed failures — is the
shared :class:`~repro.collectives.sequence.SequenceEngine`.  This
module adds what the paper's protocol prescribes for data: op replay on
the fast send path (no p2p queues/records), per-(sender, phase)
duplicate suppression, and retention of sent payloads so even
post-completion NACKs are answerable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional

from repro.collectives.failures import FailureReason
from repro.collectives.group import ProcessGroup
from repro.collectives.messages import CollectiveFailure as CollectiveFailure
from repro.collectives.messages import DataCollDone
from repro.collectives.schedule_ir import CollectiveSchedule, ScheduleOp
from repro.collectives.sequence import (
    SEQUENCE_AUTOMATON,
    SequenceEngine,
    SequenceState,
    wait_sequence,
)
from repro.network import Packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.myrinet.nic import LanaiNic

#: Typed failure reason when a receiver exhausts its NACK retry budget
#: (back-compat alias into the registry).
RETRY_BUDGET_EXHAUSTED = FailureReason.DATACOLL_BUDGET.value


@dataclass(frozen=True)
class DataCollMsg:
    """One hop of a data collective.  ``phase`` is the *sender's* phase
    index — receivers match it against their op's ``peer_phase``."""

    group_id: int
    seq: int
    sender: int
    phase: int
    payload: Any
    nbytes: int


@dataclass(frozen=True)
class DataCollNack:
    """Receiver-driven retransmission request (shared by all data
    collectives).  ``phase`` is the missing *sender's* phase index, so
    the sender can look the payload up directly."""

    group_id: int
    seq: int
    phase: int
    missing_sender: int
    requester: int


class _DataState(SequenceState):
    """Per-(rank, sequence) progress for one data collective."""

    __slots__ = (
        "data", "op_index", "in_progress", "received", "payload_phase",
        "payload_value", "payload_nbytes", "sent_messages", "pending",
    )

    def __init__(self, seq: int):
        super().__init__(seq)
        self.data: Any = None
        self.op_index = 0
        self.in_progress = False
        self.received: Optional[DataCollMsg] = None
        # A phase's payload is built exactly once, even when the phase
        # sends to several peers (Alltoall's hook is destructive).
        self.payload_phase = -1
        self.payload_value: Any = None
        self.payload_nbytes = 0
        self.sent_messages: dict[int, DataCollMsg] = {}  # phase -> message
        self.pending: dict[int, DataCollMsg] = {}  # sender -> message


class DisseminationDataEngine(SequenceEngine):
    """Base NIC engine for schedule-replaying data collectives."""

    counter_prefix = "datacoll"
    #: Name under which the group's compiled schedule is looked up.
    collective_name = "allgather"
    #: Pin a message pattern regardless of group/tuner choice (Bruck
    #: Alltoall only works on dissemination); ``None`` follows the group.
    forced_algorithm: Optional[str] = None
    #: Per-sequence state class; subclasses needing extra fields (e.g.
    #: Allreduce's operator) override with a ``_DataState`` subclass.
    state_cls = _DataState
    #: Default wire bytes of one contributed value (subclasses override
    #: or the constructor pins it for payload sweeps).
    bytes_per_value = 4

    def __init__(
        self,
        nic: "LanaiNic",
        group: ProcessGroup,
        rank: int,
        bytes_per_value: Optional[int] = None,
        root: int = 0,
    ):
        self.root = root
        if bytes_per_value is not None:
            self.bytes_per_value = bytes_per_value
        self.schedule: CollectiveSchedule = group.collective_schedule(
            self.collective_name,
            payload_bytes=self.bytes_per_value,
            algorithm=self.forced_algorithm,
            root=root,
        )
        self.ops: tuple[ScheduleOp, ...] = self.schedule.ops(rank)
        # Exactly-once receive bookkeeping: where in the op list each
        # expected (sender, sender-phase) pair is consumed.  An arrival
        # whose slot sits *behind* op_index was already delivered — a
        # retransmit that raced the original (e.g. across a healed
        # link) — and must be dropped, never re-buffered.
        self._recv_pos = {
            (op.peer, op.peer_phase): i
            for i, op in enumerate(self.ops)
            if op.kind == "recv"
        }
        self.completed = 0
        super().__init__(nic, group, rank)

    # -- hooks ---------------------------------------------------------
    def _init_data(self, state: _DataState, args: tuple) -> None:
        raise NotImplementedError

    def _phase_payload(self, state: _DataState, phase: int) -> tuple[Any, int]:
        raise NotImplementedError

    def _merge(self, state: _DataState, payload: Any, phase: int) -> None:
        raise NotImplementedError

    def _finish(self, state: _DataState) -> tuple[Any, int]:
        raise NotImplementedError

    def _validate(self, state: _DataState, message: DataCollMsg) -> Optional[str]:
        """Check an arrived message against this rank's collective
        arguments before merging.  A non-``None`` reason fails the
        sequence with a typed :class:`DataCollFailed` instead of
        silently merging inconsistent contributions."""
        return None

    # -- sequence-core hooks -------------------------------------------
    def _new_state(self, seq: int) -> _DataState:
        return self.state_cls(seq)

    def _on_begin(self, state: _DataState, args: tuple) -> None:
        self._init_data(state, args)
        self._arm_nack_timer(state)

    def _retained(self, state: _DataState) -> dict[int, DataCollMsg]:
        return state.sent_messages

    def on_bcast_packet(self, packet: Packet):
        """Data-collective traffic arrives as BCAST-kind packets."""
        message: DataCollMsg = packet.payload
        nic = self.nic
        prefix = self.counter_prefix
        yield from nic.cpu_task(nic.params.t_coll_trigger)
        # A revoked epoch's stray traffic from peers that had not yet
        # heard must never resurrect a sequence.
        if self.closed and self._drops("closed", "arrival", f"{prefix}.rx_after_revoke"):
            return
        if self._retired(message.seq) and self._drops(
            "retired", "arrival", f"{prefix}.rx_duplicate"
        ):
            return
        state = self._state(message.seq)
        if message.sender in state.pending and self._drops(
            "running", "stale_arrival", f"{prefix}.rx_duplicate"
        ):
            return
        pos = self._recv_pos.get((message.sender, message.phase))
        if pos is None:
            # No recv op ever consumes this (sender, phase) here.
            nic.tracer.count(f"{prefix}.rx_unexpected")
            return
        # Its recv op already consumed the original: a retransmit
        # delivered twice (NACK answered across a healing link).
        # Exactly-once: count and discard, never re-buffer.
        if pos < state.op_index and self._drops(
            "running", "stale_arrival", f"{prefix}.rx_duplicate"
        ):
            return
        state.pending[message.sender] = message
        if state.started and not state.complete and (
            SEQUENCE_AUTOMATON["running", "arrival"] == "run"
        ):
            yield from self._progress(state)

    # -- schedule replay ---------------------------------------------------
    def _payload_for(self, state: _DataState, phase: int) -> tuple[Any, int]:
        if state.payload_phase != phase:
            state.payload_value, state.payload_nbytes = self._phase_payload(
                state, phase
            )
            state.payload_phase = phase
        return state.payload_value, state.payload_nbytes

    def _progress(self, state: _DataState):
        """Replay the compiled op list from where this sequence stands.

        Stalls (returns) at a ``recv`` whose message has not arrived;
        the next arrival or NACK-recovered retransmission resumes it.
        """
        if state.in_progress:
            return
        state.in_progress = True
        try:
            ops = self.ops
            while state.op_index < len(ops):
                op = ops[state.op_index]
                if op.kind == "send":
                    payload, nbytes = self._payload_for(state, op.phase)
                    state.op_index += 1
                    yield from self._send(state, op.phase, op.peer, payload, nbytes)
                elif op.kind == "recv":
                    message = state.pending.get(op.peer)
                    if message is None or message.phase != op.peer_phase:
                        return
                    del state.pending[op.peer]
                    reason = self._validate(state, message)
                    if reason is not None and (
                        SEQUENCE_AUTOMATON["running", "invalid"] == "fail"
                    ):
                        yield from self._fail(state, reason)
                        return
                    state.received = message
                    state.op_index += 1
                elif op.kind == "reduce":
                    assert state.received is not None
                    self._merge(state, state.received.payload, op.phase)
                    state.received = None
                    state.op_index += 1
                else:  # dma: deliver the result
                    state.op_index += 1
                    if self._commit(state):
                        yield from self._complete(state)
                    return
        finally:
            state.in_progress = False

    def _send(self, state: _DataState, phase: int, dst: int, payload: Any, nbytes: int):
        nic = self.nic
        message = DataCollMsg(
            self.group.group_id, state.seq, self.rank, phase, payload, nbytes
        )
        state.sent_messages[phase] = message
        yield from nic.coll_inject(self.group.node_of(dst), message, nbytes)
        nic.tracer.count(f"{self.counter_prefix}.sent")

    def _complete(self, state: _DataState):
        from repro.pci import DmaDirection

        nic = self.nic
        result, result_bytes = self._finish(state)
        yield from nic.cpu_task(nic.params.t_coll_complete)
        if result_bytes > 0:
            yield from nic.pci.dma(result_bytes, DmaDirection.NIC_TO_HOST)
        self.completed += 1
        nic.tracer.count(f"{self.counter_prefix}.complete")
        self._retire(state)
        yield from nic.notify_host(
            DataCollDone(self.group.group_id, state.seq, result)
        )

    # -- receiver-driven reliability ----------------------------------------
    def _send_nacks(self, state: _DataState):
        if state.op_index < len(self.ops):
            op = self.ops[state.op_index]
            if op.kind == "recv" and op.peer not in state.pending:
                self.nic.tracer.count(f"{self.counter_prefix}.nack_timeout")
                yield from self.nic.send_nack(
                    self.group.node_of(op.peer),
                    DataCollNack(
                        self.group.group_id, state.seq, op.peer_phase, op.peer, self.rank
                    ),
                )

    def on_nack(self, packet: Packet):
        nack: DataCollNack = packet.payload
        nic = self.nic
        prefix = self.counter_prefix
        yield from nic.cpu_task(nic.params.t_nack_process)
        if self.closed and self._drops("closed", "nack", f"{prefix}.nack_after_revoke"):
            return
        state = self.states.get(nack.seq)
        message = None
        if state is not None:
            message = state.sent_messages.get(nack.phase)
            counter = f"{prefix}.nack_retransmit"
        elif SEQUENCE_AUTOMATON["retired", "nack"] == "resend_archive":
            message = self.archive.get(nack.seq, {}).get(nack.phase)
            counter = f"{prefix}.nack_stale_resend"
        if message is None:
            nic.tracer.count(f"{prefix}.nack_premature")
            return
        nic.tracer.count(counter)
        yield from nic.coll_inject(
            self.group.node_of(nack.requester), message, message.nbytes
        )


def host_start_data_collective(port, group: ProcessGroup, seq: int, args: tuple,
                               contribute_bytes: int):
    """Shared host side: contribute data, start, await the result."""
    yield from host_post_data_collective(port, group, seq, args, contribute_bytes)
    result = yield from wait_sequence(port, group, seq)
    return result


def host_post_data_collective(port, group: ProcessGroup, seq: int, args: tuple,
                              contribute_bytes: int):
    """Non-blocking host side: contribute data and start the NIC engine
    without waiting for the result."""
    from repro.pci import DmaDirection

    yield from port.cpu.compute(port.cpu.params.send_overhead_us)
    yield from port.pci.pio_write()
    if contribute_bytes > 0:
        yield from port.pci.dma(contribute_bytes, DmaDirection.HOST_TO_NIC)
    port.nic.post_engine_command((group.group_id, "start", seq) + args)
