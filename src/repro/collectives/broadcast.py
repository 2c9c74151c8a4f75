"""NIC-based broadcast over the collective protocol (§9 future work).

The paper closes by planning to combine this barrier with "the
NIC-based broadcast [18]" (Yu, Buntinas & Panda, ICPP'03: reliable
NIC-based multicast over Myrinet/GM-2).  This module implements that
companion collective on top of the same protocol machinery:

- the root's host DMAs the payload into NIC SRAM once and posts a
  single start command;
- NICs forward along a binomial tree *entirely at NIC level* (no host
  crossing at interior nodes until local delivery);
- reliability is receiver-driven, exactly like the barrier: children
  that miss the payload NACK their parent, which re-injects from SRAM.

Forwarding uses the collective fast path (dedicated queue semantics),
so a hop costs ``t_coll_trigger`` + injection + wire — not the p2p
token/packet/record path.  The sequence lifecycle (retirement into the
SRAM archive, the NACK timer, epoch/teardown/restart, typed failures)
is the shared :class:`~repro.collectives.sequence.SequenceEngine`; this
module adds binomial forwarding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional

from repro.collectives.failures import FailureReason
from repro.collectives.group import ProcessGroup
from repro.collectives.messages import BcastDone
from repro.collectives.sequence import (
    SEQUENCE_AUTOMATON,
    SequenceEngine,
    SequenceState,
    wait_sequence,
)
from repro.network import Packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.myrinet.gm_api import GmPort
    from repro.myrinet.nic import LanaiNic


@dataclass(frozen=True)
class BcastMsg:
    """A broadcast payload hop (NIC → NIC)."""

    group_id: int
    seq: int
    root: int  # rank
    size_bytes: int
    payload: Any = None


@dataclass(frozen=True)
class BcastNack:
    """Receiver-driven retransmission request for a broadcast."""

    group_id: int
    seq: int
    requester: int  # rank missing the payload


def binomial_children(rank: int, size: int) -> list[int]:
    """Children of ``rank`` in a binomial broadcast tree rooted at 0.

    Round ``m``: every rank below ``2**m`` forwards to ``rank + 2**m``.
    """
    children = []
    gap = 1
    while gap < size:
        if rank < gap and rank + gap < size:
            children.append(rank + gap)
        gap <<= 1
    return children


def binomial_parent(rank: int, size: int) -> Optional[int]:
    if rank == 0:
        return None
    # The parent cleared the highest set bit of the rank.
    return rank - (1 << (rank.bit_length() - 1))


class _BcastState(SequenceState):
    """``started`` means joined (or the root's start); ``message`` is
    the payload once this NIC holds it."""

    __slots__ = ("message",)

    def __init__(self, seq: int):
        super().__init__(seq)
        self.message: Optional[BcastMsg] = None


class NicBroadcastEngine(SequenceEngine):
    """Per-(NIC, group) broadcast engine, rooted at rank 0.

    Registered under the group id like a barrier engine; a group object
    is dedicated to one collective (create one group per collective, as
    GM dedicates ports).  Delivered payloads stay resendable from the
    archive (the SRAM buffer pool of the multicast paper); a failed
    sequence archives whatever it held, possibly nothing.
    """

    counter_prefix = "bcast"
    budget_reason = FailureReason.BCAST_BUDGET.value
    start_commands = ("bcast_root", "join")

    def __init__(self, nic: "LanaiNic", group: ProcessGroup, rank: int):
        self.children = binomial_children(rank, group.size)
        self.parent = binomial_parent(rank, group.size)
        self.broadcasts_completed = 0
        super().__init__(nic, group, rank)

    def _new_state(self, seq: int) -> _BcastState:
        return _BcastState(seq)

    def _retained(self, state: _BcastState) -> Optional[BcastMsg]:
        return state.message

    def _awaiting(self, state: _BcastState) -> bool:
        return state.message is None

    def _on_begin(self, state: _BcastState, args: tuple) -> None:
        if args:
            # The root's host already DMAed the payload to SRAM.
            (message,) = args
            if self.rank != message.root:
                raise ValueError("bcast_root command at a non-root rank")
            state.message = message
        elif state.message is None:
            # A non-root host joined before the payload arrived.
            self._arm_nack_timer(state)

    def _progress(self, state: _BcastState):
        if state.message is None:
            return
        if self.parent is None:
            # The root forwards its own payload; interior ranks forward
            # on arrival (``on_bcast_packet``).
            yield from self._forward(state)
        yield from self._deliver(state)

    def on_bcast_packet(self, packet: Packet):
        message: BcastMsg = packet.payload
        nic = self.nic
        yield from nic.cpu_task(nic.params.t_coll_trigger)
        if self.closed and self._drops("closed", "arrival", "bcast.rx_after_revoke"):
            return
        if self._retired(message.seq) and self._drops(
            "retired", "arrival", "bcast.rx_duplicate"
        ):
            return
        state = self._state(message.seq)
        if state.message is not None and self._drops(
            "running", "stale_arrival", "bcast.rx_duplicate"
        ):
            return
        state.message = message
        state.cancel_timer()
        yield from self._forward(state)
        if state.started and SEQUENCE_AUTOMATON["running", "arrival"] == "run":
            yield from self._deliver(state)

    # ------------------------------------------------------------------
    def _forward(self, state: _BcastState):
        nic = self.nic
        message = state.message
        for child in self.children:
            yield from nic.coll_inject(
                self.group.node_of(child), message, message.size_bytes
            )
            nic.tracer.count("bcast.forwarded")

    def _deliver(self, state: _BcastState):
        # The join command and the payload arrival race across the
        # MCP's two loops; the commit delivers exactly once.
        if not self._commit(state):
            return
        nic = self.nic
        message = state.message
        if self.parent is not None and message.size_bytes > 0:
            from repro.pci import DmaDirection

            yield from nic.pci.dma(message.size_bytes, DmaDirection.NIC_TO_HOST)
        yield from nic.cpu_task(nic.params.t_coll_complete)
        self.broadcasts_completed += 1
        nic.tracer.count("bcast.delivered")
        self._retire(state)
        yield from nic.notify_host(
            BcastDone(
                self.group.group_id,
                message.seq,
                message.size_bytes,
                message.payload,
            )
        )

    # ------------------------------------------------------------------
    # Receiver-driven reliability
    # ------------------------------------------------------------------
    def _send_nacks(self, state: _BcastState):
        self.nic.tracer.count("bcast.nack_timeout")
        yield from self.nic.send_nack(
            self.group.node_of(self.parent),
            BcastNack(self.group.group_id, state.seq, self.rank),
        )

    def on_nack(self, packet: Packet):
        nack: BcastNack = packet.payload
        nic = self.nic
        yield from nic.cpu_task(nic.params.t_nack_process)
        if self.closed and self._drops("closed", "nack", "bcast.nack_after_revoke"):
            return
        state = self.states.get(nack.seq)
        if state is not None and state.message is not None:
            message = state.message
            nic.tracer.count("bcast.nack_retransmit")
        elif state is None and (
            SEQUENCE_AUTOMATON["retired", "nack"] == "resend_archive"
        ):
            # Already delivered and pruned: serve from the SRAM buffer
            # pool (the multicast paper's retained payloads).
            message = self.archive.get(nack.seq)
            if message is None:
                nic.tracer.count("bcast.nack_unrecoverable")
                return
            nic.tracer.count("bcast.nack_stale_resend")
        else:
            nic.tracer.count("bcast.nack_premature")
            return
        yield from nic.coll_inject(
            self.group.node_of(nack.requester), message, message.size_bytes
        )


# ----------------------------------------------------------------------
# Host-side entry points
# ----------------------------------------------------------------------
def post_broadcast_root(
    port: "GmPort", group: ProcessGroup, seq: int, size_bytes: int, payload: Any = None
):
    """Root side, non-blocking: push the payload to the NIC and start
    the broadcast without waiting for delivery."""
    from repro.pci import DmaDirection

    rank = group.rank_of(port.node_id)
    yield from port.cpu.compute(port.cpu.params.send_overhead_us)
    yield from port.pci.pio_write()
    if size_bytes > 0:
        yield from port.pci.dma(size_bytes, DmaDirection.HOST_TO_NIC)
    port.nic.post_engine_command(
        (
            group.group_id,
            "bcast_root",
            seq,
            BcastMsg(group.group_id, seq, rank, size_bytes, payload),
        )
    )


def post_broadcast_recv(port: "GmPort", group: ProcessGroup, seq: int):
    """Non-root side, non-blocking: join the broadcast."""
    yield from port.cpu.compute(port.cpu.params.recv_overhead_us)
    yield from port.pci.pio_write()
    port.nic.post_engine_command((group.group_id, "join", seq))


def nic_broadcast_root(
    port: "GmPort", group: ProcessGroup, seq: int, size_bytes: int, payload: Any = None
):
    """Root side: push the payload to the NIC and start the broadcast."""
    yield from post_broadcast_root(port, group, seq, size_bytes, payload)
    done = yield from wait_sequence(port, group, seq)
    return done


def nic_broadcast_recv(port: "GmPort", group: ProcessGroup, seq: int):
    """Non-root side: join the broadcast and wait for local delivery."""
    yield from post_broadcast_recv(port, group, seq)
    done = yield from wait_sequence(port, group, seq)
    return done
