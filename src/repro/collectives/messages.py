"""Wire messages and host notifications for the NIC collectives."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True)
class BarrierMsg:
    """One barrier message.

    The paper: "all the information a barrier message needs to carry
    along is an integer" — here split into its semantic parts (group,
    barrier sequence number, sender rank, phase index) for clarity; on
    the wire it is priced as the 4-byte pad of the static packet.
    """

    group_id: int
    seq: int
    sender: int  # rank within the group
    phase: int


@dataclass(frozen=True)
class BarrierNack:
    """Receiver-driven retransmission request (§6.3).

    Sent by a receiver whose expected barrier message has not arrived
    within the timeout; asks ``missing_sender`` to retransmit its
    phase-``phase`` message of barrier ``seq``.
    """

    group_id: int
    seq: int
    phase: int
    missing_sender: int  # rank whose message went missing
    requester: int  # rank asking for the retransmission


@dataclass(frozen=True)
class BarrierDone:
    """Completion notification the NIC DMAs to the host."""

    group_id: int
    seq: int
    completed_at: float
    payload: Any = None


@dataclass(frozen=True)
class BarrierFailed:
    """Failure notification the NIC DMAs to the host.

    Raised to the host as :class:`BarrierFailure` — the typed
    escalation surface for retry-budget exhaustion, peer death, and NIC
    restarts.  A NIC that posts this has already torn down the
    barrier's volatile state (record, timers, pool units), so the
    failure never leaks resources.
    """

    group_id: int
    seq: int
    reason: str
    failed_at: float


class BarrierFailure(RuntimeError):
    """A barrier operation gave up instead of hanging.

    Carried out of the host-side barrier call when the NIC (or the
    Elite hardware-barrier path with fallback disabled) exhausted its
    retry budget.
    """

    def __init__(self, group_id: int, seq: int, reason: str, node: int = -1):
        super().__init__(
            f"barrier seq={seq} group={group_id} failed at node {node}: {reason}"
        )
        self.group_id = group_id
        self.seq = seq
        self.reason = reason
        self.node = node


@dataclass(frozen=True)
class DataCollDone:
    """Host notification carrying a data collective's result."""

    group_id: int
    seq: int
    result: Any


@dataclass(frozen=True)
class DataCollFailed:
    """Failure notification for a data collective or a broadcast.

    Posted when the engine detects an unrecoverable protocol violation
    (e.g. ranks disagreeing on the Allreduce operator) or gives up on a
    retransmission budget.  The NIC has already torn the sequence's
    state down; the host side raises it as :class:`CollectiveFailure`.
    """

    group_id: int
    seq: int
    reason: str
    failed_at: float


@dataclass(frozen=True)
class BcastDone:
    """Host notification: the broadcast payload reached this node's memory."""

    group_id: int
    seq: int
    size_bytes: int
    payload: Any = None


class CollectiveFailure(BarrierFailure):
    """A data collective gave up instead of hanging — same typed
    escalation surface as :class:`BarrierFailure`, so existing handlers
    catch both."""
