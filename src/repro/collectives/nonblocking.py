"""Non-blocking collective host APIs (MPI-3 style ``i``-collectives).

Every blocking collective in the suite splits into a *post* half (push
the contribution over the PCI bus, one PIO to start the NIC engine)
and a *wait* half (match the completion event in the receive-event
queue).  The NIC engines already run each sequence as independent
per-seq state, so several collectives per group are genuinely in
flight at once — posting three allreduces costs three doorbells, and
the NIC pipelines them while the host computes.

``nic_i*`` starters return a :class:`CollectiveRequest`:

- ``request.wait()``   — generator; blocks until the collective
  finishes, returns its result, raises
  :class:`~repro.collectives.data_engine.CollectiveFailure` /
  :class:`~repro.collectives.messages.BarrierFailure` on typed failure;
- ``request.test()``   — generator; one non-blocking poll of the event
  queue, returns ``True`` once the completion has been consumed (the
  result is then in ``request.result``).  Failures raise from ``test``
  exactly as from ``wait``.
- ``request.busy_wait()`` — generator; the host spins on ``test`` until
  the collective completes and returns its result.  It is exactly
  ``while not (yield from r.test()): pass`` (same outcome, end time and
  host busy time) but parks between arrivals at the event queue
  instead of simulating every empty poll.  Unlike ``wait`` it pays the
  poll cost on the host CPU the whole time, which is what a process
  spinning on a completion flag does.

Calling ``wait`` after the request completed (or after a successful
``test``) returns the stored result without touching the event queue,
so ``while not (yield from r.test()): ...`` followed by ``r.wait()``
is safe.

Usage (inside a simulated host process)::

    r1 = yield from nic_iallreduce(port, group_a, seq, value)
    r2 = yield from nic_ibarrier(port, group_b, seq)
    ... overlap computation ...
    total = yield from r1.wait()
    yield from r2.wait()
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Mapping, Optional

from repro.collectives.allgather import BYTES_PER_VALUE
from repro.collectives.alltoall import BYTES_PER_BLOCK
from repro.collectives.broadcast import post_broadcast_recv, post_broadcast_root
from repro.collectives.data_engine import host_post_data_collective
from repro.collectives.group import ProcessGroup
from repro.collectives.myrinet_engines import post_barrier
from repro.collectives.sequence import interpret_outcome, sequence_matcher

if TYPE_CHECKING:  # pragma: no cover
    from repro.myrinet.gm_api import GmPort


class CollectiveRequest:
    """Handle for one in-flight non-blocking collective."""

    def __init__(
        self,
        port: "GmPort",
        collective: str,
        group: ProcessGroup,
        seq: int,
        transform: Optional[Callable[[Any], Any]] = None,
    ):
        self.port = port
        self.collective = collective
        self.group = group
        self.seq = seq
        self._matcher = sequence_matcher(group, seq)
        self._transform = transform
        self.done = False
        self.result: Any = None
        #: Typed failure the collective resolved to (``Revoked``,
        #: ``CollectiveFailure``, ``BarrierFailure`` ...); re-raised on
        #: every subsequent ``wait``/``test`` so the verdict is never
        #: silently swallowed by a repeat call.
        self.failure: Optional[Exception] = None

    def _settle(self, event: Any) -> None:
        self.done = True
        # The interpreter may raise a typed failure; the request still
        # counts as settled (waiting again would hang on a consumed
        # event), so mark done first.
        try:
            result = interpret_outcome(event, self.port.node_id)
        except Exception as exc:
            self.failure = exc
            raise
        self.result = result if self._transform is None else self._transform(result)

    def wait(self):
        """Block until the collective completes; returns its result."""
        if not self.done:
            self._settle((yield from self.port.recv_matching(self._matcher)))
        elif self.failure is not None:
            raise self.failure
        return self.result

    def test(self):
        """One non-blocking poll: ``True`` iff the collective has
        completed (its result is then in ``self.result``)."""
        if not self.done:
            event = yield from self.port.poll_matching(self._matcher)
            if event is None:
                return False
            self._settle(event)
        elif self.failure is not None:
            raise self.failure
        return True

    def busy_wait(self):
        """Spin until the collective completes; returns its result.

        Exactly ``while not (yield from self.test()): pass`` — the same
        outcome, end time and host busy time, failures raised the same
        way — but the empty polls between two arrivals at the host
        event queue are not simulated one by one
        (:meth:`repro.host.HostCpu.busy_poll`).
        """
        if not self.done:
            self._settle((yield from self.port.busy_poll_matching(self._matcher)))
        elif self.failure is not None:
            raise self.failure
        return self.result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = "done" if self.done else "in-flight"
        return (
            f"<CollectiveRequest {self.collective} group={self.group.group_id}"
            f" seq={self.seq} {status}>"
        )


# ----------------------------------------------------------------------
# Starters
# ----------------------------------------------------------------------
def nic_ibarrier(port: "GmPort", group: ProcessGroup, seq: int):
    """Post a barrier; returns a request whose result is the
    BarrierDone event."""
    yield from post_barrier(port, group, seq)
    return CollectiveRequest(port, "barrier", group, seq)


def nic_iallgather(port: "GmPort", group: ProcessGroup, seq: int, value: Any):
    """Post an allgather; the result is ``{rank: value}``."""
    yield from host_post_data_collective(
        port, group, seq, (value,), contribute_bytes=BYTES_PER_VALUE
    )
    return CollectiveRequest(port, "allgather", group, seq, transform=dict)


def nic_iallreduce(
    port: "GmPort", group: ProcessGroup, seq: int, value: Any, op: str = "sum"
):
    """Post an allreduce; the result is the reduced value."""
    yield from host_post_data_collective(
        port, group, seq, (value, op), contribute_bytes=BYTES_PER_VALUE
    )
    return CollectiveRequest(port, "allreduce", group, seq)


def nic_ireduce(
    port: "GmPort",
    group: ProcessGroup,
    seq: int,
    value: Any,
    op: str = "sum",
    root: int = 0,
):
    """Post a rooted reduce; the root's result is the reduced value,
    every other rank's is ``None``."""
    yield from host_post_data_collective(
        port, group, seq, (value, op), contribute_bytes=BYTES_PER_VALUE
    )
    return CollectiveRequest(port, "reduce", group, seq)


def nic_ialltoall(
    port: "GmPort", group: ProcessGroup, seq: int, blocks: Mapping[int, Any]
):
    """Post an alltoall; the result is ``{origin_rank: block}``."""
    if set(blocks) != set(range(group.size)):
        raise ValueError(
            f"alltoall needs one block per destination rank; got {sorted(blocks)}"
        )
    yield from host_post_data_collective(
        port, group, seq, (dict(blocks),),
        contribute_bytes=BYTES_PER_BLOCK * group.size,
    )
    return CollectiveRequest(port, "alltoall", group, seq, transform=dict)


def nic_ibcast(
    port: "GmPort",
    group: ProcessGroup,
    seq: int,
    size_bytes: int = 0,
    payload: Any = None,
    root: int = 0,
):
    """Post a broadcast (root pushes the payload, non-roots join); the
    result is the BcastDone event carrying the payload."""
    rank = group.rank_of(port.node_id)
    if rank == root:
        yield from post_broadcast_root(port, group, seq, size_bytes, payload)
    else:
        yield from post_broadcast_recv(port, group, seq)
    return CollectiveRequest(port, "bcast", group, seq)
