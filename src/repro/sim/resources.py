"""Synchronization primitives: resources and item stores.

- :class:`Resource` — counted semaphore with a FIFO wait queue.  Models
  serialized hardware: a PCI bus, a DMA engine, a switch output port.
- :class:`ArbitratedResource` — counted semaphore whose same-instant
  grants are *arbitrated* one delta phase later in canonical key order,
  not first-come-first-served on the event heap.  Models serialized
  hardware with a defined service priority among concurrent clients —
  the LANai processor polled by five control-program loops.
- :class:`Store` — FIFO item queue with blocking ``get`` (and blocking
  ``put`` when capacity-bounded).  Models token queues, event queues and
  packet FIFOs.
- :class:`PriorityStore` — like Store but items are retrieved lowest
  priority value first (stable for equal priorities).
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Optional

from repro.sim.engine import Simulator
from repro.sim.events import SimEvent


class Resource:
    """A counted resource with FIFO granting.

    Usage from a process::

        req = resource.request()
        yield req
        ... critical section ...
        resource.release()

    A pending (ungranted) request can be cancelled with
    :meth:`cancel_request`.
    """

    def __init__(self, sim: Simulator, capacity: int = 1, name: Optional[str] = None):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name or "resource"
        self._req_name = self.name + ".request"
        self._in_use = 0
        self._waiters: deque[SimEvent] = deque()

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    def request(self) -> SimEvent:
        ev = SimEvent(self.sim, name=self._req_name)
        if self._in_use < self.capacity:
            self._in_use += 1
            ev.succeed(self)
        else:
            self._waiters.append(ev)
        return ev

    def try_acquire(self) -> bool:
        """Claim a unit synchronously if one is free (no event, no wait).

        The fabric's uncontended-delivery fast path uses this; pair every
        successful call with :meth:`release`.
        """
        if self._in_use < self.capacity:
            self._in_use += 1
            return True
        return False

    def cancel_request(self, ev: SimEvent) -> bool:
        """Withdraw a still-queued request.  Returns True if it was queued."""
        try:
            self._waiters.remove(ev)
            return True
        except ValueError:
            return False

    def release(self) -> None:
        if self._in_use <= 0:
            raise RuntimeError(f"{self.name}: release without matching request")
        if self._waiters:
            nxt = self._waiters.popleft()
            nxt.succeed(self)  # usage count carries over to the waiter
        else:
            self._in_use -= 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Resource {self.name} {self._in_use}/{self.capacity}"
            f" queued={len(self._waiters)}>"
        )


class ArbitratedResource:
    """A counted resource with deterministic same-instant arbitration.

    :class:`Resource` grants in request order — which, for requests made
    at the same timestamp by different processes, is event-heap pop
    order: a schedule race (simlint SL101) when the grant order affects
    anything observable.  Here every request pools up and a decision
    pass runs one delta phase later (zero simulated time), granting free
    units in ``(birth phase, key)`` order — the same scheme the fabric's
    :class:`~repro.network.fabric.LinkArbiter` uses for link bandwidth.

    ``key_fn`` maps the requesting process's name to an orderable key
    (default: the name itself); it defines the hardware's service
    priority among same-instant contenders.  It must be a pure function
    of the name: its result is cached per name, so it runs once per
    process name, not once per request.  Requests made outside any
    process must pass an explicit ``key``.

    The interface matches :class:`Resource` (``request``/``release``/
    ``cancel_request``/``in_use``), so the quiescence auditor and
    ``yield resource.request()`` call sites work unchanged — but note a
    granted request resolves one delta phase after it is made, never
    synchronously.
    """

    def __init__(
        self,
        sim: Simulator,
        capacity: int = 1,
        name: Optional[str] = None,
        key_fn=None,
    ):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name or "resource"
        self._req_name = self.name + ".request"
        self._key_fn = key_fn
        self._keys: dict[str, Any] = {}  # process name -> key_fn(name)
        self._in_use = 0
        # Heap of [birth_phase, key, n, event]; ``n`` separates requests
        # with identical keys and keeps the comparison off the event.
        # Entries are lists so a withdrawn request is cancelled in place
        # (event slot set to None) in O(1) — the same lazy-cancellation
        # scheme as the event kernel's calendar queue — instead of the
        # old remove-and-reheapify O(n) scan.
        self._pending: list[list] = []
        self._entry_of: dict[SimEvent, list] = {}
        self._abandoned = 0
        self._n = 0
        self._pass_phase = -1  # armed pass's phase; -1 when unarmed

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._pending) - self._abandoned

    def request(self, key: Any = None) -> SimEvent:
        sim = self.sim
        if key is None:
            proc = sim._active_process
            if proc is None:
                raise RuntimeError(
                    f"{self.name}: request outside a process needs an "
                    "explicit arbitration key"
                )
            name = proc.name
            if self._key_fn is None:
                key = name
            else:
                try:
                    key = self._keys[name]
                except KeyError:
                    key = self._keys[name] = self._key_fn(name)
        ev = SimEvent(sim, name=self._req_name)
        birth = sim._phase
        self._n = n = self._n + 1
        entry = [birth, key, n, ev]
        heapq.heappush(self._pending, entry)
        self._entry_of[ev] = entry
        # _ensure_pass(birth + 1), inlined.
        if self._pass_phase <= birth:
            self._pass_phase = birth + 1
            sim.schedule_phase(birth + 1, self._pass, birth + 1)
        return ev

    def cancel_request(self, ev: SimEvent) -> bool:
        """Withdraw a still-pending request.  Returns True if it was
        pending (a cancelled entry is skipped by the decision pass)."""
        entry = self._entry_of.pop(ev, None)
        if entry is None or ev.triggered:
            return False
        entry[3] = None
        self._abandoned += 1
        return True

    def release(self) -> None:
        if self._in_use <= 0:
            raise RuntimeError(f"{self.name}: release without matching request")
        self._in_use -= 1
        if self._pending:
            self._ensure_pass(self.sim._phase + 1)

    def _ensure_pass(self, phase: int) -> None:
        # An armed pass always fires at the instant it was armed (see
        # LinkArbiter._ensure_pass), so the guard needs no time component.
        if self._pass_phase >= phase:
            return
        self._pass_phase = phase
        self.sim.schedule_phase(phase, self._pass, phase)

    def _pass(self, phase: int) -> None:
        self._pass_phase = -1
        pending = self._pending
        while pending:
            if pending[0][3] is None:  # cancelled in place: reap lazily
                heapq.heappop(pending)
                self._abandoned -= 1
                continue
            if not (self._in_use < self.capacity and pending[0][0] < phase):
                break
            entry = heapq.heappop(pending)
            ev = entry[3]
            del self._entry_of[ev]
            self._in_use += 1
            ev.succeed(self)
        if pending and self._in_use < self.capacity:
            # Only same-phase births remain; decide them next phase so
            # no same-instant contender is missed.
            self._ensure_pass(phase + 1)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ArbitratedResource {self.name} {self._in_use}/{self.capacity}"
            f" pending={len(self._pending)}>"
        )


class Store:
    """FIFO item store with blocking get/put semantics.

    ``put`` returns an event that succeeds once the item is accepted
    (immediately unless the store is at capacity).  ``get`` returns an
    event that succeeds with the item.
    """

    def __init__(
        self,
        sim: Simulator,
        capacity: float = float("inf"),
        name: Optional[str] = None,
    ):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name or "store"
        self._put_name = self.name + ".put"
        self._get_name = self.name + ".get"
        self._items: deque[Any] = deque()
        self._getters: deque[SimEvent] = deque()
        self._putters: deque[tuple[SimEvent, Any]] = deque()

    # -- introspection --------------------------------------------------
    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> tuple:
        return tuple(self._items)

    @property
    def getters_waiting(self) -> int:
        return len(self._getters)

    # -- storage policy hooks (overridden by PriorityStore) --------------
    def _do_put(self, item: Any) -> None:
        self._items.append(item)

    def _do_get(self) -> Any:
        return self._items.popleft()

    # -- operations ------------------------------------------------------
    def put(self, item: Any) -> SimEvent:
        ev = SimEvent(self.sim, name=self._put_name)
        if len(self._items) < self.capacity:
            self._do_put(item)
            ev.succeed(item)
            self._serve_getters()
        else:
            self._putters.append((ev, item))
        return ev

    def get(self) -> SimEvent:
        ev = SimEvent(self.sim, name=self._get_name)
        if self._items:
            ev.succeed(self._do_get())
            self._admit_putters()
        else:
            self._getters.append(ev)
        return ev

    def try_get(self) -> Any:
        """Non-blocking get; returns the item or ``None`` when empty.

        Only safe when no getter is queued (NIC poll loops use this on
        queues they exclusively consume).
        """
        if self._getters:
            raise RuntimeError(f"{self.name}: try_get while getters are waiting")
        if not self._items:
            return None
        item = self._do_get()
        self._admit_putters()
        return item

    def cancel_get(self, ev: SimEvent) -> bool:
        try:
            self._getters.remove(ev)
            return True
        except ValueError:
            return False

    # -- internals ---------------------------------------------------------
    def _serve_getters(self) -> None:
        while self._getters and self._items:
            getter = self._getters.popleft()
            getter.succeed(self._do_get())

    def _admit_putters(self) -> None:
        while self._putters and len(self._items) < self.capacity:
            ev, item = self._putters.popleft()
            self._do_put(item)
            ev.succeed(item)
            self._serve_getters()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name} items={len(self._items)}>"


class PriorityStore(Store):
    """A store whose ``get`` returns the lowest-priority item first.

    Items are pushed as ``put((priority, item))`` or via
    :meth:`put_item`; ``get`` yields the bare item.  Ties are FIFO.
    """

    def __init__(
        self,
        sim: Simulator,
        capacity: float = float("inf"),
        name: Optional[str] = None,
    ):
        super().__init__(sim, capacity, name)
        self._heap: list[tuple[float, int, Any]] = []
        self._seq = 0
        self._items = self._heap  # len()/bool checks reuse Store's logic

    def put_item(self, item: Any, priority: float = 0.0) -> SimEvent:
        return self.put((priority, item))

    def _do_put(self, pair: Any) -> None:
        priority, item = pair
        self._seq += 1
        heapq.heappush(self._heap, (priority, self._seq, item))

    def _do_get(self) -> Any:
        return heapq.heappop(self._heap)[2]

    @property
    def items(self) -> tuple:
        return tuple(item for _, _, item in sorted(self._heap))
