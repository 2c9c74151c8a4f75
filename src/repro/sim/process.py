"""Generator-based cooperative processes.

A process is a Python generator driven by the simulator.  It may yield:

- a ``float``/``int`` — sleep that many microseconds;
- a :class:`~repro.sim.events.SimEvent` — wait for it (the event's value
  is sent back into the generator; a failed event is *thrown* in);
- another :class:`Process` — join it (waits on its ``completion`` event).

The NIC control programs, host programs, DMA engines and switches in this
reproduction are all written as processes.
"""

from __future__ import annotations

import weakref
from typing import Any, Generator, Optional

from repro.sim.engine import Simulator
from repro.sim.events import PROCESSED, SimEvent, Timeout


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    ``cause`` carries caller-supplied context (e.g. "link went down").
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Process:
    """A running simulation process.

    Attributes
    ----------
    completion:
        Event that succeeds with the generator's return value, or fails
        with its exception.  Yield the process (or this event) to join.
    """

    __slots__ = (
        "sim", "name", "_gen", "completion", "_waiting_on", "_resume_handle",
        "_step_cb", "__weakref__",
    )

    def __init__(self, sim: Simulator, gen: Generator, name: Optional[str] = None):
        if not hasattr(gen, "send"):
            raise TypeError(f"Process needs a generator, got {gen!r}")
        self.sim = sim
        self.name = name or getattr(gen, "__name__", "process")
        self._gen = gen
        self.completion = SimEvent(sim, name=f"{self.name}.completion")
        self._waiting_on: Optional[SimEvent] = None
        # Every resume and every event wait passes this bound method to
        # the scheduler or the event; binding it once here turns
        # millions of per-yield bound-method allocations into attribute
        # loads.
        self._step_cb = self._step
        self._resume_handle = sim.schedule(0.0, self._step_cb)
        registry = sim._process_registry
        if registry is not None:
            registry.append(weakref.ref(self))

    # ------------------------------------------------------------------
    @property
    def alive(self) -> bool:
        return not self.completion.triggered

    @property
    def waiting_on(self) -> Optional[SimEvent]:
        """The event this process is currently blocked on (None when it
        is scheduled to resume, e.g. mid-sleep, or finished)."""
        return self._waiting_on

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a finished process is a no-op (it can no longer
        observe anything).  The event it was waiting on keeps running;
        the process may re-wait on it after handling the interrupt.
        """
        if not self.alive:
            return
        if self._waiting_on is not None:
            self._waiting_on.remove_callback(self._step_cb)
            self._waiting_on = None
        if self._resume_handle is not None:
            self._resume_handle.cancel()
        self._resume_handle = self.sim.schedule(
            0.0, self._step_cb, None, Interrupt(cause)
        )

    # ------------------------------------------------------------------
    def _step(
        self, ev: Optional[SimEvent] = None, exc: Optional[BaseException] = None
    ) -> None:
        """Resume the generator and run it to its next blocking yield.

        Called with nothing (start, end of a sleep), with ``exc`` (an
        interrupt), or as the callback of the event the process waits
        on.  One frame per resume: the drive loop lives here, and event
        state is read from the slots rather than through the properties.
        """
        self._resume_handle = None
        value = None
        if ev is not None:
            self._waiting_on = None
            if ev._ok:
                value = ev._value
            else:
                ev.defuse()
                exc = ev._value
        # Event callbacks can run another process's _step synchronously
        # (e.g. a succeed() inside this generator), so the active-process
        # marker nests: save, set, restore on every exit.
        sim = self.sim
        prev_active = sim._active_process
        sim._active_process = self
        gen = self._gen
        try:
            while True:
                try:
                    if exc is not None:
                        target = gen.throw(exc)
                    else:
                        target = gen.send(value)
                except StopIteration as stop:
                    self.completion.succeed(stop.value)
                    return
                except BaseException as err:
                    self.completion.fail(err)
                    return

                value, exc = None, None
                cls = type(target)
                if cls is float or cls is int:
                    # Fast path for the dominant yield: a plain sleep.
                    # Scheduling the generator resume directly skips the
                    # Timeout event, its callback registration, and the
                    # extra event-processing hop — same resume time, same
                    # FIFO position (one scheduled call either way).
                    if target < 0:
                        # Thrown into the generator (like a bad yield), so
                        # the error fails ``completion`` instead of
                        # escaping into the run loop.
                        exc = ValueError(f"negative timeout {target!r}")
                        continue
                    self._resume_handle = sim.schedule(target, self._step_cb)
                    return
                if not isinstance(target, SimEvent):
                    if isinstance(target, (int, float)):
                        # Numeric subclasses (e.g. numpy scalars, bool)
                        # take the generic event path.
                        if target < 0:
                            exc = ValueError(f"negative timeout {target!r}")
                            continue
                        target = Timeout(sim, float(target))
                    elif isinstance(target, Process):
                        target = target.completion
                    else:
                        exc = TypeError(
                            f"process {self.name!r} yielded {target!r}; "
                            "expected an event, a delay, or a process"
                        )
                        continue
                if target._state is PROCESSED:
                    # Already resolved: consume its value/failure
                    # immediately (stay inside this loop; no extra
                    # scheduler hop).
                    if target._ok:
                        value = target._value
                    else:
                        target.defuse()
                        exc = target._value
                    continue
                self._waiting_on = target
                # Single-waiter slot filled inline (add_callback's
                # common case); anything else takes the general path.
                if target._cb1 is None and target._callbacks is None:
                    target._cb1 = self._step_cb
                else:
                    target.add_callback(self._step_cb)
                return
        finally:
            sim._active_process = prev_active

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self.alive else "done"
        return f"<Process {self.name} {state}>"
