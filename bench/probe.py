"""Spans around the program's public calls, and a SIGPROF layer sampler.

Both live outside the program: spans wrap public functions from the
benchmark's side, and the sampler attributes host CPU time to the
innermost ``repro.<package>`` frame on the stack.  Nothing under
``src/`` is changed.

A stdlib ``SIGPROF`` sampler is used instead of cProfile because
cProfile charges every Python call, which multiplies wall time several
times over and inflates the call-heavy layers (kernel, MCP generators)
relative to the rest.
"""

from __future__ import annotations

import signal
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from functools import wraps

#: Packages whose self time is reported by name (``tools.X`` is
#: reported as ``X``).  Any other ``repro`` package lands in ``other``;
#: samples whose innermost known frame is the benchmark's own code, or
#: with no ``repro`` frame at all, land in ``harness``.
LAYERS = (
    "sim", "network", "myrinet", "quadrics", "pci", "host", "collectives",
    "mpi", "workload", "cluster", "topology",
    "runcache", "audit", "simlint", "chaos",
)
BENCH_MODULES = frozenset({"__main__", "probe", "suite", "workloads"})
SAMPLE_INTERVAL_S = 0.001


def layer_of(module: str) -> str:
    """``repro.tools.simlint.perturb`` -> ``simlint``; ``repro.sim.engine``
    -> ``sim``; anything outside ``LAYERS`` -> ``other``."""
    parts = module.split(".")
    name = parts[2] if len(parts) > 2 and parts[1] == "tools" else parts[1]
    return name if name in LAYERS else "other"


class Probe:
    """Per-batch span totals, counters of the clusters calls build, and
    stack samples."""

    def __init__(self):
        self.spans: defaultdict[str, float] = defaultdict(float)
        self.samples: Counter = Counter()
        #: ``(cluster, totals)`` callback that sums a finished cluster's
        #: counters; set by the workloads.
        self.count_cluster = None
        #: Where finished clusters are counted; ``None`` while the
        #: clusters being built should not be counted (replays).
        self.totals: Counter | None = None
        self._pending = None
        self._layer_cache: dict[str, str] = {}
        #: While set, samples are dropped (work the batch's wall time
        #: excludes, such as the warm reads).
        self.paused = False

    # -- spans -----------------------------------------------------------
    @contextmanager
    def span(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans[name] += time.perf_counter() - start

    def reset_spans(self) -> dict[str, float]:
        spans, self.spans = dict(self.spans), defaultdict(float)
        return spans

    def settle(self) -> None:
        """Count the last cluster built.  Call once its simulation ended.

        Only that one cluster is kept alive, so peak memory stays that of
        an uninstrumented run.  This relies on each public call finishing
        a cluster before it builds the next, which ``run_workload`` (its
        silent baselines, then the shared run) and ``run_fuzz_case`` do.
        """
        if self._pending is not None:
            self.count_cluster(self._pending, self.totals)
            self._pending = None

    def instrument(self, func, name: str, capture: bool = False) -> int:
        """Replace ``func`` by a timing wrapper in every loaded ``repro``
        module that holds it, so calls made inside the program are timed
        too.  With ``capture`` the return value (a cluster) is kept for
        counter reads (see :meth:`settle`).  Returns how many bindings
        were replaced; zero means the program no longer exposes ``func``
        where it used to.
        """
        probe = self

        @wraps(func)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                probe.spans[name] += time.perf_counter() - start
            if capture:
                probe.settle()
                if probe.totals is not None:
                    probe._pending = result
            return result

        replaced = 0
        for modname, module in list(sys.modules.items()):
            if not (modname == "repro" or modname.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is func:
                    setattr(module, attr, wrapper)
                    replaced += 1
        return replaced

    # -- sampler ---------------------------------------------------------
    def _on_sample(self, signum, frame) -> None:
        if self.paused:
            return
        cache = self._layer_cache
        while frame is not None:
            module = frame.f_globals.get("__name__", "")
            if module.startswith("repro."):
                layer = cache.get(module)
                if layer is None:
                    layer = cache[module] = layer_of(module)
                self.samples[layer] += 1
                return
            if module in BENCH_MODULES:
                break
            frame = frame.f_back
        self.samples["harness"] += 1

    @contextmanager
    def sampling(self):
        """Sample the stack every millisecond of process CPU time."""
        previous = signal.signal(signal.SIGPROF, self._on_sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
            signal.signal(signal.SIGPROF, previous)
