"""Per-layer timing from outside: class-level wrappers on public functions.

:func:`install` replaces each listed method on its class with a wrapper
that counts calls and accumulates *self* time (duration minus the time of
wrapped calls made inside it).  The wrappers go in before any simulator or
service object is built, so constructors that bind methods once
(``OOOCore.run_span`` hoisting ``hierarchy.load``, ``CatchEngine.attach``
binding the TACT hooks) bind the wrappers and every call is seen.

Coarse layers (trace build, a whole simulation, a runner call, store and
cache I/O, journal appends, leases) are also recorded as spans — name,
start, end, parent layer and run id — in a :class:`repro.obs.TraceCollector`
kept in memory and written when the run ends.  Per-access layers (cache
levels, ring, DRAM, TACT, DDG) are aggregated only: a span per access would
hold millions of events in memory.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict

#: ``(layer, module, class, method, span)``: ``span`` marks coarse layers
#: recorded as trace spans besides the aggregate counters.
LAYERS = (
    ("workloads.build_trace", "repro.workloads.suites", "WorkloadSpec", "build", True),
    ("sim.run", "repro.sim.simulator", "Simulator", "run", True),
    ("cpu.run_span", "repro.cpu.core", "OOOCore", "run_span", True),
    ("caches.load", "repro.caches.hierarchy", "CacheHierarchy", "load", False),
    ("caches.store", "repro.caches.hierarchy", "CacheHierarchy", "store", False),
    ("caches.code_fetch", "repro.caches.hierarchy", "CacheHierarchy", "code_fetch", False),
    ("caches.prefetch", "repro.caches.hierarchy", "CacheHierarchy", "prefetch_l1", False),
    ("caches.prefetch", "repro.caches.hierarchy", "CacheHierarchy", "prefetch_l2", False),
    ("caches.fill", "repro.caches.cache", "Cache", "fill", False),
    ("interconnect.ring", "repro.interconnect.ring", "RingInterconnect", "request", False),
    ("interconnect.ring", "repro.interconnect.ring", "RingInterconnect", "data", False),
    ("memory.read", "repro.memory.controller", "MemoryController", "read", False),
    ("memory.write", "repro.memory.controller", "MemoryController", "write", False),
    ("core.tact", "repro.core.tact.coordinator", "TACTCoordinator", "on_load_execute", False),
    ("core.tact", "repro.core.tact.coordinator", "TACTCoordinator", "on_execute", False),
    ("core.ddg_add", "repro.core.ddg", "BufferedDDG", "add", False),
    ("runner.run", "repro.runner.runner", "ExperimentRunner", "run", True),
    ("runner.store_put", "repro.runner.store", "ResultStore", "put", True),
    ("runner.store_get", "repro.runner.store", "ResultStore", "get", True),
    ("cache.lookup", "repro.cache.result_cache", "ResultCache", "lookup", True),
    ("cache.put", "repro.cache.result_cache", "ResultCache", "put", True),
    ("service.journal_append", "repro.service.journal", "Journal", "append", True),
    ("service.queue_lease", "repro.service.queue", "JobQueue", "lease", False),
)

LAYER_NAMES = tuple(dict.fromkeys(layer for layer, *_ in LAYERS))

#: Span layers that can be the outermost wrapped call of a run; the
#: attribution report counts time under them as attributed.
TOP_LEVEL = ("workloads.build_trace", "sim.run", "runner.run")


class _ThreadState:
    __slots__ = ("stack", "calls", "self_s", "run_id")

    def __init__(self) -> None:
        self.stack: list[list] = []   # [layer, child_seconds]
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.run_id = ""


class LayerClock:
    """Call counts, self time and coarse spans for the wrapped layers.

    State is per thread (the daemon runs HTTP handlers, an executor and a
    housekeeping thread at once) and merged by :meth:`totals`.
    """

    def __init__(self, collector) -> None:
        self.collector = collector
        self._tls = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self.lease_hits = 0

    def _state(self) -> _ThreadState:
        try:
            return self._tls.state
        except AttributeError:
            state = _ThreadState()
            self._tls.state = state
            with self._lock:
                self._states.append(state)
            return state

    def set_run(self, run_id: str) -> None:
        """Tag later spans of this thread with ``run_id``."""
        self._state().run_id = run_id

    def wrap(self, cls: type, method: str, layer: str, span: bool) -> None:
        fn = getattr(cls, method)
        # A runner call names its own run: (config, workload, n_instrs).
        tags_run = layer == "runner.run"
        clock = time.perf_counter
        state_of = self._state
        collector = self.collector
        now_us = collector.now_us
        is_lease = layer == "service.queue_lease"

        def wrapper(*args, **kwargs):
            st = state_of()
            if tags_run:
                st.run_id = f"{args[1].name}|{args[2]}"
            stack = st.stack
            frame = [layer, 0.0]
            stack.append(frame)
            start_us = now_us() if span else 0.0
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                st.self_s[layer] += dur - frame[1]
                st.calls[layer] += 1
                if stack:
                    stack[-1][1] += dur
                if span:
                    collector.complete(
                        layer,
                        start_us,
                        dur * 1e6,
                        cat="bench",
                        args={
                            "parent": stack[-1][0] if stack else "",
                            "run": st.run_id,
                        },
                        tid=threading.get_ident() % 1_000_000,
                    )
            if is_lease and result is not None:
                with self._lock:
                    self.lease_hits += 1
            return result

        setattr(cls, method, functools.update_wrapper(wrapper, fn))

    def totals(self) -> tuple[dict[str, int], dict[str, float]]:
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        with self._lock:
            states = list(self._states)
        for st in states:
            for layer, n in list(st.calls.items()):
                calls[layer] += n
            for layer, s in list(st.self_s.items()):
                self_s[layer] += s
        return dict(calls), dict(self_s)



def layer_metrics(calls: dict[str, int], self_s: dict[str, float]) -> dict[str, float]:
    """``<layer>_calls``, ``_self_s`` and ``_ns_per_call`` for every layer."""
    out: dict[str, float] = {}
    for layer in LAYER_NAMES:
        n = calls.get(layer, 0)
        s = self_s.get(layer, 0.0)
        out[f"{layer}_calls"] = n
        out[f"{layer}_self_s"] = s
        out[f"{layer}_ns_per_call"] = s * 1e9 / n if n else 0.0
    return out


def install(collector) -> LayerClock:
    """Wrap every layer in :data:`LAYERS`; returns the clock recording them."""
    import importlib

    clock = LayerClock(collector)
    for layer, module, cls_name, method, span in LAYERS:
        cls = getattr(importlib.import_module(module), cls_name)
        clock.wrap(cls, method, layer, span)
    return clock


def top_level_intervals(events: list[dict], names=TOP_LEVEL) -> list[tuple[float, float]]:
    """``(start_us, end_us)`` of spans with no wrapped parent."""
    return [
        (e["ts"], e["ts"] + e["dur"])
        for e in events
        if e.get("ph") == "X"
        and e["name"] in names
        and not (e.get("args") or {}).get("parent")
    ]


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    end = lo
    for start, stop in sorted(intervals):
        start = max(start, end)
        stop = min(stop, hi)
        if stop > start:
            total += stop - start
            end = stop
    return total
