"""In-order front end: next-instruction-pointer logic and the code L1 path.

The front end fetches instruction bytes through the code L1.  Sequential
fetch within a cache line is pipelined and free; a code L1 miss stalls the
whole in-order front end for the miss latency, exactly the behaviour
TACT-Code attacks (Section IV-B2).  A branch mispredict redirects fetch and
charges the machine's refill penalty on top of the resolving branch's
execute time (the DDG's E-D edge).

The front end exposes an ``on_code_miss`` callback so TACT-Code can run its
CNPIP runahead during the stall window.
"""

from __future__ import annotations

from typing import Callable

from ..caches.hierarchy import CacheHierarchy, Level
from ..workloads.trace import LINE_SHIFT, Instr


class FrontEnd:
    """Per-core fetch timing model.

    Args:
        core: core id.
        hierarchy: shared cache hierarchy (provides ``code_fetch``).
        fetch_width: instructions fetched per cycle (matches dispatch width).
    """

    def __init__(self, core: int, hierarchy: CacheHierarchy, fetch_width: int = 4) -> None:
        self.core = core
        self.hierarchy = hierarchy
        self.fetch_width = fetch_width
        self._current_line = -1
        self._ready = 0.0          #: time the next fetch may complete
        self.code_stall_cycles = 0.0
        self.code_misses = 0
        #: Oracle mode (Fig 5 study): all code fetches hit the L1I for free.
        self.perfect_code = False
        #: Optional hook: ``(instr_idx, now, stall_cycles)`` on code L1 miss.
        self.on_code_miss: Callable[[int, float, float], None] | None = None

    def redirect(self, resume_time: float) -> None:
        """Branch mispredict: fetch restarts at ``resume_time``."""
        self._ready = max(self._ready, resume_time)
        self._current_line = -1  # redirect refetches the target line

    def fetch_time(self, idx: int, instr: Instr, pipeline_time: float) -> float:
        """Earliest dispatch time for instruction ``idx`` due to the front end.

        Args:
            idx: dynamic instruction index.
            instr: the instruction being fetched.
            pipeline_time: the back end's current in-order dispatch time; code
                accesses are timed against it (fetch runs just ahead of
                dispatch in a balanced pipeline).

        :meth:`repro.cpu.core.OOOCore.run_span` inlines the same-line case
        (``pc >> LINE_SHIFT == _current_line``: no code access, no stall),
        so a change to it must be made there too.
        """
        ready = self._ready
        t = ready if ready >= pipeline_time else pipeline_time
        if self.perfect_code:
            self._ready = t
            return t
        line = instr.pc >> LINE_SHIFT  # Instr.code_line, sans property call
        if line != self._current_line:
            hierarchy = self.hierarchy
            result = hierarchy.code_fetch(self.core, line, t)
            # Baseline next-line instruction prefetch (standard in modern
            # front ends): sequential fetch within a block never stalls twice.
            hierarchy.prefetch_l1(self.core, line + 1, t, code=True)
            self._current_line = line
            hit_lat = hierarchy.l1i[self.core].latency
            if result.level is not Level.L1:
                stall = result.latency
            elif result.inflight:
                # Racing an in-flight fill: only the residual beyond the
                # pipelined hit latency stalls the front end.
                stall = max(0.0, result.latency - hit_lat)
            else:
                stall = 0.0
            if stall > 0.0:
                self.code_misses += 1
                self.code_stall_cycles += stall
                if self.on_code_miss is not None:
                    self.on_code_miss(idx, t, stall)
                t += stall
        self._ready = t
        return t
