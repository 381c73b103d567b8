"""Hook interface between the OOO core and criticality/prefetch engines.

The core is engine-agnostic: CATCH (``repro.core.catch_engine``), the oracle
prefetcher (``repro.core.oracle``) and the do-nothing default all implement
this interface.  Keeping the base class in the ``cpu`` package avoids an
import cycle (``repro.core`` builds on ``repro.cpu``).

The kernel (:meth:`~repro.cpu.core.OOOCore.run_span`) calls the hooks in
the same order for every instruction: ``before_load``/``after_load`` around
a load's cache access, then ``on_execute``, then ``on_retire``.  A hook left
as the no-op defined here is skipped; engines bind the hooks they need as
instance attributes in :meth:`Engine.attach` or override them in a
subclass, and :meth:`~repro.cpu.core.OOOCore.start` resolves them once per
run.
"""

from __future__ import annotations

from ..caches.hierarchy import AccessResult, Level
from ..workloads.trace import Instr


class Engine:
    """Default no-op engine; subclasses override the hooks they need."""

    def attach(self, core_id: int, core) -> None:
        """Called once before simulation with the owning :class:`OOOCore`."""

    def set_trace(self, trace) -> None:
        """Called with the trace about to run (memory image, code runahead)."""

    def reset_stats(self) -> None:
        """Zero engine counters at a warmup/measurement boundary."""

    def before_load(self, instr: Instr, idx: int, now: float) -> None:
        """Called when a load reaches execute, before the cache access.

        Oracle prefetchers use this to perform their zero-time L1 fill.
        """

    def after_load(
        self, instr: Instr, idx: int, now: float, result: AccessResult
    ) -> None:
        """Called after the cache access with its outcome (TACT training)."""

    def on_execute(self, instr: Instr, idx: int, now: float) -> None:
        """Called for every instruction at execute (register propagation)."""

    def on_retire(
        self,
        idx: int,
        instr: Instr,
        exec_lat: float,
        producers: tuple[int, ...],
        level: Level | None,
        mispredicted: bool,
        e_time: float,
    ) -> None:
        """Called in order at retirement (feeds the criticality detector).

        The fields are positional, so the kernel allocates nothing per call:

        Args:
            idx: dynamic instruction index (graph node id).
            instr: the instruction.
            exec_lat: actual execution latency in cycles (E-C edge weight).
            producers: dynamic indices of E-E edge sources (register and
                memory dependences), at most 3 register sources + 1 memory
                source.
            level: serving cache level for loads, else ``None``.
            mispredicted: branch mispredicted (creates the E-D edge).
            e_time: execute-node time (for prefetch timeliness accounting).
        """

    def on_code_miss(self, idx: int, now: float, stall: float) -> None:
        """Called when the front end stalls on a code L1 miss (TACT-Code)."""
