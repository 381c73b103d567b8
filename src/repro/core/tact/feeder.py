"""TACT-Feeder: data-association prefetching — Section IV-B1.

When no *address* association exists for a critical load, TACT looks for a
*data* association: a feeder load whose loaded value determines the target's
address via ``Address = Scale * Data + Base`` with Scale restricted to
{1, 2, 4, 8} (shift-implementable; no dividers).

Trigger identification is done with a per-architectural-register table of the
youngest load PC that (directly or transitively) produced each register: a
load writes its own PC into its destination's slot; any other instruction
propagates the youngest load PC among its sources.  The feeder of a target is
then the youngest load PC feeding any of the target's source registers.

Timeliness: the feeder itself is prefetched ahead (up to distance 4) using
its own stride; when the prefetched feeder line's *data* arrives, it triggers
the target prefetch.  In this model the "prefetched line's data" is read from
the trace's memory image — exactly the value the hardware would find in the
fetched line.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ...workloads.trace import NUM_ARCH_REGS

SCALES = (1, 2, 4, 8)
CONFIDENCE_MAX = 3
FEEDER_DISTANCE = 4


class RegisterLoadTracker:
    """Youngest-load-PC propagation through the architectural registers.

    ``on_load``/``on_other`` run once per simulated instruction, so the
    per-register state lives in two parallel int arrays (PC and dynamic
    index) instead of allocating a ``(pc, idx)`` tuple per update; the
    youngest entry is still selected by dynamic index alone.
    """

    __slots__ = ("_pc", "_idx")

    def __init__(self) -> None:
        self._pc = [-1] * NUM_ARCH_REGS
        self._idx = [-1] * NUM_ARCH_REGS

    def registers(self) -> tuple[list[int], list[int]]:
        """The per-register ``(pc, idx)`` arrays, for callers that fold the
        :meth:`on_load`/:meth:`on_other` updates into their own loop."""
        return self._pc, self._idx

    def on_load(self, pc: int, idx: int, dst: int) -> None:
        if dst >= 0:
            self._pc[dst] = pc
            self._idx[dst] = idx

    def on_other(self, idx: int, srcs: tuple[int, ...], dst: int) -> None:
        if dst < 0:
            return
        pcs = self._pc
        idxs = self._idx
        best_pc = -1
        best_idx = -1
        for src in srcs:
            cand_idx = idxs[src]
            if cand_idx > best_idx:
                best_idx = cand_idx
                best_pc = pcs[src]
        pcs[dst] = best_pc
        idxs[dst] = best_idx

    def feeder_for(self, srcs: tuple[int, ...], exclude_idx: int) -> int:
        """Youngest load PC feeding any of ``srcs`` (its PC, or -1)."""
        pcs = self._pc
        idxs = self._idx
        best_pc = -1
        best_idx = -1
        for src in srcs:
            cand_idx = idxs[src]
            if cand_idx > best_idx and cand_idx != exclude_idx:
                best_idx = cand_idx
                best_pc = pcs[src]
        return best_pc


@dataclass(slots=True)
class _ScaleLearn:
    #: ``None`` until the first pair: any int, -1 included, is a valid base.
    last_base: int | None = None
    conf: int = 0


@dataclass(slots=True)
class FeederState:
    """Per-target feeder identification and Scale/Base learning."""

    feeder_pc: int = -1
    feeder_conf: int = 0       #: 2-bit confidence the feeder PC is stable
    confirmed: bool = False
    scales: dict[int, _ScaleLearn] = field(
        default_factory=lambda: {s: _ScaleLearn() for s in SCALES}
    )
    scale: int = 0             #: learned scale (0 = not learned)
    base: int = 0

    @property
    def learned(self) -> bool:
        return self.confirmed and self.scale != 0

    def observe_feeder_candidate(self, feeder_pc: int) -> None:
        """Train the feeder-PC confidence from one target instance."""
        if feeder_pc < 0:
            return
        if feeder_pc == self.feeder_pc:
            if self.feeder_conf < CONFIDENCE_MAX:
                self.feeder_conf += 1
                if self.feeder_conf >= CONFIDENCE_MAX:
                    self.confirmed = True
        else:
            if not self.confirmed:
                self.feeder_pc = feeder_pc
                self.feeder_conf = 0

    def observe_relation(self, target_addr: int, feeder_data: int) -> None:
        """Learn Scale/Base from one (feeder data, target address) pair."""
        if not self.confirmed or self.learned:
            return
        for s in SCALES:
            learn = self.scales[s]
            base = target_addr - s * feeder_data
            if base == learn.last_base:
                learn.conf += 1
                if learn.conf >= CONFIDENCE_MAX:
                    self.scale = s
                    self.base = base
                    return
            else:
                learn.conf = 0
                learn.last_base = base

    def predict(self, feeder_data: int) -> int | None:
        """Target address implied by a feeder data value."""
        if not self.learned:
            return None
        return self.scale * feeder_data + self.base
