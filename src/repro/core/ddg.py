"""Hardware-buffered data dependency graph (Fields et al.) — Section IV-A.

The criticality detector buffers the DDG of the last ``2.5 x ROB`` retired
instructions.  Each instruction contributes three nodes:

* **D** — allocation into the OOO,
* **E** — dispatch to the execution units,
* **C** — writeback/commit,

with edges D-D (in-order allocation), C-D (ROB depth), D-E (rename), E-E
(data and memory dependences, weighted by the producer's execution latency),
E-C (execution latency), C-C (in-order commit) and E-D (bad speculation).

The longest D(first)->C(last) path is found *incrementally*: when an
instruction retires, each of its nodes takes the incoming edge that maximises
its distance from the start of the buffered graph and stores that distance
(``node cost``).  The hardware also stores the chosen edge (``prev``) so
that, once ``2 x ROB`` instructions are buffered, enumerating the critical
path is a simple backwards walk — no depth-first search.  This model stores
only the costs (columnar, per buffer position) and recomputes the chosen
edge at walk time for the nodes on the path, with the same strict-``>``
order :meth:`BufferedDDG.add` uses; the walked path is the one the prev
pointers would give, at a fraction of the per-instruction cost.  The Table I
area is unchanged: :func:`graph_area_bytes` charges the hardware's
per-instruction storage, not this model's columns.

As in the hardware proposal, execution latencies are quantised (divided by 8,
5-bit saturating) before being stored as edge weights.  The *hardware* buffer
is provisioned at ``2.5 x ROB`` so retirement can continue while a walk is in
progress; this model walks instantaneously at the ``2 x ROB`` window, so the
buffer never holds more than ``walk_window`` entries and the extra headroom
exists only in the area accounting (:attr:`BufferedDDG.capacity`,
:func:`graph_area_bytes`), never as a model-visible overflow path.

The columns are preallocated at ``walk_window`` entries and reused across
windows — the detector runs once per retired instruction.

Area accounting for Table I is provided by :func:`graph_area_bytes`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

from ..caches.hierarchy import Level
from ..workloads.trace import Instr

#: Execution latencies are stored quantised: ``min(31, lat >> 3)`` (5-bit
#: saturating counter of 8-cycle units), per Section IV-A.
QUANT_SHIFT = 3
QUANT_MAX = 31


def quantize_latency(latency: float) -> int:
    """Quantise a latency the way the hardware stores it (5b, /8)."""
    return min(QUANT_MAX, int(latency) >> QUANT_SHIFT)


def dequantize(q: int) -> int:
    return q << QUANT_SHIFT


class NodeKind(IntEnum):
    D = 0
    E = 1
    C = 2


@dataclass(slots=True)
class CriticalLoad:
    """A load E-node found on the critical path during a walk."""

    pc: int
    level: int      #: ``caches.Level`` value at which the load was served
    idx: int        #: dynamic instruction index


@dataclass(slots=True)
class DDGStats:
    retired: int = 0
    walks: int = 0
    critical_loads_seen: int = 0
    critical_path_nodes: int = 0


class BufferedDDG:
    """Incremental critical-path finder over a sliding retire window.

    Args:
        rob_size: machine ROB depth (walk window = 2x; the hardware buffer
            is provisioned at 2.5x, see :attr:`capacity`).
        rename_latency: D-E edge weight.
        on_walk: callback invoked with the list of :class:`CriticalLoad`
            found by each completed walk.
    """

    def __init__(
        self,
        rob_size: int = 224,
        rename_latency: int = 1,
        on_walk=None,
    ) -> None:
        self.rob_size = rob_size
        self.walk_window = 2 * rob_size
        #: Hardware buffer provisioning (2.5 x ROB, Table I): the headroom
        #: over :attr:`walk_window` absorbs retirement while a hardware walk
        #: is in progress.  The model's walk is instantaneous, so occupancy
        #: never exceeds ``walk_window``; this figure feeds area accounting
        #: only (:func:`graph_area_bytes`).
        self.capacity = int(2.5 * rob_size)
        self.rename_latency = rename_latency
        self.on_walk = on_walk
        self._stats = DDGStats()
        # Columnar window, preallocated at walk_window entries and reused
        # window after window; only the first _count positions are live.
        # Per position: the instruction, its serving level (None unless a
        # load), quantised execution latency in cycles (E-C and E-E edge
        # weight), the three node costs, and the producer indices.
        n = self.walk_window
        self._instr: list = [None] * n
        self._level: list = [None] * n
        self._lat: list[int] = [0] * n
        self._d: list[int] = [0] * n
        self._e: list[int] = [0] * n
        self._c: list[int] = [0] * n
        self._producers: list = [()] * n
        #: Positions of mispredicted branches (sources of E-D edges).
        self._mispredicted: set[int] = set()
        self._count = 0
        #: instructions buffered before this window: the dynamic idx of the
        #: first buffered instruction, as the retire stream numbers from 0
        self._base_idx = 0

    # ------------------------------------------------------------------ add

    def add(
        self,
        idx: int,
        instr: Instr,
        exec_lat: float,
        producers: tuple[int, ...],
        level: Level | None,
        mispredicted: bool,
    ) -> list[CriticalLoad] | None:
        """Buffer one retired instruction; returns walk results when a walk
        completes, else ``None``.

        The fields are those of :meth:`repro.cpu.engine.Engine.on_retire`.
        Each node takes the maximum-cost incoming edge (strict ``>``, in the
        order D-D, C-D, E-D; D-E, then producers in order; E-C, C-C); only
        the costs are stored, and :meth:`walk` recomputes the chosen edge for
        the nodes on the critical path.
        """
        pos = self._count
        self._instr[pos] = instr
        self._level[pos] = level
        self._producers[pos] = producers
        lat_q = int(exec_lat) >> QUANT_SHIFT  # quantize_latency inline
        if lat_q > QUANT_MAX:
            lat_q = QUANT_MAX
        exec_cycles = lat_q << QUANT_SHIFT
        lat_col = self._lat
        lat_col[pos] = exec_cycles
        d_col = self._d
        e_col = self._e
        c_col = self._c

        # ---- D node: D-D, C-D, E-D incoming edges ------------------------
        if pos:
            d_cost = d_col[pos - 1]            # D-D, weight 0
            rob_pos = pos - self.rob_size
            if rob_pos >= 0:
                cost = c_col[rob_pos]
                if cost > d_cost:
                    d_cost = cost              # C-D, weight 0
            if pos - 1 in self._mispredicted:
                cost = e_col[pos - 1] + lat_col[pos - 1]
                if cost > d_cost:
                    d_cost = cost              # E-D (bad speculation)
        else:
            d_cost = 0
        d_col[pos] = d_cost

        # ---- E node: D-E and E-E incoming edges ---------------------------
        e_cost = d_cost + self.rename_latency
        if producers:
            base_idx = self._base_idx
            for producer_idx in producers:
                ppos = producer_idx - base_idx
                # a producer outside [0, pos) retired before this window
                if 0 <= ppos < pos:
                    cost = e_col[ppos] + lat_col[ppos]
                    if cost > e_cost:
                        e_cost = cost
        e_col[pos] = e_cost

        # ---- C node: E-C and C-C incoming edges ---------------------------
        c_cost = e_cost + exec_cycles
        if mispredicted:
            self._mispredicted.add(pos)
        if pos:
            prev_c = c_col[pos - 1]
            if prev_c > c_cost:
                c_cost = prev_c                # C-C, weight 0
        c_col[pos] = c_cost

        pos += 1
        self._count = pos
        if pos >= self.walk_window:
            result = self.walk()
            self._flush()
            return result
        return None

    # ----------------------------------------------------------------- walk

    def walk(self) -> list[CriticalLoad]:
        """Walk the critical path backwards from C of the last instruction.

        Returns the load E-nodes found on the path (most recent first).
        """
        if not self._count:
            return []
        path = self.critical_path()
        level_col = self._level
        instr_col = self._instr
        base_idx = self._base_idx
        found: list[CriticalLoad] = []
        for pos, kind in path:
            if kind == 1:
                level = level_col[pos]
                if level is not None:
                    found.append(
                        CriticalLoad(
                            pc=instr_col[pos].pc,
                            level=int(level),
                            idx=base_idx + pos,
                        )
                    )
        stats = self._stats
        stats.walks += 1
        stats.critical_path_nodes += len(path)
        stats.critical_loads_seen += len(found)
        if self.on_walk is not None:
            self.on_walk(found)
        return found

    def critical_path(self) -> list[tuple[int, int]]:
        """The critical path as ``(buffer position, NodeKind)`` nodes, from
        C of the last buffered instruction back to D of the first (empty
        when nothing is buffered).

        At each node the incoming edge that :meth:`add` chose is recomputed
        from the stored costs, with the same strict-``>`` order, so this is
        the path the hardware's prev pointers would record.
        """
        if not self._count:
            return []
        d_col = self._d
        e_col = self._e
        c_col = self._c
        lat_col = self._lat
        rob_size = self.rob_size
        rename_latency = self.rename_latency
        base_idx = self._base_idx
        mispredicted = self._mispredicted
        path: list[tuple[int, int]] = []
        append = path.append
        pos = self._count - 1
        kind = 2  # NodeKind.C
        # Every step moves to an earlier node (a lower position, or D before
        # E before C at one position), so the walk ends at D of position 0.
        while True:
            append((pos, kind))
            if kind == 2:
                # E-C, unless C-C from the previous instruction is heavier.
                if pos and c_col[pos - 1] > e_col[pos] + lat_col[pos]:
                    pos -= 1
                else:
                    kind = 1
            elif kind == 1:
                # D-E, unless a producer's E-E edge is heavier.
                best = d_col[pos] + rename_latency
                nxt = pos
                for producer_idx in self._producers[pos]:
                    ppos = producer_idx - base_idx
                    if 0 <= ppos < pos:
                        cost = e_col[ppos] + lat_col[ppos]
                        if cost > best:
                            best = cost
                            nxt = ppos
                if nxt == pos:
                    kind = 0
                else:
                    pos = nxt
            elif pos:
                # D-D, unless C-D (ROB full) or E-D (mispredict) is heavier.
                best = d_col[pos - 1]
                nxt, nxt_kind = pos - 1, 0
                rob_pos = pos - rob_size
                if rob_pos >= 0 and c_col[rob_pos] > best:
                    best = c_col[rob_pos]
                    nxt, nxt_kind = rob_pos, 2
                if pos - 1 in mispredicted:
                    cost = e_col[pos - 1] + lat_col[pos - 1]
                    if cost > best:
                        nxt, nxt_kind = pos - 1, 1
                pos, kind = nxt, nxt_kind
            else:
                break  # D of the first instruction: the source
        return path

    def _flush(self) -> None:
        """Discard the buffered window ("reset the read pointer")."""
        self._base_idx += self._count
        self._count = 0
        self._mispredicted.clear()

    @property
    def stats(self) -> DDGStats:
        """Detector counters; ``retired`` is every instruction buffered so
        far (all flushed windows plus the live one)."""
        self._stats.retired = self._base_idx + self._count
        return self._stats

    @property
    def buffered(self) -> int:
        return self._count

    def node_costs(self, pos: int) -> tuple[int, int, int]:
        """``(D, E, C)`` costs of the instruction at buffer position ``pos``."""
        return self._d[pos], self._e[pos], self._c[pos]


def graph_area_bytes(rob_size: int = 224) -> dict[str, float]:
    """Table I area accounting for the buffered graph.

    Per buffered instruction: 5 b quantised E-C latency, 3 x 9 b register
    E-E sources + 9 b memory dependence, 1 b E-D flag, plus a 10 b hashed PC.
    The buffer holds ``2.5 x ROB`` instructions.
    """
    entries = int(2.5 * rob_size)
    ee_bits = 9 * 3 + 9
    per_instr_bits = 5 + ee_bits + 1
    graph_bytes = entries * per_instr_bits / 8
    pc_bytes = entries * 10 / 8
    return {
        "entries": entries,
        "per_instr_bits": per_instr_bits,
        "graph_bytes": graph_bytes,
        "pc_bytes": pc_bytes,
        "total_bytes": graph_bytes + pc_bytes,
    }
