"""DDR4 main-memory timing model.

Models the paper's memory system: two DDR4-2400 channels, two ranks per
channel, eight banks per rank, 64-bit data bus per channel, 2 KB row buffers
and 15-15-15-39 (tCAS-tRCD-tRP-tRAS) timings.  Writes are queued and drained
in batches to reduce channel turnarounds, as in the paper.

The model is used by the cache hierarchy to price LLC misses: it returns a
read latency in *CPU* cycles that accounts for row-buffer state, bank
occupancy and data-bus serialization at the access time.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class DRAMConfig:
    """DDR4-2400 parameters (DRAM-cycle timings unless noted)."""

    channels: int = 2
    ranks: int = 2
    banks: int = 8
    row_bytes: int = 2048
    tcas: int = 15
    trcd: int = 15
    trp: int = 15
    tras: int = 39
    tccd: int = 4                  #: CAS-to-CAS gap: column reads pipeline
    burst_cycles: int = 4          #: BL8 on a 64-bit bus = 4 DRAM clocks
    dram_clock_ghz: float = 1.2    #: DDR4-2400 I/O clock
    cpu_clock_ghz: float = 3.2
    controller_cycles: int = 20    #: CPU-cycle queue/controller overhead
    write_queue_depth: int = 64
    write_batch: int = 16          #: writes drained per batch

    @property
    def cycle_ratio(self) -> float:
        """CPU cycles per DRAM cycle."""
        return self.cpu_clock_ghz / self.dram_clock_ghz

    @property
    def total_banks(self) -> int:
        return self.channels * self.ranks * self.banks


@dataclass(slots=True)
class _Bank:
    open_row: int = -1
    busy_until: float = 0.0
    activate_time: float = -1.0e18  #: when the open row was activated


@dataclass(slots=True)
class DRAMStats:
    reads: int = 0
    writes: int = 0
    row_hits: int = 0
    row_empty: int = 0
    row_conflicts: int = 0
    activations: int = 0
    write_batches: int = 0

    @property
    def row_hit_rate(self) -> float:
        total = self.row_hits + self.row_empty + self.row_conflicts
        return self.row_hits / total if total else 0.0


class DRAM:
    """Bank/row-buffer timing model for the whole memory system."""

    def __init__(self, config: DRAMConfig | None = None) -> None:
        self.config = config or DRAMConfig()
        cfg = self.config
        self._banks = [_Bank() for _ in range(cfg.total_banks)]
        self._bus_free = [0.0] * cfg.channels
        self._write_queues: list[list[int]] = [[] for _ in range(cfg.channels)]
        self.stats = DRAMStats()
        self._lines_per_row = cfg.row_bytes // 64
        # Timings in CPU cycles, computed once: ``(latency, occupancy)`` per
        # row-buffer outcome, then tRAS, tRP and one data burst.
        ratio = cfg.cycle_ratio
        self.t_row_hit = (cfg.tcas * ratio, cfg.tccd * ratio)
        self.t_row_empty = ((cfg.trcd + cfg.tcas) * ratio, (cfg.trcd + cfg.tccd) * ratio)
        self.t_row_conflict = (
            (cfg.trp + cfg.trcd + cfg.tcas) * ratio,
            (cfg.trp + cfg.trcd + cfg.tccd) * ratio,
        )
        self.t_ras = cfg.tras * ratio
        self.t_rp = cfg.trp * ratio
        self.t_burst = cfg.burst_cycles * ratio

    # -- address mapping ----------------------------------------------------

    def map_address(self, line_addr: int) -> tuple[int, int, int]:
        """Map a line address to ``(channel, bank_index, row)``.

        Channel and bank selection XOR-fold higher address bits (as real
        memory controllers do) so that power-of-2 strides still spread across
        channels and banks instead of camping on one.
        """
        cfg = self.config
        hashed = line_addr ^ (line_addr >> 7) ^ (line_addr >> 13)
        channel = hashed % cfg.channels
        row = line_addr // self._lines_per_row
        bank_in_system = (row ^ (row >> 5)) % (cfg.ranks * cfg.banks)
        bank_index = channel * cfg.ranks * cfg.banks + bank_in_system
        return channel, bank_index, row

    # -- timing ---------------------------------------------------------------

    def _bank_access(self, bank: _Bank, row: int, start: float) -> tuple[float, float]:
        """Resolve row-buffer state at ``start``.

        Returns ``(access_latency, bank_occupancy)`` in CPU cycles: the
        latency until data begins, and how long the bank's command pipeline
        is tied up.  Column reads to an open row pipeline at tCCD, so their
        occupancy is far shorter than their latency; activates occupy the
        bank for the full RAS-to-CAS window.
        """
        stats = self.stats
        open_row = bank.open_row
        if open_row == row:
            stats.row_hits += 1
            return self.t_row_hit
        stats.activations += 1
        if open_row == -1:
            stats.row_empty += 1
            bank.open_row = row
            bank.activate_time = start
            return self.t_row_empty
        # Row conflict: precharge may also have to wait out tRAS.
        stats.row_conflicts += 1
        tras_done = bank.activate_time + self.t_ras
        precharge_start = max(start, tras_done)
        extra_wait = precharge_start - start
        bank.open_row = row
        bank.activate_time = precharge_start + self.t_rp
        latency, occupancy = self.t_row_conflict
        return extra_wait + latency, extra_wait + occupancy

    def read(self, line_addr: int, now: float) -> float:
        """Issue a read; returns total latency in CPU cycles from ``now``."""
        cfg = self.config
        channel, bank_index, row = self.map_address(line_addr)
        bank = self._banks[bank_index]
        self.stats.reads += 1

        start = max(now + cfg.controller_cycles, bank.busy_until)
        access, occupancy = self._bank_access(bank, row, start)
        data_start = max(start + access, self._bus_free[channel])
        done = data_start + self.t_burst
        bank.busy_until = start + occupancy
        self._bus_free[channel] = done
        return done - now

    def write(self, line_addr: int, now: float) -> None:
        """Queue a write-back; drained in batches (no latency to the core)."""
        cfg = self.config
        channel, _, _ = self.map_address(line_addr)
        queue = self._write_queues[channel]
        queue.append(line_addr)
        self.stats.writes += 1
        if len(queue) >= cfg.write_batch:
            self._drain(channel, now)

    def _drain(self, channel: int, now: float) -> None:
        """Drain the channel's write queue as one scheduled batch.

        Writes are modeled as consuming data-bus bandwidth (one burst each)
        plus an activation per row for power accounting.  They do not stall
        bank command pipelines the way reads do: real controllers drain
        writes opportunistically between reads, so charging full bank
        cascades here would penalise reads far beyond hardware behaviour.
        """
        self.stats.write_batches += 1
        queue = self._write_queues[channel]
        t = max(now, self._bus_free[channel])
        burst = self.t_burst
        rows_touched = set()
        for line_addr in queue:
            _, bank_index, row = self.map_address(line_addr)
            rows_touched.add((bank_index, row))
            t += burst
        self.stats.activations += len(rows_touched)
        self._bus_free[channel] = t
        queue.clear()

    def flush_writes(self, now: float) -> None:
        """Force-drain all write queues (end of simulation)."""
        for channel, queue in enumerate(self._write_queues):
            if queue:
                self._drain(channel, now)

    def pending_writes(self) -> int:
        return sum(len(q) for q in self._write_queues)

    def backlog(self, now: float) -> float:
        """How far (CPU cycles) the least-loaded channel's data bus is booked
        beyond ``now`` — the controller's congestion signal.  Prefetchers are
        throttled on this, as real memory controllers drop/defer prefetches
        under load."""
        return max(0.0, min(self._bus_free) - now)
