"""Critical load table — Section IV-A "Recording the Critical Instructions".

A 32-entry, 8-way set-associative, LRU-managed table of load PCs observed on
the critical path (hitting the L2 or LLC).  Each entry holds a 2-bit
saturating confidence counter; a PC is reported *critical* only while it is
resident with saturated confidence.  Every 100K retired instructions the
confidence of entries that have not reached saturation is reset, forcing
them to re-learn.

PCs are stored as 10-bit hashes (the hardware never stores full addresses);
aliasing is therefore possible and intentional.
"""

from __future__ import annotations

from dataclasses import dataclass, field

PC_HASH_BITS = 10
CONFIDENCE_MAX = 3  # 2-bit saturating counter


def hash_pc(pc: int) -> int:
    """10-bit PC hash used for both indexing and matching."""
    return (pc ^ (pc >> PC_HASH_BITS) ^ (pc >> 2 * PC_HASH_BITS)) & (
        (1 << PC_HASH_BITS) - 1
    )


@dataclass(slots=True)
class _Entry:
    pc_hash: int
    confidence: int = 0
    lru: int = 0
    hits: int = 0      #: times re-observed critical (stats only)


@dataclass
class CriticalTableStats:
    inserts: int = 0
    promotions: int = 0
    evictions: int = 0
    epoch_resets: int = 0


class CriticalLoadTable:
    """The paper's 32-entry critical-load PC table.

    Args:
        entries: total capacity (the paper's sensitivity study, Section
            VI-D2, varies this; 32 is the shipping point).
        ways: set associativity (8 in the paper).
        epoch_instructions: confidence-reset period in retired instructions.
    """

    def __init__(
        self,
        entries: int = 32,
        ways: int = 8,
        epoch_instructions: int = 100_000,
        policy: str = "lru",
    ) -> None:
        """``policy`` selects the victim on a full set: ``"lru"`` (the
        paper's design) or ``"lfu"`` — least-frequently-observed with epoch
        decay, the "better critical load table management" the paper leaves
        as future work for povray-class applications whose many critical PCs
        thrash an LRU table."""
        if entries % ways:
            raise ValueError(f"entries {entries} not divisible by ways {ways}")
        if policy not in ("lru", "lfu"):
            raise ValueError(f"unknown table policy {policy!r}")
        self.entries = entries
        self.ways = ways
        self.num_sets = entries // ways
        self.policy = policy
        self.epoch_instructions = epoch_instructions
        self._sets: list[dict[int, _Entry]] = [{} for _ in range(self.num_sets)]
        self._clock = 0
        self._retired_in_epoch = 0
        self.stats = CriticalTableStats()

    def _set_for(self, pc_hash: int) -> dict[int, _Entry]:
        return self._sets[pc_hash % self.num_sets]

    # ----------------------------------------------------------- training

    def observe_critical(self, pc: int) -> None:
        """Record that ``pc`` was seen on the critical path (L2/LLC hit)."""
        h = hash_pc(pc)
        entries = self._set_for(h)
        self._clock += 1
        entry = entries.get(h)
        if entry is not None:
            if entry.confidence < CONFIDENCE_MAX:
                entry.confidence += 1
                if entry.confidence == CONFIDENCE_MAX:
                    self.stats.promotions += 1
            entry.hits += 1
            entry.lru = self._clock
            return
        if len(entries) >= self.ways:
            if self.policy == "lfu":
                # Frequency-aware management (the paper's future-work idea).
                # Two rules break the povray thrash: (a) a newcomer may not
                # displace an entry already re-observed critical, and (b)
                # under pressure only 1-in-4 newcomers insert at all, so some
                # entries live long enough to be re-observed and established.
                # A plain frequency victim would tie under a rotation of
                # equally-critical PCs and degenerate back to LRU thrash.
                victim = min(entries.values(), key=lambda e: (e.hits, e.lru))
                if victim.hits > 1:
                    return  # bypass: the set is full of proven-critical PCs
                if self._clock & 3:
                    return  # probabilistic insertion (deterministic 1-in-4)
            else:
                victim = min(entries.values(), key=lambda e: e.lru)
            del entries[victim.pc_hash]
            self.stats.evictions += 1
        entries[h] = _Entry(pc_hash=h, confidence=1, lru=self._clock)
        self.stats.inserts += 1

    def tick_retire(self, count: int = 1) -> None:
        """Advance the retire counter; applies the 100K-instruction epoch.

        Retires may be batched: a caller that counts them itself calls this
        once with ``count`` = :meth:`retires_to_epoch` on the retire that
        completes the epoch, and the reset fires at the same instruction.
        """
        self._retired_in_epoch += count
        if self._retired_in_epoch >= self.epoch_instructions:
            self._retired_in_epoch = 0
            self.stats.epoch_resets += 1
            for entries in self._sets:
                for entry in entries.values():
                    if entry.confidence < CONFIDENCE_MAX:
                        entry.confidence = 0
                    if self.policy == "lfu":
                        entry.hits >>= 1  # frequency decay per epoch

    def retires_to_epoch(self) -> int:
        """Retired instructions left until the next epoch reset fires."""
        return self.epoch_instructions - self._retired_in_epoch

    # ------------------------------------------------------------- queries

    def slot(self, pc: int) -> tuple[dict[int, _Entry], int]:
        """The set ``pc`` maps to and its hash there.

        Both are fixed for the table's lifetime, so a per-PC memo of the
        slot answers :meth:`is_critical` with one dict probe:
        ``entries.get(h)`` then the confidence check.
        """
        h = hash_pc(pc)
        return self._set_for(h), h

    def is_critical(self, pc: int) -> bool:
        """True while the PC is resident with saturated confidence."""
        h = hash_pc(pc)
        entry = self._set_for(h).get(h)
        return entry is not None and entry.confidence >= CONFIDENCE_MAX

    def is_tracked(self, pc: int) -> bool:
        """True if the PC is resident at any confidence (TACT trains on
        tracked PCs so learning overlaps confidence buildup)."""
        h = hash_pc(pc)
        return h in self._set_for(h)

    def resident_count(self) -> int:
        return sum(len(s) for s in self._sets)

    def critical_count(self) -> int:
        return sum(
            1
            for entries in self._sets
            for e in entries.values()
            if e.confidence >= CONFIDENCE_MAX
        )


def table_area_bytes(entries: int = 32, ways: int | None = None) -> float:
    """Storage for the critical table: 10 b hash + 2 b confidence + LRU.

    The LRU field orders a line's age within its set, so it needs
    ``ceil(log2(ways))`` bits per entry — 3 bits at the paper's 8-way,
    32-entry shipping point (Table I: 60 bytes), not a constant 3
    regardless of geometry.  ``ways`` defaults to ``min(8, entries)``,
    matching how :class:`~repro.core.criticality.CriticalityDetector`
    constructs the table for small sensitivity-study capacities.
    """
    if ways is None:
        ways = min(8, entries)
    if ways < 1 or entries % ways:
        raise ValueError(f"entries {entries} not divisible by ways {ways}")
    lru_bits = (ways - 1).bit_length()  # ceil(log2(ways)); 0 for direct-mapped
    return entries * (PC_HASH_BITS + 2 + lru_bits) / 8
