"""Traffic accounting shared by every on-die topology: a subclass defines
``hops(core, slice)``; messages are priced from a ``[core][slice]`` hop
table built once at construction."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(slots=True)
class RingStats:
    messages: int = 0
    data_messages: int = 0     #: messages carrying a 64B line
    control_messages: int = 0  #: requests/acks (8B)
    flit_hops: int = 0         #: total flits x hops traversed (energy proxy)

    @property
    def bytes_moved(self) -> int:
        return self.data_messages * 64 + self.control_messages * 8


class Interconnect:
    """Cores 0..n-1 and LLC slices on one network; subclasses define ``hops``.

    Args:
        n_cores: number of core agents.
        n_slices: number of LLC slices (defaults to ``n_cores``).
        hop_cycles: per-hop latency in cycles.
        flits_per_data: flits in a 64B data message.
    """

    def __init__(
        self,
        n_cores: int,
        n_slices: int | None = None,
        hop_cycles: int = 1,
        flits_per_data: int = 4,
    ) -> None:
        self.n_cores = n_cores
        self.n_slices = n_slices if n_slices is not None else n_cores
        self.hop_cycles = hop_cycles
        self.flits_per_data = flits_per_data
        self.n_stops = self.n_cores + self.n_slices
        self.stats = RingStats()
        #: ``hop_table[core][slice] == hops(core, slice)``.
        self.hop_table = [
            [self.hops(c, s) for s in range(self.n_slices)]
            for c in range(self.n_cores)
        ]

    def hops(self, core: int, slice_id: int) -> int:
        """Hop count between a core stop and a slice stop."""
        raise NotImplementedError

    def mean_hops(self) -> float:
        """Average core->slice distance."""
        return sum(map(sum, self.hop_table)) / (self.n_cores * self.n_slices)

    def slice_for(self, line_addr: int) -> int:
        """LLC slice owning a line (address-hashed interleaving)."""
        return line_addr % self.n_slices

    def request(self, core: int, line_addr: int) -> int:
        """Send a control request core->slice; returns latency in cycles."""
        h = self.hop_table[core][line_addr % self.n_slices]
        stats = self.stats
        stats.messages += 1
        stats.control_messages += 1
        stats.flit_hops += h
        return h * self.hop_cycles

    def data(self, core: int, line_addr: int) -> int:
        """Move one 64B line between a core and its slice; returns latency."""
        h = self.hop_table[core][line_addr % self.n_slices]
        stats = self.stats
        stats.messages += 1
        stats.data_messages += 1
        stats.flit_hops += h * self.flits_per_data
        return h * self.hop_cycles

    def round_trip(self, core: int, line_addr: int) -> int:
        """Request + data response latency for an LLC access."""
        return self.request(core, line_addr) + self.data(core, line_addr)
