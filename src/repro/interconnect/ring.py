"""On-die ring interconnect model.

The paper's power analysis (Section VI-E) hinges on interconnect traffic: a
two-level CATCH hierarchy sends every L1 miss across the ring to the LLC
(~5x the baseline's interconnect traffic) but saves cache and DRAM energy.
This module counts ring crossings and hop-distance so the Orion-style energy
model (``repro.power.orion``) can price them, and provides the latency the
hierarchy folds into the LLC round trip.

Topology: core agents 0..n-1 and LLC slices interleaved on a bidirectional
ring, Skylake client style.  A message takes the shorter direction.
"""

from __future__ import annotations

from .base import Interconnect


class RingInterconnect(Interconnect):
    """Bidirectional ring connecting cores to LLC slices."""

    def hops(self, core: int, slice_id: int) -> int:
        """Shorter-direction hop count between a core stop and a slice stop."""
        distance = abs(self.n_cores + slice_id - core)
        return min(distance, self.n_stops - distance)
