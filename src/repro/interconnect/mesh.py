"""2D mesh interconnect model (the scale-out case of Section VI-E).

The paper's power discussion is explicit: the two-level CATCH hierarchy wins
energy on a small ring, "however, this would not be true for large core count
processors that would use a complex MESH as an interconnect.  For such
hierarchies ... an L2 may still be needed for primarily reducing the
interconnect traffic."

This mesh model provides the hop counts and per-hop energy needed to evaluate
that claim (see ``experiments/interconnect_scaling.py``): cores and LLC
slices are interleaved over an ``n x n`` grid with XY routing, so average hop
distance grows with sqrt(cores) instead of staying ~constant as on a 4-core
ring.
"""

from __future__ import annotations

import math

from .base import Interconnect


class MeshInterconnect(Interconnect):
    """Square 2D mesh with XY dimension-order routing.

    Stops 0..n_cores-1 are core tiles, the rest LLC slices; tiles are laid
    out row-major over the smallest square grid that fits them.  Traffic is
    priced as on :class:`~repro.interconnect.ring.RingInterconnect`, so
    either can back a hierarchy.
    """

    @property
    def side(self) -> int:
        return math.ceil(math.sqrt(self.n_stops))

    def _coords(self, stop: int) -> tuple[int, int]:
        side = self.side
        return stop % side, stop // side

    def hops(self, core: int, slice_id: int) -> int:
        """Manhattan (XY-routed) distance between a core and a slice tile."""
        x0, y0 = self._coords(core)
        x1, y1 = self._coords(self.n_cores + slice_id)
        return abs(x1 - x0) + abs(y1 - y0)
