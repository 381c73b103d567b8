"""On-die interconnect substrate: ring and mesh models with traffic accounting."""

from .base import Interconnect, RingStats
from .mesh import MeshInterconnect
from .ring import RingInterconnect

__all__ = ["Interconnect", "MeshInterconnect", "RingInterconnect", "RingStats"]
