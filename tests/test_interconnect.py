"""The shared interconnect traffic path (ring and mesh).

Both topologies price messages from a ``[core][slice]`` hop table built at
construction; these tests pin the table to ``hops()`` and the traffic
counters to the values the per-message ``hops()`` computation gave.
"""

import pytest

from repro.interconnect import Interconnect, RingStats
from repro.interconnect.mesh import MeshInterconnect
from repro.interconnect.ring import RingInterconnect

NETWORKS = {
    "ring-4": lambda: RingInterconnect(4),
    "ring-8": lambda: RingInterconnect(8, hop_cycles=2),
    "mesh-16": lambda: MeshInterconnect(16),
    "mesh-64": lambda: MeshInterconnect(64, flits_per_data=2),
}


@pytest.mark.parametrize("name", NETWORKS)
def test_hop_table_equals_hops(name):
    net = NETWORKS[name]()
    assert isinstance(net, Interconnect)
    assert len(net.hop_table) == net.n_cores
    for core in range(net.n_cores):
        assert net.hop_table[core] == [net.hops(core, s) for s in range(net.n_slices)]


def _fixed_stream(net) -> int:
    """400 requests, data moves and round trips; returns summed latency."""
    latency = 0
    for i in range(400):
        core = (i * 7) % net.n_cores
        line = (i * 7919) % 1021
        if i % 3 == 0:
            latency += net.request(core, line)
        elif i % 3 == 1:
            latency += net.data(core, line)
        else:
            latency += net.round_trip(core, line)
    return latency


#: ``(summed latency, RingStats)`` of ``_fixed_stream`` as computed by the
#: earlier per-message ``hops(core, slice_for(line))`` code.
EXPECTED = {
    "ring-4": (1467, RingStats(533, 266, 267, 3660)),
    "ring-8": (5730, RingStats(533, 266, 267, 7194)),
    "mesh-16": (2441, RingStats(533, 266, 267, 6104)),
    "mesh-64": (4958, RingStats(533, 266, 267, 7443)),
}


@pytest.mark.parametrize("name", NETWORKS)
def test_fixed_stream_traffic_unchanged(name):
    net = NETWORKS[name]()
    latency, stats = EXPECTED[name]
    assert _fixed_stream(net) == latency
    assert net.stats == stats


def test_mean_hops_is_mean_of_hops():
    for make in NETWORKS.values():
        net = make()
        pairs = [(c, s) for c in range(net.n_cores) for s in range(net.n_slices)]
        assert net.mean_hops() == sum(net.hops(c, s) for c, s in pairs) / len(pairs)
