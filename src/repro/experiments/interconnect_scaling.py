"""Extension study: where the two-level CATCH energy win breaks down.

Section VI-E: the two-level hierarchy trades a large increase in interconnect
traffic for less cache and DRAM work, which nets positive on a small-core
ring but "would not be true for large core count processors that would use a
complex MESH ... an L2 may still be needed for primarily reducing the
interconnect traffic".

This experiment makes that crossover concrete: it measures per-core traffic
for the baseline and the two-level CATCH hierarchy once, then re-prices the
interconnect component under growing topologies (4-core ring, then 8/16/
32/64-core meshes, scaling mean hop distance accordingly).  The quantity
reported is the interconnect energy *premium* of going two-level, relative
to the cache+DRAM energy the two-level hierarchy saves — above 1.0, dropping
the L2 no longer pays.
"""

from __future__ import annotations

from ..obs import console
from ..interconnect.mesh import MeshInterconnect
from ..interconnect.ring import RingInterconnect
from ..power.energy import ChipModel
from ..power.orion import RingEnergyModel
from ..sim.config import no_l2, skylake_server, with_catch
from .common import resolve_params, sweep, workload_names

TOPOLOGIES = (
    ("ring-4", RingInterconnect(4)),
    ("mesh-8", MeshInterconnect(8)),
    ("mesh-16", MeshInterconnect(16)),
    ("mesh-32", MeshInterconnect(32)),
    ("mesh-64", MeshInterconnect(64)),
)


def run(quick: bool = True, n_instrs: int | None = None) -> dict:
    n = resolve_params(quick, n_instrs)
    base = skylake_server()
    catch2 = with_catch(no_l2(base, 9.5), name="noL2_9.5+CATCH")
    workloads = workload_names(quick)
    results = sweep([base, catch2], workloads, n)
    base_model = ChipModel(base)
    catch_model = ChipModel(catch2)

    # Measured per-workload components on the 4-core-ring reference machine.
    reference_hops = RingInterconnect(4).mean_hops()
    rows = {}
    for label, topo in TOPOLOGIES:
        scale = topo.mean_hops() / reference_hops
        stops = topo.n_stops
        premium_num = 0.0
        premium_den = 0.0
        for wl in workloads:
            a_base = results[base.name][wl].activity
            a_catch = results[catch2.name][wl].activity
            ring_model = RingEnergyModel(stops)
            extra_ring = ring_model.energy_j(
                int(a_catch.ring_flit_hops * scale), a_catch.cycles
            ) - ring_model.energy_j(
                int(a_base.ring_flit_hops * scale), a_base.cycles
            )
            e_base = base_model.energy(a_base)
            e_catch = catch_model.energy(a_catch)
            saved = (e_base.cache_j + e_base.dram_j) - (
                e_catch.cache_j + e_catch.dram_j
            )
            premium_num += max(extra_ring, 0.0)
            premium_den += max(saved, 1e-15)
        rows[label] = {
            "mean_hops": topo.mean_hops(),
            "interconnect_premium": premium_num / premium_den,
        }
    return {"experiment": "interconnect_scaling", "rows": rows}


def main(quick: bool = False) -> dict:
    data = run(quick=quick)
    console("Extension: interconnect scaling of the two-level CATCH energy trade")
    console(f"{'topology':10s}{'mean hops':>11s}{'ring premium / cache+DRAM saved':>34s}")
    for label, row in data["rows"].items():
        console(
            f"{label:10s}{row['mean_hops']:>11.2f}"
            f"{row['interconnect_premium']:>34.2f}"
        )
    console(
        "\nAbove 1.0 the extra interconnect energy of going two-level exceeds "
        "the cache+DRAM energy it saves — the paper's argument for keeping a "
        "small L2 on large-core-count mesh parts."
    )
    return data


if __name__ == "__main__":
    main()
