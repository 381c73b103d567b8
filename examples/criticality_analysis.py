#!/usr/bin/env python3
"""Criticality analysis: watch the hardware detector find the critical path.

Part 1 rebuilds the paper's Figure 2 example by hand: seven instructions
where one L2-hitting load sits on the critical path and two do not, and shows
that the incremental walk finds exactly the critical one.

Part 2 runs the detector over a real workload (``mcf_like``) and prints the
critical-PC ranking, the critical-load table contents and the hardware area
budget (Table I).

Run:  python examples/criticality_analysis.py
"""

from repro.caches.hierarchy import Level
from repro.core.criticality import detector_area
from repro.core.ddg import BufferedDDG
from repro.core.oracle import profile_critical_pcs
from repro.sim import Simulator, skylake_server
from repro.workloads.suites import build_trace, get_spec
from repro.workloads.trace import Instr, Op


def figure2_example():
    """The paper's Figure 2: only load #2 (on the dependence chain feeding
    the final instructions) is critical; loads #3 and #6 are not."""
    print("=== Part 1: the Figure 2 example graph ===")
    # ROB deeper than the example so the C-D (ROB-full) edge does not
    # interfere with the 7-instruction window.
    g = BufferedDDG(rob_size=8)

    def add(idx, op, lat, producers=(), level=None, pc=0):
        instr = Instr(pc, op, addr=idx * 64 if op is Op.LOAD else -1)
        g.add(idx, instr, lat, producers, level, False)

    # As in Figure 2: three loads hit the L2; only the one feeding the long
    # dependent chain (0x20) is critical — the chain through it outweighs
    # every other path, so raising the latency of 0x30/0x60 would not move
    # the critical path at all.
    add(0, Op.ALU, 2, pc=0x10)
    add(1, Op.LOAD, 16, producers=(0,), level=Level.L2, pc=0x20)   # critical
    add(2, Op.LOAD, 16, level=Level.L2, pc=0x30)                   # not
    add(3, Op.ALU, 8, producers=(1,), pc=0x40)
    add(4, Op.ALU, 8, producers=(3,), pc=0x50)
    add(5, Op.LOAD, 16, producers=(), level=Level.L2, pc=0x60)     # not
    add(6, Op.ALU, 2, producers=(4,), pc=0x70)
    found = g.walk()
    print("loads found on the critical path:", [hex(f.pc) for f in found])
    assert [f.pc for f in found] == [0x20]
    print("=> only the load feeding the dependent chain (0x20) is critical,")
    print("   exactly as in the paper's Figure 2.\n")


def real_workload():
    print("=== Part 2: hardware detection on mcf_like ===")
    spec = get_spec("mcf_like")
    trace = build_trace("mcf_like", 40_000 * spec.length_multiplier)
    sim = Simulator(skylake_server())
    ranked = profile_critical_pcs(
        trace, lambda: sim.build_hierarchy(1), skylake_server().core
    )
    loads_by_pc = {}
    for instr in trace.instrs[:200]:
        if instr.op is Op.LOAD:
            loads_by_pc.setdefault(instr.pc, instr)
    print(f"critical load PCs found (top {min(5, len(ranked))}):")
    for pc in ranked[:5]:
        role = "gather (A[B[i]])" if pc in loads_by_pc and loads_by_pc[pc].srcs else ""
        print(f"  {hex(pc)}  {role}")
    print()
    area = detector_area(rob_size=224, table_entries=32)
    print("hardware budget (Table I):")
    print(f"  buffered graph : {area.graph_bytes / 1024:.2f} KB")
    print(f"  hashed PCs     : {area.pc_bytes / 1024:.2f} KB")
    print(f"  critical table : {area.table_bytes:.0f} B")
    print(f"  total          : {area.total_kb:.2f} KB  (paper: 'about 3 KB')")


if __name__ == "__main__":
    figure2_example()
    real_workload()
