"""Independent oracle for the buffered DDG: networkx longest paths.

For small hypothesis-generated retire windows, the Fields D/E/C graph is
built explicitly as a ``networkx`` DAG from the same retire fields that
:class:`~repro.core.ddg.BufferedDDG` sees, and three things are checked
against it:

* the DAG's longest path length equals the DDG's last C cost;
* :meth:`~repro.core.ddg.BufferedDDG.critical_path` is a real D(first) ->
  C(last) path of the DAG, every step is tight (the node's cost is its
  predecessor's cost plus the edge weight), and at every node the chosen
  edge is the first heaviest one in the documented order (D-D, C-D, E-D;
  D-E, then producers in order; E-C, C-C) — the strict-``>`` tie-break;
* :meth:`~repro.core.ddg.BufferedDDG.walk` reports exactly the load E-nodes
  on that path, most recent first.
"""

from __future__ import annotations

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.caches.hierarchy import Level
from repro.core.ddg import QUANT_MAX, QUANT_SHIFT, BufferedDDG, CriticalLoad
from repro.workloads.trace import Instr, Op

D, E, C = 0, 1, 2
RENAME_LATENCY = 1


def _weight(latency: float) -> int:
    return min(QUANT_MAX, int(latency) >> QUANT_SHIFT) << QUANT_SHIFT


@st.composite
def windows(draw):
    """A ROB size, whether a flushed window precedes, and up to 2x ROB
    retired instructions (relative producer indices may point before the
    window, at the instruction itself or not at all)."""
    rob = draw(st.integers(4, 16))
    warm = draw(st.booleans())
    n = draw(st.integers(1, 2 * rob))
    instrs = []
    for i in range(n):
        instrs.append(
            (
                draw(st.sampled_from([1, 3, 8, 16, 40, 64, 200, 300, 5000])),
                tuple(draw(st.lists(st.integers(-rob, i), max_size=4))),
                draw(st.sampled_from([None, None, Level.L1, Level.L2,
                                      Level.LLC, Level.MEM])),
                draw(st.integers(0, 9)) == 0,  # mispredicted
            )
        )
    return rob, warm, instrs


def _oracle_graph(rob, instrs):
    """The Fields graph of one window, edges tagged with their rank in the
    documented tie-break order of the node they enter."""
    g = nx.DiGraph()
    for i, (lat, producers, _level, _mispredicted) in enumerate(instrs):
        g.add_node((i, D))
        if i:
            g.add_edge((i - 1, D), (i, D), weight=0, rank=0)           # D-D
        if i >= rob:
            g.add_edge((i - rob, C), (i, D), weight=0, rank=1)         # C-D
        if i and instrs[i - 1][3]:
            g.add_edge((i - 1, E), (i, D),
                       weight=_weight(instrs[i - 1][0]), rank=2)       # E-D
        g.add_edge((i, D), (i, E), weight=RENAME_LATENCY, rank=0)      # D-E
        for rank, p in enumerate(producers, start=1):
            if 0 <= p < i and not g.has_edge((p, E), (i, E)):
                g.add_edge((p, E), (i, E),
                           weight=_weight(instrs[p][0]), rank=rank)    # E-E
        g.add_edge((i, E), (i, C), weight=_weight(lat), rank=0)        # E-C
        if i:
            g.add_edge((i - 1, C), (i, C), weight=0, rank=1)           # C-C
    return g


def _run(rob, warm, instrs):
    """Feed the window to a BufferedDDG; capture its state at the walk."""
    seen = {}
    ddg = BufferedDDG(rob_size=rob, rename_latency=RENAME_LATENCY)

    def capture(found):
        seen["found"] = found
        seen["path"] = ddg.critical_path()
        seen["costs"] = [ddg.node_costs(i) for i in range(len(instrs))]

    base = 0
    if warm:  # push the window off index 0 with one flushed window
        for i in range(ddg.walk_window):
            ddg.add(i, Instr(0x10, Op.ALU), 1.0, (), None, False)
        base = ddg.walk_window
    ddg.on_walk = capture
    for i, (lat, producers, level, mispredicted) in enumerate(instrs):
        op = Op.LOAD if level is not None else Op.ALU
        ddg.add(base + i, Instr(0x400 + 4 * i, op), float(lat),
                tuple(base + p for p in producers), level, mispredicted)
    if "found" not in seen:  # short window: walk by hand
        ddg.walk()
    return base, seen


@given(windows())
@settings(max_examples=300, deadline=None)
def test_ddg_matches_networkx_longest_path(window):
    rob, warm, instrs = window
    base, seen = _run(rob, warm, instrs)
    g = _oracle_graph(rob, instrs)
    costs = seen["costs"]
    n = len(instrs)

    def cost(node):
        return costs[node[0]][node[1]]

    # Longest path length == the DDG's last C cost.
    assert nx.dag_longest_path_length(g) == costs[-1][C]

    # The walked path runs from C(last) back to D(first) along real, tight
    # edges, each the first heaviest in the documented order.
    path = seen["path"]
    assert path[0] == (n - 1, C)
    assert path[-1] == (0, D)
    for node, pred in zip(path, path[1:]):
        assert g.has_edge(pred, node), (pred, node)
        assert cost(node) == cost(pred) + g.edges[pred, node]["weight"]
        in_edges = sorted(g.in_edges(node, data=True), key=lambda e: e[2]["rank"])
        first_best = max(in_edges, key=lambda e: cost(e[0]) + e[2]["weight"])
        assert first_best[0] == pred, (node, pred, first_best)
    assert sum(
        g.edges[pred, node]["weight"] for node, pred in zip(path, path[1:])
    ) == costs[-1][C]

    # Critical loads are exactly the load E-nodes on the path.
    expected = [
        CriticalLoad(pc=0x400 + 4 * i, level=int(instrs[i][2]), idx=base + i)
        for i, kind in path
        if kind == E and instrs[i][2] is not None
    ]
    assert seen["found"] == expected
