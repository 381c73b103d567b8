"""Re-capture ``golden.json``: the digests the benchmark checks outputs against.

Run from the repository root after an intended change to simulated
behaviour, and say in the change's notes why the digests moved::

    PYTHONPATH=src python3 perfbench/capture_golden.py

``sim``: SHA-256 of ``canonical_result_json`` for every pair of
``sim-memory`` and ``sim-catch`` at the fig10 quick length.  ``daemon``:
the same for the 48 fig10 quick pairs at the daemon's job length, which is
what ``daemon-slice`` must serve.
"""

from __future__ import annotations

import json

import common
import simwork
from repro.sim.parity import canonical_result_json
from repro.sim.simulator import Simulator


def capture() -> dict:
    cfgs = simwork.configs()
    sim = {}
    for cfg_names, wl_names in common.SIM_WORKLOADS.values():
        traces = simwork.build_traces(wl_names, common.QUICK_N)
        for cfg in cfg_names:
            for wl in wl_names:
                result = Simulator(cfgs[cfg]).run(traces[wl])
                sim[common.pair_key(cfg, wl)] = common.sha256(
                    canonical_result_json(result)
                )
    daemon = {}
    for cfg in common.FIG10_PRESETS:
        for wl in common.QUICK_WORKLOADS:
            result = Simulator(cfgs[cfg]).run(wl, common.DAEMON_N)
            daemon[common.pair_key(cfg, wl)] = common.sha256(
                canonical_result_json(result)
            )
    return {"sim": dict(sorted(sim.items())), "daemon": dict(sorted(daemon.items()))}


if __name__ == "__main__":
    common.GOLDEN_PATH.write_text(json.dumps(capture(), indent=1) + "\n")
    print(f"wrote {common.GOLDEN_PATH}")
