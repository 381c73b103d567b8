"""Start the daemon with the layer wrappers installed (traced ``daemon-slice``).

``python3 perfbench/launcher.py --out FILE -- serve STATE_DIR [...]`` installs
the wrappers of ``layers.py`` and a :class:`repro.obs.TraceCollector` as the
process tracer, then calls ``repro.service.cli.main`` with the arguments
after ``--``: the same process shape as ``python -m repro.service``.  When
the daemon returns (after SIGINT) the layer totals and every recorded span
are written to ``FILE``.
"""

from __future__ import annotations

import json
import sys

import layers
from repro import obs
from repro.obs import TraceCollector


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--out" or argv[2] != "--":
        print("usage: launcher.py --out FILE -- serve STATE_DIR [...]", file=sys.stderr)
        return 2
    out, serve_argv = argv[1], argv[3:]
    collector = TraceCollector()
    clock = layers.install(collector)
    obs.set_tracer(collector)
    from repro.service.cli import main as service_main

    try:
        return service_main(serve_argv)
    finally:
        calls, self_s = clock.totals()
        with open(out, "w") as fh:
            json.dump({
                "calls": calls,
                "self_s": self_s,
                "lease_hits": clock.lease_hits,
                "events": collector.events,
                "wall_t0": collector.wall_t0,
            }, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
