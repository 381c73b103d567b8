"""Canonical result encoding for golden-digest comparisons.

A change to the simulator that is meant to keep its results must keep them
*byte-identical*, not "close".  :func:`canonical_result_json` encodes a
:class:`~repro.sim.metrics.RunResult` as a deterministic JSON string whose
SHA-256 the golden digests pin (``perfbench/golden.json``,
``tests/test_golden_parity.py``, ``tests/test_detector_digests.py``,
``tests/test_mp_digests.py``).  Any hot-path change that reorders a float
operation, drops a tie-break, or skips a stat update shows up as a changed
digest instead of a silently drifted figure.
"""

from __future__ import annotations

import json

from .metrics import RunResult
from .serialization import result_to_dict


def canonical_result_json(
    result: RunResult, *, include_telemetry: bool = False
) -> str:
    """Deterministic JSON encoding of a run result for byte comparison.

    ``telemetry`` carries wall-clock phase timings that legitimately differ
    between two runs of identical simulations, so it is nulled out unless the
    caller explicitly opts in; everything else in the payload is a pure
    function of (config, workload, kernel semantics) and must match exactly.
    """
    payload = result_to_dict(result)
    if not include_telemetry:
        payload["telemetry"] = None
    return json.dumps(payload, sort_keys=True)
