#!/usr/bin/env python3
"""Same-host A/B throughput gate: this tree against its merge base.

Both trees run the unchanged benchmark (``perfbench/run.py --trace 0``) on
the two simulation workloads, in alternating parent/change pairs on the same
host, so host speed and host drift cancel out of each pair's ratio::

    git worktree add .bench-seed "$(git merge-base HEAD origin/main)"
    python benchmarks/ab_gate.py [--parent .bench-seed] [--report ab.json]

The gate fails (exit 1) when, on either workload, the median over pairs of
``change sim_ips / parent sim_ips`` (calibrated, see perfbench/CHOICES.md)
is below ``1 - BOUND``, or when any run of either tree is wrong (its
simulated results miss that tree's golden digests) or yields no
throughput.  Exit 2 means the parent checkout is missing.

``PAIRS`` and ``BOUND`` are sized from identical-tree runs on an idle 2-vCPU
host (CHANGES.md records every run): single-pair ratios spread over
0.86-1.15 and the median of five over 0.97-1.05, so a 7% bound passes
identical trees while a seeded ~10% slowdown (medians 0.89) fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The perfbench workloads where simulation speed is the whole cost.
WORKLOADS = ("sim-memory", "sim-catch")
#: Alternating parent/change pairs per workload.
PAIRS = 5
#: Largest tolerated drop of the median pair ratio.
BOUND = 0.07
#: ``--seconds`` of each run: 0 is one pass over the workload's matrix.
SECONDS = 0


def run_bench(tree: Path, workload: str, seed: int) -> dict:
    """One ``perfbench/run.py --trace 0`` run in ``tree``.

    Returns ``{"sim_ips", "correct"}``; a run that crashes or prints no
    result line reads as incorrect with zero throughput.
    """
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        doc = json.loads(lines[-1])
        sim_ips = float(doc["metrics"]["sim_ips"]["value"])
    except (IndexError, KeyError, TypeError, ValueError):
        return {"sim_ips": 0.0, "correct": False}
    return {"sim_ips": sim_ips, "correct": proc.returncode == 0 and doc["correct"] is True}


def collect(parent: Path, change: Path, run=run_bench) -> dict[str, list[dict]]:
    """``{workload: [{"parent": run, "change": run}, ...]}`` over ``PAIRS``
    pairs; even pairs run the parent first, odd pairs the change."""
    runs: dict[str, list[dict]] = {w: [] for w in WORKLOADS}
    for k in range(PAIRS):
        sides = [("parent", parent), ("change", change)]
        if k % 2:
            sides.reverse()
        for workload in WORKLOADS:
            pair = {}
            for side, tree in sides:
                pair[side] = run(tree, workload, k + 1)
                print(f"pair {k + 1}/{PAIRS} {workload} {side}: "
                      f"sim_ips {pair[side]['sim_ips']:.0f}"
                      f"{'' if pair[side]['correct'] else ' WRONG'}", flush=True)
            runs[workload].append(pair)
    return runs


def ratios(pairs: list[dict]) -> list[float]:
    """Change/parent ``sim_ips`` of every pair with a usable parent run."""
    return [
        p["change"]["sim_ips"] / p["parent"]["sim_ips"]
        for p in pairs
        if p["parent"]["sim_ips"] > 0
    ]


def check(runs: dict[str, list[dict]]) -> list[str]:
    """Every reason the gate fails; empty when the change passes."""
    problems = []
    for workload, pairs in runs.items():
        if not pairs:
            problems.append(f"{workload}: no runs")
            continue
        for k, pair in enumerate(pairs, 1):
            for side in ("parent", "change"):
                run = pair[side]
                if not run["correct"] or run["sim_ips"] <= 0:
                    problems.append(
                        f"{workload} pair {k}: {side} run is wrong or has no "
                        "throughput (golden digest mismatch or crash)"
                    )
        r = ratios(pairs)
        if r and statistics.median(r) < 1 - BOUND:
            problems.append(
                f"{workload}: median sim_ips ratio {statistics.median(r):.3f} "
                f"< {1 - BOUND:.3f} (pairs: "
                + ", ".join(f"{x:.3f}" for x in r) + ")"
            )
    return problems


def main(argv=None, run=run_bench) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", type=Path, default=REPO_ROOT / ".bench-seed",
                    help="checkout of the parent commit (default .bench-seed)")
    ap.add_argument("--report", type=Path, default=None,
                    help="also write every run and the verdict as JSON here")
    args = ap.parse_args(argv)
    if not (args.parent / "perfbench" / "run.py").is_file():
        print(f"error: no parent checkout at {args.parent}", file=sys.stderr)
        return 2

    runs = collect(args.parent.resolve(), REPO_ROOT, run)
    problems = check(runs)
    medians = {w: statistics.median(ratios(p)) if ratios(p) else None
               for w, p in runs.items()}
    for workload, med in medians.items():
        print(f"{workload}: median sim_ips ratio "
              f"{'n/a' if med is None else f'{med:.3f}'} (bound {1 - BOUND:.3f})")
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    if args.report is not None:
        args.report.write_text(json.dumps({
            "pairs": PAIRS, "bound": BOUND, "runs": runs,
            "median_ratio": medians, "problems": problems,
        }, indent=2) + "\n")
    print("ab-gate:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
