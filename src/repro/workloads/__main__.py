"""Workload CLI: list the suite, dump traces to disk, inspect trace files.

Usage::

    python -m repro.workloads list
    python -m repro.workloads dump mcf_like --n 20000 --out mcf.trace.gz
    python -m repro.workloads dump tpcc_like --out tpcc.jsonl --format jsonl
    python -m repro.workloads info mcf.trace.gz

``dump --format`` selects gzipped JSON (``gz``, default), JSON Lines
(``jsonl``) or the compact binary format (``bin``); ``info`` sniffs the
format from the file's leading bytes.
"""

from __future__ import annotations

import argparse
import sys

from ..errors import ConfigError
from .serialization import (
    describe_trace,
    load_trace_any,
    save_trace,
    save_trace_bin,
    save_trace_jsonl,
)
from .suites import ST_SUITE, build_trace, get_spec

_SAVERS = {"gz": save_trace, "jsonl": save_trace_jsonl, "bin": save_trace_bin}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro.workloads")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the Table-II workload suite")

    dump = sub.add_parser("dump", help="generate a workload and save its trace")
    dump.add_argument("workload")
    dump.add_argument("--n", type=int, default=40_000, help="instruction count")
    dump.add_argument("--out", required=True, help="output trace path")
    dump.add_argument(
        "--format", choices=sorted(_SAVERS), default="gz",
        help="on-disk format (default: gzipped JSON)",
    )

    info = sub.add_parser("info", help="summarise a saved trace file")
    info.add_argument("path")

    args = parser.parse_args(argv)
    if args.command == "list":
        print(f"{'name':22s}{'category':10s}{'kernel':18s}{'multiplier':>11s}")
        for spec in ST_SUITE:
            print(
                f"{spec.name:22s}{spec.category:10s}"
                f"{spec.kernel.__name__:18s}{spec.length_multiplier:>11d}"
            )
    elif args.command == "dump":
        spec = get_spec(args.workload)
        trace = build_trace(args.workload, args.n * spec.length_multiplier)
        _SAVERS[args.format](trace, args.out)
        print(f"wrote {len(trace)} instructions to {args.out}")
    elif args.command == "info":
        try:
            summary = describe_trace(load_trace_any(args.path))
        except ConfigError as exc:
            raise SystemExit(str(exc))
        for key, value in summary.items():
            print(f"  {key:22s} {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
