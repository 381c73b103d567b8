"""Experiment registry and command-line entry point.

Usage::

    python -m repro.experiments <experiment> [--quick]
    python -m repro.experiments all [--quick] [--keep-going]

``--quick`` runs the representative workload cross-section at a short trace
length (what the benchmark suite uses); the default runs the full suite at
the full length and reproduces the paper's figures.

Long campaigns run through the resilient runner (:mod:`repro.runner`):

* ``--jobs/-j N`` dispatches runs to N isolated worker subprocesses
  (:mod:`repro.runner.fleet`); ``0`` means one per CPU.  The default
  (``1``) is the unchanged serial path.  Parallel results are returned in
  submission order and checkpointed by the parent, so they are
  byte-identical to a serial campaign's.
* ``--checkpoint-dir DIR`` persists every completed ``(config, workload)``
  run as a JSON checkpoint the moment it finishes; with ``--resume`` a rerun
  skips everything already checkpointed.
* ``--timeout S`` aborts any single run exceeding the wall-clock deadline;
  under ``--jobs`` the parent additionally hard-kills workers that blow
  through it and cannot be stopped cooperatively.  ``--retries N``
  re-attempts transient per-run failures with backoff.  ``--max-rss-mb M``
  (parallel only) kills workers whose resident set exceeds the guard.
* ``--keep-going`` isolates failures: a crashing experiment is recorded in
  the structured failure report and the remaining experiments still run.
  ``--failure-report PATH`` writes the report as JSON; it is also embedded
  in ``--json`` output.
* ``--inject-fault SPEC`` (testing, repeatable) deterministically sabotages
  matching runs — e.g. ``raise:workload=hmmer_like:at=2000`` — so the
  resilience machinery itself is exercisable end to end.  The
  ``worker-crash``/``worker-hang``/``worker-oom`` kinds take down whole
  worker processes and therefore require ``--jobs >= 2``.

Exit codes: 0 success; 1 failed (stopped at the first failing experiment);
3 completed under ``--keep-going`` but with recorded failures;
130 interrupted (completed runs are checkpointed and, under ``--jobs``, a
resume manifest is written — rerun with ``--resume``).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .. import obs
from ..cache import add_cache_args, cache_from_args
from ..plugins import add_selection_args, selection_from_args, use_selection
from ..runner import (
    ExperimentRunner,
    FailureRecord,
    FaultInjector,
    FleetRunner,
    ResultStore,
    WORKER_KINDS,
    use_runner,
)
from ..sim.serialization import json_default
from . import (
    detector_comparison,
    interconnect_scaling,
    fig01_remove_l2,
    fig03_latency_sensitivity,
    fig04_criticality_oracle,
    fig05_oracle_prefetch,
    fig10_catch_exclusive,
    fig11_timeliness,
    fig12_per_workload,
    fig13_tact_components,
    fig14_multiprogrammed,
    fig15_llc_latency,
    fig16_energy,
    fig17_inclusive,
    prefetcher_comparison,
    table1_area,
    table2_workloads,
)

EXPERIMENTS = {
    "fig01": fig01_remove_l2,
    "fig03": fig03_latency_sensitivity,
    "fig04": fig04_criticality_oracle,
    "fig05": fig05_oracle_prefetch,
    "fig10": fig10_catch_exclusive,
    "fig11": fig11_timeliness,
    "fig12": fig12_per_workload,
    "fig13": fig13_tact_components,
    "fig14": fig14_multiprogrammed,
    "fig15": fig15_llc_latency,
    "fig16": fig16_energy,
    "fig17": fig17_inclusive,
    "table1": table1_area,
    "table2": table2_workloads,
    "detectors": detector_comparison,
    "interconnect": interconnect_scaling,
    "prefetchers": prefetcher_comparison,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.experiments",
        description="Reproduce the paper's tables and figures",
    )
    parser.add_argument("experiment", choices=[*EXPERIMENTS, "all"])
    parser.add_argument("--quick", action="store_true", help="fast subset")
    parser.add_argument("--json", metavar="PATH", help="also dump results as JSON")
    parser.add_argument(
        "--render", action="store_true",
        help="additionally draw ASCII bar charts of the summaries",
    )
    add_selection_args(parser)
    resil = parser.add_argument_group("resilience (see repro.runner)")
    resil.add_argument(
        "--jobs", "-j", type=int, default=1, metavar="N",
        help="run simulations in N isolated worker processes "
             "(default 1 = serial in-process; 0 = one per CPU)",
    )
    resil.add_argument(
        "--max-rss-mb", type=float, metavar="M",
        help="with --jobs: kill any worker whose RSS exceeds M MiB "
             "(recorded as a WorkerOOMError failure)",
    )
    resil.add_argument(
        "--checkpoint-dir", metavar="DIR",
        help="persist each completed (config, workload) run under DIR",
    )
    resil.add_argument(
        "--resume", action="store_true",
        help="serve runs already checkpointed in --checkpoint-dir from disk",
    )
    resil.add_argument(
        "--timeout", type=float, metavar="S",
        help="wall-clock deadline per (config, workload) run, in seconds",
    )
    resil.add_argument(
        "--retries", type=int, default=0, metavar="N",
        help="retry a transiently failing run up to N times (default 0)",
    )
    resil.add_argument(
        "--keep-going", action="store_true",
        help="on failure, record it and continue with the next experiment",
    )
    resil.add_argument(
        "--failure-report", metavar="PATH",
        help="write the structured failure report as JSON to PATH",
    )
    resil.add_argument(
        "--inject-fault", metavar="SPEC", action="append", default=[],
        help="testing (repeatable): deterministically fail matching runs; "
             "SPEC is kind[:key=value...] with kind raise|corrupt-trace|"
             "nan-metrics|worker-crash|worker-hang|worker-oom and keys "
             "at=, workload=, config=, times= (worker-* kinds need "
             "--jobs >= 2)",
    )
    add_cache_args(parser)
    obs.add_observability_args(parser)
    return parser


#: Exit statuses (0 and 1 keep their historical meaning).
EXIT_OK = 0
EXIT_FAILED = 1
#: Distinct status for "--keep-going finished the campaign, but with
#: recorded failures" — scripts can tell a partial campaign from a dead one.
EXIT_COMPLETED_WITH_FAILURES = 3
#: Interrupted (SIGINT/SIGTERM); matches the shell's 128+SIGINT convention.
EXIT_INTERRUPTED = 130


def make_runner(args: argparse.Namespace) -> ExperimentRunner:
    """Build the runner an invocation's resilience flags describe."""
    if args.resume and not args.checkpoint_dir:
        raise SystemExit("--resume requires --checkpoint-dir")
    if args.jobs < 0:
        raise SystemExit("--jobs must be >= 0 (0 = one worker per CPU)")
    store = ResultStore(args.checkpoint_dir, resume=args.resume)
    try:
        injectors = [FaultInjector.from_spec(s) for s in args.inject_fault]
    except ValueError as exc:
        raise SystemExit(f"--inject-fault: {exc}")
    parallel = args.jobs != 1
    if not parallel:
        for injector in injectors:
            if injector.kind in WORKER_KINDS:
                raise SystemExit(
                    f"--inject-fault {injector.kind} kills a whole process "
                    f"and needs isolated workers; rerun with --jobs >= 2"
                )
        if len(injectors) > 1:
            raise SystemExit(
                "multiple --inject-fault specs require --jobs (the serial "
                "runner takes a single simulator factory)"
            )
        if args.max_rss_mb is not None:
            raise SystemExit("--max-rss-mb requires --jobs (it guards workers)")
        kwargs: dict = {}
        if injectors:
            kwargs["simulator_factory"] = injectors[0].simulator_factory
        return ExperimentRunner(
            store,
            timeout_s=args.timeout,
            retries=args.retries,
            cache=cache_from_args(args),
            **kwargs,
        )
    return FleetRunner(
        store,
        jobs=args.jobs,
        timeout_s=args.timeout,
        retries=args.retries,
        max_rss_mb=args.max_rss_mb,
        fault_specs=injectors,
        cache=cache_from_args(args),
    )


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    collected: dict = {}
    failed: list[FailureRecord] = []
    # --prefetchers/--detector/--topology re-compose every configuration the
    # selected experiments build; the runners apply the active selection
    # (parent-side under --jobs, so workers receive composed configs).
    selection = selection_from_args(args)
    with use_selection(selection), obs.observability_session(args):
        runner = make_runner(args)
        # N-of-M progress with ETA on stderr for multi-experiment sweeps;
        # single-experiment runs keep their output exactly as before.
        progress = (
            obs.Progress(len(names), label="experiments")
            if len(names) > 1
            else None
        )
        with use_runner(runner):
            for name in names:
                obs.console(f"=== {name} " + "=" * (70 - len(name)))
                started = time.monotonic()
                before = len(runner.failures)
                try:
                    with obs.span(f"experiment:{name}", cat="experiment"):
                        collected[name] = EXPERIMENTS[name].main(quick=args.quick)
                except KeyboardInterrupt:
                    return _interrupted(args, collected, failed, runner)
                except Exception as exc:
                    record = _experiment_failure(
                        name, exc, runner.failures[before:], started
                    )
                    failed.append(record)
                    print(
                        f"!!! {name} failed: {record.error_type}: {record.message}",
                        file=sys.stderr,
                    )
                    if not args.keep_going:
                        _finish(args, collected, failed, runner)
                        return EXIT_FAILED
                else:
                    if args.render:
                        _render(collected[name])
                if progress is not None:
                    progress.tick(name)
                obs.console()
        return _finish(args, collected, failed, runner)


def _interrupted(
    args: argparse.Namespace,
    collected: dict,
    failed: list[FailureRecord],
    runner: ExperimentRunner,
) -> int:
    """Ctrl-C / SIGTERM: flush what we have and exit 130, resumably."""
    print("interrupted: stopping campaign", file=sys.stderr)
    if args.checkpoint_dir:
        print(
            f"completed runs are checkpointed under {args.checkpoint_dir}; "
            f"rerun with --checkpoint-dir {args.checkpoint_dir} --resume "
            f"to continue",
            file=sys.stderr,
        )
    manifest = getattr(runner, "last_manifest", None)
    if manifest is not None and args.checkpoint_dir:
        counts = manifest.get("counts", {})
        print(
            f"resume manifest: {counts.get('completed', 0)} completed, "
            f"{counts.get('failed', 0)} failed, "
            f"{counts.get('pending', 0)} pending",
            file=sys.stderr,
        )
    _finish(args, collected, failed, runner, interrupted=True)
    return EXIT_INTERRUPTED


def _experiment_failure(
    name: str,
    exc: Exception,
    run_failures: list[FailureRecord],
    started: float,
) -> FailureRecord:
    """The report row for one crashed experiment.

    When the crash came through the runner the per-run record already names
    the config/workload; reuse it and tag the experiment.  Anything else
    (a crash outside the runner) still produces a structured row.
    """
    if run_failures:
        record = run_failures[-1]
    else:
        record = FailureRecord(
            config_name="",
            workload="",
            n_instrs=0,
            error_type=type(exc).__name__,
            message=str(exc),
            elapsed_s=time.monotonic() - started,
            attempts=1,
        )
    record.experiment = name
    return record


def _finish(
    args: argparse.Namespace,
    collected: dict,
    failed: list[FailureRecord],
    runner: ExperimentRunner,
    *,
    interrupted: bool = False,
) -> int:
    report = {
        "failures": [record.to_dict() for record in failed],
        "runner": runner.failure_report(),
    }
    if args.json:
        payload = {"experiments": collected, "failures": report["failures"]}
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2, default=json_default)
        obs.console(f"results written to {args.json}")
    if args.failure_report:
        with open(args.failure_report, "w") as fh:
            json.dump(report, fh, indent=2, default=json_default)
        obs.console(f"failure report written to {args.failure_report}")
    if failed or (interrupted and runner.failures):
        if args.failure_report:
            print(f"failure report: {args.failure_report}", file=sys.stderr)
    if failed:
        print(
            f"{len(failed)} experiment(s) failed: "
            + ", ".join(sorted({r.experiment or '?' for r in failed})),
            file=sys.stderr,
        )
        return (
            EXIT_COMPLETED_WITH_FAILURES if args.keep_going else EXIT_FAILED
        )
    return EXIT_OK


def _render(data: dict) -> None:
    """Draw ASCII charts for the summary shapes an experiment returned."""
    from .render import render_pct_bars, render_scurve

    summary = data.get("summary")
    if isinstance(summary, dict):
        first = next(iter(summary.values()), None)
        if isinstance(first, dict):
            geo = {cfg: row.get("GeoMean", 0.0) for cfg, row in summary.items()}
            obs.console(render_pct_bars(geo, title="GeoMean vs baseline"))
        elif isinstance(first, float):
            obs.console(render_pct_bars(summary, title="vs baseline"))
    curves = data.get("curves")
    if isinstance(curves, dict):
        for cfg, curve in curves.items():
            obs.console(render_scurve(curve, title=cfg))


if __name__ == "__main__":
    sys.exit(main())
