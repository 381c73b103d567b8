"""Resilient experiment runner: checkpoint/resume, deadlines, fault isolation.

The runner is the single execution path for experiment simulations: the
experiment modules call :func:`repro.experiments.common.cached_run`, which
delegates to whichever :class:`ExperimentRunner` is *active*.  The default is
a process-local runner with a memory-only store (exactly the old
``lru_cache`` behaviour); the experiment CLI installs a configured one
(checkpoint directory, resume, timeout, retries, fault injection) with
:func:`use_runner` for the duration of a campaign.

See :mod:`repro.runner.runner` for the execution semantics,
:mod:`repro.runner.store` for checkpoint/resume (the entry format itself
lives in :mod:`repro.cache.result_cache`),
:mod:`repro.runner.fleet` for the process-isolated parallel executor
(``--jobs N``) and :mod:`repro.runner.faultinject` for the testing harness.
"""

from __future__ import annotations

from contextlib import contextmanager

from .faultinject import FaultInjector, FaultySimulator, WORKER_KINDS
from .fleet import FleetRunner, FleetStats
from .runner import (
    Deadline,
    ExperimentRunner,
    FailureRecord,
    RunnerStats,
    validate_result,
)
from .store import ResultStore, config_fingerprint

_active_runner: ExperimentRunner | None = None


def get_runner() -> ExperimentRunner:
    """The runner experiment code executes through (created on first use)."""
    global _active_runner
    if _active_runner is None:
        _active_runner = ExperimentRunner()
    return _active_runner


def set_runner(runner: ExperimentRunner | None) -> ExperimentRunner | None:
    """Install (or, with ``None``, reset) the active runner; returns the old."""
    global _active_runner
    previous = _active_runner
    _active_runner = runner
    return previous


@contextmanager
def use_runner(runner: ExperimentRunner):
    """Scope ``runner`` as the active runner for a ``with`` block."""
    previous = set_runner(runner)
    try:
        yield runner
    finally:
        set_runner(previous)


__all__ = [
    "Deadline",
    "ExperimentRunner",
    "FailureRecord",
    "FaultInjector",
    "FaultySimulator",
    "FleetRunner",
    "FleetStats",
    "ResultStore",
    "RunnerStats",
    "WORKER_KINDS",
    "config_fingerprint",
    "get_runner",
    "set_runner",
    "use_runner",
    "validate_result",
]
