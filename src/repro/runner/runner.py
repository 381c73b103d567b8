"""The resilient experiment runner: the single execution path for runs.

Every ``(config, workload, n_instrs)`` simulation in the experiment suite
goes through :meth:`ExperimentRunner.run`, which layers four behaviours over
the bare :class:`~repro.sim.simulator.Simulator`:

1. **Checkpoint/resume** — completed results are served from a
   :class:`~repro.runner.store.ResultStore`; with a checkpoint directory,
   each result is persisted the moment it completes, so an interrupted sweep
   resumes where it left off.
2. **Wall-clock deadlines** — a cooperative per-instruction check aborts
   runs that exceed ``timeout_s`` with :class:`~repro.errors.RunTimeoutError`
   (no threads, no signals: deterministic and test-friendly).
3. **Bounded retry with backoff** — transient failures are retried up to
   ``retries`` times with exponential backoff; config errors and timeouts
   are not retried (a deterministic simulator will fail the same way again).
4. **Result integrity checks** — a run that "succeeds" with non-finite or
   nonsensical metrics is treated as a failure, not checkpointed.

When a run is out of recovery options the runner raises
:class:`~repro.errors.RunFailure` and appends a structured
:class:`FailureRecord` to :attr:`ExperimentRunner.failures`; the experiment
CLI turns those into the failure report and a nonzero exit.
"""

from __future__ import annotations

import logging
import math
import random
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterable

from .. import obs
from ..errors import (
    ConfigError,
    ResultIntegrityError,
    RunFailure,
    RunTimeoutError,
)
from ..obs import get_logger, log_event
from ..sim.config import SimConfig
from ..sim.metrics import RunResult
from ..sim.simulator import Simulator
from .store import ResultStore

#: How many retired instructions between wall-clock deadline checks.
DEADLINE_CHECK_INTERVAL = 256

logger = get_logger("runner")


@dataclass
class RunnerStats:
    """Counters describing what the runner actually did (tests key off these)."""

    executed: int = 0        #: simulations actually run (attempts that started)
    completed: int = 0       #: runs that produced a valid result
    store_hits: int = 0      #: results served from the store without simulating
    cache_hits: int = 0      #: result-cache hits (no simulation)
    retries: int = 0         #: re-attempts after a transient failure
    timeouts: int = 0        #: runs aborted by the wall-clock deadline
    failures: int = 0        #: runs abandoned after all recovery attempts


@dataclass
class FailureRecord:
    """One abandoned run, in the shape the failure report serializes."""

    config_name: str
    workload: str
    n_instrs: int
    error_type: str
    message: str
    elapsed_s: float
    attempts: int
    experiment: str | None = None   #: filled in by the CLI loop
    #: ``repr`` of the exception from *every* attempt, in order — the
    #: intermediate failures a retried run swallowed used to be lost;
    #: now each is recorded here and logged at WARNING as it happens.
    attempt_errors: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


class Deadline:
    """Cooperative wall-clock deadline checked from the simulation loop.

    The simulator polls it with the retired-instruction index on every step
    of the warmup and measure loops plus every phase boundary; the clock is
    consulted every :data:`DEADLINE_CHECK_INTERVAL` retired instructions
    (an index of 0 — the phase-boundary convention — always checks), so a
    serial ``--timeout`` fires within a bounded number of instructions, not
    merely at phase boundaries.
    """

    def __init__(self, timeout_s: float, clock: Callable[[], float]) -> None:
        self.timeout_s = timeout_s
        self._clock = clock
        self._start = clock()

    def __call__(self, retired: int) -> None:
        if retired % DEADLINE_CHECK_INTERVAL:
            return
        elapsed = self._clock() - self._start
        if elapsed > self.timeout_s:
            raise RunTimeoutError(
                f"run exceeded {self.timeout_s:g}s wall-clock deadline "
                f"({elapsed:.1f}s elapsed)",
                elapsed_s=elapsed,
                timeout_s=self.timeout_s,
            )


def _chain(*hooks):
    hooks = tuple(h for h in hooks if h is not None)
    if not hooks:
        return None
    if len(hooks) == 1:
        return hooks[0]

    def chained(retired: int) -> None:
        for hook in hooks:
            hook(retired)

    return chained


def validate_result(result: RunResult) -> RunResult:
    """Sanity-check a finished run; raises :class:`ResultIntegrityError`."""
    for label, value in (
        ("cycles", result.cycles),
        ("avg_load_latency", result.avg_load_latency),
        ("code_stall_cycles", result.code_stall_cycles),
    ):
        if not math.isfinite(value):
            raise ResultIntegrityError(
                f"{result.config_name}/{result.workload}: non-finite "
                f"{label} ({value!r})"
            )
    if result.cycles <= 0 or result.instructions <= 0:
        raise ResultIntegrityError(
            f"{result.config_name}/{result.workload}: empty measurement "
            f"({result.instructions} instrs, {result.cycles} cycles)"
        )
    return result


class ExperimentRunner:
    """Executes simulations with checkpointing, deadlines and fault isolation.

    Args:
        store: result store (defaults to a fresh memory-only store).
        timeout_s: per-run wall-clock deadline; ``None`` disables it.
        retries: additional attempts after a transient failure.
        backoff_s: cap base of the exponential retry backoff: before
            attempt ``attempt+1`` the runner sleeps a *full-jitter* draw
            ``uniform(0, backoff_s * 2**attempt)``, so a fleet of workers
            hitting one shared transient fault (an NFS blip, a saturated
            disk) spreads its retries out instead of thundering back in
            lockstep at exactly the same instant.
        rng: uniform ``[0, 1)`` source for the jitter draw (defaults to
            ``random.random``); tests inject a deterministic callable —
            ``lambda: 1.0`` reproduces the old un-jittered ceiling.
        simulator_factory: ``config -> Simulator``-like; the fault-injection
            harness substitutes its wrapper here.
        clock / sleep: injectable time sources (tests use fakes).
        cache: optional content-addressed result cache
            (:class:`repro.cache.ResultCache`), consulted after a store
            miss and fed on every completion.  Hits are promoted into the
            store (so later lookups stay local).
    """

    def __init__(
        self,
        store: ResultStore | None = None,
        *,
        timeout_s: float | None = None,
        retries: int = 0,
        backoff_s: float = 0.25,
        rng: Callable[[], float] = random.random,
        simulator_factory: Callable[[SimConfig], Simulator] = Simulator,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
        cache=None,
    ) -> None:
        self.store = store if store is not None else ResultStore()
        self.timeout_s = timeout_s
        self.retries = retries
        self.backoff_s = backoff_s
        self.rng = rng
        self.simulator_factory = simulator_factory
        self.clock = clock
        self.sleep = sleep
        self.cache = cache
        self.stats = RunnerStats()
        self.failures: list[FailureRecord] = []
        #: Optional per-instruction callable chained into every attempt's
        #: ``on_instruction`` hook — the fleet worker installs its heartbeat
        #: here so liveness reporting rides the existing simulator hook.
        self.instruction_hook: Callable[[int], None] | None = None

    # ------------------------------------------------------------- running

    def run(self, config: SimConfig, workload: str, n_instrs: int) -> RunResult:
        """Run (or recall) one measurement; raises ``RunFailure`` when spent.

        A :class:`~repro.plugins.compose.Selection` activated via
        ``use_selection`` (the ``--prefetchers``/``--detector``/``--topology``
        CLI flags) re-composes the configuration here, so every experiment
        routed through a runner honours the overrides.

        :class:`~repro.errors.ConfigError` propagates as-is — an invalid
        machine is a caller bug, not a run-level fault to retry or absorb.
        """
        from ..plugins.compose import apply_active_selection

        config = apply_active_selection(config)
        config.validate()
        recalled = self._recall(config, workload, n_instrs)
        if recalled is not None:
            return recalled

        start = self.clock()
        attempts = 0
        attempt_errors: list[str] = []
        while True:
            attempts += 1
            self.stats.executed += 1
            try:
                result = self._attempt(config, workload, n_instrs)
            except RunTimeoutError as exc:
                attempt_errors.append(repr(exc))
                self.stats.timeouts += 1
                log_event(
                    logger, logging.WARNING, "run timed out",
                    config=config.name, workload=workload,
                    attempt=attempts, error=repr(exc),
                )
                raise self._fail(
                    config, workload, n_instrs, exc, attempts, start,
                    attempt_errors,
                )
            except ConfigError:
                raise
            except KeyboardInterrupt:
                raise
            except Exception as exc:
                attempt_errors.append(repr(exc))
                if attempts <= self.retries:
                    self.stats.retries += 1
                    # Full jitter: uniform over [0, exponential ceiling).
                    backoff = (
                        self.backoff_s * (2 ** (attempts - 1)) * self.rng()
                    )
                    log_event(
                        logger, logging.WARNING, "retrying after failure",
                        config=config.name, workload=workload,
                        attempt=attempts, max_attempts=self.retries + 1,
                        error=repr(exc), backoff_s=backoff,
                    )
                    self.sleep(backoff)
                    continue
                raise self._fail(
                    config, workload, n_instrs, exc, attempts, start,
                    attempt_errors,
                )
            self.stats.completed += 1
            self.store.put(config, workload, n_instrs, result)
            self._cache_put(config, workload, n_instrs, result)
            log_event(
                logger, logging.INFO, "run completed",
                config=config.name, workload=workload, n=n_instrs,
                attempts=attempts, ipc=round(result.ipc, 4),
                elapsed_s=round(self.clock() - start, 3),
            )
            return result

    # -------------------------------------------------------- result cache

    def _recall(
        self, config: SimConfig, workload: str, n_instrs: int
    ) -> RunResult | None:
        """A stored result for this point, or ``None`` when it must run.

        The campaign store answers first (and re-feeds the shared cache);
        on a store miss, a shared-cache hit is promoted into the store so
        the rest of the campaign hits locally — and byte-identically.
        """
        result = self.store.get(config, workload, n_instrs)
        if result is not None:
            self.stats.store_hits += 1
            self._cache_put(config, workload, n_instrs, result)
            log_event(
                logger, logging.DEBUG, "served from store",
                config=config.name, workload=workload, n=n_instrs,
            )
            return result
        hit = self._cache_lookup(config, workload, n_instrs)
        if hit is None:
            return None
        self.stats.cache_hits += 1
        self.store.put(config, workload, n_instrs, hit.result)
        log_event(
            logger, logging.DEBUG, "served from result cache",
            config=config.name, workload=workload, n=n_instrs,
        )
        return hit.result

    def _cache_lookup(self, config: SimConfig, workload: str, n_instrs: int):
        """Consult the shared result cache (best-effort: errors are misses)."""
        if self.cache is None:
            return None
        try:
            return self.cache.lookup(config, workload, n_instrs)
        except OSError as exc:
            log_event(
                logger, logging.WARNING, "result-cache lookup failed",
                config=config.name, workload=workload, error=repr(exc),
            )
            return None

    def _cache_put(
        self, config: SimConfig, workload: str, n_instrs: int, result: RunResult
    ) -> None:
        """Feed the shared cache, best-effort.

        A cache-write failure must never fail the run: the store write —
        the durable copy that the exactly-once contract cares about — has
        already landed (and *its* failures do propagate, feeding the
        daemon's safe mode).
        """
        if self.cache is None:
            return
        try:
            self.cache.put(config, workload, n_instrs, result)
        except OSError as exc:
            log_event(
                logger, logging.WARNING, "result-cache write failed",
                config=config.name, workload=workload, error=repr(exc),
            )

    def _attempt(self, config: SimConfig, workload: str, n_instrs: int) -> RunResult:
        from ..plugins.workloads import is_mix, mix_names

        if is_mix(workload):
            # A multi-programmed mix runs on the shared-hierarchy driver.
            # It bypasses simulator_factory: fault wrappers target the
            # single-core Simulator surface, and the daemon rejects
            # inject_fault for mix jobs at admission.
            from ..sim.multicore import MultiCoreSimulator

            sim = MultiCoreSimulator(config, n_cores=len(mix_names(workload)))
        else:
            sim = self.simulator_factory(config)
        deadline = (
            Deadline(self.timeout_s, self.clock)
            if self.timeout_s is not None
            else None
        )
        # The deadline kwarg is only passed when armed, so simulator doubles
        # (tests, fault wrappers) without it in their signature keep working
        # on the timeout-free path.
        kwargs = {} if deadline is None else {"deadline": deadline}
        with obs.span(
            f"run:{config.name}/{workload}",
            cat="runner",
            args={"config": config.name, "workload": workload, "n": n_instrs},
        ):
            result = sim.run(
                workload,
                n_instrs,
                on_instruction=_chain(self.instruction_hook),
                **kwargs,
            )
        return validate_result(result)

    def _fail(
        self,
        config: SimConfig,
        workload: str,
        n_instrs: int,
        cause: BaseException,
        attempts: int,
        start: float,
        attempt_errors: list[str] | None = None,
    ) -> RunFailure:
        elapsed = self.clock() - start
        record = FailureRecord(
            config_name=config.name,
            workload=workload,
            n_instrs=n_instrs,
            error_type=type(cause).__name__,
            message=str(cause),
            elapsed_s=elapsed,
            attempts=attempts,
            attempt_errors=list(attempt_errors or []),
        )
        self.failures.append(record)
        self.stats.failures += 1
        log_event(
            logger, logging.ERROR, "run abandoned",
            config=config.name, workload=workload, attempts=attempts,
            error_type=record.error_type, message=record.message,
            attempt_errors=record.attempt_errors,
        )
        failure = RunFailure(
            f"{config.name}/{workload} failed after {attempts} attempt(s) "
            f"({record.error_type}: {record.message})",
            config_name=config.name,
            workload=workload,
            n_instrs=n_instrs,
            attempts=attempts,
            elapsed_s=elapsed,
        )
        failure.__cause__ = cause
        return failure

    # ------------------------------------------------------------- sweeps

    def sweep(
        self,
        configs: Iterable[SimConfig],
        workloads: Iterable[str],
        n_instrs: int,
    ) -> dict[str, dict[str, RunResult]]:
        """Run every workload on every configuration (checkpointed per run)."""
        workloads = list(workloads)
        return {
            cfg.name: {wl: self.run(cfg, wl, n_instrs) for wl in workloads}
            for cfg in configs
        }

    # ------------------------------------------------------------- reports

    def failure_report(self) -> dict:
        """Structured report of everything that failed under this runner."""
        return {
            "failures": [record.to_dict() for record in self.failures],
            "stats": asdict(self.stats),
        }
