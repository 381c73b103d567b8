"""Composition layer: resolve registry names into built components.

This is the single place where ``SimConfig`` fields and CLI flags
(``--prefetchers``/``--detector``/``--topology``) turn into constructed
objects:

* :func:`core_prefetcher_factories` — the per-core trainer factories the
  simulator hands to :class:`~repro.cpu.core.OOOCore`.  When
  ``SimConfig.prefetchers`` is ``None`` the names are *derived from the
  legacy* ``CoreParams`` flags, so the default composition is
  registry-driven yet byte-identical to the hard-wired wiring it replaced
  (the golden digests enforce this).
* :func:`make_engine` — the engine matching the config (CATCH when a
  ``CatchConfig`` is present, the no-op :class:`Engine` otherwise).
* :class:`Selection` / :func:`apply_selection` — the CLI override object:
  a topology transform, a mixed prefetcher list (core entries go to
  ``SimConfig.prefetchers``, ``tact-*`` entries to ``CatchConfig.tact``),
  and a detector swap, with the semantically invalid combinations rejected
  as :class:`ConfigError` naming the conflicting fields.
* :func:`use_selection` / :func:`apply_active_selection` — process-wide
  override the experiment runners consult, so ``repro.experiments <fig>
  --detector oldest-in-rob`` re-composes every config an experiment builds
  without the experiment knowing.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, replace

from ..core.catch_engine import CatchConfig, CatchEngine
from ..core.tact.coordinator import TACTConfig
from ..cpu.engine import Engine
from ..errors import ConfigError
from .detectors import DETECTORS
from .prefetchers import PREFETCHERS
from .registry import canonical_name
from .topologies import TOPOLOGIES

__all__ = [
    "Selection",
    "add_selection_args",
    "apply_active_selection",
    "apply_selection",
    "core_prefetcher_factories",
    "core_prefetcher_names",
    "make_engine",
    "selection_from_args",
    "split_prefetcher_names",
    "use_selection",
]


# ------------------------------------------------------------ construction


def core_prefetcher_names(config) -> tuple[str, ...]:
    """Canonical core-scope prefetcher names for a configuration.

    ``SimConfig.prefetchers`` wins when set; otherwise the names are derived
    from the legacy ``CoreParams.enable_l1_stride``/``enable_l2_stream``
    flags (the pre-registry wiring), preserving the default composition.
    """
    if config.prefetchers is not None:
        return tuple(canonical_name(name) for name in config.prefetchers)
    names = []
    if config.core.enable_l1_stride:
        names.append("ip-stride")
    if config.core.enable_l2_stream:
        names.append("stream")
    return tuple(names)


def core_prefetcher_factories(config) -> list:
    """Resolve :func:`core_prefetcher_names` to trainer factories."""
    factories = []
    for name in core_prefetcher_names(config):
        spec = PREFETCHERS.get(name)
        if spec.scope != "core" or spec.factory is None:
            raise ConfigError(
                f"{config.name}: prefetcher {name!r} has scope "
                f"{spec.scope!r} and cannot be built per-core; TACT "
                f"components belong in catch.tact, not SimConfig.prefetchers"
            )
        factories.append(spec.factory)
    return factories


def make_engine(config) -> Engine:
    """Engine matching the config (CATCH when configured, else no-op)."""
    if config.catch is not None:
        return CatchEngine(config.catch)
    return Engine()


def split_prefetcher_names(names) -> tuple[list[str], list[str]]:
    """Split a mixed prefetcher list into (core names, TACT components)."""
    core_names: list[str] = []
    tact_components: list[str] = []
    for name in names:
        spec = PREFETCHERS.get(name)
        if spec.scope == "tact":
            tact_components.append(spec.component)
        else:
            core_names.append(canonical_name(name))
    return core_names, tact_components


# --------------------------------------------------------------- Selection


@dataclass(frozen=True)
class Selection:
    """CLI-level component overrides applied on top of a ``SimConfig``."""

    prefetchers: tuple[str, ...] | None = None
    detector: str | None = None
    topology: str | None = None

    def __bool__(self) -> bool:
        return (
            self.prefetchers is not None
            or self.detector is not None
            or self.topology is not None
        )


def apply_selection(config, selection: Selection):
    """Re-compose one configuration under a :class:`Selection`.

    Semantics:

    * ``topology`` applies first (its transform renames the config the way
      the equivalent factory would).
    * ``prefetchers`` is exhaustive: core entries replace
      ``SimConfig.prefetchers``; ``tact-*`` entries replace the enabled
      ``CatchConfig.tact`` components (creating a CATCH config with the
      ``ddg`` detector if none exists); listing *no* ``tact-*`` entry on a
      CATCH config turns it detector-only (criticality is still learned,
      TACT stops prefetching).
    * ``detector`` swaps the identification mechanism wherever a CATCH
      config exists (or creates a detector-only one); ``none`` strips the
      CATCH engine entirely and conflicts with ``tact-*`` prefetchers.

    A re-composed config gets a ``name`` suffix recording the overrides, so
    checkpoint keys and result rows never collide with the unmodified run.
    """
    sel = selection
    cfg = config
    if sel.topology is not None:
        cfg = TOPOLOGIES.get(sel.topology).transform(cfg)
    base = cfg

    tact_components: list[str] | None = None
    if sel.prefetchers is not None:
        core_names, tact_components = split_prefetcher_names(sel.prefetchers)
        cfg = replace(cfg, prefetchers=tuple(core_names))
    detector = (
        canonical_name(sel.detector) if sel.detector is not None else None
    )

    if detector == "none":
        if tact_components:
            raise ConfigError(
                f"{cfg.name}: prefetchers "
                f"{['tact-' + c for c in tact_components]} require a "
                f"criticality detector but detector='none' was selected "
                f"(conflicting fields: prefetchers, detector)"
            )
        if cfg.catch is not None:
            cfg = replace(cfg, catch=None)
    else:
        catch = cfg.catch
        if tact_components:
            seed = catch if catch is not None else CatchConfig()
            catch = replace(
                seed,
                tact=TACTConfig.with_components(tact_components),
                detector=detector or seed.detector,
                detector_only=False,
            )
        elif sel.prefetchers is not None and catch is not None:
            catch = replace(
                catch,
                detector_only=True,
                detector=detector or catch.detector,
            )
        elif detector is not None:
            catch = (
                replace(catch, detector=detector)
                if catch is not None
                else CatchConfig(detector=detector, detector_only=True)
            )
        if catch != cfg.catch:
            cfg = replace(cfg, catch=catch)

    if cfg != base:
        parts = []
        if sel.prefetchers is not None:
            parts.append(
                "pf=" + "+".join(canonical_name(n) for n in sel.prefetchers)
            )
        if detector is not None:
            parts.append(f"det={detector}")
        if parts:
            cfg = replace(cfg, name=f"{cfg.name}[{','.join(parts)}]")
    return cfg


# ----------------------------------------------------------- CLI plumbing


def add_selection_args(parser) -> None:
    """Attach the shared component-selection flags to an argparse parser."""
    group = parser.add_argument_group(
        "component selection",
        "override the plugin composition of every configuration the command "
        "builds (see `python -m repro.sim plugins` for the registries)",
    )
    group.add_argument(
        "--prefetchers", nargs="+", metavar="NAME", default=None,
        help="exhaustive prefetcher list: core entries (ip-stride, stream, "
             "next-line, ...) and/or TACT components (tact-cross, ...); "
             "'none' selects no prefetchers at all",
    )
    group.add_argument(
        "--detector", metavar="NAME", default=None,
        help="criticality detector (ddg, oracle, load-miss-pc, ...); "
             "'none' strips the CATCH engine entirely",
    )
    group.add_argument(
        "--topology", metavar="NAME", default=None,
        help="hierarchy shape transform (baseline, no-l2, no-l2-catch, ...)",
    )


def selection_from_args(args) -> Selection:
    """Build a :class:`Selection` from parsed ``add_selection_args`` flags."""
    prefetchers = None
    if args.prefetchers is not None:
        names = [
            name
            for token in args.prefetchers
            for name in token.split(",")
            if name
        ]
        if names == ["none"]:
            names = []
        prefetchers = tuple(names)
    return Selection(
        prefetchers=prefetchers,
        detector=args.detector,
        topology=args.topology,
    )


# ------------------------------------------------------- active selection

_active_selection: Selection | None = None


@contextlib.contextmanager
def use_selection(selection: Selection | None):
    """Make ``selection`` the process-wide override for the duration."""
    global _active_selection
    previous = _active_selection
    _active_selection = selection if selection else None
    try:
        yield
    finally:
        _active_selection = previous


def apply_active_selection(config):
    """Apply the active :class:`Selection` (identity when none is active)."""
    if _active_selection is None:
        return config
    return apply_selection(config, _active_selection)
