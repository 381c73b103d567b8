"""Replacement policies for the set-associative cache model.

Policies operate on one cache set at a time.  A set is an insertion-ordered
``dict`` mapping ``tag -> CacheLine``; the policy maintains whatever per-line
metadata it needs and selects a victim when the set is full.

LRU is the baseline policy used throughout the paper's hierarchy.  It keeps
no per-line metadata: the set's dict order *is* the recency order (a fill
appends, a hit moves the line to the end), so the victim is the first key.
LIP, SRRIP, NRU and Random keep theirs on the line's ``repl`` field.  SRRIP
and NRU are provided for the design-space ablations (the paper cites
RRIP-family work [18] as complementary), and Random is a useful degenerate
reference.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Protocol

from ..plugins.registry import Registry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from .cache import CacheLine


class ReplacementPolicy(Protocol):
    """Interface implemented by all replacement policies."""

    def on_fill(self, cache_set: dict[int, "CacheLine"], line: "CacheLine") -> None:
        """Initialise metadata for a newly filled line."""

    def on_hit(self, cache_set: dict[int, "CacheLine"], line: "CacheLine") -> None:
        """Update metadata on a demand hit."""

    def victim(self, cache_set: dict[int, "CacheLine"]) -> int:
        """Return the tag of the line to evict from a full set."""


class LRUPolicy:
    """Least recently used, kept as the set's dict order (oldest first).

    Equivalent to a per-line timestamp that every fill and hit advances:
    those stamps are unique and strictly increasing, so ordering lines by
    last touch is the order they were last (re)inserted in the dict.
    """

    def on_fill(self, cache_set, line) -> None:
        pass  # a fill appends the line: already most recently used

    def on_hit(self, cache_set, line) -> None:
        tag = line.tag
        del cache_set[tag]
        cache_set[tag] = line

    def victim(self, cache_set) -> int:
        return next(iter(cache_set))


class MRUInsertLRUPolicy:
    """LRU with insertion at LRU position (LIP) — thrash-resistant variant.

    Keeps a per-line monotonic timestamp in ``repl``: a fill takes a stamp
    older than everything resident, a hit the newest stamp.  Used by the
    ablation benchmarks to show replacement policy is orthogonal to CATCH.
    """

    def __init__(self) -> None:
        self._clock = 0

    def _tick(self) -> int:
        self._clock += 1
        return self._clock

    def on_fill(self, cache_set, line) -> None:
        # Insert at LRU: pick a timestamp older than everything resident.
        if cache_set:
            line.repl = min(entry.repl for entry in cache_set.values()) - 1
        else:
            line.repl = self._tick()

    def on_hit(self, cache_set, line) -> None:
        line.repl = self._tick()

    def victim(self, cache_set) -> int:
        # Explicit scan instead of min(key=lambda ...): this runs once per
        # eviction and the lambda allocation/dispatch is measurable in the
        # kernel benchmark.  Strict < keeps min()'s first-minimal tie-break.
        best_tag = -1
        best = None
        for tag, line in cache_set.items():
            repl = line.repl
            if best is None or repl < best:
                best = repl
                best_tag = tag
        return best_tag


class RandomPolicy:
    """Random replacement with a deterministic per-cache RNG."""

    def __init__(self, seed: int = 0xCA7C4) -> None:
        self._rng = random.Random(seed)

    def on_fill(self, cache_set, line) -> None:
        line.repl = 0

    def on_hit(self, cache_set, line) -> None:
        pass

    def victim(self, cache_set) -> int:
        return self._rng.choice(list(cache_set))


class SRRIPPolicy:
    """Static re-reference interval prediction (Jaleel et al., ISCA'10).

    Lines are inserted with a *long* re-reference prediction value (RRPV),
    promoted to 0 on hit, and the victim is a line with the maximal RRPV
    (aging all lines when none qualifies).
    """

    def __init__(self, bits: int = 2) -> None:
        self.max_rrpv = (1 << bits) - 1

    def on_fill(self, cache_set, line) -> None:
        line.repl = self.max_rrpv - 1

    def on_hit(self, cache_set, line) -> None:
        line.repl = 0

    def victim(self, cache_set) -> int:
        while True:
            for tag, line in cache_set.items():
                if line.repl >= self.max_rrpv:
                    return tag
            for line in cache_set.values():
                line.repl += 1


class NRUPolicy:
    """Not-recently-used: single reference bit per line."""

    def on_fill(self, cache_set, line) -> None:
        line.repl = 1

    def on_hit(self, cache_set, line) -> None:
        line.repl = 1

    def victim(self, cache_set) -> int:
        for tag, line in cache_set.items():
            if not line.repl:
                return tag
        # All referenced: clear and evict the first.
        for line in cache_set.values():
            line.repl = 0
        return next(iter(cache_set))


#: Registry of replacement policies; entries are zero-argument policy
#: classes.  Lives here (not in ``repro.plugins``) because the cache model
#: itself resolves policies at build time; ``repro.plugins`` re-exports it
#: alongside the other component registries.
POLICIES: Registry[type] = Registry("replacement policy")
POLICIES.register("lru", LRUPolicy, summary="least recently used (paper baseline)")
POLICIES.register("lip", MRUInsertLRUPolicy, summary="LRU with insertion at LRU position (thrash-resistant)")
POLICIES.register("random", RandomPolicy, summary="random victim, deterministic per-cache RNG")
POLICIES.register("srrip", SRRIPPolicy, summary="static re-reference interval prediction (RRIP family)")
POLICIES.register("nru", NRUPolicy, summary="not-recently-used single reference bit")


def make_policy(name: str) -> ReplacementPolicy:
    """Instantiate a replacement policy by registered name.

    Unknown names raise :class:`~repro.errors.ConfigError` (a ``ValueError``
    subclass) listing the registered policies with a did-you-mean hint.
    """
    return POLICIES.get(name)()
