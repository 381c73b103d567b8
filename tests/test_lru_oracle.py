"""Independent oracle for LRU and LIP replacement in ``Cache``.

The reference is the textbook model: per set, a Python list of
``[tag, dirty]`` ordered by last touch (LRU first).  A hit moves the line
to the MRU end; a fill of a new line evicts the LRU entry of a full set and
then inserts at the MRU end (LRU) or at the LRU end (LIP); a fill of a
resident line only merges its dirty bit.  Random access/fill/invalidate
streams must give the same hit/miss outcome, the same evicted
``(tag, dirty)`` and the same resident lines after every operation.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.caches.cache import Cache

LINE = 64


def _set_index(line: int, num_sets: int, hashed: bool) -> int:
    if hashed:
        h = (line * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        return ((h >> 24) ^ (h >> 48)) % num_sets
    return line % num_sets


class ReferenceCache:
    def __init__(self, num_sets: int, ways: int, hashed: bool, insert_at_lru: bool):
        self.sets = [[] for _ in range(num_sets)]
        self.ways = ways
        self.hashed = hashed
        self.insert_at_lru = insert_at_lru

    def _find(self, line):
        entries = self.sets[_set_index(line, len(self.sets), self.hashed)]
        for i, entry in enumerate(entries):
            if entry[0] == line:
                return entries, i
        return entries, None

    def access(self, line: int, write: bool) -> bool:
        entries, i = self._find(line)
        if i is None:
            return False
        entry = entries.pop(i)
        entry[1] = entry[1] or write
        entries.append(entry)
        return True

    def fill(self, line: int, dirty: bool):
        entries, i = self._find(line)
        if i is not None:
            entries[i][1] = entries[i][1] or dirty
            return None
        victim = None
        if len(entries) == self.ways:
            victim = tuple(entries.pop(0))
        if self.insert_at_lru:
            entries.insert(0, [line, dirty])
        else:
            entries.append([line, dirty])
        return victim

    def invalidate(self, line: int):
        entries, i = self._find(line)
        return None if i is None else tuple(entries.pop(i))

    def resident(self) -> set:
        return {entry[0] for entries in self.sets for entry in entries}


@st.composite
def scenarios(draw):
    """A cache geometry and a conflict-heavy stream: each set sees about
    two lines more than it has ways, so evictions and re-references mix."""
    num_sets = draw(st.integers(2, 4))
    ways = draw(st.integers(2, 8))
    op = st.sampled_from(["access", "access", "fill", "fill", "invalidate"])
    line = st.integers(0, (ways + 2) * num_sets - 1)
    stream = draw(st.lists(st.tuples(op, line, st.booleans()), min_size=60, max_size=200))
    return num_sets, ways, stream


@given(
    policy=st.sampled_from(["lru", "lip"]),
    hashed=st.booleans(),
    scenario=scenarios(),
)
@settings(max_examples=100, deadline=None)
def test_cache_matches_textbook_lru(policy, hashed, scenario):
    num_sets, ways, stream = scenario
    cache = Cache(
        "O", num_sets * ways * LINE, ways, 1, replacement=policy, hashed_index=hashed
    )
    assert cache.num_sets == num_sets
    ref = ReferenceCache(num_sets, ways, hashed, insert_at_lru=policy == "lip")
    for now, (op, line, flag) in enumerate(stream):
        if op == "access":
            hit = cache.access(line, float(now), write=flag) is not None
            assert hit == ref.access(line, flag), (now, op, line)
        elif op == "fill":
            victim = cache.fill(line, float(now), dirty=flag)
            got = None if victim is None else (victim[0], victim[1].dirty)
            assert got == ref.fill(line, flag), (now, op, line)
        else:
            gone = cache.invalidate(line)
            got = None if gone is None else (gone.tag, gone.dirty)
            assert got == ref.invalidate(line), (now, op, line)
        assert set(cache.resident_lines()) == ref.resident()
