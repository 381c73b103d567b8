"""Independent oracle for TACT-Feeder's ``Address = Scale * Data + Base``
learner (Section IV-B1).

The brute-force model restates the learner's contract without its state
machine: after each (feeder data, target address) pair, the relation is
learned as soon as some Scale in {1, 2, 4, 8} has mapped the last
:data:`RUN` pairs onto one Base — a 2-bit confidence counter saturating
after three repeats of the first sighting — and, when several scales get
there on the same pair, the smallest wins (scales are tried in order).  It
is solved by checking every scale over every window of pairs.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.tact.feeder import FeederState

#: Consecutive pairs that must agree on one base: the first sighting plus
#: three confirmations of a 2-bit saturating counter.
RUN = 4
ORACLE_SCALES = (1, 2, 4, 8)


def brute_force(pairs):
    """``(scale, base, k)``: the relation learned at pair ``k``, or None."""
    for k in range(RUN - 1, len(pairs)):
        window = pairs[k - RUN + 1:k + 1]
        for scale in ORACLE_SCALES:
            bases = {addr - scale * data for data, addr in window}
            if len(bases) == 1:
                return scale, bases.pop(), k
    return None


def learner(pairs):
    """The same stream through a confirmed :class:`FeederState`."""
    state = FeederState(feeder_pc=0x100, confirmed=True)
    for k, (data, addr) in enumerate(pairs):
        state.observe_relation(addr, data)
        if state.learned:
            return state.scale, state.base, k
    return None


addresses = st.integers(-(1 << 20), 1 << 40)


@st.composite
def streams(draw):
    """Pairs that mostly follow one ``scale * data + base`` relation (the
    scale drawn may be one the learner cannot represent), with noise pairs
    mixed in and data values that repeat, so several scales can fit."""
    scale = draw(st.sampled_from([1, 2, 3, 4, 8]))
    base = draw(addresses)
    data_pool = draw(st.lists(st.integers(-64, 1 << 32), min_size=1, max_size=6))
    pairs = []
    for _ in range(draw(st.integers(0, 14))):
        data = draw(st.sampled_from(data_pool))
        if draw(st.integers(0, 4)) == 0:
            pairs.append((data, draw(addresses)))
        else:
            pairs.append((data, scale * data + base))
    return pairs


@given(streams())
@settings(max_examples=500, deadline=None)
def test_feeder_learner_matches_brute_force(pairs):
    assert learner(pairs) == brute_force(pairs)


small_pairs = st.lists(
    st.tuples(st.integers(-8, 8), st.integers(-16, 16)), min_size=1, max_size=4
).flatmap(lambda pool: st.lists(st.sampled_from(pool), max_size=12))


@given(small_pairs)
@example([(0, -1)] * 3)  # a base of -1 once matched the "no base yet" state
@settings(max_examples=300, deadline=None)
def test_feeder_learner_matches_brute_force_small_values(pairs):
    """Small values drawn from a small pool make repeats, coincidental
    fits, scale ties and negative bases common."""
    assert learner(pairs) == brute_force(pairs)


def test_learned_relation_predicts_the_stream():
    pairs = [(d, 4 * d + 0x1000) for d in (3, 9, 27, 81)]
    assert learner(pairs) == (4, 0x1000, 3)
    state = FeederState(feeder_pc=0x100, confirmed=True)
    for data, addr in pairs:
        state.observe_relation(addr, data)
    assert state.predict(5) == 4 * 5 + 0x1000
