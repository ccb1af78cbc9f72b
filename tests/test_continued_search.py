"""A forest grown by the array levels, handed to the scalar loop, then continued.

The popularity test grows its forest from the seeds and then continues it
from the hub.  On a dominant-like input the seeds' first levels run in
arrays at the real `_WIDE` and hand over at a narrow level, so the scalar
loop and the continued search both run on the buffers the array levels
wrote.
"""

import random
from array import array

import numpy as np

from helpers import LevelSpy, assert_same_forest, maximum_matching, scalar_search
from popmatch.engine import _ODD, Graph, _run_search, gallai_edmonds


def test_array_grown_forest_continues_like_one_search(monkeypatch):
    # the 3,000-node sparse graph of `test_array_levels_run_at_full_width`,
    # with a pendant leaf on 2,000 of its nodes: the exposed nodes of a
    # maximum matching of the plain graph hold about 20 neighbour entries
    # in all, below `_WIDE`, while here some 400 leaves stay exposed
    rng = random.Random(26)
    n, leaves = 3000, 2000
    edges = {tuple(sorted(rng.sample(range(n), 2))) for _ in range(2 * n)}
    edges |= {(h, n + i) for i, h in enumerate(rng.sample(range(n), leaves))}
    g = Graph.from_edges(n + leaves, sorted(edges))
    match = maximum_matching(g)
    roots = [v for v in range(g.n) if match[v] == -1]
    k = len(roots) * 2 // 3
    ma = array(g.nbr.typecode, match)  # a partner buffer, as the popularity test passes

    spy = LevelSpy(monkeypatch)
    first = _run_search(g, ma, roots[:k])
    assert spy.levels >= 3 and spy.fired["narrow"] == 1, (spy.levels, spy.fired)
    assert_same_forest(first, scalar_search(g, match, roots[:k]))
    assert isinstance(first.p, array) and isinstance(first.dsu, array)
    odd = np.count_nonzero(np.frombuffer(first.label, dtype=np.uint8) == _ODD)
    assert odd > spy.fired["plain"]  # the scalar loop labeled some too

    before = bytes(first.label)
    both = _run_search(g, ma, roots[k:], forest=first)
    whole = _run_search(g, ma, roots)
    assert both is first and both.aug is None and whole.aug is None
    assert both.label == whole.label != before
    ge, one = gallai_edmonds(g, ma, both), gallai_edmonds(g, ma, whole)
    assert np.array_equal(ge.label, one.label) and np.array_equal(ge.piece, one.piece)
    assert np.array_equal(ge.roots, one.roots)
