import random

import pytest

import numpy as np

import popmatch.engine as engine
from popmatch.engine import (
    _EVEN,
    _ODD,
    EngineError,
    Graph,
    ReachSet,
    _augmenting_path,
    _find,
    _lca,
    _run_search,
    _trace_even,
    check_reach_properties,
    even_path_from_roots,
    gallai_edmonds,
    odd_cycle_through_root,
    reachable_set,
    shortest_alt_path_to_root,
)
from popmatch.model import Matching, check_matching
from popmatch.oracle import brute_gallai_edmonds, brute_max_matching_size

from helpers import (
    LevelSpy,
    _check_alternating,
    decompose,
    is_maximum,
    label_sets,
    maximum_matching,
    random_edge_graph,
    random_instance,
    reference_validate_matching,
)

# odd cycle hanging off an exposed vertex: 0 - 1=2 - 3=4 - 2 (= matched)
FLOWER = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 4)])
FLOWER_M = [-1, 2, 1, 4, 3]

PETERSEN = Graph.from_edges(
    10,
    [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]
    + [(i, i + 5) for i in range(5)]
    + [(5, 7), (7, 9), (9, 6), (6, 8), (8, 5)],
)


def test_graph_basics():
    g = Graph.from_edges(4, [(0, 1), (1, 0), (2, 1), (3, 0)])
    assert list(g.neighbors(1)) == [0, 2]
    assert list(g.neighbors(0)) == [1, 3]
    assert len(g.neighbors(2)) == 1 and len(g.neighbors(1)) == 2
    assert 3 in g.neighbors(0) and 3 not in g.neighbors(2)
    assert g.edge_count() == 3
    assert list(g.edges()) == [(0, 1), (0, 3), (1, 2)]


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError, match="self-loop"):
        Graph.from_edges(2, [(1, 1)])
    with pytest.raises(ValueError, match="out of range"):
        Graph.from_edges(2, [(0, 2)])
    # the first bad edge is named, whatever its kind
    with pytest.raises(ValueError, match=r"^edge \(-1, 0\) out of range$"):
        Graph.from_edges(3, [(0, 1), (-1, 0), (2, 2)])
    with pytest.raises(ValueError, match=r"^self-loop at vertex 5$"):
        Graph.from_edges(3, [(0, 1), (5, 5), (0, 3)])
    with pytest.raises(ValueError, match=r"^edge \(1, 3\) out of range$"):
        Graph.from_edges(3, np.array([[0, 1], [1, 3], [2, 2]]))


def test_graph_from_edge_array():
    pairs = [(0, 1), (1, 0), (2, 1), (3, 0), (0, 1)]  # repeats in both directions
    for edges in (pairs, np.array(pairs), iter(pairs)):
        g = Graph.from_edges(4, edges)
        assert (list(g.off), list(g.nbr)) == ([0, 2, 4, 5, 6], [1, 3, 0, 2, 1, 0])
        src, dst = g.edge_arrays()
        assert src.tolist() == [0, 0, 1, 1, 2, 3] and dst.tolist() == list(g.nbr)
    for edges in ([], np.empty((0, 2), dtype=np.int64)):
        g = Graph.from_edges(3, edges)
        assert (list(g.off), list(g.nbr), g.edge_count()) == ([0, 0, 0, 0], [], 0)
    assert list(Graph.from_edges(0, []).off) == [0]


def test_augmenting_path_plain():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    match = [-1, 2, 1, -1]
    assert _augmenting_path(match, _run_search(g, match, [0, 3])) == [3, 2, 1, 0]
    assert not is_maximum(g, match)
    assert is_maximum(g, [1, 0, 3, 2])


def test_augmenting_path_through_blossom():
    # two triangles joined by an edge; the bad matching leaves one
    # exposed vertex in each triangle and the fix crosses both cycles
    g = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
    match = [2, -1, 0, 5, -1, 3]
    path = _augmenting_path(match, _run_search(g, match, [1, 4]))
    assert len(path) == 6
    _check_alternating(g, match, path, "path")
    for a, b in zip(path[::2], path[1::2]):
        match[a], match[b] = b, a
    assert -1 not in match
    assert is_maximum(g, match)


def test_flower_is_maximum():
    assert is_maximum(FLOWER, list(FLOWER_M))


def test_matching_validation_errors():
    g = Graph.from_edges(3, [(0, 1)])
    with pytest.raises(ValueError, match="length"):
        decompose(g, [-1, -1])
    with pytest.raises(ValueError, match="involution"):
        decompose(g, [1, 2, -1])
    with pytest.raises(ValueError, match="not an edge"):
        decompose(g, [-1, 2, 1])


def _message(fn, *args):
    try:
        fn(*args)
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize(
    "match, message",
    [
        ([-1, -1], "matching length does not fit the graph"),
        ([1, 2, -1], "matching entry 0 -> 1 is not an involution"),
        ([-1, 2, 1], "matched pair (1, 2) is not an edge"),
        # the first bad vertex decides the message
        ([2, 0, 0], "matched pair (0, 2) is not an edge"),
        ([3, -1, -1], "matching entry 0 -> 3 is not an involution"),
        ([-2, -1, -1], "matching entry 0 -> -2 is not an involution"),
        ([0, -1, -1], "matching entry 0 -> 0 is not an involution"),
    ],
)
def test_matching_check_messages(match, message):
    g = Graph.from_edges(3, [(0, 1)])
    assert _message(reference_validate_matching, g, match) == message
    assert _message(decompose, g, match) == message


def test_instance_matching_check_messages(triangle_pendant):
    inst, _ = triangle_pendant
    with pytest.raises(ValueError, match="^matching size does not fit the instance$"):
        check_matching(inst, Matching.empty(3))
    # 1-2 is an edge, 0-3 is not
    with pytest.raises(ValueError, match=r"^pair \(0, 3\) is not an edge of the instance$"):
        check_matching(inst, Matching((3, 2, 1, 0)))


def test_instance_matching_check_names_the_least_bad_vertex():
    rng = random.Random(21)
    for _ in range(300):
        n = rng.randint(2, 10)
        inst = random_instance(rng, n, rng.choice([0.2, 0.5, 0.9]))
        nodes = list(range(n))
        rng.shuffle(nodes)
        partner = [None] * n
        for k in range(0, rng.randint(0, n // 2) * 2, 2):  # any pairs, edges or not
            partner[nodes[k]], partner[nodes[k + 1]] = nodes[k + 1], nodes[k]
        m = Matching(tuple(partner))
        bad = [
            v
            for v, w in enumerate(partner)
            if w is not None and (min(v, w), max(v, w)) not in inst.edges
        ]
        message = None
        if bad:
            message = f"pair ({bad[0]}, {partner[bad[0]]}) is not an edge of the instance"
        assert _message(check_matching, inst, m) == message


def test_maximum_matching_sizes():
    assert sum(x != -1 for x in maximum_matching(PETERSEN)) == 10
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert sum(x != -1 for x in maximum_matching(star)) == 2
    empty = Graph.from_edges(3, [])
    assert maximum_matching(empty) == [-1, -1, -1]


def test_gallai_edmonds_flower():
    ge = decompose(FLOWER, list(FLOWER_M))
    d, a, c = label_sets(ge)
    assert d == frozenset({0, 2, 3, 4})
    assert a == frozenset({1})
    assert c == frozenset()
    assert ge.components == (frozenset({0}), frozenset({2, 3, 4}))
    assert ge.roots.tolist() == [0, 2]
    assert ge.roots.dtype == np.int64 and not ge.roots.flags.writeable


def test_gallai_edmonds_rejects_non_maximum():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(ValueError, match="not maximum"):
        decompose(g, [-1, 2, 1, -1])


def test_reachable_set_flower():
    reach = reachable_set(FLOWER, list(FLOWER_M), [0])
    assert reach.label.tolist() == [_EVEN, _ODD, _EVEN, _EVEN, _EVEN]
    with pytest.raises(ValueError, match="^root 1 is not exposed$"):
        reachable_set(FLOWER, list(FLOWER_M), [1])


def test_fresh_search_names_the_first_bad_root():
    with pytest.raises(ValueError, match="^duplicate root 0$"):
        _run_search(FLOWER, list(FLOWER_M), [0, 0])
    with pytest.raises(ValueError, match="^root 2 is not exposed$"):
        _run_search(FLOWER, list(FLOWER_M), range(2, 4))


def test_search_meets_a_partner_list_that_is_no_involution(monkeypatch):
    # 1's partner is 0, but 0 is exposed: the step 0 -> 1 finds 1's partner labeled
    with pytest.raises(EngineError, match="^partner of a fresh odd vertex is labeled$"):
        _run_search(Graph.from_edges(2, [(0, 1)]), [-1, 0], [0])
    # the same fault on the last of k rows in a level of k + 1 steps: root i
    # sees the matched pair k + 2i, k + 2i + 1, and root k - 1 also sees 3k,
    # whose partner is root 0.  The array level keeps the rows before the
    # fault's and hands it to the scalar loop, which raises
    k = engine._WIDE
    edges = [(i, k + 2 * i) for i in range(k)] + [(k - 1, 3 * k)]
    match = [-1] * k + [v for i in range(k) for v in (k + 2 * i + 1, k + 2 * i)] + [0]
    spy = LevelSpy(monkeypatch)
    with pytest.raises(EngineError, match="^partner of a fresh odd vertex is labeled$"):
        _run_search(Graph.from_edges(3 * k + 1, edges), match, range(k))
    assert spy.levels == 1 and spy.fired["fault"] == 1 and spy.fired["plain"] == k - 1


def test_even_path_crosses_blossom():
    reach = reachable_set(FLOWER, list(FLOWER_M), [0])
    assert even_path_from_roots(list(FLOWER_M), reach, 3) == [0, 1, 2, 4, 3]
    assert even_path_from_roots(list(FLOWER_M), reach, 1) is None


# a path 0 - 1=2 - 3=4 with the chord 1-3 (= matched); 0 is exposed
CHORD = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 3)])
CHORD_M = [-1, 2, 1, 4, 3]


@pytest.mark.parametrize(
    "seq, message",
    [
        ([0, 1, 2, 1], "walk revisits a vertex"),
        ([0, 2], "walk uses a missing edge"),
        ([1, 2, 3], "walk misplaces a matched edge"),  # the first step must not be matched
        ([0, 1, 3], "walk skips a matched edge"),  # 1-3 is an edge, but 1 is matched to 2
    ],
)
def test_alternating_check_rejects_hand_built_walks(seq, message):
    _check_alternating(CHORD, CHORD_M, [0, 1, 2, 3, 4], "walk")
    with pytest.raises(EngineError, match=f"^{message}$"):
        _check_alternating(CHORD, CHORD_M, seq, "walk")


def test_trace_through_a_parent_cycle_does_not_terminate():
    # from 1 the trace steps 1 -> 2 -> p[2] = 3 -> 4 -> p[4] = 1 and round again
    p = [-1, -1, 3, -1, 1]
    with pytest.raises(EngineError, match="^trace does not terminate$"):
        _trace_even(CHORD_M, p, 1)


def test_even_path_trace_must_start_at_a_root():
    # 4's parent is unset, so the trace from 3 ends at no exposed vertex
    label = np.array([_EVEN, _ODD, _EVEN, _EVEN, _ODD], dtype=np.int8)
    reach = ReachSet(label=label, p=[-1, 0, -1, -1, -1])
    with pytest.raises(EngineError, match="^even-path trace does not start at a root$"):
        even_path_from_roots(CHORD_M, reach, 3)


def test_shortest_alt_path_plain():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    match = [-1, 2, 1, -1]
    assert shortest_alt_path_to_root(g, match, [0], 2) == [0, 1, 2]
    with pytest.raises(ValueError, match="not exposed"):
        shortest_alt_path_to_root(g, match, [1], 2)
    with pytest.raises(ValueError, match="not alternately reachable"):
        shortest_alt_path_to_root(g, match, [0], 3)


def test_shortest_alt_path_rejects_nonsimple_walk():
    # reaching 1 through its matched edge must loop around the odd
    # cycle and come back, so the shortest walk repeats a vertex
    with pytest.raises(EngineError, match="not a simple path"):
        shortest_alt_path_to_root(FLOWER, list(FLOWER_M), [0], 1)


def test_odd_cycle_through_root_triangle():
    g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    match = [-1, 2, 1]
    reach = reachable_set(g, match, [0])
    assert odd_cycle_through_root(g, match, reach, np.zeros(3, dtype=np.int64), 0) == [0, 2, 1]


def test_odd_cycle_through_root_five_cycle():
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    match = [-1, 2, 1, 4, 3]
    piece = np.zeros(5, dtype=np.int64)
    cyc = odd_cycle_through_root(g, match, reachable_set(g, match, [0]), piece, 0)
    assert cyc[0] == 0 and len(cyc) == 5 and len(set(cyc)) == 5
    for i in range(1, 4, 2):
        assert match[cyc[i]] == cyc[i + 1]
    assert cyc[1] in g.neighbors(cyc[0]) and cyc[0] in g.neighbors(cyc[-1])


def test_odd_cycle_guard_names_no_valid_cycle():
    # the triangle 0 - 1=2 - 0, searched from 0: one blossom based at 0
    g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    match = [-1, 2, 1]
    reach = reachable_set(g, match, [0])
    assert reach.label.tolist() == [_EVEN] * 3 and list(reach.p) == [-1, 0, 0]
    message = "^no valid odd cycle through the component root$"
    # no neighbour of the root is even, so no trace starts
    lone = ReachSet(label=np.array([_EVEN, 0, 0], dtype=np.int8), p=reach.p)
    with pytest.raises(EngineError, match=message):
        odd_cycle_through_root(g, match, lone, np.zeros(3, dtype=np.int64), 0)
    # both even neighbours of the root lie in another piece
    with pytest.raises(EngineError, match=message):
        odd_cycle_through_root(g, match, reach, np.array([0, 1, 1]), 0)
    # the trace 2 -> 1 -> 0 passes 1, which the piece array puts in another piece
    with pytest.raises(EngineError, match=message):
        odd_cycle_through_root(g, match, reach, np.array([0, 1, 0]), 0)


def test_trees_meet_through_a_blossom_base():
    # root 0 closes the triangle 0 1=2 into a blossom based at 0, then its
    # vertex 1 sees 5, even in the tree of root 3 (3 - 4=5): the climbs from
    # the bases 0 and 5 reach both roots without meeting
    g = Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (4, 5), (1, 5)])
    match = [-1, 2, 1, -1, 5, 4]
    forest = _run_search(g, match, [0, 3])
    assert forest.aug == (1, 5)
    assert [_find(forest.dsu, v) for v in range(6)] == [0, 0, 0, 3, 4, 5]
    assert _lca(match, forest.p, forest.dsu, 0, 5) == -1
    assert _lca(match, forest.p, forest.dsu, 5, 0) == -1
    assert _augmenting_path(match, forest) == [0, 2, 1, 5, 4, 3]


def test_check_reach_properties():
    reach = reachable_set(FLOWER, list(FLOWER_M), [0])
    ge = decompose(FLOWER, list(FLOWER_M))
    check_reach_properties(FLOWER, list(FLOWER_M), reach, ge)
    with pytest.raises(EngineError, match="forbidden"):
        check_reach_properties(FLOWER, list(FLOWER_M), reach, ge, forbidden=0)


def _hand_reach(members, n):
    return ReachSet(
        label=[1 if v in members else 0 for v in range(n)],
        p=[],
    )


def test_check_reach_properties_rejects_bad_sets():
    ge = decompose(FLOWER, list(FLOWER_M))
    with pytest.raises(EngineError, match="closed under the matched edge"):
        check_reach_properties(FLOWER, list(FLOWER_M), _hand_reach({0, 1}, 5), ge)
    with pytest.raises(EngineError, match="splits a factor-critical"):
        check_reach_properties(FLOWER, list(FLOWER_M), _hand_reach({3, 4}, 5), ge)
    pair = Graph.from_edges(2, [(0, 1)])
    pm = [1, 0]
    with pytest.raises(EngineError, match="perfectly matched part"):
        check_reach_properties(pair, pm, _hand_reach({0, 1}, 2), decompose(pair, pm))


def _greedy_on_shuffled(g, rng):
    match = [-1] * g.n
    edges = sorted(g.edges())
    rng.shuffle(edges)
    for u, v in edges:
        if match[u] == -1 and match[v] == -1:
            match[u] = v
            match[v] = u
    return match


def test_maximum_matching_matches_brute():
    rng = random.Random(11)
    for _ in range(120):
        n = rng.randint(1, 9)
        g = Graph.from_edges(n, random_edge_graph(rng, n, rng.choice([0.15, 0.3, 0.6])))
        size = brute_max_matching_size(g)
        match = maximum_matching(g)
        assert sum(x != -1 for x in match) == 2 * size
        sub = _greedy_on_shuffled(g, rng)
        assert is_maximum(g, sub) == (sum(x != -1 for x in sub) == 2 * size)


def test_gallai_edmonds_flattens_nested_blossoms():
    # the search merges blossoms into a later one whose base is not theirs,
    # so the union-find keeps chains that the decomposition must flatten
    g = Graph.from_edges(9, [
        (0, 4), (0, 5), (1, 2), (1, 6), (2, 3), (2, 4), (2, 8),
        (3, 7), (4, 7), (4, 8), (5, 7), (6, 8), (7, 8),
    ])
    match = maximum_matching(g)
    forest = _run_search(g, match, [v for v in range(g.n) if match[v] == -1])
    assert any(forest.dsu[forest.dsu[v]] != forest.dsu[v] for v in range(g.n))
    ge = gallai_edmonds(g, match, forest)
    brute = brute_gallai_edmonds(g)
    assert label_sets(ge) == (brute.d, brute.a, brute.c)
    assert ge.components == brute.components == (frozenset(range(9)),)


def test_gallai_edmonds_matches_brute():
    rng = random.Random(12)
    for _ in range(120):
        n = rng.randint(1, 9)
        g = Graph.from_edges(n, random_edge_graph(rng, n, rng.choice([0.2, 0.4, 0.7])))
        match = maximum_matching(g)
        ge = decompose(g, match)
        brute = brute_gallai_edmonds(g)
        d, a, c = label_sets(ge)
        assert d == brute.d and a == brute.a and c == brute.c
        assert ge.components == brute.components
        for comp, r in zip(ge.components, ge.roots):
            assert r in comp
            assert match[r] == -1 or match[r] in a
