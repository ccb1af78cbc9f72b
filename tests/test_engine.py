import random

import pytest

import numpy as np

from popmatch.auxgraph import build_aux
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
    _validate_matching,
    check_reach_properties,
    even_path_from_roots,
    gallai_edmonds,
    odd_cycle_through_root,
    reachable_set,
    shortest_alt_path_to_root,
)
from popmatch.generator import random_maximal_matching
from popmatch.model import Matching, RoommatesInstance, check_matching
from popmatch.oracle import brute_gallai_edmonds, brute_max_matching_size

from helpers import (
    _check_alternating,
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
    assert g.has_edge(0, 3) and not g.has_edge(2, 3)
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
        gallai_edmonds(g, [-1, -1])
    with pytest.raises(ValueError, match="involution"):
        gallai_edmonds(g, [1, 2, -1])
    with pytest.raises(ValueError, match="not an edge"):
        gallai_edmonds(g, [-1, 2, 1])


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
    assert _message(gallai_edmonds, g, match) == message
    assert _message(reachable_set, g, match, []) == message


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


def test_matching_check_matches_vertex_loop():
    rng = random.Random(8)
    for _ in range(400):
        n = rng.randint(1, 9)
        g = Graph.from_edges(n, random_edge_graph(rng, n, rng.choice([0.2, 0.5, 0.9])))
        match = maximum_matching(g)
        for _ in range(rng.randint(0, 2)):
            match[rng.randrange(n)] = rng.randint(-2, n)
        assert _message(_validate_matching, g, match) == _message(
            reference_validate_matching, g, match
        )


def test_matching_check_on_a_large_auxiliary_graph():
    rng = random.Random(3)
    n = 10000
    adj = [[] for _ in range(n)]
    for u, v in {tuple(sorted(rng.sample(range(n), 2))) for _ in range(40000)}:
        adj[u].append(v)
        adj[v].append(u)
    for row in adj:
        rng.shuffle(row)
    inst = RoommatesInstance(tuple(map(tuple, adj)))
    aux = build_aux(inst, random_maximal_matching(inst, seed=3))
    g = aux.graph
    assert g.n > 8000
    good = aux.matching_array.tolist()
    _validate_matching(g, good)
    matched = [v for v in range(g.n) if good[v] != -1]
    for _ in range(20):
        match = list(good)
        v = rng.choice(matched)
        match[v] = rng.choice([-2, g.n, v, -1, rng.choice([w for w in matched if w != good[v]])])
        want = _message(reference_validate_matching, g, match)
        assert want is not None and _message(_validate_matching, g, match) == want
        # swapping two matched pairs keeps an involution but leaves the edges
        match = list(good)
        a, c = rng.sample(matched, 2)
        b, d = good[a], good[c]
        if len({a, b, c, d}) == 4:
            match[a], match[c], match[b], match[d] = c, a, d, b
            assert _message(_validate_matching, g, match) == _message(
                reference_validate_matching, g, match
            )


def test_maximum_matching_sizes():
    assert sum(x != -1 for x in maximum_matching(PETERSEN)) == 10
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert sum(x != -1 for x in maximum_matching(star)) == 2
    empty = Graph.from_edges(3, [])
    assert maximum_matching(empty) == [-1, -1, -1]


def test_gallai_edmonds_flower():
    ge = gallai_edmonds(FLOWER, list(FLOWER_M))
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
        gallai_edmonds(g, [-1, 2, 1, -1])


def test_reachable_set_flower():
    reach = reachable_set(FLOWER, list(FLOWER_M), [0])
    assert reach.label.tolist() == [_EVEN, _ODD, _EVEN, _EVEN, _EVEN]
    with pytest.raises(ValueError, match="^root 1 is not exposed$"):
        reachable_set(FLOWER, list(FLOWER_M), [1])


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
    assert odd_cycle_through_root(g, match, reach, {0, 1, 2}, 0) == [0, 2, 1]


def test_odd_cycle_through_root_five_cycle():
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    match = [-1, 2, 1, 4, 3]
    cyc = odd_cycle_through_root(g, match, reachable_set(g, match, [0]), set(range(5)), 0)
    assert cyc[0] == 0 and len(cyc) == 5 and len(set(cyc)) == 5
    for i in range(1, 4, 2):
        assert match[cyc[i]] == cyc[i + 1]
    assert g.has_edge(cyc[0], cyc[1]) and g.has_edge(cyc[-1], cyc[0])


def test_odd_cycle_argument_errors():
    g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    reach = reachable_set(g, [-1, 2, 1], [0])
    with pytest.raises(ValueError, match="outside the component"):
        odd_cycle_through_root(g, [-1, 2, 1], reach, {1, 2}, 0)
    with pytest.raises(ValueError, match="not matched inside"):
        odd_cycle_through_root(g, [-1, 2, 1], reach, {0, 1}, 0)
    with pytest.raises(ValueError, match="^root is matched inside the component$"):
        odd_cycle_through_root(g, [-1, 2, 1], reach, {1, 2}, 1)


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
    ge = gallai_edmonds(FLOWER, list(FLOWER_M))
    check_reach_properties(FLOWER, list(FLOWER_M), reach, ge)
    with pytest.raises(EngineError, match="forbidden"):
        check_reach_properties(FLOWER, list(FLOWER_M), reach, ge, forbidden=0)


def _hand_reach(members, n):
    return ReachSet(
        label=[1 if v in members else 0 for v in range(n)],
        p=[],
    )


def test_check_reach_properties_rejects_bad_sets():
    ge = gallai_edmonds(FLOWER, list(FLOWER_M))
    with pytest.raises(EngineError, match="closed under the matched edge"):
        check_reach_properties(FLOWER, list(FLOWER_M), _hand_reach({0, 1}, 5), ge)
    with pytest.raises(EngineError, match="splits a factor-critical"):
        check_reach_properties(FLOWER, list(FLOWER_M), _hand_reach({3, 4}, 5), ge)
    pair = Graph.from_edges(2, [(0, 1)])
    pm = [1, 0]
    with pytest.raises(EngineError, match="perfectly matched part"):
        check_reach_properties(pair, pm, _hand_reach({0, 1}, 2), gallai_edmonds(pair, pm))


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
        ge = gallai_edmonds(g, match)
        brute = brute_gallai_edmonds(g)
        d, a, c = label_sets(ge)
        assert d == brute.d and a == brute.a and c == brute.c
        assert ge.components == brute.components
        for comp, r in zip(ge.components, ge.roots):
            assert r in comp
            assert match[r] == -1 or match[r] in a
