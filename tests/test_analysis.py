"""The two-phase search behind `_analyze` against the searches it replaces.

`_analyze` grows one alternating forest from the auxiliary graph's seeds,
then continues it from the hub u.  Its reach labels must equal a separate
reachability search from the seeds, and its decomposition a separate
Gallai-Edmonds search from every exposed node.  The instances lie above
the brute-force oracle cap.  The odd cycle of every reached piece is read
off the same forest and re-checked here on its own.  The search's array
levels must leave exactly the state its scalar loop alone leaves.
"""

import random

import networkx as nx
import numpy as np
import pytest

import popmatch.engine as engine
from conftest import TRIANGLE_PENDANT, TRIANGLE_PENDANT_M, TWO_TRIANGLES, TWO_TRIANGLES_M
from helpers import (
    LevelSpy,
    analysis_cases,
    assert_same_forest,
    decompose,
    edge_arrays,
    enumerate_matchings,
    gadget_cases,
    greedy_partners,
    is_maximum,
    maximum_matching,
    random_instance,
    scalar_search,
    tiled,
)
from popmatch.auxgraph import KIND_BLOCK, KIND_ORIG, KIND_STAR, build_aux
from popmatch.engine import (
    _ODD,
    EngineError,
    Graph,
    ReachSet,
    _Forest,
    _run_search,
    check_reach_properties,
    gallai_edmonds,
    odd_cycle_through_root,
    reachable_set,
)
from popmatch.popularity import _analyze


def test_one_search_equals_the_two_it_replaces():
    popular = with_seeds = with_u = big = 0
    for inst, m in analysis_cases():
        an = _analyze(inst, m)
        g = an.aux.graph
        match = an.aux.matching.tolist()
        assert (an.aug_path is None) == is_maximum(g, match)
        if an.aug_path is not None:
            continue
        popular += 1
        with_seeds += bool(an.aux.seeds)
        with_u += an.aux.u_id >= 0
        big += bool((an.ge.sizes >= 3).any())

        reach = reachable_set(g, match, an.aux.seeds)
        assert np.array_equal(an.reach.label, reach.label)

        ge = decompose(g, match)
        assert np.array_equal(an.ge.label, ge.label)
        assert np.array_equal(an.ge.piece, ge.piece)
        assert np.array_equal(an.ge.roots, ge.roots)
        # pieces are numbered by their least vertex
        least = [int(np.flatnonzero(an.ge.piece == k)[0]) for k in range(len(an.ge.roots))]
        assert least == sorted(least)
        assert an.ge.components == tuple(
            frozenset(np.flatnonzero(an.ge.piece == k).tolist())
            for k in range(len(an.ge.roots))
        )
    # the corpus must exercise both phases and big pieces
    assert popular >= 40 and with_seeds >= 20 and with_u >= 20 and big >= 20


def test_pieces_are_the_components_of_d():
    # networkx's components of the subgraph induced on d, numbered by least vertex
    gadgets = [(TRIANGLE_PENDANT, TRIANGLE_PENDANT_M), (TWO_TRIANGLES, TWO_TRIANGLES_M)]
    big = 0
    for inst, m in list(analysis_cases()) + list(gadget_cases(120, 11, gadgets)):
        an = _analyze(inst, m)
        if an.aug_path is not None:
            continue
        g, ge = an.aux.graph, an.ge
        d = np.flatnonzero(ge.label == 1).tolist()
        nxg = nx.Graph()
        nxg.add_nodes_from(d)
        nxg.add_edges_from(zip(*(a.tolist() for a in edge_arrays(g))))
        comps = sorted(nx.connected_components(nxg.subgraph(d)), key=min)
        piece = np.full(g.n, -1)
        for k, comp in enumerate(comps):
            piece[list(comp)] = k
        assert np.array_equal(ge.piece, piece)
        for k, comp in enumerate(comps):
            assert np.flatnonzero(ge.piece == k).tolist() == sorted(comp)
        big += sum(len(comp) >= 3 for comp in comps)
    assert big >= 300


def test_forest_cycle_on_every_reached_piece():
    # triangle-pendant pieces hang on a star node, two-triangles pieces on an original node
    gadgets = [(TRIANGLE_PENDANT, TRIANGLE_PENDANT_M), (TWO_TRIANGLES, TWO_TRIANGLES_M)]
    pieces = {KIND_ORIG: 0, KIND_STAR: 0}
    for inst, m in gadget_cases(120, 11, gadgets):
        an = _analyze(inst, m)
        assert an.aug_path is None
        g, match = an.aux.graph, an.aux.matching
        for k in np.flatnonzero(an.ge.sizes >= 3).tolist():
            root = an.ge.roots[k]
            if an.reach.label[root] == 0:
                continue
            inside = set(np.flatnonzero(an.ge.piece == k).tolist())
            cyc = odd_cycle_through_root(g, match, an.reach, an.ge.piece, root)
            size = len(cyc)
            assert cyc[0] == root and size >= 3 and size % 2 == 1
            assert len(set(cyc)) == size and inside.issuperset(cyc)
            assert all(b in g.neighbors(a) for a, b in zip(cyc, cyc[1:] + cyc[:1]))
            assert all(match[cyc[i]] == cyc[i + 1] for i in range(1, size - 1, 2))
            assert match[root] not in (cyc[1], cyc[-1])
            pieces[an.aux.kind[root]] += 1
    assert sum(pieces.values()) >= 300 and min(pieces.values()) >= 100


def test_seed_stage_labels_each_owner_under_its_own_b_node():
    # the search order the extractors rest on (see `_analyze`): on a
    # popular matching every owner of a b-node is matched, odd, and the
    # child of its own b-node, so a trace meets it only next to that seed
    rng = random.Random(18)
    owners = 0
    for _ in range(400):
        inst = random_instance(rng, rng.randint(5, 8), rng.choice([0.3, 0.5]))
        for m in enumerate_matchings(inst):
            an = _analyze(inst, m)
            if an.aug_path is not None:
                continue
            pay = an.aux.payload_array
            for b in np.flatnonzero(an.aux.kind == KIND_BLOCK).tolist():
                z = int(np.searchsorted(pay[:an.aux.n_matched], pay[b]))
                assert pay[z] == pay[b], "owner is unmatched"
                assert (an.reach.label[z], an.reach.p[z]) == (_ODD, b)
                owners += 1
    assert owners >= 230, owners


def test_array_levels_end_where_the_scalar_loop_ends(monkeypatch):
    # `_run_search` from the seeds must end exactly where the scalar loop
    # alone ends.  At width 1 every level runs in arrays until a stop; at
    # widths 2 and 8 the narrow levels go to the scalar loop
    gadgets = [(TRIANGLE_PENDANT, TRIANGLE_PENDANT_M), (TWO_TRIANGLES, TWO_TRIANGLES_M)]
    rng = random.Random(22)
    small = [random_instance(rng, rng.randint(5, 8), rng.choice([0.3, 0.5])) for _ in range(40)]
    cases = [*analysis_cases(), *gadget_cases(120, 11, gadgets)]
    cases += [(inst, m) for inst in small for m in enumerate_matchings(inst)]
    auxes = [build_aux(inst, m) for inst, m in cases]
    spy = LevelSpy(monkeypatch)
    for width in (1, 2, 8):
        monkeypatch.setattr(engine, "_WIDE", width)
        for aux in auxes:
            g, ma = aux.graph, aux.matching
            forest = _run_search(g, ma, aux.seeds)
            assert_same_forest(forest, scalar_search(g, ma, aux.seeds))
    floors = {"plain": 5500, "blossom": 850, "cross-base": 300, "exposed": 2800, "narrow": 40}
    assert all(spy.fired[k] >= floor for k, floor in floors.items()), spy.fired


def test_array_levels_run_at_full_width(monkeypatch):
    # wide inputs at the real width: tiled gadgets, whose levels all run
    # in arrays, and a sparse graph of 3,000 nodes whose searches stop
    gadgets = [(TRIANGLE_PENDANT, TRIANGLE_PENDANT_M), (TWO_TRIANGLES, TWO_TRIANGLES_M)]
    rng = random.Random(25)
    inst, m = tiled(rng, [rng.choice(gadgets) for _ in range(420)])
    aux = build_aux(inst, m)
    spy = LevelSpy(monkeypatch)
    forest = _run_search(aux.graph, aux.matching, aux.seeds)
    assert_same_forest(forest, scalar_search(aux.graph, aux.matching, aux.seeds))
    assert inst.n >= 2000 and spy.levels >= 3 and spy.fired["blossom"] >= 50
    assert sum(spy.fired[k] for k in ("cross-base", "exposed", "narrow")) == 0

    n = 3000
    edges = {tuple(sorted(rng.sample(range(n), 2))) for _ in range(2 * n)}
    g = Graph.from_edges(n, sorted(edges))
    for match in (greedy_partners(g), maximum_matching(g)):
        roots = [v for v in range(n) if match[v] == -1]
        forest = _run_search(g, np.array(match), roots)
        assert_same_forest(forest, scalar_search(g, match, roots))
    assert spy.levels >= 100 and spy.fired["cross-base"] >= 100, spy.fired


def test_seed_phase_stops_at_the_hub():
    # 0 - 1 = 2 - 3 with only 0 as a root: 3 is exposed outside the forest
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    match = [-1, 2, 1, -1]
    assert _run_search(g, match, [0]).aug == (2, 3)
    with pytest.raises(ValueError, match="not maximum"):
        reachable_set(g, match, [0])


def test_continued_search_matches_one_search():
    # the flower plus a pendant path 5 = 6 - 7; roots 0, then 7
    g = Graph.from_edges(8, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 4), (5, 6), (6, 7)])
    match = [-1, 2, 1, 4, 3, 6, 5, -1]
    first = _run_search(g, match, [0])
    assert first.aug is None and first.label[7] == 0
    both = _run_search(g, match, [7], forest=first)
    whole = _run_search(g, match, [0, 7])
    assert both.label == whole.label
    ge = gallai_edmonds(g, match, both)
    assert ge.components == decompose(g, match).components
    with pytest.raises(ValueError, match="duplicate root"):
        _run_search(g, match, [0], forest=both)
    met = _Forest(label=bytearray(8), p=[-1] * 8, aug=(0, 1), dsu=list(range(8)))
    with pytest.raises(EngineError, match="cannot continue"):
        _run_search(g, match, [7], forest=met)


PATH3 = Graph.from_edges(3, [(0, 1), (1, 2)])
TRIANGLE = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
EDGE = Graph.from_edges(2, [(0, 1)])
NO_EDGE = Graph.from_edges(2, [])


@pytest.mark.parametrize(
    "g, match, label, dsu, message",
    [
        # 1 is odd but its partner 2 is not even
        (PATH3, [-1, 2, 1], [1, 2, 0], [0, 1, 2], "1 separates without a partner in d"),
        # exposed 0 left unlabeled
        (PATH3, [-1, 2, 1], [0, 0, 0], [0, 1, 2], "0 is unreachable yet not matched"),
        # the triangle's blossom left uncontracted
        (TRIANGLE, [-1, 2, 1], [1, 1, 1], [0, 1, 2], "component root is matched outside a"),
        # a piece whose vertices are all matched inside it
        (EDGE, [1, 0], [1, 1], [0, 0], "misses a unique root"),
        # two single pieces matched to each other
        (NO_EDGE, [1, 0], [1, 1], [0, 1], "root is matched outside a"),
    ],
)
def test_gallai_edmonds_rejects_corrupted_forests(g, match, label, dsu, message):
    forest = _Forest(label=bytearray(label), p=[-1] * g.n, aug=None, dsu=dsu)
    with pytest.raises(EngineError, match=message):
        gallai_edmonds(g, match, forest)


def test_reach_check_names_the_edge_leaving_the_d_part():
    # 0 and 2 are even, 1 odd; a reached set of 0 alone leaves by 0-1
    match = [-1, 2, 1]
    reach = ReachSet(label=np.array([1, 0, 0], dtype=np.int8), p=[-1] * 3)
    with pytest.raises(EngineError, match="edge 0-1 leaves the reached set from its d-part"):
        check_reach_properties(PATH3, match, reach, decompose(PATH3, match))
