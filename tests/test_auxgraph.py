import random

import numpy as np

from popmatch.auxgraph import (
    KIND_BLOCK,
    KIND_ORIG,
    KIND_STAR,
    KIND_U,
    blocking_partners_of,
    build_aux,
    is_blocking_edge,
    unmatched_zero_neighbors_of,
)
from popmatch.model import Matching

from helpers import edge_list, random_instance


def test_aux_ids_and_seeds(two_triangles_pendants):
    inst, m = two_triangles_pendants
    aux = build_aux(inst, m)
    assert aux.graph.n == 11
    assert tuple(aux.kind) == (KIND_ORIG,) * 6 + (KIND_BLOCK,) * 3 + (KIND_STAR, KIND_U)
    assert aux.payload_array.tolist() == [0, 1, 2, 3, 4, 5, 0, 2, 3, 3, -1]
    assert aux.n_matched == 6
    assert np.flatnonzero(m.partner_array < 0).tolist() == [6, 7]  # both fold into u
    assert aux.u_id == 10
    assert aux.seeds == range(6, 10)
    assert aux.star_of == {3: 9}


def test_aux_graph_frozen(two_triangles_pendants):
    inst, m = two_triangles_pendants
    aux = build_aux(inst, m)
    assert sorted(edge_list(aux.graph)) == [
        (0, 1),
        (0, 6),
        (1, 2),
        (2, 3),
        (2, 7),
        (3, 8),
        (3, 10),
        (4, 5),
        (4, 9),
        (5, 9),
        (5, 10),
    ]
    assert aux.matching.tolist() == [1, 0, 3, 2, 5, 4, -1, -1, -1, -1, -1]


def test_aux_labels(two_triangles_pendants):
    # kind and payload name a node: original 0, b-node b_0, star bS_3, u
    inst, m = two_triangles_pendants
    aux = build_aux(inst, m)
    got = [(int(aux.kind[i]), int(aux.payload_array[i])) for i in (0, 6, 9, 10)]
    assert got == [(KIND_ORIG, 0), (KIND_BLOCK, 0), (KIND_STAR, 3), (KIND_U, -1)]


def test_aux_without_unmatched(swap_square):
    inst, m = swap_square
    aux = build_aux(inst, m)
    assert aux.u_id == -1
    assert tuple(aux.kind) == (KIND_ORIG,) * 4 + (KIND_BLOCK,) * 2
    assert aux.payload_array.tolist() == [0, 1, 2, 3, 1, 2]
    assert sorted(edge_list(aux.graph)) == [(0, 1), (0, 3), (1, 4), (2, 3), (2, 5)]
    assert aux.matching.tolist() == [1, 0, 3, 2, -1, -1]
    assert aux.seeds == range(4, 6)


def test_aux_empty_matching(triangle_pendant):
    inst, _ = triangle_pendant
    aux = build_aux(inst, Matching.empty(inst.n))
    # every edge blocks, nobody is a star leaf, all originals fold into u
    assert tuple(aux.kind) == (KIND_BLOCK,) * 4 + (KIND_U,)
    assert aux.u_id == 4
    assert sorted(edge_list(aux.graph)) == [(0, 4), (1, 4), (2, 4), (3, 4)]
    assert aux.matching.tolist() == [-1] * 5


def test_local_blocking_probes(two_triangles_pendants):
    inst, m = two_triangles_pendants
    assert blocking_partners_of(inst, m, 3) == [4, 5]
    assert blocking_partners_of(inst, m, 0) == [2]
    assert blocking_partners_of(inst, m, 1) == []
    assert unmatched_zero_neighbors_of(inst, m, 3) == [6]
    assert unmatched_zero_neighbors_of(inst, m, 5) == [7]
    assert unmatched_zero_neighbors_of(inst, m, 4) == []
    assert is_blocking_edge(inst, m, 0, 2) and is_blocking_edge(inst, m, 2, 0)
    assert not is_blocking_edge(inst, m, 1, 2)
    assert not is_blocking_edge(inst, m, 0, 3)  # not even an edge
    assert is_blocking_edge(inst, m, 3, 4)


def test_blocking_probe_with_unmatched_ends(triangle_pendant):
    inst, _ = triangle_pendant
    empty = Matching.empty(inst.n)
    assert is_blocking_edge(inst, empty, 2, 3)
    assert blocking_partners_of(inst, empty, 2) == [0, 1, 3]


def test_aux_invariants_random():
    rng = random.Random(21)
    for _ in range(150):
        inst = random_instance(rng, rng.randint(1, 9), rng.choice([0.3, 0.6, 0.9]))
        pairs = []
        taken: set = set()
        edges = sorted(inst.edges)
        rng.shuffle(edges)
        for u, v in edges:
            if u not in taken and v not in taken and rng.random() < 0.8:
                pairs.append((u, v))
                taken.update((u, v))
        m = Matching.from_pairs(inst, pairs)
        aux = build_aux(inst, m)
        g = aux.graph
        # id layout: matched originals, owners, stars, then u
        origs = [i for i, k in enumerate(aux.kind) if k == KIND_ORIG]
        assert origs == list(range(len(origs)))
        pl = aux.payload_array.tolist()
        match = aux.matching.tolist()
        for group in (KIND_ORIG, KIND_BLOCK, KIND_STAR):
            ids = [i for i, k in enumerate(aux.kind) if k == group]
            assert [pl[i] for i in ids] == sorted(pl[i] for i in ids)
        assert (aux.u_id == -1) == (not np.flatnonzero(m.partner_array < 0).size)
        if aux.u_id != -1:
            assert aux.kind[aux.u_id] == KIND_U and aux.u_id == g.n - 1
        # matching is an involution on matched originals, seeds exposed
        for i, j in enumerate(match):
            if j != -1:
                assert match[j] == i
                assert aux.kind[i] == KIND_ORIG
                assert m.partner[pl[i]] == pl[j]
        for s in aux.seeds:
            assert match[s] == -1
            assert aux.kind[s] in (KIND_BLOCK, KIND_STAR)
        # blocking edges are gone, local probes agree with the weights
        for u, v in edge_list(g):
            ou, ov = pl[u], pl[v]
            if aux.kind[u] == KIND_ORIG and aux.kind[v] == KIND_ORIG:
                assert not is_blocking_edge(inst, m, ou, ov)
