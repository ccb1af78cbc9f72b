"""The blossom engine against networkx, far above the brute-force oracle cap.

networkx's `max_weight_matching` is an independent blossom implementation;
with maxcardinality it gives the matching number.  The Gallai-Edmonds
decomposition is checked as a Tutte-Berge barrier: with A as the barrier,
the pieces of d are odd components of G - A whose surplus over |A| equals
the number of exposed vertices.
"""

import random

import networkx as nx
import pytest

from popmatch.engine import Graph, gallai_edmonds, maximum_matching


def _sparse_edges(rng: random.Random, n: int, avg_degree: float) -> list:
    edges = set()
    while len(edges) < n * avg_degree / 2:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return sorted(edges)


@pytest.mark.parametrize(
    "n, avg_degree, seed",
    [(200, 1.5, 1), (300, 3.0, 2), (500, 2.5, 3), (1000, 3.5, 4), (2000, 3.0, 5)],
)
def test_engine_agrees_with_networkx(n, avg_degree, seed):
    rng = random.Random(seed)
    edges = _sparse_edges(rng, n, avg_degree)
    g = Graph.from_edges(n, edges)
    match = maximum_matching(g)
    nu = sum(w != -1 for w in match) // 2
    nxg = nx.Graph()
    nxg.add_nodes_from(range(n))
    nxg.add_edges_from(edges)
    assert nu == len(nx.max_weight_matching(nxg, maxcardinality=True))

    ge = gallai_edmonds(g, match)
    d, a, c = ge.d, ge.a, ge.c
    assert d | a | c == set(range(n)) and len(d) + len(a) + len(c) == n
    assert all(len(comp) % 2 == 1 for comp in ge.components)
    assert frozenset().union(*ge.components) == d
    assert not any((u in d and v in c) or (u in c and v in d) for u, v in edges)
    assert a == {w for v in d for w in g.neighbors(v)} - d
    assert len(ge.components) - len(a) == n - 2 * nu
    # every piece is connected, so it is one component of G - A
    assert all(nx.is_connected(nxg.subgraph(comp)) for comp in ge.components)
