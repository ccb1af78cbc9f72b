"""The blossom engine and the popularity verdicts against networkx, far
above the brute-force oracle cap.

networkx's `max_weight_matching` is an independent blossom implementation;
with maxcardinality it gives the matching number.  The Gallai-Edmonds
decomposition is checked as a Tutte-Berge barrier: with A as the barrier,
the pieces of d are odd components of G - A whose surplus over |A| equals
the number of exposed vertices.

Popularity is checked by the classical reduction to maximum-weight
matching (Biro, Irving and Manlove, CIAC 2010): weigh each edge uv by the
votes of u and v for uv against M plus one for each of u, v that M
matches. A rival N then beats M by its weight minus 2|M|, so M is popular
exactly when the maximum weight is at most 2|M|.
"""

import random

import networkx as nx
import pytest

from helpers import improved, label_sets, maximum_matching
from popmatch.engine import Graph, gallai_edmonds
from popmatch.generator import generate_instance, greedy_matching, random_maximal_matching
from popmatch.model import Matching, RoommatesInstance
from popmatch.popularity import is_popular


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
    d, a, c = label_sets(ge)
    assert d | a | c == set(range(n)) and len(d) + len(a) + len(c) == n
    assert all(len(comp) % 2 == 1 for comp in ge.components)
    assert frozenset().union(*ge.components) == d
    assert not any((u in d and v in c) or (u in c and v in d) for u, v in edges)
    assert a == {w for v in d for w in g.neighbors(v)} - d
    assert len(ge.components) - len(a) == n - 2 * nu
    # every piece is connected, so it is one component of G - A
    assert all(nx.is_connected(nxg.subgraph(comp)) for comp in ge.components)


def _dominant(rng: random.Random, side: int, degree: float):
    """Random bipartite instance, men below `side`, and its dominant matching.

    Two-level Gale-Shapley: a man rejected by every woman proposes down
    his list once more, and a woman prefers any second-round proposal to
    a first-round one.
    """
    edges = set()
    while len(edges) < side * degree:
        edges.add((rng.randrange(side), side + rng.randrange(side)))
    pref = [[] for _ in range(2 * side)]
    for a, b in sorted(edges):
        pref[a].append(b)
        pref[b].append(a)
    for row in pref:
        rng.shuffle(row)
    rank = [{x: i for i, x in enumerate(row)} for row in pref]
    level, nxt, husband = [0] * side, [0] * side, {}
    free = list(range(side))
    while free:
        a = free.pop()
        if nxt[a] == len(pref[a]):
            if level[a] or not pref[a]:
                continue
            level[a], nxt[a] = 1, 0
        b = pref[a][nxt[a]]
        nxt[a] += 1
        cur = husband.get(b)
        if cur is None or (level[a], -rank[b][a]) > (level[cur], -rank[b][cur]):
            husband[b] = a
            if cur is not None:
                free.append(cur)
        else:
            free.append(a)
    inst = RoommatesInstance(tuple(map(tuple, pref)))
    return inst, Matching.from_pairs(inst, sorted((a, b) for b, a in husband.items()))


def _max_weight_excess(inst, m) -> int:
    """Max over matchings N of the vote balance of N against m, via networkx."""
    partner = m.partner

    def vote(u, v):  # u's vote for v against its partner; unmatched ranks last
        p = partner[u]
        mine = len(inst.pref[u]) if p is None else inst.rank[u][p]
        return (inst.rank[u][v] < mine) - (mine < inst.rank[u][v])

    g = nx.Graph()
    for u, v in inst.edges:
        matched = (partner[u] is not None) + (partner[v] is not None)
        g.add_edge(u, v, weight=vote(u, v) + vote(v, u) + matched)
    best = sum(g[u][v]["weight"] for u, v in nx.max_weight_matching(g))
    return best - 2 * m.size()


def _verdict_cases():
    rng = random.Random(17)
    for _ in range(30):
        inst, m = _dominant(rng, rng.randint(50, 150), rng.choice((1.5, 2.5, 4.0)))
        yield inst, m
        pairs = list(m.pairs())
        del pairs[rng.randrange(len(pairs))]
        yield inst, Matching.from_pairs(inst, pairs)
    for seed in range(40):
        n = rng.randint(100, 300)
        inst = generate_instance(n, "gnp", rng.choice((1.5, 2.5, 4.0)) / n, seed=seed)
        m = rng.choice((greedy_matching(inst), random_maximal_matching(inst, seed=seed)))
        yield inst, m
        yield inst, improved(inst, m)  # often popular, and not bipartite


def test_popularity_verdicts_agree_with_max_weight_matching():
    popular = unpopular = 0
    for inst, m in _verdict_cases():
        excess = _max_weight_excess(inst, m)
        res = is_popular(inst, m)
        assert res.popular == (excess <= 0)
        if res.popular:
            popular += 1
        else:
            unpopular += 1
            assert 1 <= res.margin <= excess
    assert popular >= 50 and unpopular >= 50
