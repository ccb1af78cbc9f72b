"""Seeded random instances and baseline matchings.

Determinism contract: one `random.Random(seed)` drives first the edge draw
(pairs in lexicographic order) and then the per-node preference shuffles
(nodes in id order), so equal seeds give byte-identical instance files.
"""

from __future__ import annotations

import random

from .model import Matching, RoommatesInstance


def generate_instance(
    n: int, model: str = "complete", p: float | None = None, seed: int = 0
) -> RoommatesInstance:
    if n < 1:
        raise ValueError(f"need at least one node, got {n}")
    rng = random.Random(seed)
    adj: list[list[int]] = [[] for _ in range(n)]
    if model == "complete":
        for u in range(n):
            for v in range(u + 1, n):
                adj[u].append(v)
                adj[v].append(u)
    elif model == "gnp":
        if p is None or not 0 < p <= 1:
            raise ValueError(f"gnp needs an edge probability in (0, 1], got {p}")
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < p:
                    adj[u].append(v)
                    adj[v].append(u)
    else:
        raise ValueError(f"unknown model {model!r}")
    pref = []
    for row in adj:
        rng.shuffle(row)
        pref.append(tuple(row))
    return RoommatesInstance(tuple(pref))


def greedy_matching(inst: RoommatesInstance) -> Matching:
    """Scan nodes in id order, pairing each free node with its best free neighbor."""
    partner: list = [None] * inst.n
    for u in range(inst.n):
        if partner[u] is not None:
            continue
        for v in inst.pref[u]:
            if partner[v] is None:
                partner[u] = v
                partner[v] = u
                break
    return Matching(tuple(partner))


def random_maximal_matching(inst: RoommatesInstance, seed: int = 0) -> Matching:
    """Add edges in seeded random order while both ends are free."""
    rng = random.Random(seed)
    edges = sorted(inst.edges)
    rng.shuffle(edges)
    partner: list = [None] * inst.n
    for u, v in edges:
        if partner[u] is None and partner[v] is None:
            partner[u] = v
            partner[v] = u
    return Matching(tuple(partner))


def unpopular_path(edges: int, seed: int = 0) -> tuple:
    """A path whose one augmenting path in the auxiliary graph crosses it whole.

    Nodes 0..2k lie on a path, k = max(1, edges // 2), matched (0, 1), (2, 3),
    ... with node 2k unmatched. Every node ranks its left neighbour first
    except node 1, so 1-2 is the only blocking edge. Returns the instance and
    the matching, node ids shuffled by `seed`.
    """
    k = max(1, edges // 2)
    rows = [(1,), (2, 0)] + [(i - 1, i + 1) for i in range(2, 2 * k)] + [(2 * k - 1,)]
    return _relabelled(rows, [(i, i + 1) for i in range(0, 2 * k, 2)], seed)


def odd_cycle_pendant(edges: int, seed: int = 0) -> tuple:
    """An odd cycle hung on a pendant: popular, but not fractional popular.

    Nodes 0..2k form a cycle, k = max(1, (edges - 2) // 2), and node 2k + 1
    hangs on node 2k, its partner; the other cycle nodes are matched (0, 1),
    (2, 3), .... Every node ranks its previous cycle neighbour first except
    node 2k - 1, and node 2k ranks (2k - 1, 0, pendant). Returns the instance
    and the matching, node ids shuffled by `seed`.
    """
    k = max(1, (edges - 2) // 2)
    last = 2 * k
    rows = [(last, 1)] + [(i - 1, i + 1) for i in range(1, last)]
    rows[last - 1] = (last, last - 2)
    rows += [(last - 1, 0, last + 1), (last,)]
    pairs = [(i, i + 1) for i in range(0, last, 2)] + [(last, last + 1)]
    return _relabelled(rows, pairs, seed)


def _relabelled(rows: list, pairs: list, seed: int) -> tuple:
    """The instance of preference rows and the matching of pairs, node i renamed perm[i]."""
    perm = list(range(len(rows)))
    random.Random(seed).shuffle(perm)
    pref: list = [None] * len(rows)
    partner: list = [None] * len(rows)
    for v, row in enumerate(rows):
        pref[perm[v]] = tuple(perm[w] for w in row)
    for a, b in pairs:
        partner[perm[a]], partner[perm[b]] = perm[b], perm[a]
    return RoommatesInstance(tuple(pref)), Matching(tuple(partner))
