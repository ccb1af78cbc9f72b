"""Seeded inputs for the benchmark workloads.

Every generator returns preference lists (best first) and a partner list
(-1 for unmatched) built from its own seed, without calling popmatch, so
the program under test sees nothing but the text these lists serialize
to. The same seed always gives byte-identical instance and matching text.

- `dense_gnp` reproduces `popmatch.generator.generate_instance(n, "gnp",
  p, seed)` with the shape `popmatch bench` uses (n = 2 * sqrt(E)), and
  `random_maximal_matching(inst, seed)`, draw for draw.
- `dominant` is a sparse bipartite graph with the dominant matching found
  by two-level Gale-Shapley (Kavitha 2014; Cseh and Kavitha 2018): popular,
  of maximum size among popular matchings, and with blocking edges.
- `gadgets` tiles the two smallest popular-but-not-fractional-popular
  gadgets of the test suite, relabelled inside each copy by the seed.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Inputs:
    pref: list  # pref[v]: v's neighbours, best first
    partner: list  # partner[v], or -1 when v is unmatched

    @property
    def n(self) -> int:
        return len(self.pref)

    @property
    def edges(self) -> int:
        return sum(len(row) for row in self.pref) // 2


def dense_gnp(target_edges: int, seed: int) -> Inputs:
    """G(n, p) with E[edges] = target and a random maximal matching."""
    n = max(4, round(2 * target_edges**0.5))
    p = min(1.0, target_edges / (n * (n - 1) / 2))
    rng = random.Random(seed)
    rand = rng.random
    adj: list = [[] for _ in range(n)]
    edges = []  # lexicographic, as sorted(inst.edges) lists them
    for u in range(n):
        row = adj[u]
        for v in range(u + 1, n):
            if rand() < p:
                row.append(v)
                adj[v].append(u)
                edges.append((u, v))
    for row in adj:
        rng.shuffle(row)
    rng = random.Random(seed)
    rng.shuffle(edges)
    partner = [-1] * n
    for u, v in edges:
        if partner[u] == -1 and partner[v] == -1:
            partner[u] = v
            partner[v] = u
    return Inputs(adj, partner)


def _distinct_pairs(rng: np.random.Generator, side: int, count: int) -> np.ndarray:
    """`count` distinct keys a * side + b, in order of first draw."""
    keys = np.empty(0, dtype=np.int64)
    while True:
        more = rng.integers(0, side * side, size=count + count // 10 + 16)
        keys = np.concatenate([keys, more])
        _, first = np.unique(keys, return_index=True)
        if len(first) >= count:
            return keys[np.sort(first)[:count]]


def _ranked_lists(owner: np.ndarray, other: np.ndarray, keys: np.ndarray, n: int) -> list:
    """Per-owner lists of `other`, ordered by the random `keys`."""
    order = np.lexsort((keys, owner))
    counts = np.bincount(owner, minlength=n)
    return [row.tolist() for row in np.split(other[order], np.cumsum(counts)[:-1])]


def two_level_gale_shapley(men_pref: list, women_rank: list) -> list:
    """Dominant matching as a list wife[a] (-1 if unmatched).

    Men propose down their lists; a man rejected by every woman is promoted
    to level 1 and proposes once more from the top. Women prefer any
    level-1 man to any level-0 man, and decide by their own ranks within a
    level.
    """
    h = len(men_pref)
    level = [0] * h
    nxt = [0] * h
    husband = [-1] * len(women_rank)
    free = list(range(h - 1, -1, -1))
    while free:
        a = free.pop()
        prefs = men_pref[a]
        while True:
            if nxt[a] == len(prefs):
                if level[a] == 1 or not prefs:
                    break
                level[a] = 1
                nxt[a] = 0
            b = prefs[nxt[a]]
            nxt[a] += 1
            cur = husband[b]
            if cur == -1:
                husband[b] = a
                break
            rank = women_rank[b]
            if (level[a], -rank[a]) > (level[cur], -rank[cur]):
                husband[b] = a
                free.append(cur)
                break
    wife = [-1] * h
    for b, a in enumerate(husband):
        if a != -1:
            wife[a] = b
    return wife


def dominant(side: int, edges: int, seed: int) -> Inputs:
    """Random bipartite graph, men 0..side-1 and women side..2*side-1."""
    if not 0 < edges <= side * side:
        raise ValueError(f"cannot place {edges} edges between two sides of {side}")
    rng = np.random.default_rng(seed)
    keys = _distinct_pairs(rng, side, edges)
    men, women = keys // side, keys % side
    men_pref = _ranked_lists(men, women, rng.random(edges), side)
    women_pref = _ranked_lists(women, men, rng.random(edges), side)
    women_rank = [{a: i for i, a in enumerate(row)} for row in women_pref]
    wife = two_level_gale_shapley(men_pref, women_rank)
    pref = [[side + b for b in row] for row in men_pref] + women_pref
    partner = [-1] * (2 * side)
    for a, b in enumerate(wife):
        if b != -1:
            partner[a] = side + b
            partner[side + b] = a
    return Inputs(pref, partner)


# The two gadgets of tests/conftest.py that are popular but not fractional
# popular: two triangles bridged by an edge (the defeat is a path feeding
# an odd cycle), and a triangle with a pendant (an odd cycle hung on a star).
TWO_TRIANGLES = (((2, 1), (0, 2), (1, 0, 3), (2, 4, 5), (3, 5), (3, 4)), ((0, 1), (2, 3), (4, 5)))
TRIANGLE_PENDANT = (((2, 1), (2, 0), (0, 1, 3), (2,)), ((0, 1), (2, 3)))
GADGET_PAIR_EDGES = 11


def gadgets(target_edges: int, seed: int) -> Inputs:
    """Alternating copies of TWO_TRIANGLES and TRIANGLE_PENDANT.

    Node ids stay contiguous per copy and the first copy is a
    TWO_TRIANGLES, so the lowest reached component, which the fractional
    test picks, has the same shape on every seed.
    """
    rng = random.Random(seed)
    pref: list = []
    partner: list = []
    for _ in range(max(1, round(target_edges / GADGET_PAIR_EDGES))):
        for rows, pairs in (TWO_TRIANGLES, TRIANGLE_PENDANT):
            base = len(pref)
            label = list(range(base, base + len(rows)))
            rng.shuffle(label)
            block: list = [None] * len(rows)
            mates = [-1] * len(rows)
            for i, row in enumerate(rows):
                block[label[i] - base] = [label[j] for j in row]
            for i, j in pairs:
                mates[label[i] - base] = label[j]
                mates[label[j] - base] = label[i]
            pref.extend(block)
            partner.extend(mates)
    return Inputs(pref, partner)


def instance_text(inp: Inputs) -> str:
    """The popmatch instance format: node count, then one row per node."""
    lines = [str(inp.n)]
    lines.extend(" ".join(map(str, row)) for row in inp.pref)
    return "\n".join(lines) + "\n"


def matching_text(inp: Inputs) -> str:
    """One `u v` line per matched pair, u < v, in ascending u."""
    lines = [f"{u} {v}" for u, v in enumerate(inp.partner) if u < v]
    return "\n".join(lines) + ("\n" if lines else "")


def blocking_edge_count(inp: Inputs) -> int:
    """Edges whose two ends both prefer each other to their current state."""
    n = inp.n
    counts = np.fromiter(map(len, inp.pref), dtype=np.int64, count=n)
    du = np.repeat(np.arange(n, dtype=np.int64), counts)
    dv = np.fromiter((v for row in inp.pref for v in row), dtype=np.int64, count=int(counts.sum()))
    pos = np.arange(len(du)) - np.repeat(np.cumsum(counts) - counts, counts)
    partner = np.asarray(inp.partner, dtype=np.int64)
    prank = counts.copy()  # unmatched ranks below every neighbour
    hit = dv == partner[du]
    prank[du[hit]] = pos[hit]
    wants = pos < prank[du]
    key = np.minimum(du, dv)[wants] * n + np.maximum(du, dv)[wants]
    _, twice = np.unique(key, return_counts=True)
    return int((twice == 2).sum())


def vote_margin(inp: Inputs, pairs) -> int:
    """Votes for the matching `pairs` minus votes for inp's matching.

    Raises ValueError unless `pairs` is a matching along instance edges.
    """
    rival = [-1] * inp.n
    for u, v in pairs:
        if not (0 <= u < inp.n and 0 <= v < inp.n) or rival[u] != -1 or rival[v] != -1:
            raise ValueError(f"pair {u} {v} is out of range or reuses a node")
        if v not in inp.pref[u]:
            raise ValueError(f"pair {u} {v} is not an edge")
        rival[u], rival[v] = v, u

    def rank(v: int, w: int) -> int:
        return len(inp.pref[v]) if w == -1 else inp.pref[v].index(w)

    total = 0
    for v, (new, old) in enumerate(zip(rival, inp.partner)):
        if new != old:
            total += (rank(v, new) < rank(v, old)) - (rank(v, old) < rank(v, new))
    return total


def reference_work() -> int:
    """Fixed work of the kind popmatch does, timed to gauge machine speed.

    Python loops over lists and dicts, string building and parsing, and
    numpy sorting, on a fixed input. The benchmark scales its timings by
    how long this takes in the same process, so a shared machine's slow
    spells, which slow both alike, cancel out.
    """
    inp = dominant(2000, 10000, 0)
    text = instance_text(inp)
    rows = [list(map(int, line.split())) for line in text.splitlines()[1:]]
    return blocking_edge_count(inp) + len(rows)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()
