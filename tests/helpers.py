"""Shared random generators for the tests."""

import random

from popmatch.formats import ParseError
from popmatch.model import Matching, RoommatesInstance


def random_instance(rng: random.Random, n: int, p: float) -> RoommatesInstance:
    adj = [[] for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                adj[u].append(v)
                adj[v].append(u)
    pref = []
    for row in adj:
        rng.shuffle(row)
        pref.append(tuple(row))
    return RoommatesInstance(tuple(pref))


def partner_first_instance(rng: random.Random, n: int, p: float):
    """Instance plus a matching with no blocking edge.

    Nodes are paired up and every node ranks its partner first, so no
    edge can be preferred by both ends to the matching.
    """
    assert n % 2 == 0
    inst = random_instance(rng, n, p)
    partner = [None] * n
    pairing = list(range(n))
    rng.shuffle(pairing)
    pref = [list(row) for row in inst.pref]
    for k in range(0, n, 2):
        u, v = pairing[k], pairing[k + 1]
        for a, b in ((u, v), (v, u)):
            if b in pref[a]:
                pref[a].remove(b)
            pref[a].insert(0, b)
        partner[u] = v
        partner[v] = u
    inst = RoommatesInstance(tuple(tuple(row) for row in pref))
    return inst, Matching(tuple(partner))


def random_edge_graph(rng: random.Random, n: int, p: float) -> list:
    return [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]


# Line-by-line reference parsers for the instance and matching formats,
# the reference popmatch.formats' array parser is checked against. They
# accept whatever int() and str.split() accept, a superset of its grammar.


def _reference_tokens(raw: str) -> list:
    """(column, token) pairs of a line with any comment stripped."""
    line = raw.split("#", 1)[0]
    out = []
    col = 0
    for tok in line.split():
        col = line.index(tok, col)
        out.append((col + 1, tok))
        col += len(tok)
    return out


def _reference_int(lineno: int, col: int, tok: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ParseError(
            f"line {lineno}, column {col}: expected an integer, got {tok!r}"
        ) from None


def reference_parse_instance(text: str) -> RoommatesInstance:
    n = None
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if raw.lstrip().startswith("#"):
            continue
        toks = _reference_tokens(raw)
        if n is None:
            if not toks:
                continue
            if len(toks) != 1:
                raise ParseError(f"line {lineno}: expected only the node count")
            n = _reference_int(lineno, *toks[0])
            if n < 0:
                raise ParseError(f"line {lineno}: negative node count {n}")
            continue
        rows.append((lineno, [_reference_int(lineno, c, t) for c, t in toks]))
    if n is None:
        raise ParseError("missing the node count line")
    while len(rows) > n and not rows[-1][1]:
        rows.pop()
    if len(rows) != n:
        raise ParseError(f"expected {n} preference lines, found {len(rows)}")
    seen_of = []
    for i, (lineno, ids) in enumerate(rows):
        seen = set()
        for j in ids:
            if not 0 <= j < n:
                raise ParseError(f"line {lineno}: node {i} lists {j}, out of range")
            if j == i:
                raise ParseError(f"line {lineno}: node {i} lists itself")
            if j in seen:
                raise ParseError(f"line {lineno}: node {i} lists {j} twice")
            seen.add(j)
        seen_of.append(seen)
    for i, (lineno, ids) in enumerate(rows):
        for j in ids:
            if i not in seen_of[j]:
                raise ParseError(
                    f"line {lineno}: node {i} lists {j} but {j} does not list {i} back"
                )
    return RoommatesInstance(tuple(tuple(ids) for _, ids in rows))


def reference_parse_matching(text: str, inst: RoommatesInstance) -> Matching:
    pairs = []
    used = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        toks = _reference_tokens(raw)
        if not toks:
            continue
        if len(toks) != 2:
            raise ParseError(f"line {lineno}: expected exactly two node ids")
        u = _reference_int(lineno, *toks[0])
        v = _reference_int(lineno, *toks[1])
        for w in (u, v):
            if not 0 <= w < inst.n:
                raise ParseError(f"line {lineno}: node {w} is out of range")
            if w in used:
                raise ParseError(
                    f"line {lineno}: node {w} already matched on line {used[w]}"
                )
            used[w] = lineno
        if u == v:
            raise ParseError(f"line {lineno}: node {u} paired with itself")
        if (min(u, v), max(u, v)) not in inst.edges:
            raise ParseError(f"line {lineno}: pair {u} {v} is not an instance edge")
        pairs.append((u, v))
    return Matching.from_pairs(inst, pairs)


def reference_validate_matching(g, match) -> None:
    """The per-vertex loop that engine._validate_matching replaced."""
    if len(match) != g.n:
        raise ValueError("matching length does not fit the graph")
    for v, w in enumerate(match):
        if w == -1:
            continue
        if not 0 <= w < g.n or w == v or match[w] != v:
            raise ValueError(f"matching entry {v} -> {w} is not an involution")
        if not g.has_edge(v, w):
            raise ValueError(f"matched pair ({v}, {w}) is not an edge")
