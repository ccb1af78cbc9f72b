"""Exhaustive baselines for cross-checking the fast implementations.

Everything here enumerates instead of deciding: all matchings, all
half-integral matchings, all subsets relevant to maximality.  The
enumerations are exponential, so each entry point guards on instance
size; the cap can be lifted through the POPMATCH_ORACLE_LIMIT
environment variable when more patience is available.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .engine import Graph
from .model import HalfIntegralMatching, Matching, RoommatesInstance, _weights


class OracleLimitError(RuntimeError):
    """The instance is too large for exhaustive enumeration."""


def _cap(default: int) -> int:
    raw = os.environ.get("POPMATCH_ORACLE_LIMIT")
    return int(raw) if raw else default


def _guard(n: int, default: int, what: str) -> None:
    cap = _cap(default)
    if n > cap:
        raise OracleLimitError(
            f"{what} enumerates exhaustively and is capped at {cap} nodes, got {n}"
        )


def enumerate_matchings(inst: RoommatesInstance):
    """Yield every matching of the instance, lowest node decided first."""
    return map(Matching, _partner_tuples(inst))


def _partner_tuples(inst: RoommatesInstance):
    """The partner tuple, None for unmatched, of every matching in enumeration order."""
    n = inst.n
    pref = inst.pref
    state: list = [None] * n  # None undecided, -1 fixed unmatched, else partner

    def rec(v):
        while v < n and state[v] is not None:
            v += 1
        if v == n:
            yield tuple(None if x == -1 else x for x in state)
            return
        state[v] = -1
        yield from rec(v + 1)
        state[v] = None
        for w in pref[v]:
            if w > v and state[w] is None:
                state[v] = w
                state[w] = v
                yield from rec(v + 1)
                state[v] = None
                state[w] = None

    yield from rec(0)


@dataclass(frozen=True)
class BrutePopularity:
    """Outcome of comparing a matching against every other matching."""

    best_delta: int
    witness: Matching

    @property
    def popular(self) -> bool:
        return self.best_delta <= 0


def brute_popular(inst: RoommatesInstance, m: Matching) -> BrutePopularity:
    """Maximize the vote balance over all matchings by enumeration."""
    _guard(inst.n, 12, "brute_popular")
    rank = inst.rank
    degs = [len(p) for p in inst.pref]
    base = m.partner
    best = None
    best_m = None
    for cand in _partner_tuples(inst):
        total = 0
        for v, (a, b) in enumerate(zip(cand, base)):
            if a == b:
                continue
            ra = degs[v] if a is None else rank[v][a]
            rb = degs[v] if b is None else rank[v][b]
            total += (ra < rb) - (rb < ra)
        if best is None or total > best:
            best = total
            best_m = cand
    return BrutePopularity(best_delta=best, witness=Matching(best_m))


@dataclass(frozen=True)
class BruteFractional:
    """Outcome of comparing a matching against every half-integral one."""

    best_value_times_two: int
    witness: HalfIntegralMatching

    @property
    def popular(self) -> bool:
        return self.best_value_times_two <= 0


def brute_fractional_popular(inst: RoommatesInstance, m: Matching) -> BruteFractional:
    """Maximize the vote value over pairs, loops, and odd half cycles."""
    _guard(inst.n, 10, "brute_fractional_popular")
    n = inst.n
    arr = inst._arrays
    wts = _weights(inst, m)
    wdict = {}
    for u, v, w in zip(arr["eu"].tolist(), arr["ev"].tolist(), wts.tolist()):
        wdict[(u, v)] = w
        wdict[(v, u)] = w
    lw = [0 if m.partner[v] is None else -1 for v in range(n)]
    pref = inst.pref
    covered = [False] * n
    ones: list = []
    loops: list = []
    cycles: list = []
    best = {"v": None, "p": None}

    def record(vt2):
        if best["v"] is None or vt2 > best["v"]:
            best["v"] = vt2
            best["p"] = HalfIntegralMatching(
                ones=tuple(ones), loop_ones=tuple(loops), half_cycles=tuple(cycles)
            )

    def cycle_dfs(start, path, acc, vt2):
        last = path[-1]
        for w in pref[last]:
            if covered[w] or w in path or w == start:
                continue
            path.append(w)
            covered[w] = True
            if len(path) >= 3 and len(path) % 2 == 1 and path[1] < path[-1]:
                closing = wdict.get((w, start))
                if closing is not None:
                    cycles.append(tuple(path))
                    rec(vt2 + acc + wdict[(last, w)] + closing)
                    cycles.pop()
            cycle_dfs(start, path, acc + wdict[(last, w)], vt2)
            covered[w] = False
            path.pop()

    def rec(vt2):
        v = 0
        while v < n and covered[v]:
            v += 1
        if v == n:
            record(vt2)
            return
        covered[v] = True
        loops.append(v)
        rec(vt2 + 2 * lw[v])
        loops.pop()
        for w in pref[v]:
            if not covered[w]:
                covered[w] = True
                ones.append((v, w))
                rec(vt2 + 2 * wdict[(v, w)])
                ones.pop()
                covered[w] = False
        cycle_dfs(v, [v], 0, vt2)
        covered[v] = False

    rec(0)
    return BruteFractional(best_value_times_two=best["v"], witness=best["p"])


def brute_max_matching_size(g: Graph) -> int:
    """Maximum matching size by branch-and-bound-free enumeration."""
    _guard(g.n, 12, "brute_max_matching_size")
    n = g.n
    used = [False] * n

    def rec(v):
        while v < n and used[v]:
            v += 1
        if v == n:
            return 0
        used[v] = True
        out = rec(v + 1)
        for w in g.neighbors(v):
            if not used[w]:
                used[w] = True
                out = max(out, 1 + rec(v + 1))
                used[w] = False
        used[v] = False
        return out

    return rec(0)


@dataclass(frozen=True)
class BruteDecomposition:
    """Gallai-Edmonds partition computed straight from the definition."""

    d: frozenset
    a: frozenset
    c: frozenset
    components: tuple


def brute_gallai_edmonds(g: Graph) -> BruteDecomposition:
    """d holds v iff deleting v keeps the maximum matching size."""
    _guard(g.n, 12, "brute_gallai_edmonds")
    n = g.n
    nu = brute_max_matching_size(g)
    d = set()
    for v in range(n):
        rest = Graph.from_edges(
            n, [(a, b) for a, b in g.edges() if v not in (a, b)]
        )
        if brute_max_matching_size(rest) == nu:
            d.add(v)
    a = {w for v in d for w in g.neighbors(v)} - d
    c = set(range(n)) - d - a
    components = []
    seen: set = set()
    for s in sorted(d):
        if s in seen:
            continue
        comp = {s}
        seen.add(s)
        stack = [s]
        while stack:
            x = stack.pop()
            for y in g.neighbors(x):
                if y in d and y not in seen:
                    seen.add(y)
                    comp.add(y)
                    stack.append(y)
        components.append(frozenset(comp))
    components.sort(key=min)
    return BruteDecomposition(
        d=frozenset(d), a=frozenset(a), c=frozenset(c), components=tuple(components)
    )
