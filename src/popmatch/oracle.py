"""Brute-force verdicts for the `oracle` command's cross-check.

`brute_popular` compares a matching against every matching, and
`brute_fractional_popular` against every half-integral matching.  Both
enumerate, so each guards on instance size: 12 nodes for popularity and
10 for fractional popularity.  The POPMATCH_ORACLE_LIMIT environment
variable replaces both caps when more patience is available.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .model import HalfIntegralMatching, Matching, RoommatesInstance, _weights


class OracleLimitError(RuntimeError):
    """The instance is too large for exhaustive enumeration."""


def _cap(default: int) -> int:
    raw = os.environ.get("POPMATCH_ORACLE_LIMIT")
    try:
        return int(raw) if raw else default
    except ValueError:
        raise ValueError(f"POPMATCH_ORACLE_LIMIT={raw!r} is not an integer") from None


def _guard(n: int, default: int, what: str) -> None:
    cap = _cap(default)
    if n > cap:
        raise OracleLimitError(
            f"{what} enumerates exhaustively and is capped at {cap} nodes, got {n}"
        )


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
