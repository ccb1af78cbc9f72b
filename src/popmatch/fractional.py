"""Fractional popularity test with certificates.

Half-integral matchings can outvote a matching that no integral matching
beats. The characterization on top of the popularity analysis: a popular
matching stays popular against half-integral competition exactly when the
search in the auxiliary graph reaches no factor-critical component with
three or more nodes. A reached big component yields a defeating structure,
either an odd cycle hung on a star middle or an alternating path feeding
an odd cycle; both convert into an explicit half-integral matching that
wins by exactly half a vote.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .auxgraph import KIND_STAR
from .engine import (
    even_path_from_roots,
    odd_cycle_through_root,
    reachable_set,  # unused here; kept bound so outside tracers can wrap it by name
    shortest_alt_path_to_root,  # unused here; kept bound so outside tracers can wrap it by name
)
from .model import (
    NO_EDGE,
    HalfIntegralMatching,
    Matching,
    RoommatesInstance,
    _edge_votes,
    fractional_value_times_two,
    half_from_matching,
)
from .popularity import (
    DualWitness,
    InternalError,
    Unpopular,
    _analyze,
    _bad_nodes,
    _finish_popular,
    _finish_unpopular,
    _star_middle_or_lowest_partner,
)


@dataclass(frozen=True)
class CycleThroughStar:
    """Odd cycle whose two end edges are the blocking edges at one middle node.

    cycle[0] is the middle; consecutive pairs (1,2), (3,4), ... are matched
    and the remaining edges tie the vote.
    """

    cycle: tuple[int, ...]
    middle: int


@dataclass(frozen=True)
class PathPlusCycle:
    """Alternating path from a blocking edge into the root of an odd cycle.

    path[0]-path[1] is the blocking edge, matched and tied edges alternate
    along the path, and path[-1] == cycle[0] is the only shared node.
    """

    path: tuple[int, ...]
    cycle: tuple[int, ...]
    blocking_edge: tuple[int, int]


@dataclass(frozen=True)
class FractionalPopular:
    witness: DualWitness

    popular = True


@dataclass(frozen=True)
class NotFractionalPopular:
    structure: CycleThroughStar | PathPlusCycle | None
    p: HalfIntegralMatching
    value_times_two: int
    from_unpopular: Unpopular | None

    popular = False


def is_fractional_popular(
    inst: RoommatesInstance, m: Matching
) -> FractionalPopular | NotFractionalPopular:
    """Decide fractional popularity of m and return a validated certificate."""
    an = _analyze(inst, m)
    if an.aug_path is not None:
        unpop = _finish_unpopular(inst, m, an)
        p = half_from_matching(inst, unpop.better)
        vt2 = fractional_value_times_two(inst, m, p)
        if vt2 != 2 * unpop.margin:
            raise InternalError(
                f"lifted matching scores {vt2}, expected {2 * unpop.margin}"
            )
        return NotFractionalPopular(
            structure=None, p=p, value_times_two=vt2, from_unpopular=unpop
        )
    if not an.big.size:
        return FractionalPopular(witness=_finish_popular(inst, m, an).witness)
    # pieces are numbered by least vertex, so big[0] is the lowest reached one
    s = extract_fractional_structure(inst, m, an, int(an.big[0]))
    msg = check_fractional_structure(inst, m, s)
    if msg is not None:
        raise InternalError(f"constructed fractional structure is invalid: {msg}")
    p = structure_to_fractional_matching(inst, m, s)
    try:
        p.validate(inst, m)
    except ValueError as exc:
        raise InternalError(f"constructed half-integral matching is invalid: {exc}")
    vt2 = fractional_value_times_two(inst, m, p)
    if vt2 != 2:
        raise InternalError(f"fractional structure scores {vt2}, expected 2")
    return NotFractionalPopular(
        structure=s, p=p, value_times_two=2, from_unpopular=None
    )


def extract_fractional_structure(
    inst: RoommatesInstance, m: Matching, an, k: int
) -> CycleThroughStar | PathPlusCycle:
    """Defeating structure from the reached big piece k, rooted at a star or an original node.

    A path into an original root takes its seed's blocking partner, which
    the search order set out in `_analyze` keeps off the path.
    """
    aux = an.aux
    g = aux.graph
    match = aux.matching
    root = int(an.ge.roots[k])
    pay = aux.payload_array
    cyc = odd_cycle_through_root(g, match, an.reach, an.ge.piece, root)

    if aux.kind[root] == KIND_STAR:
        mid = int(pay[root])
        return CycleThroughStar(cycle=(mid, *pay[cyc[1:]].tolist()), middle=mid)

    cycle = tuple(pay[cyc].tolist())

    # the seeds' forest enters the component only through its root, so
    # the path it recorded to the root stays off the rest of the component
    p0 = even_path_from_roots(match, an.reach, root)
    if p0 is None or len(p0) < 2:
        raise InternalError("cycle root unreachable outside its component")
    vs = pay[p0[1:]].tolist()
    x = _star_middle_or_lowest_partner(inst, m, aux, p0[0], vs[0])
    return PathPlusCycle(path=(x, *vs), cycle=cycle, blocking_edge=(x, vs[0]))


def _unpartnered(pa: np.ndarray, seq, what: str) -> str | None:
    """The defect unless seq[1], seq[2] and seq[3], seq[4], ... are partners."""
    for i in range(1, len(seq) - 1, 2):
        if pa[seq[i]] != seq[i + 1]:
            return f"{what} nodes {seq[i]} and {seq[i + 1]} are not partners"
    return None


def _untied(seq, w: np.ndarray, steps, what: str) -> str | None:
    """The defect unless, for each i in steps, seq[i] and the next node
    (cyclically) are joined by an edge that ties the vote; w[i] is that
    pair's `_edge_votes` entry."""
    steps = list(steps)
    ws = w[steps]
    if not ws.any():
        return None
    k = int(np.argmax(ws != 0))
    i = steps[k]
    a, b = seq[i], seq[(i + 1) % len(seq)]
    if ws[k] == NO_EDGE:
        return f"{what} edge {a}-{b} missing"
    return f"{what} edge {a}-{b} does not tie the vote"


def check_fractional_structure(
    inst: RoommatesInstance, m: Matching, s: CycleThroughStar | PathPlusCycle
) -> str | None:
    """None if s defeats m by construction, else the defect found."""
    pa = m.partner_array
    if isinstance(s, CycleThroughStar):
        cyc = s.cycle
        msg = _bad_nodes(inst, cyc)
        if msg:
            return msg
        if len(cyc) < 3 or len(cyc) % 2 == 0:
            return f"cycle length {len(cyc)} is not odd and >= 3"
        if cyc[0] != s.middle:
            return "cycle does not start at the middle"
        msg = _unpartnered(pa, cyc, "cycle")
        if msg:
            return msg
        w = _edge_votes(inst, m, cyc, cyc[1:] + cyc[:1])  # w[i]: cyc[i]-cyc[i + 1], cyclically
        if w[0] != 2:
            return f"edge {cyc[0]}-{cyc[1]} is not blocking"
        if w[-1] != 2:
            return f"edge {cyc[0]}-{cyc[-1]} is not blocking"
        msg = _untied(cyc, w, range(2, len(cyc) - 1, 2), "cycle")
        if msg:
            return msg
        # the partner check leaves the middle's partner off the cycle
        return "middle is unmatched" if pa[s.middle] < 0 else None

    if not isinstance(s, PathPlusCycle):
        return f"unknown structure {type(s).__name__}"
    path, cyc = s.path, s.cycle
    msg = _bad_nodes(inst, path) or _bad_nodes(inst, cyc)
    if msg:
        return msg
    if len(path) < 3 or len(path) % 2 == 0:
        return f"path length {len(path)} is not odd and >= 3"
    if len(cyc) < 3 or len(cyc) % 2 == 0:
        return f"cycle length {len(cyc)} is not odd and >= 3"
    if path[-1] != cyc[0]:
        return "path does not end at the cycle root"
    if set(path) & set(cyc) != {cyc[0]}:
        return "path and cycle share more than the root"
    if tuple(sorted(s.blocking_edge)) != tuple(sorted(path[:2])):
        return "declared blocking edge differs from the first path edge"
    wp = _edge_votes(inst, m, path, path[1:] + path[:1])
    wc = _edge_votes(inst, m, cyc, cyc[1:] + cyc[:1])
    if wp[0] != 2:
        return f"edge {path[0]}-{path[1]} is not blocking"
    msg = (
        _unpartnered(pa, path, "path")
        or _untied(path, wp, range(2, len(path) - 1, 2), "path")
        or _unpartnered(pa, cyc, "cycle")
        or _untied(cyc, wc, [0, len(cyc) - 1, *range(2, len(cyc) - 1, 2)], "cycle")
    )
    if msg:
        return msg
    # the partner checks leave the head's partner off the structure
    return "path head is unmatched" if pa[path[0]] < 0 else None


def structure_to_fractional_matching(
    inst: RoommatesInstance, m: Matching, s: CycleThroughStar | PathPlusCycle
) -> HalfIntegralMatching:
    """Half-integral matching encoded by a defeating structure."""
    pa = m.partner_array
    if isinstance(s, CycleThroughStar):
        body = np.asarray(s.cycle, dtype=np.int64)
        anchor = int(pa[s.middle])
        new_ones = np.zeros((0, 2), dtype=np.int64)
    else:
        body = np.asarray(s.path + s.cycle, dtype=np.int64)
        anchor = int(pa[s.path[0]])
        path = np.asarray(s.path, dtype=np.int64)
        new_ones = np.column_stack((path[0:-1:2], path[1::2]))
    if anchor < 0 or (body == anchor).any():
        raise InternalError("structure anchor is missing its outside partner")
    drop = np.zeros(m.n, dtype=bool)
    drop[body] = True
    drop[anchor] = True
    pairs = m.pair_array()
    kept = pairs[~(drop[pairs[:, 0]] | drop[pairs[:, 1]])]
    # the new ones' nodes are off the kept pairs, so their lows alone place
    # them; the ones then arrive in order and HalfIntegralMatching sorts nothing
    new_ones = np.sort(new_ones, axis=1)
    new_ones = new_ones[np.argsort(new_ones[:, 0])]
    return HalfIntegralMatching(
        np.insert(kept, np.searchsorted(kept[:, 0], new_ones[:, 0]), new_ones, axis=0),
        np.append(anchor, np.flatnonzero(pa < 0)),
        csr=(np.array([0, len(s.cycle)]), np.asarray(s.cycle, dtype=np.int64)),
    )
