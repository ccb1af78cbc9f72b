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

from .auxgraph import (
    KIND_ORIG,
    KIND_STAR,
    AuxGraph,
    blocking_partners_of,
    is_blocking_edge,
)
from .engine import (
    even_path_from_roots,
    odd_cycle_through_root,
    reachable_set,  # unused here; kept bound so outside tracers can wrap it by name
    shortest_alt_path_to_root,  # unused here; kept bound so outside tracers can wrap it by name
)
from .model import (
    HalfIntegralMatching,
    Matching,
    RoommatesInstance,
    edge_weight,
    fractional_value_times_two,
    half_from_matching,
)
from .popularity import (
    DualWitness,
    InternalError,
    Unpopular,
    _analyze,
    _finish_popular,
    _finish_unpopular,
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
    pop = _finish_popular(inst, m, an)
    if len(pop.witness.set_off) == 1:  # no odd set
        return FractionalPopular(witness=pop.witness)
    s = extract_fractional_structure(inst, m, an)
    msg = check_fractional_structure(inst, m, s)
    if msg is not None:
        raise InternalError(f"constructed fractional structure is invalid: {msg}")
    p = structure_to_fractional_matching(inst, m, s)
    try:
        p.validate(inst)
    except ValueError as exc:
        raise InternalError(f"constructed half-integral matching is invalid: {exc}")
    vt2 = fractional_value_times_two(inst, m, p)
    if vt2 != 2:
        raise InternalError(f"fractional structure scores {vt2}, expected 2")
    return NotFractionalPopular(
        structure=s, p=p, value_times_two=2, from_unpopular=None
    )


def extract_fractional_structure(
    inst: RoommatesInstance, m: Matching, an
) -> CycleThroughStar | PathPlusCycle:
    """Defeating structure from the lowest reached big component."""
    aux = an.aux
    g = aux.graph
    match = an.match
    ge = an.ge
    members = an.reach.label != 0
    # pieces are numbered by least vertex, so the first reached one is the lowest
    k = next(
        (k for k in np.flatnonzero(ge.sizes >= 3).tolist() if members[ge.roots[k]]),
        None,
    )
    if k is None:
        raise InternalError("no reached component of size 3 or more")
    comp = ge.vertices(k)
    root = ge.roots[k]
    pay = aux.payload_array

    if aux.kind[root] == KIND_STAR:
        cyc = odd_cycle_through_root(g, match, an.reach, comp.tolist(), root)
        mid = int(pay[root])
        if (aux.kind[cyc[1:]] != KIND_ORIG).any():
            raise InternalError("star cycle passes a non-original node")
        rest = pay[cyc[1:]].tolist()
        if mid in rest:
            raise InternalError("star middle collides with its own cycle")
        return CycleThroughStar(cycle=(mid, *rest), middle=mid)

    if aux.kind[root] != KIND_ORIG:
        raise InternalError(f"big component rooted at {aux.label_of(root)}")
    if (aux.kind[comp] != KIND_ORIG).any():
        raise InternalError("matched-root component contains a non-original node")
    cycle = tuple(pay[odd_cycle_through_root(g, match, an.reach, comp.tolist(), root)].tolist())

    # the seeds' forest enters the component only through its root, so
    # the path it recorded to the root stays off the rest of the component
    p0 = even_path_from_roots(g, match, an.reach, root)
    if p0 is None:
        raise InternalError("cycle root unreachable outside its component")

    while True:
        seed = p0[0]
        if (aux.kind[p0[1:]] != KIND_ORIG).any():
            raise InternalError("alternating path passes a non-original node")
        vs = pay[p0[1:]].tolist()
        if aux.kind[seed] == KIND_STAR:
            cand = [int(pay[seed])]
        else:
            cand = blocking_partners_of(inst, m, vs[0])
        x = next((c for c in cand if c not in vs), None)
        if x is not None:
            break
        # every candidate lies on the path; restart behind the nearest one
        pos = min(vs.index(c) for c in cand) + 1
        if pos % 2 == 0:
            raise InternalError("blocking partner meets the path at an even position")
        vi = vs[pos - 1]
        if aux.leaf_star_array[vi] >= 0:
            seed2 = int(aux.star_of_array[aux.leaf_star_array[vi]])
        elif aux.b_of_array[vi] >= 0:
            seed2 = int(aux.b_of_array[vi])
        else:
            raise InternalError(f"node {vi} has no blocking attachment")
        p0 = [seed2] + p0[pos:]

    path = (x, *vs)
    if set(path) & set(cycle) != {cycle[0]}:
        raise InternalError("feeding path meets the cycle beyond its root")
    mx = int(m.partner_array[x])
    if mx < 0:
        raise InternalError("path head is unmatched")
    if mx in path or mx in cycle:
        raise InternalError("path head's partner lies on the structure")
    return PathPlusCycle(path=path, cycle=cycle, blocking_edge=(x, vs[0]))


def _bad_node(inst: RoommatesInstance, seq) -> str | None:
    n = inst.n
    if any(not isinstance(v, int) or not 0 <= v < n for v in seq):
        return "node out of range"
    if len(set(seq)) != len(seq):
        return "repeated node"
    return None


def check_fractional_structure(
    inst: RoommatesInstance, m: Matching, s: CycleThroughStar | PathPlusCycle
) -> str | None:
    """None if s defeats m by construction, else the defect found."""
    pa = m.partner_array
    if isinstance(s, CycleThroughStar):
        cyc = s.cycle
        msg = _bad_node(inst, cyc)
        if msg:
            return msg
        if len(cyc) < 3 or len(cyc) % 2 == 0:
            return f"cycle length {len(cyc)} is not odd and >= 3"
        if cyc[0] != s.middle:
            return "cycle does not start at the middle"
        for i in range(1, len(cyc) - 1, 2):
            if pa[cyc[i]] != cyc[i + 1]:
                return f"cycle nodes {cyc[i]} and {cyc[i + 1]} are not partners"
        if not is_blocking_edge(inst, m, cyc[0], cyc[1]):
            return f"edge {cyc[0]}-{cyc[1]} is not blocking"
        if not is_blocking_edge(inst, m, cyc[0], cyc[-1]):
            return f"edge {cyc[0]}-{cyc[-1]} is not blocking"
        ring = inst.has_edges(cyc, cyc[1:] + cyc[:1])  # ring[i]: cyc[i]-cyc[i+1]
        for i in range(2, len(cyc) - 1, 2):
            a, b = cyc[i], cyc[i + 1]
            if not ring[i]:
                return f"cycle edge {a}-{b} missing"
            if edge_weight(inst, m, a, b) != 0:
                return f"cycle edge {a}-{b} does not tie the vote"
        w = int(pa[s.middle])
        if w < 0:
            return "middle is unmatched"
        if w in cyc:
            return "middle's partner lies on the cycle"
        return None

    if not isinstance(s, PathPlusCycle):
        return f"unknown structure {type(s).__name__}"
    path, cyc = s.path, s.cycle
    msg = _bad_node(inst, path) or _bad_node(inst, cyc)
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
    if not is_blocking_edge(inst, m, path[0], path[1]):
        return f"edge {path[0]}-{path[1]} is not blocking"
    for i in range(1, len(path) - 1, 2):
        if pa[path[i]] != path[i + 1]:
            return f"path nodes {path[i]} and {path[i + 1]} are not partners"
    along = inst.has_edges(path[:-1], path[1:])
    for i in range(2, len(path) - 1, 2):
        a, b = path[i], path[i + 1]
        if not along[i]:
            return f"path edge {a}-{b} missing"
        if edge_weight(inst, m, a, b) != 0:
            return f"path edge {a}-{b} does not tie the vote"
    for i in range(1, len(cyc) - 1, 2):
        if pa[cyc[i]] != cyc[i + 1]:
            return f"cycle nodes {cyc[i]} and {cyc[i + 1]} are not partners"
    ring = inst.has_edges(cyc, cyc[1:] + cyc[:1])  # ring[i]: cyc[i]-cyc[i+1]
    for i in [0, len(cyc) - 1, *range(2, len(cyc) - 1, 2)]:
        a, b = cyc[i], cyc[(i + 1) % len(cyc)]
        if not ring[i]:
            return f"cycle edge {a}-{b} missing"
        if edge_weight(inst, m, a, b) != 0:
            return f"cycle edge {a}-{b} does not tie the vote"
    w = int(pa[path[0]])
    if w < 0:
        return "path head is unmatched"
    if w in path or w in cyc:
        return "path head's partner lies on the structure"
    return None


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
    return HalfIntegralMatching(
        np.concatenate([kept, new_ones]),
        np.append(anchor, np.flatnonzero(pa < 0)),
        csr=(np.array([0, len(s.cycle)]), np.asarray(s.cycle, dtype=np.int64)),
    )
