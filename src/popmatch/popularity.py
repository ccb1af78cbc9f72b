"""Popularity test with a certificate either way.

A matching M is popular when no other matching beats it in a head-to-head
vote. The test reduces to maximum-matching: M is popular exactly when the
matching induced in the auxiliary graph is maximum there. A negative answer
comes with a blocking structure (an alternating cycle or path anchored at
blocking edges) whose switch produces a matching that wins the vote; a
positive answer comes with a dual witness that certifies optimality.
"""

from __future__ import annotations

import operator
from array import array
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .auxgraph import (
    KIND_BLOCK,
    KIND_STAR,
    KIND_U,
    AuxGraph,
    blocking_partners_of,
    build_aux,
    is_blocking_edge,
    unmatched_zero_neighbors_of,
)
from .engine import (
    _EVEN,
    _ODD,
    GallaiEdmonds,
    ReachSet,
    _augmenting_path,
    _run_search,
    check_reach_properties,  # unused here; kept bound so outside tracers can wrap it by name
    gallai_edmonds,
    reachable_set,  # unused here; kept bound so outside tracers can wrap it by name
)
from .model import (
    NO_EDGE,
    Matching,
    RoommatesInstance,
    _csr,
    _csr_arrays,
    _edge_votes,
    _Frozen,
    _groups,
    _int_array,
    _later_repeats,
    _lex_order,
    _node_ids,
    _partner_array,
    _weights,
    delta,
)

CYCLE = "cycle"
PATH_TWO_BLOCKING = "path-two-blocking"
PATH_TO_UNMATCHED = "path-to-unmatched"


class InternalError(RuntimeError):
    """A certificate failed its own validation; indicates a bug, not bad input."""


@dataclass(frozen=True)
class BlockingStructure:
    """Node sequence whose switch beats the tested matching.

    kind "cycle": even cycle, consecutive odd edges matched, the closing
    edge (last, first) blocking.  kind "path-two-blocking": even path,
    odd edges unmatched, both end edges blocking.  kind "path-to-unmatched":
    even path, odd edges unmatched, first edge blocking, last node single.
    """

    kind: str
    nodes: tuple[int, ...]


class DualWitness(_Frozen):
    """Feasible dual solution of value zero for the vote LP.

    alpha[v] in {-1, 0, 1} per node, two_sets a family of disjoint odd
    node sets each carrying dual value 2.  Feasibility plus zero total
    value pins the best head-to-head outcome against M at zero.

    The state is arrays: `alpha_array`, and the sets in CSR form, set k
    being `set_nodes[set_off[k]:set_off[k + 1]]`, each set ascending and
    the sets ordered by their least node.  Build from sequences,
    `DualWitness(alpha, two_sets)`, or give the sets as arrays with
    `csr=(off, nodes)`; either way they are put in that order.  Arrays
    given are taken over, not copied.  A value beyond int64, which only
    outside input holds, stays a Python int in an object array.  `alpha`
    (a tuple) and `two_sets` (a tuple of frozensets) are views built on
    first use.
    """

    _STATE = ("alpha_array", "set_off", "set_nodes")

    def __init__(self, alpha, two_sets=None, *, csr=None):
        if (two_sets is None) == (csr is None):
            raise TypeError("DualWitness takes either two_sets or csr")
        off, nodes = _csr(two_sets) if csr is None else _csr_arrays(*csr)
        set_off, set_nodes = _sorted_sets(off, nodes)
        self._take(alpha_array=_int_array(alpha), set_off=set_off, set_nodes=set_nodes)

    def __repr__(self):
        return f"DualWitness(alpha={self.alpha!r}, two_sets={self.two_sets!r})"

    @cached_property
    def alpha(self) -> tuple:
        return tuple(self.alpha_array.tolist())

    @cached_property
    def two_sets(self) -> tuple:
        return tuple(_groups(self.set_off, self.set_nodes, frozenset))


def _sorted_sets(off: np.ndarray, nodes: np.ndarray) -> tuple:
    """CSR sets with each set ascending and the sets ordered by least node, empty ones first."""
    if not nodes.size:
        return off, nodes
    sizes = np.diff(off)
    nodes = nodes[_lex_order(np.repeat(np.arange(len(sizes)), sizes), nodes)]
    least = np.where(sizes > 0, nodes[np.minimum(off[:-1], len(nodes) - 1)], 0)
    by = _lex_order(sizes > 0, least)
    new_off = np.zeros_like(off)
    np.cumsum(sizes[by], out=new_off[1:])
    start = np.repeat(off[:-1][by] - new_off[:-1], sizes[by])
    return new_off, nodes[start + np.arange(len(nodes))]


@dataclass(frozen=True)
class Popular:
    witness: DualWitness

    popular = True


@dataclass(frozen=True)
class Unpopular:
    structure: BlockingStructure
    better: Matching
    margin: int

    popular = False


@dataclass(frozen=True)
class _Analysis:
    """Shared output of the auxiliary-graph search, reused by the fractional test.

    When M is popular, big holds `_reached_big_pieces`; every field
    after aug_path is None otherwise.
    """

    aux: AuxGraph
    aug_path: tuple[int, ...] | None
    ge: GallaiEdmonds | None
    reach: ReachSet | None
    big: np.ndarray | None

    @property
    def match(self) -> array:
        """The auxiliary matching buffer that the forest traces index."""
        return self.aux.matching


def _analyze(inst: RoommatesInstance, m: Matching) -> _Analysis:
    """One blossom search of the auxiliary graph, in two phases.

    The seeds are grown first, so the forest at that point is their
    alternating reachable set.  Unless that already found an augmenting
    path, the same forest then grows from the hub u, the only other
    exposed node; every augmenting path has a seed at one end, so this
    order finds one whenever one exists, and the final labels are the
    Gallai-Edmonds labels.

    The extractors rest on this order.  Phase one queues every seed
    before it scans any vertex, and a b-node has one neighbor, so it is
    never a blossom base: each matched node z that has a b-node b_z is
    labeled odd under b_z for good, unless the seeds' own scans meet an
    augmenting edge, and the augmenting path then has at most two
    interior nodes.  A trace therefore meets z only next to b_z, and a
    star leaf lies only in its star's tree.  Also, if the seeds' scans
    meet no augmenting edge, no unmatched node has a blocking edge: its
    b-node or star would have met u.
    """
    aux = build_aux(inst, m)
    g, match = aux.graph, aux.matching
    forest = _run_search(g, match, aux.seeds)
    reach = None
    if forest.aug is None:
        reach_label = np.frombuffer(forest.label, dtype=np.int8).copy()
        if aux.u_id >= 0:
            forest = _run_search(g, match, [aux.u_id], forest=forest)
        # phase two labels only u's tree, so p stays valid for the seeds' forest
        reach = ReachSet(label=reach_label, p=forest.p)
    if forest.aug is not None:
        path = tuple(_augmenting_path(match, forest))
        return _Analysis(aux, path, None, None, None)
    ge = gallai_edmonds(g, match, forest)
    return _Analysis(aux, None, ge, reach, _reached_big_pieces(ge, reach))


def is_popular(inst: RoommatesInstance, m: Matching) -> Popular | Unpopular:
    """Decide popularity of m and return a validated certificate."""
    an = _analyze(inst, m)
    if an.aug_path is None:
        return _finish_popular(inst, m, an)
    return _finish_unpopular(inst, m, an)


def _finish_popular(inst: RoommatesInstance, m: Matching, an: _Analysis) -> Popular:
    witness = build_dual_witness(inst, m, an.aux, an.ge, an.reach, an.big)
    msg = witness_violation(inst, m, witness, an.aux.weights)
    if msg is not None:
        raise InternalError(f"constructed dual witness is invalid: {msg}")
    return Popular(witness=witness)


def _finish_unpopular(inst: RoommatesInstance, m: Matching, an: _Analysis) -> Unpopular:
    s = extract_blocking_structure(inst, m, an.aux, an.aug_path)
    msg = check_blocking_structure(inst, m, s)
    if msg is not None:
        raise InternalError(f"constructed blocking structure is invalid: {msg}")
    better = more_popular_matching(inst, m, s)
    margin = delta(inst, m, better)
    if margin < 1:
        raise InternalError(f"switched matching wins by {margin}, expected at least 1")
    return Unpopular(structure=s, better=better, margin=margin)


def _star_middle_or_lowest_partner(
    inst: RoommatesInstance, m: Matching, aux: AuxGraph, end: int, v: int
) -> int:
    """Blocking partner of v selected by the auxiliary endpoint reached.

    A star endpoint pins v (a leaf) to the star's middle; a plain
    blocking-node endpoint leaves the choice free, take the lowest.
    """
    if aux.kind[end] == KIND_STAR:
        return int(aux.payload_array[end])
    return blocking_partners_of(inst, m, v)[0]


def extract_blocking_structure(
    inst: RoommatesInstance, m: Matching, aux: AuxGraph, path: tuple[int, ...]
) -> BlockingStructure:
    """Turn an augmenting path of the auxiliary graph into a blocking structure.

    The blocking partner chosen at a seed end never lies on the path, so
    each kind takes the path whole: the search order set out in
    `_analyze` keeps it off.
    """
    if len(path) < 2:
        raise InternalError("augmenting path too short")
    if aux.kind[path[-1]] == KIND_U:
        path = tuple(reversed(path))

    pay = aux.payload_array
    if aux.kind[path[0]] == KIND_U:
        end = path[-1]
        vs = pay[list(path[1:-1])].tolist()
        if not vs:
            # single edge from the unmatched hub to a blocking node
            if aux.kind[end] == KIND_BLOCK:
                o = int(pay[end])
                y = blocking_partners_of(inst, m, o)[0]
            else:
                # b-nodes scan first and none met u: each unmatched blocking partner is a leaf
                y = int(pay[end])
                ys = blocking_partners_of(inst, m, y)
                o = next((x for x in ys if m.partner_array[x] < 0), -1)  # -1 fails the check
            return BlockingStructure(PATH_TO_UNMATCHED, (y, o))
        x = unmatched_zero_neighbors_of(inst, m, vs[0])[0]
        y = _star_middle_or_lowest_partner(inst, m, aux, end, vs[-1])
        return BlockingStructure(PATH_TO_UNMATCHED, (y, *reversed(vs), x))

    vs = pay[list(path[1:-1])].tolist()
    if len(vs) < 2:
        raise InternalError("augmenting path between blocking nodes has no matched interior")
    if is_blocking_edge(inst, m, vs[0], vs[-1]):
        return BlockingStructure(CYCLE, tuple(vs))
    z1 = _star_middle_or_lowest_partner(inst, m, aux, path[0], vs[0])
    z2 = _star_middle_or_lowest_partner(inst, m, aux, path[-1], vs[-1])
    if z1 == z2:
        # the shared partner can serve only one side; the other endpoint
        # must have a second blocking partner to switch to
        alts2 = [c for c in blocking_partners_of(inst, m, vs[-1]) if c != z2]
        if aux.kind[path[-1]] != KIND_STAR and alts2:
            z2 = alts2[0]
        else:
            alts1 = [c for c in blocking_partners_of(inst, m, vs[0]) if c != z1]
            if aux.kind[path[0]] == KIND_STAR or not alts1:
                raise InternalError("both path endpoints are pinned to one blocking partner")
            z1 = alts1[0]
    return BlockingStructure(PATH_TWO_BLOCKING, (z1, *vs, z2))


def check_blocking_structure(
    inst: RoommatesInstance, m: Matching, s: BlockingStructure
) -> str | None:
    """None if s is a well-formed blocking structure for m, else the defect."""
    seq = s.nodes
    msg = _bad_nodes(inst, seq)
    if msg:
        return msg
    if len(seq) % 2 != 0:
        return f"odd node count {len(seq)}"
    if s.kind == CYCLE:
        if len(seq) < 4:
            return "cycle shorter than 4"
        word, matched = "cycle", 0  # the steps of this parity are matched edges
    elif s.kind in (PATH_TWO_BLOCKING, PATH_TO_UNMATCHED):
        if len(seq) < 2 or (s.kind == PATH_TWO_BLOCKING and len(seq) < 4):
            return "path too short"
        word, matched = "path", 1
    else:
        return f"unknown kind {s.kind!r}"
    w = _edge_votes(inst, m, seq, seq[1:] + seq[:1])  # w[i]: seq[i]-seq[i+1], cyclically
    pa = m.partner_array
    for i in range(len(seq) - 1):
        a, b = seq[i], seq[i + 1]
        if i % 2 == matched:
            if pa[a] != b:
                return f"{word} edge {a}-{b} should be matched"
        elif w[i] == NO_EDGE:
            return f"{word} edge {a}-{b} missing"
        elif pa[a] == b:
            return f"{word} edge {a}-{b} should be unmatched"
    if s.kind == CYCLE:
        if w[-1] != 2:
            return f"closing edge {seq[-1]}-{seq[0]} is not blocking"
        return None
    if w[0] != 2:
        return f"first edge {seq[0]}-{seq[1]} is not blocking"
    if s.kind == PATH_TWO_BLOCKING:
        if w[-2] != 2:
            return f"last edge {seq[-2]}-{seq[-1]} is not blocking"
    elif pa[seq[-1]] >= 0:
        return f"end node {seq[-1]} is matched"
    return None


def _bad_nodes(inst: RoommatesInstance, seq) -> str | None:
    """The defect if some entry of seq is not a node id or repeats one.
    Ids are read with `operator.index`, as `Matching` reads them, so
    numpy integers count."""
    try:
        ids = [operator.index(v) for v in seq]
    except TypeError:
        return "node out of range"
    n = inst.n
    if any(not 0 <= v < n for v in ids):
        return "node out of range"
    if len(set(ids)) != len(ids):
        return "repeated node"
    return None


def more_popular_matching(
    inst: RoommatesInstance, m: Matching, s: BlockingStructure
) -> Matching:
    """Apply the switch encoded by a blocking structure."""
    partner = m.partner_array.copy()
    seq = np.asarray(s.nodes, dtype=np.int64)
    mates = partner[seq]
    partner[mates[mates >= 0]] = -1
    partner[seq] = -1
    if s.kind == CYCLE:
        a = np.append(seq[1:-1:2], seq[-1])
        b = np.append(seq[2::2], seq[0])
    else:
        a, b = seq[0::2], seq[1::2]
    partner[a] = b
    partner[b] = a
    return Matching._of(partner)


def _reached_big_pieces(ge: GallaiEdmonds, reach: ReachSet) -> np.ndarray:
    """Ascending ids of the reached pieces of size >= 3."""
    big = np.flatnonzero(ge.sizes >= 3)
    return big[reach.label[ge.roots[big]] != 0]


def build_dual_witness(
    inst: RoommatesInstance,
    m: Matching,
    aux: AuxGraph,
    ge: GallaiEdmonds,
    reach: ReachSet,
    big: np.ndarray,
) -> DualWitness:
    """Dual witness from the decomposition of the auxiliary graph.

    Reached factor-critical components of size >= 3, the pieces that
    `_reached_big_pieces` gives as big, become the odd sets (a star root
    is traded for its middle); reached nodes take alpha -1 in the
    exposed part and +1 in the separator, everyone else 0.
    """
    pay = aux.payload_array
    reached = reach.label != 0
    reached[aux.n_matched:] = False  # original nodes only
    alpha = np.zeros(inst.n, dtype=np.int64)
    alpha[pay[reached & (ge.label == _EVEN)]] = -1
    alpha[pay[reached & (ge.label == _ODD)]] = 1
    # the reached pieces' vertices in one pass, grouped by piece; a star
    # node's payload is its middle, so both root kinds map the same way
    chosen = np.zeros(len(ge.roots) + 1, dtype=bool)  # the last slot is piece -1
    chosen[big] = True
    verts = np.flatnonzero(chosen[ge.piece])
    off = np.zeros(len(big) + 1, dtype=np.int64)
    np.cumsum(ge.sizes[big], out=off[1:])
    return DualWitness(alpha, csr=(off, pay[verts[np.argsort(ge.piece[verts], kind="stable")]]))


def witness_violation(
    inst: RoommatesInstance, m: Matching, w: DualWitness, weights=None
) -> str | None:
    """None if w is a feasible zero-value dual witness for m, else the defect.
    weights, if given, is `_weights(inst, m)`, which a decide and the verifier already hold."""
    n = inst.n
    alpha = w.alpha_array
    if len(alpha) != n:
        return f"alpha has length {len(alpha)}, expected {n}"
    if (np.abs(alpha) > 1).any():
        return "alpha value outside {-1, 0, 1}"
    alpha = alpha.astype(np.int64)
    off, nodes = w.set_off, w.set_nodes
    sizes = np.diff(off)
    # the set loop's first failure: a set's size is checked before its
    # nodes, each node for range and then for an earlier occurrence
    odd = (sizes < 3) | (sizes % 2 == 0)
    k = int(np.argmax(odd)) if odd.any() else len(sizes)
    invalid = (nodes < 0) | (nodes >= n)
    ids = _node_ids(nodes)
    bad = invalid | _later_repeats(ids)
    at = int(np.argmax(bad)) if bad.any() else len(nodes)
    if k < len(sizes) and off[k] <= at:
        return f"odd set #{k} has size {int(sizes[k])}"
    if at < len(nodes):
        v = nodes[at:at + 1].tolist()[0]
        if invalid[at]:
            k = int(np.searchsorted(off, at, side="right")) - 1
            return f"odd set #{k} contains invalid node {v!r}"
        return f"node {v} lies in two odd sets"
    arr = inst._arrays
    eu, ev = arr["eu"], arr["ev"]
    wts = _weights(inst, m) if weights is None else weights
    lhs = np.take(alpha, eu) + np.take(alpha, ev)
    if len(sizes):
        setid = np.full(n, -1, dtype=np.int64)
        setid[ids] = np.repeat(np.arange(len(sizes)), sizes)
        su = np.take(setid, eu)
        lhs += 2 * ((su >= 0) & (su == np.take(setid, ev)))
    bad = lhs < wts
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        return (
            f"edge {int(eu[i])}-{int(ev[i])} is undercovered: "
            f"{int(lhs[i])} < {int(wts[i])}"
        )
    exposed = _partner_array(m) < 0
    if (alpha[exposed] < 0).any():
        v = int(np.flatnonzero(exposed & (alpha < 0))[0])
        return f"unmatched node {v} has negative alpha"
    total = int(alpha.sum()) + int((sizes - 1).sum())
    if total != 0:
        return f"dual objective is {total}, expected 0"
    return None
