"""Blossom-based matching search and the decompositions built on it.

One search routine grows alternating forests from a set of exposed
roots, contracting odd cycles on the fly, and can later continue the
same forest from more roots.  Everything else here is a thin layer
over that search: augmenting paths, the Gallai-Edmonds decomposition,
alternating reachability, and recovery of odd alternating cycles
inside factor-critical components.  Every path
and cycle handed out is a trace of a forest's parent pointers; a
popularity test checks the certificate built from it, not the trace.  A
popularity test runs the search once: first from the roots whose
reachability it needs, then from the remaining exposed vertices, so
one forest yields both the reachable set and the decomposition.

After an exhausted search the components of the even subgraph are
the outermost blossoms, so the decomposition reads them off the
search's union-find instead of traversing the graph again.  The
search's labels are a `bytearray`, which numpy reads in place.
`GallaiEdmonds` and `ReachSet` hold numpy label arrays, and
`GallaiEdmonds` a piece index per vertex; `GallaiEdmonds.components`
is a frozenset view built on first use.

Vertices are 0..n-1.  A graph holds its adjacency once, as
`array.array` buffers that the search slices and numpy views for the
vectorized checks, split by shift and mask from one sort of the keys
(src << s) | dst, int32 while they fit.  Matchings are partner lists
with -1 for exposed vertices; the array checks also take an integer
partner array.  All traversals run in sorted adjacency order, so every
result is deterministic.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import _groups, _int_array, index_dtype


class EngineError(RuntimeError):
    """An internal invariant of the matching machinery failed."""


_EVEN = 1
_ODD = 2


class Graph:
    """Undirected simple graph in CSR form with sorted adjacency.

    off and nbr are `array.array` buffers of index_dtype(n, 2|E|): the
    search slices them and `bisect` reads them like lists.  dst is a
    read-only numpy view of the same nbr buffer, and `per_edge` gives
    any per-vertex array aligned with it.
    """

    __slots__ = ("n", "off", "nbr", "dst")

    def __init__(self, n, off, nbr):
        self.n = n
        self.off = off
        self.nbr = nbr
        dst = np.frombuffer(nbr, dtype=nbr.typecode)
        dst.flags.writeable = False  # the view also pins nbr's size
        self.dst = dst

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        """Graph from a (k, 2) int array or an iterable of pairs; a repeated edge counts once.

        The ids are checked in the dtype they arrive in. One sort of the directed
        keys (src << s) | dst, s = bit_length(n - 1), in index_dtype(n << s, 0),
        puts the adjacency in CSR order: src is key >> s, dst the low s bits.
        The int64 keys hold every n up to 2^31.
        """
        if not (isinstance(edges, np.ndarray) and edges.dtype.kind == "i"):
            edges = _int_array(list(edges))  # ValueError names an entry that is no int
        e = edges.reshape(-1, 2)
        us, vs = e[:, 0], e[:, 1]
        if e.size and (e.min() < 0 or e.max() >= n or (us == vs).any()):
            bad = (us == vs) | (np.minimum(us, vs) < 0) | (np.maximum(us, vs) >= n)
            u, v = e[int(np.argmax(bad))].tolist()
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            raise ValueError(f"edge ({u}, {v}) out of range")
        s = max(n - 1, 0).bit_length()
        key = np.array(e.T, dtype=index_dtype(n << s, 0), order="C")  # rows: u -> v, v -> u
        key <<= s
        key |= e.T[::-1]
        key = key.ravel()
        key.sort()
        if key.size:
            key = key[np.concatenate(([True], key[1:] != key[:-1]))]
        idx = index_dtype(n, len(key))
        off = np.zeros(n + 1, dtype=idx)
        np.cumsum(np.bincount(key >> s, minlength=n), out=off[1:])
        key &= (1 << s) - 1
        return cls(n, _buffer(off, idx), _buffer(key, idx))

    def neighbors(self, v: int) -> array:
        return self.nbr[self.off[v]:self.off[v + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        lo, hi = self.off[u], self.off[u + 1]
        i = bisect_left(self.nbr, v, lo, hi)
        return i < hi and self.nbr[i] == v

    def edge_count(self) -> int:
        return len(self.nbr) // 2

    def edges(self):
        for u in range(self.n):
            for v in self.neighbors(u):
                if u < v:
                    yield u, v

    def per_edge(self, values: np.ndarray) -> np.ndarray:
        """values[src] for the src of `edge_arrays`, without building src."""
        return np.repeat(values, np.diff(np.frombuffer(self.off, dtype=self.off.typecode)))

    def edge_arrays(self) -> tuple:
        """(src, dst) arrays, every edge once per direction, in CSR order.

        dst is the view `self.dst`; src is built on each call.
        """
        return self.per_edge(np.arange(self.n, dtype=self.dst.dtype)), self.dst


def _buffer(values: np.ndarray, dtype) -> array:
    """values as an `array.array` of dtype, allocated to size and filled in place."""
    dtype = np.dtype(dtype)
    buf = array(dtype.char, bytes(dtype.itemsize)) * len(values)
    np.frombuffer(buf, dtype=dtype)[:] = values
    return buf


@dataclass
class _Forest:
    """State left behind by one alternating-forest search.

    label is a `bytearray` of 0, _EVEN or _ODD per vertex, so numpy
    reads it with `np.frombuffer`.  dsu is the blossom union-find:
    after the search, the vertices sharing a representative form one
    outermost blossom.  No vertex records its tree: `_lca` tells two
    trees apart by climbing both to their exposed roots.
    """

    label: bytearray
    p: list
    aug: tuple | None
    dsu: list


def _find(dsu, x):
    while dsu[x] != x:
        dsu[x] = dsu[dsu[x]]
        x = dsu[x]
    return x


def _lca(match, p, dsu, a, b):
    """The first base shared by the climbs from blossom bases a and b, one base
    step at a time in turn, marked in a local set; -1 when both climbs reach
    their exposed roots first, so a and b lie in different trees."""
    seen = set()
    while a != -1 or b != -1:
        if a != -1:
            if a in seen:
                return a
            seen.add(a)
            a = -1 if match[a] == -1 else _find(dsu, p[match[a]])
        a, b = b, a
    return -1


def _mark_path(match, p, dsu, label, queue, pending, v, ca, child):
    # walk from v up to the blossom base, rewiring parent pointers so
    # later traces can cross the contracted cycle in either direction
    bv = _find(dsu, v)
    while bv != ca:
        o = match[v]
        if o == -1:
            raise EngineError("blossom walk passed an exposed vertex")
        pending.append(bv)
        pending.append(_find(dsu, o))
        p[v] = child
        if label[o] != _EVEN:
            label[o] = _EVEN
            queue.append(o)
        child = o
        v = p[o]
        bv = _find(dsu, v)


def _run_search(
    g: Graph, match: list, roots, forest: _Forest | None = None, queued=()
) -> _Forest:
    """Grow alternating trees from `roots` until exhaustion.

    The search returns as soon as it finds an augmenting path: two trees
    meet, or an even vertex sees an exposed vertex outside the forest.
    The meeting edge is reported in the forest's `aug`.  An edge between
    even vertices of different blossoms closes a blossom when `_lca`
    finds a common base, and joins two trees when it returns -1.

    Given a `forest`, the search continues it in place with the extra
    roots.  Scanning some exposed vertices after the others is a legal
    order of Edmonds' search, so after an exhausted forest the final
    labels are those of one search from all the roots.  `queued` lists
    the forest's even vertices still to be scanned, in queue order; they
    are scanned after the roots, so a search whose first steps were
    taken elsewhere goes on as if it had taken them itself.
    """
    n = g.n
    off = g.off
    nbr = g.nbr
    if forest is None:
        label = bytearray(n)
        p = [-1] * n
        dsu = list(range(n))
    elif forest.aug is not None:
        raise EngineError("cannot continue a search that found an augmenting path")
    else:
        label, p, dsu = forest.label, forest.p, forest.dsu
    queue: list[int] = []
    for r in roots:
        if match[r] != -1:
            raise ValueError(f"root {r} is not exposed")
        if label[r] != 0:
            raise ValueError(f"duplicate root {r}")
        label[r] = _EVEN
        queue.append(r)
    queue += queued

    for v in queue:  # the loop also visits vertices appended while it runs
        mv = match[v]
        for w in nbr[off[v]:off[v + 1]]:
            if w == mv:
                continue
            lw = label[w]
            if lw == _ODD:
                continue
            if lw == _EVEN:
                bv = v
                while dsu[bv] != bv:
                    dsu[bv] = dsu[dsu[bv]]
                    bv = dsu[bv]
                bw = w
                while dsu[bw] != bw:
                    dsu[bw] = dsu[dsu[bw]]
                    bw = dsu[bw]
                if bv == bw:
                    continue
                ca = _lca(match, p, dsu, bv, bw)
                if ca == -1:
                    return _Forest(label, p, (v, w), dsu)
                pending: list[int] = []
                _mark_path(match, p, dsu, label, queue, pending, v, ca, w)
                _mark_path(match, p, dsu, label, queue, pending, w, ca, v)
                for x in pending:  # bases, like ca, so each joins ca directly
                    dsu[x] = ca
            else:
                mw = match[w]
                if mw == -1:  # w is exposed yet was not given as a root
                    return _Forest(label, p, (v, w), dsu)
                if label[mw] != 0:
                    raise EngineError("partner of a fresh odd vertex is labeled")
                label[w] = _ODD
                p[w] = v
                label[mw] = _EVEN
                queue.append(mw)
    return _Forest(label, p, None, dsu)


def _trace_even(match, p, x, stop=-1):
    """Walk from an even vertex up its tree, listing the vertices, until
    an exposed vertex or `stop`."""
    seq = [x]
    limit = len(match) + 1
    while x != stop and match[x] != -1:
        o = match[x]
        x = p[o]
        seq.append(o)
        seq.append(x)
        if len(seq) > limit:
            raise EngineError("trace does not terminate")
    return seq


def _augmenting_path(match, forest: _Forest) -> list:
    """The augmenting path through the edge where `forest` met an exposed end."""
    v, w = forest.aug
    path = _trace_even(match, forest.p, v)[::-1] + _trace_even(match, forest.p, w)
    if match[path[0]] != -1 or match[path[-1]] != -1:
        raise EngineError("augmenting path end is not exposed")
    return path


def _matching_defects(match: np.ndarray, src: np.ndarray, dst: np.ndarray) -> tuple:
    """First defects of a partner array (-1 for exposed) against directed edges.

    src/dst list every edge once per direction over the vertices of
    match.  Returns (bad, missing): bad is the first entry that is out of
    range or not an involution, missing the first matched vertex whose
    pair is not an edge; -1 where there is none.
    """
    n = len(match)
    ids = np.arange(n, dtype=np.int64)
    matched = match != -1
    valid = (match >= 0) & (match < n)
    mate = np.where(valid, match, ids)
    bad = matched & ((mate == ids) | (mate[mate] != ids))
    found = np.zeros(n, dtype=bool)
    found[src[dst == match[src]]] = True
    missing = matched & ~found
    return tuple(int(np.argmax(x)) if x.any() else -1 for x in (bad, missing))


def _validate_matching(g, match):
    if len(match) != g.n:
        raise ValueError("matching length does not fit the graph")
    bad, missing = _matching_defects(np.asarray(match, dtype=np.int64), *g.edge_arrays())
    if bad >= 0 and not 0 <= missing < bad:
        raise ValueError(f"matching entry {bad} -> {match[bad]} is not an involution")
    if missing >= 0:
        raise ValueError(f"matched pair ({missing}, {match[missing]}) is not an edge")


@dataclass(frozen=True, eq=False)
class GallaiEdmonds:
    """Canonical partition of a graph relative to a maximum matching.

    label is _EVEN on d, the vertices missed by some maximum matching,
    _ODD on a, their outside neighbors, and 0 on c, the rest.  The
    connected pieces of the subgraph induced on d are factor-critical;
    piece[v] numbers v's piece, ordered by least vertex, and is -1
    outside d.  roots, a read-only int64 array, holds per piece the one
    vertex that the given matching leaves exposed or matches outside
    the piece.
    """

    label: np.ndarray
    piece: np.ndarray
    roots: np.ndarray

    @cached_property
    def sizes(self) -> np.ndarray:
        """Vertex count per piece."""
        return np.bincount(self.piece[self.piece >= 0], minlength=len(self.roots))

    def vertices(self, k: int) -> np.ndarray:
        """The vertices of piece k, ascending."""
        return np.flatnonzero(self.piece == k)

    @cached_property
    def components(self) -> tuple:
        # vertices sorted by piece, past those off d, and where each piece starts
        off = np.zeros(len(self.roots) + 1, dtype=np.int64)
        np.cumsum(self.sizes, out=off[1:])
        inside = np.argsort(self.piece, kind="stable")[len(self.piece) - off[-1]:]
        return tuple(_groups(off, inside, frozenset))


def gallai_edmonds(g: Graph, match: list, forest: _Forest | None = None) -> GallaiEdmonds:
    """Decompose g relative to a maximum matching.

    `forest` is an exhausted search from every exposed vertex; without
    it the search runs here.  The matching may be a list or an int64
    partner array.  Raises ValueError if the matching is not maximum.
    """
    if forest is None:
        _validate_matching(g, match)
        roots = [v for v in range(g.n) if match[v] == -1]
        forest = _run_search(g, match, roots)
    if forest.aug is not None:
        raise ValueError("matching is not maximum")
    n = g.n
    label = np.frombuffer(forest.label, dtype=np.int8)
    ma = np.asarray(match, dtype=np.int64)
    d = label == _EVEN
    a = label == _ODD
    c = label == 0

    # for an exposed v, mask[ma] reads mask[-1]; the ma >= 0 term discards it
    bad = np.flatnonzero(a & ~((ma >= 0) & d[ma]))
    if bad.size:
        raise EngineError(f"vertex {bad[0]} separates without a partner in d")
    bad = np.flatnonzero(c & ~((ma >= 0) & c[ma]))
    if bad.size:
        raise EngineError(f"vertex {bad[0]} is unreachable yet not matched within c")

    # the pieces are the outermost blossoms: share a union-find base
    base = np.array(forest.dsu, dtype=np.int64)
    while True:
        up = base[base]
        if np.array_equal(up, base):
            break
        base = up
    dv = np.flatnonzero(d)
    bd = base[dv]
    # number the pieces without a sort: each piece's least vertex leads it,
    # the leaders take 0, 1, ... ascending, and least then maps base to piece
    least = np.full(n, n, dtype=np.int64)
    np.minimum.at(least, bd, dv)
    lead = least[bd] == dv
    k = int(np.count_nonzero(lead))
    least[bd[lead]] = np.arange(k, dtype=np.int64)
    piece = np.full(n, -1, dtype=np.int64)
    piece[dv] = least[bd]

    exits = np.flatnonzero(d & ((ma < 0) | (piece[ma] != piece)))
    if (np.bincount(piece[exits], minlength=k) != 1).any():
        raise EngineError("component misses a unique root")
    roots = np.empty(k, dtype=np.int64)
    roots[piece[exits]] = exits
    if ((ma[roots] >= 0) & ~a[ma[roots]]).any():
        raise EngineError("component root is matched outside a")
    roots.flags.writeable = False
    return GallaiEdmonds(label=label, piece=piece, roots=roots)


@dataclass(frozen=True, eq=False)
class ReachSet:
    """Vertices touched by alternating paths from a set of exposed roots.

    label is the search's label array, 0 for unreached vertices.  A
    vertex labeled even is exactly one that some even-length alternating
    path from a root ends at; one labeled odd is odd-reachable, though
    not every odd-reachable vertex keeps that label.  p is the search's
    parent list, kept for path recovery.
    """

    label: np.ndarray
    p: list


def reachable_set(g: Graph, match: list, roots) -> ReachSet:
    """Alternating reachability from `roots`, which must all be exposed.

    Raises ValueError if the search stumbles on an augmenting path,
    which can only happen when the matching is not maximum.
    """
    _validate_matching(g, match)
    forest = _run_search(g, match, sorted(roots))
    if forest.aug is not None:
        raise ValueError("matching is not maximum")
    return ReachSet(label=np.frombuffer(forest.label, dtype=np.int8), p=forest.p)


def even_path_from_roots(match: list, reach: ReachSet, target: int) -> list | None:
    """Recover a simple alternating path root .. target of even length.

    Returns None when target is not even-reachable in the given
    reach structure.  The recovered path ends with the matched edge
    of target unless target itself is a root.
    """
    if reach.label[target] != _EVEN:
        return None
    path = _trace_even(match, reach.p, target)[::-1]
    if match[path[0]] != -1:
        raise EngineError("even-path trace does not start at a root")
    return path


def shortest_alt_path_to_root(
    g: Graph, match: list, seeds, target: int, blocked=None
) -> list:
    """Breadth-first alternating walk from `seeds` to `target`.

    The walk starts at exposed seeds with a non-matching edge and must
    arrive at target through its matched edge, never entering a vertex
    v with blocked[v] true.  The shortest such walk is extracted and
    returned when it happens to be a simple path.  Raises ValueError
    when no walk exists and EngineError when the extracted walk
    revisits a vertex; callers fall back to the exact search in that
    case.
    """
    if blocked is None:
        blocked = bytes(g.n)
    n = g.n
    prev = [-1] * (2 * n)
    state_dist = [-1] * (2 * n)
    queue = []
    for s in seeds:
        if match[s] != -1:
            raise ValueError(f"seed {s} is not exposed")
        state_dist[2 * s] = 0
        queue.append(2 * s)
    qi = 0
    goal = 2 * target
    while qi < len(queue):
        st = queue[qi]
        qi += 1
        if st == goal:
            break
        v, parity = st >> 1, st & 1
        if parity == 0:
            mv = match[v]
            for w in g.neighbors(v):
                if w == mv or blocked[w]:
                    continue
                nxt = 2 * w + 1
                if state_dist[nxt] == -1:
                    state_dist[nxt] = state_dist[st] + 1
                    prev[nxt] = st
                    queue.append(nxt)
        else:
            w = match[v]
            if w != -1 and not blocked[w]:
                nxt = 2 * w
                if state_dist[nxt] == -1:
                    state_dist[nxt] = state_dist[st] + 1
                    prev[nxt] = st
                    queue.append(nxt)
    if state_dist[goal] == -1:
        raise ValueError("target is not alternately reachable from the seeds")
    rev = []
    st = goal
    while st != -1:
        rev.append(st >> 1)
        st = prev[st]
    path = rev[::-1]
    if len(set(path)) != len(path):
        raise EngineError("shortest alternating walk is not a simple path")
    return path


def odd_cycle_through_root(g: Graph, match: list, reach: ReachSet, component, root: int) -> list:
    """An odd alternating cycle through `root` inside one component.

    The component must be factor-critical with the matching covering
    everything but root inside it, and `reach` a search that closed it
    as one outermost blossom based at root.  Tracing root's first even
    neighbor inside it up the forest then stays inside the blossom and
    ends at root, so the trace plus the edge back to root is the cycle.
    The returned vertex list starts at root; consecutive pairs after root
    are matched edges and the two edges at root are non-matching.
    """
    inside = set(component)
    if root not in inside:
        raise ValueError("root lies outside the component")
    for v in sorted(inside):
        if v != root and match[v] not in inside:
            raise ValueError(f"vertex {v} is not matched inside the component")
    if match[root] in inside:
        raise ValueError("root is matched inside the component")
    a = next((a for a in g.neighbors(root) if a in inside and reach.label[a] == _EVEN), root)
    seq = _trace_even(match, reach.p, a, stop=root)
    if a == root or seq[-1] != root or not inside.issuperset(seq):
        raise EngineError("no valid odd cycle through the component root")
    return [root] + seq[-2::-1]


def check_reach_properties(
    g: Graph, match: list, reach: ReachSet, ge: GallaiEdmonds, forbidden: int = -1
) -> None:
    """Structural facts a reachable set must satisfy at a maximum matching.

    The reached set is closed under matched edges, avoids c entirely,
    contains d-components either fully or not at all, and no edge
    leaves its d-part.  A forbidden vertex (>= 0) must not be reached.
    Violations raise EngineError since they can only come from bugs.
    A decide does not run this; the tests hold its forests to it.
    """
    members = np.asarray(reach.label) != 0
    if forbidden >= 0 and members[forbidden]:
        raise EngineError(f"forbidden vertex {forbidden} was reached")
    ma = np.asarray(match, dtype=np.int64)
    bad = np.flatnonzero(members & (ma >= 0) & ~members[ma])
    if bad.size:
        v = bad[0]
        raise EngineError(f"reached set is not closed under the matched edge {v}-{ma[v]}")
    if (members & (ge.label == 0)).any():
        raise EngineError("reached set meets the perfectly matched part")
    inside = np.bincount(ge.piece[members & (ge.piece >= 0)], minlength=len(ge.roots))
    if ((inside > 0) & (inside != ge.sizes)).any():
        raise EngineError("reached set splits a factor-critical component")
    dst = g.dst
    leave = np.flatnonzero(g.per_edge(members & (ge.label == _EVEN)) & ~members[dst])
    if leave.size:
        i = leave[0]
        src = g.edge_arrays()[0]
        raise EngineError(f"edge {src[i]}-{dst[i]} leaves the reached set from its d-part")
