"""Blossom-based matching search and the decompositions built on it.

One search routine grows alternating forests from a set of exposed
roots, contracting odd cycles on the fly, and can later continue the
same forest from more roots.  Everything else here reads a forest that
search left: augmenting paths, the Gallai-Edmonds decomposition,
alternating reachability, and recovery of odd alternating cycles
inside factor-critical components.  Every path and cycle handed out is
a trace of a forest's parent pointers; a popularity test checks the
certificate built from it, not the trace.  A popularity test runs the
search once: first from the roots whose reachability it needs, then
from the remaining exposed vertices, so one forest yields both the
reachable set and the decomposition.  Nothing here validates a
matching: the popularity test builds its auxiliary matching from one
checked against the instance.

A fresh search runs breadth-first, and each of its levels with at
least `_WIDE` steps is computed in numpy passes, in the order a scalar
scan would take the steps: plain labeling steps and blossoms that
close within one vertex's scan.  At the first step of any other kind,
or at the first narrow level, the scalar loop `_scan` takes over with
the exact state it would have reached itself, and alone it handles
general blossoms, augmenting edges and deep, narrow searches.

After an exhausted search the components of the even subgraph are
the outermost blossoms, so the decomposition reads them off the
search's union-find instead of traversing the graph again.
`GallaiEdmonds` and `ReachSet` hold numpy label arrays, and
`GallaiEdmonds` a piece index per vertex; `GallaiEdmonds.components`
is a frozenset view built on first use.

Vertices are 0..n-1.  The search state lives in one form from the
first array level to the last trace: the labels in a `bytearray`, the
parent pointers, the union-find and the scalar loop's queue in
`array.array` buffers of the graph's index dtype.  The array levels
write them through `np.frombuffer` views, and `_scan` and the traces
index them directly, as they do the graph's CSR buffers, split by
shift and mask from one sort of the keys (src << s) | dst, int32
while they fit.  A matching is a partner sequence with -1 for exposed
vertices: the popularity test passes its auxiliary matching as such a
buffer, and the search also takes a list or an int array.  All
traversals run in sorted adjacency order, so every result is
deterministic.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import _groups, _int_array, index_dtype


class EngineError(RuntimeError):
    """An internal invariant of the matching machinery failed."""


_EVEN = 1
_ODD = 2

# The fewest steps for which a search level runs as array passes.  On a
# 2-core x86-64 machine (Python 3.11, numpy 2.4) a level costs 23-35 us
# in arrays plus about 25-30 ns a step, and 170-290 ns a step in the
# scalar loop: the two break even between 150 and 250 steps.
_WIDE = 200


class Graph:
    """Undirected simple graph in CSR form with sorted adjacency.

    off and nbr are `array.array` buffers of index_dtype(n, 2|E|), which
    the search slices like lists.  dst is a read-only numpy view of the
    same nbr buffer.
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

    def edge_count(self) -> int:
        return len(self.nbr) // 2


def _buffer(values: np.ndarray, dtype) -> array:
    """values as an `array.array` of dtype, allocated to size and filled in place."""
    dtype = np.dtype(dtype)
    buf = array(dtype.char, bytes(dtype.itemsize)) * len(values)
    np.frombuffer(buf, dtype=dtype)[:] = values
    return buf


@dataclass
class _Forest:
    """State left behind by one alternating-forest search.

    label is a `bytearray` of 0, _EVEN or _ODD per vertex, p the parent
    pointers and dsu the blossom union-find, both `array.array` buffers
    of the graph's index dtype: the array levels write all three through
    numpy views, the scalar loop and the traces index them in place.
    After the search, the vertices sharing a dsu representative form one
    outermost blossom.  No vertex records its tree: `_lca` tells two
    trees apart by climbing both to their exposed roots.
    """

    label: bytearray
    p: array
    aug: tuple | None
    dsu: array


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


def _run_search(g: Graph, match, roots, forest: _Forest | None = None) -> _Forest:
    """Grow alternating trees from `roots` until exhaustion.

    The search returns as soon as it finds an augmenting path: two trees
    meet, or an even vertex sees an exposed vertex outside the forest.
    The meeting edge is reported in the forest's `aug`.  An edge between
    even vertices of different blossoms closes a blossom when `_lca`
    finds a common base, and joins two trees when it returns -1.
    `match` is a partner buffer, list or int array; the scalar loop
    reads an int array through a buffer copy.

    A fresh search takes its breadth-first levels in turn, a level being
    the even vertices queued while the one before it was scanned.  While
    a level has at least `_WIDE` steps, one per neighbour entry of its
    vertices, `_array_level` takes them in numpy passes, in the order the
    scalar loop would: rows in queue order, each row in adjacency order.
    It reads labels and bases as they stand at the start of the level,
    and applies these rules to a step (v, w):

    - w odd: skip;
    - w even: skip if w has v's base, else stop;
    - w unlabeled and exposed: stop, an augmenting edge;
    - w unlabeled and matched to w', where w' is w or not matched to w:
      stop, a partner list that is no involution;
    - w unlabeled and matched to w': the first step to either of w, w'
      labels w odd under v and queues w' even.  A later step to the odd
      end is skipped.  The first later step to the even end closes a
      blossom of one row if its v has the base of the labeling step's v:
      the even end gets parent v, the odd end turns even and is queued
      at this step, and both join that base.  Otherwise it stops.  After
      that blossom, a step to either end is skipped if its v has the
      same base, and stops otherwise.

    v's own matched edge falls under the first two rules: v's partner is
    odd, or in v's one-row blossom.  At a stop the level is cut at the
    start of the stopping step's row and the steps before it are kept;
    `_scan` goes on with the rest of the level and the vertices queued so
    far, the state the scalar loop has at that row, so every label,
    parent, union-find entry and augmenting edge is the one it finds.
    The first level narrower than `_WIDE` goes to `_scan` whole, with the
    rest of the search.  The union-find stays flat while the levels run,
    as a one-row blossom joins a base already there: a base is one
    lookup, and `_scan`'s path halving would write nothing.

    Given a `forest`, `_scan` continues it in place with the extra
    roots.  Scanning some exposed vertices after the others is a legal
    order of Edmonds' search, so after an exhausted forest the final
    labels are those of one search from all the roots.
    """
    if forest is None:
        forest, queue = _array_levels(g, np.asarray(match), roots)
        if not queue:
            return forest
    elif forest.aug is not None:
        raise EngineError("cannot continue a search that found an augmenting path")
    else:
        queue = _label_roots(match, forest.label, roots)
    if isinstance(match, np.ndarray):
        match = _buffer(match, match.dtype)
    return _scan(g, match, forest, queue)


def _label_roots(match, label: bytearray, roots) -> list:
    """Label `roots` even, in order; the first one that is matched or
    given twice raises a ValueError naming it.  Returns them as a list."""
    queue = []
    for r in roots:
        if match[r] != -1:
            raise ValueError(f"root {r} is not exposed")
        if label[r] != 0:
            raise ValueError(f"duplicate root {r}")
        label[r] = _EVEN
        queue.append(r)
    return queue


def _array_levels(g: Graph, ma: np.ndarray, roots) -> tuple:
    """The levels of a fresh search from `roots` that `_run_search` runs
    in arrays.  Returns the forest, whose buffers they write through
    numpy views, and the queue that `_scan` goes on with, a buffer of
    the same dtype."""
    n = g.n
    label = bytearray(n)
    lab = np.frombuffer(label, dtype=np.uint8)
    if isinstance(roots, range):
        q = np.arange(roots.start, roots.stop, roots.step)
    else:
        q = np.asarray(roots, dtype=np.intp)
    lab[q] = _EVEN
    if (ma[q] != -1).any() or np.count_nonzero(lab) != len(q):
        _label_roots(ma, bytearray(n), roots)  # raises, naming the first bad root
    off = np.frombuffer(g.off, dtype=g.off.typecode)
    idx = g.dst.dtype
    forest = _Forest(label, array(idx.char, [-1]) * n, None, _buffer(np.arange(n, dtype=idx), idx))
    p = np.frombuffer(forest.p, dtype=idx)
    dsu = np.frombuffer(forest.dsu, dtype=idx)
    first = np.empty(n, dtype=np.intp)  # scratch of `_array_level`
    while len(q):
        lo = off[q]
        cnt = off[q + 1] - lo
        if cnt.sum() < _WIDE:
            break
        q, stopped = _array_level(g, ma, lab, p, dsu, first, q, lo, cnt)
        if stopped:
            break
    return forest, _buffer(q, idx)


def _array_level(g, ma, lab, p, dsu, first, q, lo, cnt) -> tuple:
    """Scan the even vertices q, whose rows start at lo and hold cnt
    entries, by the rules set out in `_run_search`.

    Returns the queue to go on with and whether the level stopped.  first
    is n-sized scratch: first[c] becomes the first step to the matched
    pair whose lower end is c.
    """
    starts = np.cumsum(cnt) - cnt  # each row's first step
    total = int(starts[-1] + cnt[-1])
    e = np.repeat(lo - starts, cnt)
    e += np.arange(total)
    w = g.dst[e].astype(np.intp)  # a gather by int32 indices costs three by intp
    del e
    v = np.repeat(q, cnt)
    lw = lab[w]
    stop = total
    ev = np.flatnonzero(lw == _EVEN)
    ev = ev[dsu[v[ev]] != dsu[w[ev]]]
    if len(ev):
        stop = ev[0]
    # the steps to unlabeled vertices: F the step, x its w, y x's partner
    F = np.flatnonzero(lw == 0)
    del lw
    x = w[F]
    y = ma[x].astype(np.intp)
    ex = np.flatnonzero((y < 0) | (ma[y] != x) | (y == x))
    if len(ex):
        stop = min(stop, F[ex[0]])
    k = np.searchsorted(F, stop)
    F, x, y = F[:k], x[:k], y[:k]
    keys = np.minimum(x, y)
    first[keys] = F  # of a pair's steps, numpy keeps any one
    later = first[keys] != F
    contested = later.any()
    merge = base = F[:0]
    if contested:  # some pair has more than one step: keep the first
        li = np.flatnonzero(later)
        np.minimum.at(first, keys[li], F[li])
        later = first[keys] != F
        li = np.flatnonzero(later)
        L, lk = F[li], keys[li]
        f1 = first[lk]  # the labeling step, whose w is the odd end
        base = dsu[v[f1]]
        first[lk] = total  # now the first step to each pair's even end
        even_end = x[li] != w[f1]
        np.minimum.at(first, lk[even_end], L[even_end])
        k2 = first[lk]
        late = L >= k2
        bad = np.flatnonzero(late & (dsu[v[L]] != base))
        if len(bad):
            stop = min(stop, L[bad[0]])
        blossom = np.flatnonzero(late & (L == k2))
        merge, base = li[blossom], base[blossom]
    row = len(q)
    if stop < total:  # keep the rows before the stopping step's
        row = int(np.searchsorted(starts, stop, side="right")) - 1
        k = np.searchsorted(F, starts[row])
        F, x, y, later = F[:k], x[:k], y[:k], later[:k]
        k = np.searchsorted(merge, k)
        merge, base = merge[:k], base[:k]
    if contested:
        queued = ~later
        ti = np.flatnonzero(queued)
        lab[x[ti]] = _ODD
        p[x[ti]] = v[F[ti]]
        lab[y[ti]] = _EVEN
        xe, x1 = x[merge], y[merge]
        p[xe] = v[F[merge]]
        lab[x1] = _EVEN
        dsu[xe] = base
        dsu[x1] = base
        queued[merge] = True
        y = y[queued]
    else:
        lab[x] = _ODD
        p[x] = v[F]
        lab[y] = _EVEN
    if row < len(q):
        return np.concatenate((q[row:], y)), True
    return y, False


def _scan(g: Graph, match, forest: _Forest, queue) -> _Forest:
    """The search's scalar loop: scan the even vertices of `queue` in order,
    appending the ones it labels, until the queue runs out or an augmenting
    edge sets `forest.aug`.  match is any partner sequence that indexes
    like a list, and queue a list or a buffer that no numpy view pins.
    Updates `forest` in place and returns it."""
    off = g.off
    nbr = g.nbr
    label, p, dsu = forest.label, forest.p, forest.dsu
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
                    forest.aug = (v, w)
                    return forest
                pending: list[int] = []
                _mark_path(match, p, dsu, label, queue, pending, v, ca, w)
                _mark_path(match, p, dsu, label, queue, pending, w, ca, v)
                for x in pending:  # bases, like ca, so each joins ca directly
                    dsu[x] = ca
            else:
                mw = match[w]
                if mw == -1:  # w is exposed yet was not given as a root
                    forest.aug = (v, w)
                    return forest
                if label[mw] != 0:
                    raise EngineError("partner of a fresh odd vertex is labeled")
                label[w] = _ODD
                p[w] = v
                label[mw] = _EVEN
                queue.append(mw)
    return forest


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

    @cached_property
    def components(self) -> tuple:
        # vertices sorted by piece, past those off d, and where each piece starts
        off = np.zeros(len(self.roots) + 1, dtype=np.int64)
        np.cumsum(self.sizes, out=off[1:])
        inside = np.argsort(self.piece, kind="stable")[len(self.piece) - off[-1]:]
        return tuple(_groups(off, inside, frozenset))


def gallai_edmonds(g: Graph, match, forest: _Forest) -> GallaiEdmonds:
    """Decompose g relative to a maximum matching, read off `forest`, an exhausted
    search from every exposed vertex; ValueError if it met an augmenting path."""
    if forest.aug is not None:
        raise ValueError("matching is not maximum")
    n = g.n
    label = np.frombuffer(forest.label, dtype=np.int8)
    ma = np.asarray(match, dtype=np.intp)  # widened once: numpy widens every int32 gather index
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
    base = np.asarray(forest.dsu, dtype=np.intp)
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
    parent buffer, kept for path recovery.
    """

    label: np.ndarray
    p: array


def reachable_set(g: Graph, match: array, roots) -> ReachSet:
    """Alternating reachability from `roots`, which must all be exposed.

    Raises ValueError if the search stumbles on an augmenting path,
    which can only happen when the matching is not maximum.  No decide
    calls this; it stays because the benchmark's tracer wraps it by name.
    """
    forest = _run_search(g, match, sorted(roots))
    if forest.aug is not None:
        raise ValueError("matching is not maximum")
    return ReachSet(label=np.frombuffer(forest.label, dtype=np.int8), p=forest.p)


def even_path_from_roots(match: array, reach: ReachSet, target: int) -> list | None:
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
    g: Graph, match: array, seeds, target: int, blocked=None
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


def odd_cycle_through_root(g: Graph, match: array, reach: ReachSet, piece, root: int) -> list:
    """An odd alternating cycle through `root` inside its piece.

    piece numbers each vertex's piece, as `GallaiEdmonds.piece` does;
    root's piece must be factor-critical with the matching covering
    everything but root inside it, and `reach` a search that closed it
    as one outermost blossom based at root.  Root's first even neighbor
    lies in its piece, as every edge between two even vertices does, and
    its trace up the forest then stays inside the blossom and ends at
    root, so the trace plus the edge back to root is the cycle.
    The returned vertex list starts at root; consecutive pairs after root
    are matched edges and the two edges at root are non-matching.
    """
    k = piece[root]
    a = next((a for a in g.neighbors(root) if reach.label[a] == _EVEN), root)
    seq = _trace_even(match, reach.p, a, stop=root)
    if a == root or seq[-1] != root or (piece[seq] != k).any():
        raise EngineError("no valid odd cycle through the component root")
    return [root] + seq[-2::-1]


def check_reach_properties(
    g: Graph, match: array, reach: ReachSet, ge: GallaiEdmonds, forbidden: int = -1
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
    off = np.frombuffer(g.off, dtype=g.off.typecode)
    leave = np.flatnonzero(np.repeat(members & (ge.label == _EVEN), np.diff(off)) & ~members[g.dst])
    if leave.size:
        i = leave[0]
        u = int(np.searchsorted(off, i, side="right")) - 1  # the row holding entry i
        raise EngineError(f"edge {u}-{g.dst[i]} leaves the reached set from its d-part")
