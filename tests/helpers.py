"""Shared random generators, corpora and reference implementations for the tests."""

import functools
import random
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

import popmatch.engine as engine
from popmatch.engine import (
    _EVEN,
    _ODD,
    EngineError,
    Graph,
    _augmenting_path,
    _Forest,
    _label_roots,
    _run_search,
    _scan,
    gallai_edmonds,
)
from popmatch.formats import ParseError
from popmatch.fractional import (
    CycleThroughStar,
    FractionalPopular,
    NotFractionalPopular,
    PathPlusCycle,
)
from popmatch.generator import generate_instance, greedy_matching, random_maximal_matching
from popmatch.model import Matching, RoommatesInstance, _weights
from popmatch.oracle import _guard, _partner_tuples
from popmatch.popularity import Popular, Unpopular, is_popular


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



def tiled(rng: random.Random, parts):
    """Disjoint union of (instance, matching) parts, node ids shuffled."""
    n = sum(inst.n for inst, _ in parts)
    perm = list(range(n))
    rng.shuffle(perm)
    pref, partner = [None] * n, [None] * n
    base = 0
    for inst, m in parts:
        for v in range(inst.n):
            pref[perm[base + v]] = tuple(perm[base + w] for w in inst.pref[v])
            w = m.partner[v]
            partner[perm[base + v]] = None if w is None else perm[base + w]
        base += inst.n
    return RoommatesInstance(tuple(pref)), Matching(tuple(partner))


def gadget_cases(count, seed, gadgets):
    """Tiled popular gadgets, each bringing an odd set, among partner-first parts."""
    rng = random.Random(seed)
    for _ in range(count):
        parts = [rng.choice(gadgets) for _ in range(rng.randint(1, 5))]
        parts += [partner_first_instance(rng, 6, 0.5) for _ in range(rng.randint(0, 2))]
        yield tiled(rng, parts)


def label_sets(ge) -> tuple:
    """(d, a, c) of a Gallai-Edmonds decomposition as frozensets, read off ge.label."""
    return tuple(frozenset(np.flatnonzero(ge.label == k).tolist()) for k in (_EVEN, _ODD, 0))


def random_edge_graph(rng: random.Random, n: int, p: float) -> list:
    return [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]


def edge_arrays(g) -> tuple:
    """(src, dst) of g, every edge once per direction, in CSR order; dst is `g.dst`."""
    deg = np.diff(np.frombuffer(g.off, dtype=g.off.typecode))
    return np.repeat(np.arange(g.n, dtype=g.dst.dtype), deg), g.dst


def edge_list(g) -> list:
    """Every edge (u, v) of g once, u < v, in CSR order."""
    src, dst = edge_arrays(g)
    keep = src < dst
    return list(zip(src[keep].tolist(), dst[keep].tolist()))


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


# The byte-class tokenizer popmatch.formats._tokenize replaced: it classes
# every byte through a lookup table and keeps each token's offsets.
_R_OTHER, _R_DIGIT, _R_MINUS, _R_BLANK, _R_NEWLINE, _R_CR, _R_HASH = range(7)
_R_CLASS = np.zeros(256, dtype=np.uint8)
_R_CLASS[np.frombuffer(b"0123456789", dtype=np.uint8)] = _R_DIGIT
_R_CLASS[ord("-")] = _R_MINUS
_R_CLASS[[ord(" "), ord("\t")]] = _R_BLANK
_R_CLASS[ord("\n")] = _R_NEWLINE
_R_CLASS[ord("\r")] = _R_CR
_R_CLASS[ord("#")] = _R_HASH
_R_INT64_MAX = np.iinfo(np.int64).max


def reference_tokenize(text: str) -> SimpleNamespace:
    """Token arrays of text: values, starts, ends, newlines, per_line, comment_only, bad."""
    data = text.encode("utf-8", "surrogatepass")
    cls = _R_CLASS[np.frombuffer(data, dtype=np.uint8)]
    newlines = np.flatnonzero(cls == _R_NEWLINE)
    lines = len(newlines) + (not data.endswith(b"\n") and bool(data))
    has_comment = np.zeros(lines, dtype=bool)
    hashes = np.flatnonzero(cls == _R_HASH)
    if hashes.size:
        hline = np.searchsorted(newlines, hashes)
        first = np.ones(len(hashes), dtype=bool)
        first[1:] = hline[1:] != hline[:-1]
        hline = hline[first]
        mark = np.zeros(len(data) + 1, dtype=np.int8)
        mark[hashes[first]] = 1
        mark[np.append(newlines, len(data))[hline]] = -1
        inside = np.cumsum(mark[:-1], dtype=np.int8).view(bool)
        cls[inside] = _R_BLANK
        has_comment[hline] = True
    crs = np.flatnonzero(cls == _R_CR)
    if crs.size:
        ended = cls[np.minimum(crs + 1, len(cls) - 1)] == _R_NEWLINE
        cls[crs] = np.where(ended, _R_BLANK, _R_OTHER)
    other = cls == _R_OTHER
    edge = np.diff((cls <= _R_MINUS).view(np.int8), prepend=0, append=0)
    starts = np.flatnonzero(edge == 1)
    ends = np.flatnonzero(edge == -1)
    neg = cls[starts] == _R_MINUS
    bad = -1
    if other.any() or neg.sum() != (cls == _R_MINUS).sum() or (ends[neg] - starts[neg] < 2).any():
        wrong = other | (cls == _R_MINUS)
        wrong[starts] = other[starts]
        lone = neg & (ends - starts < 2)
        bad = int(np.argmax(np.logical_or.reduceat(wrong, starts) | lone))
    values = np.zeros(0, dtype=np.int64)
    if starts.size and bad < 0:
        source = text
        if hashes.size:
            clean = np.frombuffer(data, dtype=np.uint8).copy()
            clean[inside] = ord(" ")
            source = clean.tobytes().decode("ascii")
        values = np.fromstring(source, dtype=np.int64, sep=" ")
        if values.size != starts.size:
            raise ParseError(f"read {values.size} integers from {starts.size} tokens")
        for k in np.flatnonzero(ends - starts > 18).tolist():
            v = int(data[starts[k] : ends[k]])
            values[k] = v if -_R_INT64_MAX <= v <= _R_INT64_MAX else _R_INT64_MAX
    before = np.append(np.searchsorted(starts, newlines), len(starts))[:lines]
    per_line = np.diff(before, prepend=0)
    comment_only = has_comment & (per_line == 0)
    return SimpleNamespace(
        data=data, values=values, starts=starts, ends=ends, newlines=newlines,
        per_line=per_line, comment_only=comment_only, bad=bad,
    )


def reference_validate_matching(g, match) -> None:
    """Raise ValueError, naming the least bad vertex, unless match is a
    partner list of g's length whose pairs are an involution over g's edges."""
    if len(match) != g.n:
        raise ValueError("matching length does not fit the graph")
    for v, w in enumerate(match):
        if w == -1:
            continue
        if not 0 <= w < g.n or w == v or match[w] != v:
            raise ValueError(f"matching entry {v} -> {w} is not an involution")
        if w not in g.neighbors(v):
            raise ValueError(f"matched pair ({v}, {w}) is not an edge")


def decompose(g, match):
    """The Gallai-Edmonds decomposition of g at match, from outside input:
    the matching checked, then one search from every exposed vertex."""
    reference_validate_matching(g, match)
    forest = _run_search(g, match, [v for v in range(g.n) if match[v] == -1])
    return gallai_edmonds(g, match, forest)


def is_maximum(g, match) -> bool:
    """Whether no augmenting path exists: one search from every exposed vertex."""
    return _run_search(g, match, [v for v in range(g.n) if match[v] == -1]).aug is None


def scalar_search(g, match, roots):
    """`_run_search` from `roots` with every level in the scalar loop."""
    label = bytearray(g.n)
    forest = _Forest(label, [-1] * g.n, None, list(range(g.n)))
    return _scan(g, list(match), forest, _label_roots(match, label, roots))


def assert_same_forest(forest, reference):
    """The two searches ended in the same label, p, dsu and aug."""
    assert forest.label == reference.label
    assert np.array_equal(forest.p, reference.p)
    assert np.array_equal(forest.dsu, reference.dsu)
    assert forest.aug == reference.aug


class LevelSpy:
    """Counts, rule by rule, what the array levels of `_run_search` do.

    plain: vertices labeled odd under their first step; blossom: one-row
    blossoms; exposed, fault and cross-base: levels stopped by a step to
    an exposed vertex, to one whose partner does not point back, or to an
    even vertex of another base; narrow: searches handed to the scalar
    loop at a narrow level after an array level.
    """

    def __init__(self, monkeypatch):
        names = ("plain", "blossom", "cross-base", "exposed", "fault", "narrow")
        self.fired = dict.fromkeys(names, 0)
        self.levels = 0
        self._stopped = None
        level, levels = engine._array_level, engine._array_levels

        def spy_level(g, ma, lab, p, dsu, first, q, lo, cnt):
            ids = np.arange(len(dsu))
            odd, joined = np.count_nonzero(lab == _ODD), np.count_nonzero(dsu != ids)
            queue, stopped = level(g, ma, lab, p, dsu, first, q, lo, cnt)
            blossoms = (np.count_nonzero(dsu != ids) - joined) // 2
            self.levels += 1
            self.fired["blossom"] += blossoms
            self.fired["plain"] += np.count_nonzero(lab == _ODD) - odd + blossoms
            if stopped:
                self.fired[_stop_rule(g, ma, lab, dsu, int(queue[0]))] += 1
            self._stopped = stopped
            return queue, stopped

        def spy_levels(g, ma, roots):
            self._stopped = None
            forest, queue = levels(g, ma, roots)
            self.fired["narrow"] += bool(queue) and self._stopped is False
            return forest, queue

        monkeypatch.setattr(engine, "_array_level", spy_level)
        monkeypatch.setattr(engine, "_array_levels", spy_levels)


def _stop_rule(g, ma, lab, dsu, v) -> str:
    """The rule of the first step in v's row that the array levels stop on."""
    for w in g.neighbors(v):
        if w == ma[v]:
            continue
        if lab[w] == 0 and ma[w] == -1:
            return "exposed"
        if lab[w] == 0 and (ma[ma[w]] != w or ma[w] == w):
            return "fault"
        if lab[w] == _EVEN and dsu[w] != dsu[v]:
            return "cross-base"
    raise AssertionError(f"the level stopped at {v} on no rule")


def greedy_partners(g) -> list:
    """A maximal matching: each vertex in turn takes its first free neighbour."""
    match = [-1] * g.n
    for v in range(g.n):
        for w in g.neighbors(v):
            if match[v] == -1 and match[w] == -1:
                match[v], match[w] = w, v
    return match


def maximum_matching(g) -> list:
    """A maximum matching: a greedy start, then flips along the paths the search finds."""
    match = greedy_partners(g)
    while True:
        forest = _run_search(g, match, [v for v in range(g.n) if match[v] == -1])
        if forest.aug is None:
            return match
        path = _augmenting_path(match, forest)
        for a, b in zip(path[::2], path[1::2]):
            match[a], match[b] = b, a


# Brute-force references for maximality, from the definitions. They guard
# on graph size as the `oracle` command's verdicts do, so the caps and
# POPMATCH_ORACLE_LIMIT apply to them too.


def enumerate_matchings(inst: RoommatesInstance):
    """Yield every matching of the instance, lowest node decided first."""
    return map(Matching, _partner_tuples(inst))


def brute_max_matching_size(g) -> int:
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


def brute_gallai_edmonds(g) -> BruteDecomposition:
    """d holds v iff deleting v keeps the maximum matching size."""
    _guard(g.n, 12, "brute_gallai_edmonds")
    n = g.n
    nu = brute_max_matching_size(g)
    d = set()
    for v in range(n):
        rest = Graph.from_edges(n, [(a, b) for a, b in edge_list(g) if v not in (a, b)])
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


def _check_alternating(g, match, seq, what, closed=False):
    """Raise EngineError unless seq is a simple alternating walk in g.

    Steps alternate non-matching and matching, the first non-matching;
    closed adds the step from the last vertex back to the first.
    """
    if len(set(seq)) != len(seq):
        raise EngineError(f"{what} revisits a vertex")
    ends = seq[1:] + seq[:1] if closed else seq[1:]
    for i, (a, b) in enumerate(zip(seq, ends)):
        if b not in g.neighbors(a):
            raise EngineError(f"{what} uses a missing edge")
        if i % 2 == 0:
            if match[a] == b:
                raise EngineError(f"{what} misplaces a matched edge")
        elif match[a] != b:
            raise EngineError(f"{what} skips a matched edge")


def check_pieces_closed(g, ge) -> None:
    """Raise EngineError if an edge of g joins two pieces of ge's d part.

    The pieces are the components of the subgraph induced on d, so no
    such edge exists.
    """
    d = ge.label == _EVEN
    src, dst = edge_arrays(g)
    cross = np.flatnonzero(d[src] & d[dst] & (ge.piece[src] != ge.piece[dst]))
    if cross.size:
        i = cross[0]
        raise EngineError(f"edge {src[i]}-{dst[i]} joins two d-components")


def improved(inst, m, steps=60):
    """Follow the certificates' better matchings; often ends at a popular one."""
    for _ in range(steps):
        res = is_popular(inst, m)
        if not isinstance(res, Unpopular):
            break
        m = res.better
    return m


@functools.cache
def analysis_cases() -> tuple:
    """(instance, matching) pairs above the brute-force oracle cap: greedy,
    random maximal, the popular ones they improve to, and partner-first."""
    rng = random.Random(2024)
    cases = []
    for seed in range(30):
        n = rng.randint(50, 300)
        inst = generate_instance(n, "gnp", rng.choice((1.5, 2.0, 3.0)) / n, seed=seed)
        for m in (greedy_matching(inst), random_maximal_matching(inst, seed=seed)):
            cases += [(inst, m), (inst, improved(inst, m))]
        n = 2 * rng.randint(25, 150)
        cases.append(partner_first_instance(rng, n, 4.0 / n))
    return tuple(cases)


# Object-based forms that popmatch's array code replaced, kept as references.


def reference_half_canonical(ones, loop_ones, half_cycles) -> tuple:
    """HalfIntegralMatching's canonical (ones, loop_ones, half_cycles) as tuples.

    Raises ValueError like the constructor for a cycle that is not odd of
    length >= 3 or repeats a node.
    """
    ones = tuple(sorted((min(u, v), max(u, v)) for u, v in ones))
    loops = tuple(sorted(loop_ones))
    cycles = []
    for cyc in half_cycles:
        cyc = tuple(cyc)
        if len(cyc) < 3 or len(cyc) % 2 == 0:
            raise ValueError(f"half cycle {cyc} is not odd of length >= 3")
        if len(set(cyc)) != len(cyc):
            raise ValueError(f"half cycle {cyc} repeats a node")
        i = cyc.index(min(cyc))
        rot = cyc[i:] + cyc[:i]
        if rot[-1] < rot[1]:
            rot = (rot[0],) + tuple(reversed(rot[1:]))
        cycles.append(rot)
    return ones, loops, tuple(sorted(cycles))


def reference_witness_violation(inst, m, w):
    """witness_violation with its per-node set loop over the frozenset view.

    A set's nodes are visited in ascending order, the order the witness
    keeps them in.
    """
    n = inst.n
    if len(w.alpha) != n:
        return f"alpha has length {len(w.alpha)}, expected {n}"
    if any(abs(a) > 1 for a in w.alpha):
        return "alpha value outside {-1, 0, 1}"
    alpha = np.asarray(w.alpha, dtype=np.int64)
    setid = np.full(n, -1, dtype=np.int64)
    for k, group in enumerate(w.two_sets):
        if len(group) < 3 or len(group) % 2 == 0:
            return f"odd set #{k} has size {len(group)}"
        for v in sorted(group):
            if not isinstance(v, int) or not 0 <= v < n:
                return f"odd set #{k} contains invalid node {v!r}"
            if setid[v] != -1:
                return f"node {v} lies in two odd sets"
            setid[v] = k
    arr = inst._arrays
    eu, ev = arr["eu"].tolist(), arr["ev"].tolist()
    wts = _weights(inst, m).tolist()
    for u, v, wt in zip(eu, ev, wts):
        lhs = int(alpha[u] + alpha[v]) + 2 * int(setid[u] >= 0 and setid[u] == setid[v])
        if lhs < wt:
            return f"edge {u}-{v} is undercovered: {lhs} < {wt}"
    for v in range(n):
        if m.partner[v] is None and alpha[v] < 0:
            return f"unmatched node {v} has negative alpha"
    total = int(alpha.sum()) + sum(len(g) - 1 for g in w.two_sets)
    if total != 0:
        return f"dual objective is {total}, expected 0"
    return None


def reference_aux(inst, m) -> dict:
    """build_aux's tuples and dicts from per-edge loops over rank dicts.

    Returns the id layout (kind, payload, orig_to_aux, matching, seeds,
    u_id), the maps (b_of, star_of) and the sorted edge list of the
    auxiliary graph; a star's leaves show only as its edges.
    """
    n, partner, rank = inst.n, m.partner, inst.rank

    def prefers(u, v):  # u would rather have v than its state under m
        w = partner[u]
        return w is None or rank[u][v] < rank[u][w]

    blocking = {v: [] for v in range(n)}
    kept = []
    for u, v in sorted(inst.edges):
        if partner[u] == v or prefers(u, v) != prefers(v, u):
            kept.append((u, v))  # weight zero
        elif prefers(u, v):
            blocking[u].append(v)
            blocking[v].append(u)
    leaves = {}
    for x in range(n):
        if len(blocking[x]) == 1:
            leaves.setdefault(blocking[x][0], []).append(x)
    middles = sorted(z for z, ls in leaves.items() if len(ls) >= 2)
    leaf_star = {x: z for z in middles for x in leaves[z]}
    owners = [v for v in range(n) if blocking[v] and v not in leaf_star]
    matched = [v for v in range(n) if partner[v] is not None]
    nm, nb, ns = len(matched), len(owners), len(middles)
    has_u = nm < n
    kind = ("orig",) * nm + ("block",) * nb + ("star",) * ns + ("u",) * has_u
    payload = tuple(matched + owners + middles + [-1] * has_u)
    u_id = len(payload) - 1 if has_u else -1
    aux_id = {v: i for i, v in enumerate(matched)}
    orig_to_aux = tuple(aux_id.get(v, u_id) for v in range(n))
    b_of = {o: nm + i for i, o in enumerate(owners)}
    star_of = {z: nm + nb + i for i, z in enumerate(middles)}
    edges = {tuple(sorted((orig_to_aux[u], orig_to_aux[v]))) for u, v in kept}
    edges |= {tuple(sorted((orig_to_aux[o], b))) for o, b in b_of.items()}
    edges |= {tuple(sorted((orig_to_aux[x], star_of[z]))) for x, z in leaf_star.items()}
    return {
        "kind": kind,
        "payload": payload,
        "orig_to_aux": orig_to_aux,
        "matching": tuple(aux_id[partner[v]] for v in matched) + (-1,) * (nb + ns + has_u),
        "seeds": range(nm, nm + nb + ns),
        "u_id": u_id,
        "b_of": b_of,
        "star_of": star_of,
        "edges": sorted(e for e in edges if e[0] != e[1]),
    }


def _reference_groups(off, values) -> list:
    flat, bounds = values.tolist(), off.tolist()
    return [flat[a:b] for a, b in zip(bounds, bounds[1:])]


def _reference_unpopular(u) -> dict:
    seq = u.structure.nodes
    if u.structure.kind == "cycle":
        blocking = [[seq[-1], seq[0]]]
    elif u.structure.kind == "path-two-blocking":
        blocking = [[seq[0], seq[1]], [seq[-2], seq[-1]]]
    else:
        blocking = [[seq[0], seq[1]]]
    return {
        "blocking_structure": {
            "kind": u.structure.kind,
            "nodes": list(seq),
            "blocking_edges": blocking,
        },
        "better_matching": u.better.pair_array().tolist(),
        "margin": u.margin,
    }


def reference_document(res) -> dict:
    """The certificate document of a verdict object, built as a dict of Python
    values: the dict form that formats' array writer replaced."""
    if isinstance(res, (Popular, FractionalPopular)):
        w = res.witness
        alpha = w.alpha_array.tolist()
        return {
            "verdict": "popular" if isinstance(res, Popular) else "fractional-popular",
            "witness": {
                "alpha": {str(v): a for v, a in enumerate(alpha)},
                "two_sets": _reference_groups(w.set_off, w.set_nodes),
            },
        }
    if isinstance(res, Unpopular):
        return {"verdict": "unpopular", **_reference_unpopular(res)}
    assert isinstance(res, NotFractionalPopular)
    doc = {
        "verdict": "not-fractional-popular",
        "p": {
            "ones": res.p.ones_array.tolist(),
            "loop_ones": res.p.loop_array.tolist(),
            "half_cycles": _reference_groups(res.p.cycle_off, res.p.cycle_nodes),
        },
        "value_times_two": res.value_times_two,
    }
    s = res.structure
    if isinstance(s, CycleThroughStar):
        doc["fractional_structure"] = {
            "kind": "cycle-through-star",
            "cycle": list(s.cycle),
            "middle": s.middle,
        }
    elif isinstance(s, PathPlusCycle):
        doc["fractional_structure"] = {
            "kind": "path-plus-cycle",
            "path": list(s.path),
            "cycle": list(s.cycle),
            "blocking_edge": list(s.blocking_edge),
        }
    if res.from_unpopular is not None:
        doc.update(_reference_unpopular(res.from_unpopular))
    return doc
