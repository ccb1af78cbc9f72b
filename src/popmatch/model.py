"""Roommates instances, matchings, votes, and half-integral matchings.

An instance is a strict preference list per node over its neighbors;
the lists induce an undirected graph.  A matching M is judged by
majority vote: each node compares its new partner against its old one
and being unmatched is worse than every neighbor.  Edge weights
aggregate the two endpoint votes, so an edge of weight +2 is blocking,
and a half-integral matching generalizes a matching by allowing odd
cycles carried with value one half.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import cached_property
from itertools import chain

import numpy as np


NO_EDGE = -3  # `_edge_votes` at a pair that is not an edge


class PreferenceError(ValueError):
    """A preference entry that breaks the instance rules.

    kind is "range", "self", "twice" or "one-sided"; entry is the entry's
    position when the lists are read row by row, node owns the list.
    """

    def __init__(self, kind: str, node: int, other: int, entry: int):
        self.kind, self.node, self.other, self.entry = kind, node, other, entry
        super().__init__(
            {
                "range": f"node {node} ranks a vertex outside the instance",
                "self": f"node {node} ranks itself",
                "twice": f"node {node} ranks {other} twice",
                "one-sided": f"node {node} ranks {other} but not vice versa",
            }[kind]
        )


class PairError(ValueError):
    """A bad matching pair. kind is "range", "reuse" or "edge"; slot is
    2 * pair + side of the node at fault, side 0 for "edge"."""

    def __init__(self, kind: str, slot: int, u, v):
        self.kind, self.slot = kind, slot
        what = "reuses a matched node" if kind == "reuse" else "is not an edge of the instance"
        super().__init__(f"pair ({u}, {v}) {what}")


def _first_defect(du: np.ndarray, dv: np.ndarray, n: int) -> PreferenceError:
    """The defect of the first bad entry in row order."""
    du, dv = du.astype(np.int64), dv.astype(np.int64)  # the keys below overflow int32
    bad = (dv < 0) | (dv >= n) | (dv == du)
    stop = int(np.argmax(bad)) if bad.any() else len(dv)
    # a repeat before the first bad entry comes first; ids there are valid
    d = du[:stop] * n + dv[:stop]
    repeats = _later_repeats(d)
    if repeats.any():
        i = int(np.argmax(repeats))
        return PreferenceError("twice", int(du[i]), int(dv[i]), i)
    if stop < len(dv):
        kind = "self" if dv[stop] == du[stop] else "range"
        return PreferenceError(kind, int(du[stop]), int(dv[stop]), stop)
    listed = np.isin(dv * n + du, d)
    i = int(np.argmin(listed))
    return PreferenceError("one-sided", int(du[i]), int(dv[i]), i)


def index_dtype(n: int, entries: int):
    """The dtype of node ids below n and of positions up to entries: int32
    when both fit it, int64 otherwise."""
    return np.int32 if max(n, entries) < 2**31 else np.int64


def _packs(n: int, entries: int) -> bool:
    """Whether the pairing keys of n nodes, each below 2n^2, still fit int64
    with an entry index below `entries` packed into their low bits."""
    return (2 * n * n) << max(entries - 1, 0).bit_length() < 2**63


def _int_array(values) -> np.ndarray:
    """values as an int64 array; an object array of Python ints if one does not fit.

    Only outside input holds such a value. Kept exact, it still sorts and
    compares, and messages can name it. An entry must be what
    `operator.index` reads as an int, as in `Matching`; ValueError names
    the first that is not, so a float or a digit string is never cast.
    """
    a = np.asarray(values)
    if a.dtype.kind == "i" or not a.size or (a.dtype.kind == "u" and a.max() < 2**63):
        return a.astype(np.int64, copy=False)
    # bools, floats, strings, Python ints beyond int64 or mixed types: entry by entry
    a = np.asarray(values, dtype=object)
    ints = []
    for v in a.ravel().tolist():
        try:
            ints.append(operator.index(v))
        except TypeError:
            raise ValueError(f"{v!r} is not an integer") from None
    try:
        return np.array(ints, dtype=np.int64).reshape(a.shape)
    except OverflowError:
        return np.array(ints, dtype=object).reshape(a.shape)


def _node_ids(a: np.ndarray) -> np.ndarray:
    """a as int64 node ids; a value beyond int64, which names no node, becomes -1."""
    if a.dtype != object:
        return a
    return np.where((a >= -(2**63)) & (a < 2**63), a, -1).astype(np.int64)


def _csr(groups) -> tuple:
    """(off, values) of a sequence of sequences: group k is values[off[k]:off[k + 1]]."""
    groups = [tuple(g) for g in groups]
    off = np.zeros(len(groups) + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, groups), dtype=np.int64, count=len(groups)), out=off[1:])
    return off, _int_array(list(chain.from_iterable(groups)))


def _csr_arrays(off, values) -> tuple:
    """(off, values) read with `_int_array`, an int32 or int64 values array kept
    in its dtype; ValueError unless off is one-dimensional and runs from 0 to
    len(values), non-decreasing."""
    off = _int_array(off)
    if not (isinstance(values, np.ndarray) and values.dtype in (np.int32, np.int64)):
        values = _int_array(values)
    if (
        off.ndim != 1 or values.ndim != 1 or not off.size or off[0] != 0
        or off[-1] != values.size or (np.diff(off) < 0).any()
    ):
        raise ValueError("csr needs offsets from 0 to len(values), non-decreasing")
    return off, values


def _later_repeats(a: np.ndarray) -> np.ndarray:
    """True at each entry of a whose value also occurs at a lower index."""
    order = np.argsort(a, kind="stable")
    s = a[order]
    later = np.zeros(len(a), dtype=bool)
    later[order[1:][s[1:] == s[:-1]]] = True
    return later


def _groups(off: np.ndarray, values: np.ndarray, kind) -> list:
    """The CSR groups values[off[k]:off[k + 1]] as Python ints, each made a kind."""
    flat, bounds = values.tolist(), off.tolist()
    return [kind(flat[a:b]) for a, b in zip(bounds, bounds[1:])]


def _lex_order(major: np.ndarray, minor: np.ndarray) -> np.ndarray:
    """Stable indices sorting by major, then minor (two stable sorts beat np.lexsort)."""
    o = np.argsort(minor, kind="stable")
    return o[np.argsort(major[o], kind="stable")]


class _Frozen:
    """Immutable object whose state is the read-only arrays named in _STATE.

    Two objects of one type are equal when those arrays are.
    """

    _STATE: tuple = ()

    def _take(self, **arrays) -> None:
        """Make the arrays read-only and store them as the state."""
        for a in arrays.values():
            a.flags.writeable = False
        self.__dict__.update(arrays)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(np.array_equal(getattr(self, k), getattr(other, k)) for k in self._STATE)

    def __hash__(self):
        # an object array holds a value beyond int64, so never equals an int64
        # one; int32 hashes as int64, as equal int32 and int64 arrays are equal
        parts = []
        for k in self._STATE:
            a = getattr(self, k)
            parts.append(
                tuple(a.ravel().tolist()) if a.dtype == object
                else a.astype(np.int64, copy=False).tobytes()
            )
        return hash(tuple(parts))


class RoommatesInstance(_Frozen):
    """Immutable preference profile; pref[v] ranks v's neighbors, best first.

    The state is two read-only arrays in CSR form: `off` (n + 1
    offsets) and the flat preference array `dv`, so row v is
    dv[off[v]:off[v + 1]]. Both hold the index dtype, `index_dtype(n,
    2|E|)`, chosen once here. Build from rows, `RoommatesInstance(pref)`,
    or from arrays, `RoommatesInstance(csr=(off, dv))`; arrays given are
    copied into the index dtype. `pref`, `rank` and `edges` are views
    built on first use.
    Raises PreferenceError for rows that break the instance rules.
    """

    _STATE = ("off", "dv")

    def __init__(self, pref=None, *, csr=None):
        if (pref is None) == (csr is None):
            raise TypeError("RoommatesInstance takes either pref or csr")
        off, dv = _csr(pref) if csr is None else _csr_arrays(*csr)
        self.__dict__["_arrays"] = _validated(off, _node_ids(dv))

    def __repr__(self):
        return f"RoommatesInstance(pref={self.pref!r})"

    @property
    def off(self) -> np.ndarray:
        return self._arrays["off"]

    @property
    def dv(self) -> np.ndarray:
        return self._arrays["dv"]

    @property
    def n(self) -> int:
        return len(self.off) - 1

    @property
    def m(self) -> int:
        return int(self.off[-1]) // 2

    @cached_property
    def pref(self) -> tuple:
        return tuple(_groups(self.off, self.dv, tuple))

    @cached_property
    def rank(self) -> tuple:
        return tuple({v: i for i, v in enumerate(p)} for p in self.pref)

    @cached_property
    def edges(self) -> frozenset:
        arr = self._arrays
        return frozenset(zip(arr["eu"].tolist(), arr["ev"].tolist()))

    def has_edges(self, us, vs) -> np.ndarray:
        """Elementwise: is (us[i], vs[i]) an edge? One batched key lookup."""
        return self._edge_index(us, vs) >= 0

    def _edge_index(self, us, vs) -> np.ndarray:
        """Index of each (us[i], vs[i]) in the undirected edge arrays, -1 if no edge."""
        n = self.n
        us = _node_ids(_int_array(us))
        vs = _node_ids(_int_array(vs))
        ok = (us >= 0) & (us < n) & (vs >= 0) & (vs < n)
        key = np.where(ok, np.minimum(us, vs) * n + np.maximum(us, vs), -1)
        keys = self._arrays["keys"]
        i = np.searchsorted(keys, key)
        found = i < len(keys)
        found[found] = keys[i[found]] == key[found]
        return np.where(found, i, -1)


def _validated(off: np.ndarray, dv: np.ndarray) -> dict:
    """The instance arrays of CSR rows, int64 offsets and int32 or int64 ids, read-only
    and owning their memory; PreferenceError if a row is bad.

    They are off, dv, and per undirected edge: `keys`, the int64 keys
    lo * n + hi in ascending order; eu/ev, its two ends; pu/pv, the
    position of each end's entry in its own row. All but `keys` hold
    index_dtype(n, len(dv)). The owner of each directed entry, du, is a
    temporary.

    Each directed entry's key, (lo * n + hi) * 2 + (du > dv), meets its
    reverse in one sort. While the key still fits int64 with the entry
    index packed into its low bits (`_packs`), that is an in-place value
    sort of the packed keys; past that, an argsort. Both give one order.
    """
    n = len(off) - 1
    total = len(dv)
    idx = index_dtype(n, total)
    du = np.repeat(np.arange(n, dtype=idx), np.diff(off))
    # one unsigned pass: a negative id reads as beyond every n. A self entry
    # finds no reverse key, so the pairing check below refuses it
    if total and dv.view(np.dtype(f"u{dv.itemsize}")).max() >= n:
        raise _first_defect(du, dv, n)
    off, dv = off.astype(idx), dv.astype(idx)  # copies: the instance owns them
    # (lo * n + hi) * 2 + (du > dv), built in int64 and in place: the low
    # bit tells the two directions apart, so valid keys are distinct
    key2 = np.maximum(du, dv, dtype=np.int64)
    key2 *= 2
    key2 += du > dv
    lo = np.minimum(du, dv, dtype=np.int64)
    lo *= 2 * n
    key2 += lo
    # freed as soon as used, like key2 below: at 1e6 gadgets edges the
    # validation then peaks 64 MB above its int64 inputs (80 MB if key2
    # lives to the return). On the benchmark's unpopular-dense run one
    # large decide in ten then faults back about 2,900 pages that glibc
    # trimmed; the median decide faults none
    del lo
    if _packs(n, total):
        # the entry index in the low bits makes every key distinct, so the
        # in-place value sort gives one order on any numpy and sort kind
        b = max(total - 1, 0).bit_length()
        key2 <<= b
        key2 += np.arange(total, dtype=np.int64)
        key2.sort()
        order = key2 & ((1 << b) - 1)
        key2 >>= b
    else:
        order = np.argsort(key2)
        key2 = key2[order]
    # valid iff every edge appears exactly once from each side
    if total % 2 or not np.array_equal(key2[0::2] ^ 1, key2[1::2]):
        raise _first_defect(du, dv, n)
    keys = key2[0::2] >> 1
    del key2
    low, high = order[0::2], order[1::2]
    eu, ev = du[low], du[high]
    arrays = {
        "off": off,
        "dv": dv,
        "keys": keys,
        "eu": eu,
        "ev": ev,
        "pu": np.subtract(low, off[eu], dtype=idx),  # entry index minus row start
        "pv": np.subtract(high, off[ev], dtype=idx),
    }
    for a in arrays.values():
        a.flags.writeable = False
    return arrays


class Matching(_Frozen):
    """A matching as a read-only int64 partner array, -1 for unmatched nodes.

    Build from a partner sequence with None for unmatched nodes,
    `Matching(partner)`, or with `from_pairs` or `empty`; each raises
    ValueError unless the partners form an involution. A partner entry
    is any integer, numpy's included.
    `partner_array` is the state; `partner`, the sequence as a tuple of
    ints with None for unmatched nodes, is a view built on first use.
    """

    _STATE = ("partner_array",)

    def __init__(self, partner):
        entries = tuple(partner)
        n = len(entries)
        pa = [-1] * n
        for v, w in enumerate(entries):
            if w is not None:
                try:
                    w = operator.index(w)
                except TypeError:
                    w = n
                pa[v] = w if 0 <= w < n else n  # n marks an entry that names no node
        pa = np.array(pa, dtype=np.int64)
        wrong = pa == n
        pa[wrong] = -1
        _check_involution(pa, wrong, entries)
        self._take(partner_array=pa)

    @classmethod
    def _of(cls, pa: np.ndarray) -> "Matching":
        """Matching of an int64 partner array, -1 for unmatched; taken over, not copied."""
        n = len(pa)
        wrong = (pa < -1) | (pa >= n)
        _check_involution(np.where(wrong, -1, pa), wrong, pa)
        m = object.__new__(cls)
        m._take(partner_array=pa)
        return m

    @classmethod
    def empty(cls, n: int) -> "Matching":
        return cls._of(np.full(n, -1, dtype=np.int64))

    @classmethod
    def from_pairs(cls, inst: RoommatesInstance, pairs) -> "Matching":
        """Matching of (u, v) pairs, each an instance edge on two fresh nodes; PairError
        names the first check that fails, in text order: node u, node v, the edge."""
        if not isinstance(pairs, np.ndarray):
            pairs = list(pairs)
        arr = _node_ids(_int_array(pairs)).reshape(-1, 2)  # an id beyond int64 becomes -1
        flat = arr.ravel()
        out = (flat < 0) | (flat >= inst.n)
        again = np.zeros(len(flat), dtype=bool)  # a node seen in an earlier slot
        if out.any() or (flat.size and np.bincount(flat, minlength=inst.n).max() > 1):
            again = _later_repeats(flat)
        bad = out | again
        stop = int(np.argmax(bad)) if bad.any() else len(flat)  # the first bad slot
        has = inst.has_edges(arr[: stop // 2, 0], arr[: stop // 2, 1])
        if not has.all():
            i = int(np.argmin(has))
            raise PairError("edge", 2 * i, *pairs[i])
        if stop < len(flat):
            raise PairError("range" if out[stop] else "reuse", stop, *pairs[stop // 2])
        partner = np.full(inst.n, -1, dtype=np.int64)
        partner[arr[:, 0]] = arr[:, 1]
        partner[arr[:, 1]] = arr[:, 0]
        m = object.__new__(cls)  # an involution by construction
        m._take(partner_array=partner)
        return m

    def __repr__(self):
        return f"Matching(partner={self.partner!r})"

    @cached_property
    def partner(self) -> tuple:
        return tuple(None if w < 0 else w for w in self.partner_array.tolist())

    @property
    def n(self) -> int:
        return len(self.partner_array)

    def pair_array(self) -> np.ndarray:
        """(k, 2) array of the matched pairs (low, high), ascending."""
        pa = self.partner_array
        low = np.flatnonzero(pa > np.arange(len(pa)))
        return np.column_stack((low, pa[low]))

    def pairs(self) -> tuple:
        return tuple(map(tuple, self.pair_array().tolist()))

    def size(self) -> int:
        return int(np.count_nonzero(self.partner_array >= 0)) // 2


def _check_involution(pa: np.ndarray, wrong: np.ndarray, shown) -> None:
    """Raise ValueError at the first entry that is wrong or disagrees with its partner's.

    pa holds -1 for unmatched and wrong entries; shown[v] is entry v as given,
    read only for the entry named.
    """
    v = np.arange(len(pa))
    wrong = wrong | (pa == v)
    bad = wrong.copy()
    mates = np.flatnonzero(pa >= 0)
    bad[mates] |= pa[pa[mates]] != mates
    if bad.any():
        i = int(np.argmax(bad))
        if wrong[i]:
            x = shown[i]
            x = x.item() if isinstance(x, np.generic) else x  # numpy's scalar repr names its type
            raise ValueError(f"partner entry {i} -> {x!r} is out of range")
        raise ValueError(f"partner entries {i} and {int(pa[i])} disagree")


def _partner_array(m: Matching) -> np.ndarray:
    """m's partners as a read-only int64 array, -1 for unmatched."""
    return m.partner_array


def check_matching(inst: RoommatesInstance, m: Matching) -> None:
    """Raise ValueError unless m matches along edges of inst."""
    if m.n != inst.n:
        raise ValueError("matching size does not fit the instance")
    # a Matching is an involution by construction, so only its pairs need
    # looking up: their keys low * n + high ascend, as `keys` does
    n, pa = inst.n, m.partner_array
    low = np.flatnonzero(pa > np.arange(n))
    key = low * n + pa[low]
    keys = inst._arrays["keys"]
    i = np.searchsorted(keys, key)
    if len(i) and (i[-1] == len(keys) or (keys[i] != key).any()):
        Matching.from_pairs(inst, m.pair_array())  # raises, naming the first pair off inst


def _ranks(inst: RoommatesInstance, us, vs) -> np.ndarray:
    """Position of vs[i] in us[i]'s preference list, for every i at once.

    vs[i] None or -1 means unmatched, which ranks below every neighbor:
    its position is us[i]'s degree.  Raises ValueError when some us[i] is
    out of range or (us[i], vs[i]) is not an edge; either names the id as
    given, one beyond int64 included.
    """
    arr = inst._arrays
    us = _int_array(us)
    if not isinstance(vs, np.ndarray):
        vs = [-1 if v is None else v for v in vs]
    vs = _int_array(vs)
    outside = (us < 0) | (us >= inst.n)
    if outside.any():
        raise ValueError(f"node {us[np.argmax(outside)]} is out of range")
    us = _node_ids(us)
    pos = arr["off"][us + 1] - arr["off"][us]
    listed = np.flatnonzero(vs != -1)
    xs, ys = us[listed], vs[listed]
    idx = inst._edge_index(xs, _node_ids(ys))
    if (idx < 0).any():
        i = int(np.argmax(idx < 0))
        raise ValueError(f"{ys[i]} is not a neighbor of {xs[i]}")
    pos[listed] = np.where(arr["eu"][idx] == xs, arr["pu"][idx], arr["pv"][idx])
    return pos


def vote(inst: RoommatesInstance, u: int, a, b) -> int:
    """u's vote comparing partner a against partner b: +1, 0, or -1."""
    ra, rb = _ranks(inst, (u, u), (a, b)).tolist()
    return (ra < rb) - (rb < ra)


def _check_ids(inst: RoommatesInstance, m: Matching, ids, what: str = "node") -> None:
    """Raise ValueError unless m fits inst and every id is a node of it."""
    if m.n != inst.n:
        raise ValueError("matching size does not fit the instance")
    ids = _int_array(ids)
    out = (ids < 0) | (ids >= inst.n)
    if out.any():
        raise ValueError(f"{what} {ids[np.argmax(out)]} is out of range")


def _edge_votes(inst: RoommatesInstance, m: Matching, us, vs) -> np.ndarray:
    """The weight of each pair (us[i], vs[i]) as int8: both ends' votes for the
    pair against their partners, -2..2, or NO_EDGE where it is not an edge of
    inst, an id outside inst included. Each pair costs a key lookup and each
    end of an edge one more, for its partner's rank; `_weights` needs none.
    Raises ValueError when an end of an edge has a partner that is not its neighbor.
    """
    arr = inst._arrays
    us, vs = _node_ids(_int_array(us)), _node_ids(_int_array(vs))
    idx = inst._edge_index(us, vs)
    found = np.flatnonzero(idx >= 0)
    ends = np.concatenate([us[found], vs[found]])
    idx = np.tile(idx[found], 2)
    new = np.where(arr["eu"][idx] == ends, arr["pu"][idx], arr["pv"][idx])  # rank of the pair
    side = np.sign(_ranks(inst, ends, m.partner_array[ends]) - new)
    votes = np.full(len(us), NO_EDGE, dtype=np.int8)
    votes[found] = side[: len(found)] + side[len(found):]
    return votes


def edge_weight(inst: RoommatesInstance, m: Matching, u: int, v: int) -> int:
    """Combined vote of u and v for the edge uv against their partners."""
    _check_ids(inst, m, [u, v])
    w = int(_edge_votes(inst, m, [u], [v])[0])
    if w == NO_EDGE:
        raise ValueError(f"{v} is not a neighbor of {u}")
    return w


def loop_weight(inst: RoommatesInstance, m: Matching, v: int) -> int:
    """Vote mass of leaving v unmatched: 0 when already unmatched, else -1."""
    _check_ids(inst, m, [v])
    return -int(m.partner_array[v] >= 0)


def _weights(inst: RoommatesInstance, m: Matching) -> np.ndarray:
    """Edge weights aligned with the undirected arrays eu/ev of inst; ValueError
    unless m fits inst, and check_matching's PairError if a pair of m is no edge."""
    if m.n != inst.n:
        raise ValueError("matching size does not fit the instance")
    arr = inst._arrays
    eu, ev, pu, pv = arr["eu"], arr["ev"], arr["pu"], arr["pv"]
    r = np.diff(arr["off"])  # partner rank; degree if exposed
    pa = _partner_array(m)
    # np.take: a fancy index converts int32 indices to intp first, twice the cost
    hit = np.flatnonzero(ev == np.take(pa, eu))  # the matched edges
    if 2 * hit.size != np.count_nonzero(pa >= 0):
        Matching.from_pairs(inst, m.pair_array())  # names the first pair that is no edge
    r[np.take(eu, hit)] = np.take(pu, hit)
    r[np.take(ev, hit)] = np.take(pv, hit)
    # each end's vote, +1 when it ranks the edge above its partner: the
    # comparisons viewed as int8 and summed in place
    a = np.take(r, eu)
    w = (a > pu).view(np.int8) - (a < pu).view(np.int8)
    a = np.take(r, ev)
    w += (a > pv).view(np.int8)
    w -= (a < pv).view(np.int8)
    return w


def blocking_edges(inst: RoommatesInstance, m: Matching) -> tuple:
    """All edges both endpoints strictly prefer to their current state."""
    arr = inst._arrays
    w = _weights(inst, m)
    idx = np.flatnonzero(w == 2)
    return tuple(zip(arr["eu"][idx].tolist(), arr["ev"][idx].tolist()))


def _rival_votes(inst: RoommatesInstance, m: Matching, xs, ys) -> np.ndarray:
    """Each node xs[i]'s vote for ys[i], -1 meaning unmatched, against its
    partner in m, as int8. Only the entries where ys[i] is not that partner
    are looked up; the others vote 0. m must be a matching of inst and
    every id a node of it; ValueError names the first ys[i] that is not a
    neighbor of xs[i].
    """
    pa = _partner_array(m)
    votes = np.zeros(len(xs), dtype=np.int8)
    moved = np.flatnonzero(np.take(pa, xs) != ys)
    xs, ys = xs[moved], ys[moved]
    r = _ranks(inst, np.tile(xs, 2), np.concatenate([ys, pa[xs]]))  # new, then old partner
    votes[moved] = np.sign(r[len(xs):] - r[: len(xs)])
    return votes


def delta(inst: RoommatesInstance, m1: Matching, m2: Matching) -> int:
    """Vote balance of moving from m1 to m2: positive means m2 wins.

    Only the nodes whose partner changes are scored. m1 must be a matching
    of inst: `check_matching` establishes it on the verify path, the
    weight pass on the decide path. ValueError when a pair of m2 is no edge.
    """
    if m1.n != inst.n or m2.n != inst.n:
        raise ValueError("matching size does not fit the instance")
    return int(_rival_votes(inst, m1, np.arange(inst.n), m2.partner_array).sum())


class HalfIntegralMatching(_Frozen):
    """Edge values in {0, 1/2, 1} plus loops, covering each node exactly once.

    ones are full edges, loop_ones the nodes parked on their loop, and
    half_cycles odd cycles whose edges all carry one half.  The state is
    arrays in canonical form, so equal objects compare equal:
    `ones_array`, a (k, 2) array of (low, high) rows in lexicographic
    order; `loop_array`, ascending; and the cycles as CSR, cycle c being
    `cycle_nodes[cycle_off[c]:cycle_off[c + 1]]`, each rotated to its
    smallest node with the smaller neighbor second, the cycles in
    lexicographic order.  Build from sequences, or give the cycles as
    arrays with `csr=(cycle_off, cycle_nodes)`; arrays given are taken
    over, not copied.  A node id beyond int64,
    which only outside input holds, stays a Python int in an object
    array.  `ones`, `loop_ones` and `half_cycles` are tuple views built
    on first use.
    """

    _STATE = ("ones_array", "loop_array", "cycle_off", "cycle_nodes")

    def __init__(self, ones, loop_ones, half_cycles=None, *, csr=None):
        if (half_cycles is None) == (csr is None):
            raise TypeError("HalfIntegralMatching takes either half_cycles or csr")
        off, nodes = _csr(half_cycles) if csr is None else _csr_arrays(*csr)
        pairs = _int_array(ones).reshape(-1, 2)
        low = np.minimum(pairs[:, 0], pairs[:, 1])
        high = np.maximum(pairs[:, 0], pairs[:, 1])
        # ones from m.pair_array() or a stored certificate arrive in order
        a, b = low[:-1], low[1:]
        if not ((a < b) | ((a == b) & (high[:-1] <= high[1:]))).all():
            order = _lex_order(low, high)
            low, high = low[order], high[order]
        cycle_off, cycle_nodes = _canonical_cycles(off, nodes)
        self._take(
            ones_array=np.column_stack((low, high)),
            loop_array=np.sort(_int_array(loop_ones)),
            cycle_off=cycle_off,
            cycle_nodes=cycle_nodes,
        )

    def __repr__(self):
        return (
            f"HalfIntegralMatching(ones={self.ones!r}, loop_ones={self.loop_ones!r}, "
            f"half_cycles={self.half_cycles!r})"
        )

    @cached_property
    def ones(self) -> tuple:
        return tuple(map(tuple, self.ones_array.tolist()))

    @cached_property
    def loop_ones(self) -> tuple:
        return tuple(self.loop_array.tolist())

    @cached_property
    def half_cycles(self) -> tuple:
        return tuple(_groups(self.cycle_off, self.cycle_nodes, tuple))

    def cycle_steps(self) -> tuple:
        """(us, vs): every cycle edge once, from each node to the next one around its cycle."""
        nodes, off = self.cycle_nodes, self.cycle_off
        nxt = np.arange(1, len(nodes) + 1)
        nxt[off[1:] - 1] = off[:-1]  # every cycle has three nodes or more
        return nodes, nodes[nxt]

    def validate(self, inst: RoommatesInstance, m: Matching | None = None) -> None:
        """Raise ValueError unless this is a perfect half-integral matching.

        m, if given, is a matching of inst, checked already (by the weight
        pass on the decide path, by `check_matching` on the verify path);
        the ones that are pairs of m are then not looked up again.
        """
        ones = self.ones_array
        us, vs = _node_ids(ones[:, 0]), _node_ids(ones[:, 1])
        look = np.arange(len(ones))
        if m is not None:
            pa = m.partner_array
            known = (us >= 0) & (us < len(pa)) & (vs >= 0)
            known[known] = pa[us[known]] == vs[known]
            look = np.flatnonzero(~known)
        has = inst.has_edges(us[look], vs[look])
        if not has.all():
            u, v = ones[look[np.argmin(has)]].tolist()
            raise ValueError(f"edge ({u}, {v}) is not in the instance")
        loops = self.loop_array
        out = (loops < 0) | (loops >= inst.n)
        if out.any():
            raise ValueError(f"loop node {loops[np.argmax(out)]} is out of range")
        us, vs = self.cycle_steps()
        has = inst.has_edges(_node_ids(us), _node_ids(vs))
        if not has.all():
            i = int(np.argmin(has))
            raise ValueError(f"cycle edge ({us[i]}, {vs[i]}) is not in the instance")
        # every endpoint of a one and every loop counts twice, every cycle
        # node once per incident cycle edge, so twice; all ids are nodes by now
        covered = np.concatenate([ones.ravel(), loops, us]).astype(np.int64)
        cover = 2 * np.bincount(covered, minlength=inst.n)
        if (cover != 2).any():
            v = int(np.argmax(cover != 2))
            c = int(cover[v])
            raise ValueError(f"node {v} is covered {c}/2 times, expected exactly 1")


def _canonical_cycles(off: np.ndarray, nodes: np.ndarray) -> tuple:
    """Cycles as CSR, each rotated to its least node with the smaller neighbor
    second, in lexicographic order; ValueError for the first cycle, as given,
    that is not odd of length >= 3 or repeats a node."""
    cycles = []
    for cyc in _groups(off, nodes, tuple):
        if len(cyc) < 3 or len(cyc) % 2 == 0:
            raise ValueError(f"half cycle {cyc} is not odd of length >= 3")
        if len(set(cyc)) != len(cyc):
            raise ValueError(f"half cycle {cyc} repeats a node")
        i = cyc.index(min(cyc))
        rot = cyc[i:] + cyc[:i]
        if rot[-1] < rot[1]:
            rot = rot[:1] + rot[:0:-1]
        cycles.append(rot)
    return _csr(sorted(cycles))


def half_from_matching(inst: RoommatesInstance, m: Matching) -> HalfIntegralMatching:
    return HalfIntegralMatching(
        m.pair_array(),
        np.flatnonzero(m.partner_array < 0),
        csr=(np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int64)),
    )


def fractional_value_times_two(
    inst: RoommatesInstance, m: Matching, p: HalfIntegralMatching
) -> int:
    """Twice the vote value of p against m, an exact integer.

    Ones and loops count twice and half-cycle edges once, each by both
    ends' votes; only the nodes where p differs from m are scored. m must
    be a matching of inst: `check_matching` establishes it on the verify
    path, the weight pass on the decide path. Raises ValueError when p
    uses a node outside inst or a pair that is not an edge.
    """
    us, vs = p.cycle_steps()
    ones, loops = p.ones_array, p.loop_array
    a = np.concatenate([ones[:, 0], us])
    b = np.concatenate([ones[:, 1], vs])
    _check_ids(inst, m, loops, "loop node")
    _check_ids(inst, m, np.concatenate([a, b]))  # the nodes index m below
    a, b = _node_ids(a), _node_ids(b)
    # each end of a one or cycle step votes for the other end, a loop node for being unmatched
    xs = np.concatenate([a, b, loops])
    votes = _rival_votes(inst, m, xs, np.concatenate([b, a, np.full(len(loops), -1)]))
    k, s = len(ones), len(us)
    return int(np.repeat([2, 1, 2, 1, 2], [k, s, k, s, len(loops)]) @ votes)


def fractional_value(
    inst: RoommatesInstance, m: Matching, p: HalfIntegralMatching
) -> Fraction:
    return Fraction(fractional_value_times_two(inst, m, p), 2)
