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

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain

import numpy as np


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


def _first_defect(du: np.ndarray, dv: np.ndarray, n: int) -> PreferenceError:
    """The defect of the first bad entry in row order."""
    bad = (dv < 0) | (dv >= n) | (dv == du)
    stop = int(np.argmax(bad)) if bad.any() else len(dv)
    # a repeat before the first bad entry comes first; ids there are valid
    d = du[:stop] * n + dv[:stop]
    order = np.argsort(d, kind="stable")
    ds = d[order]
    repeats = order[1:][ds[1:] == ds[:-1]]
    if repeats.size:
        i = int(repeats.min())
        return PreferenceError("twice", int(du[i]), int(dv[i]), i)
    if stop < len(dv):
        kind = "self" if dv[stop] == du[stop] else "range"
        return PreferenceError(kind, int(du[stop]), int(dv[stop]), stop)
    back = dv * n + du
    listed = np.searchsorted(ds, back, side="right") > np.searchsorted(ds, back)
    i = int(np.argmin(listed))
    return PreferenceError("one-sided", int(du[i]), int(dv[i]), i)


def _node_pairs(pairs) -> np.ndarray:
    """(k, 2) int64 array of node pairs; ids beyond int64 become -1, no node."""
    try:
        arr = np.asarray(pairs, dtype=np.int64)
    except OverflowError:
        arr = np.asarray(
            [[x if -(2**63) <= x < 2**63 else -1 for x in p] for p in pairs],
            dtype=np.int64,
        )
    return arr.reshape(-1, 2)


class RoommatesInstance:
    """Immutable preference profile; pref[v] ranks v's neighbors, best first.

    The state is two read-only int64 arrays in CSR form: `off` (n + 1
    offsets) and the flat preference array `dv`, so row v is
    dv[off[v]:off[v + 1]]. Build from rows, `RoommatesInstance(pref)`, or
    from arrays, `RoommatesInstance(csr=(off, dv))`; the arrays are taken
    over, not copied. `pref`, `rank` and `edges` are views built on first
    use. Raises PreferenceError for rows that break the instance rules.
    """

    def __init__(self, pref=None, *, csr=None):
        if (pref is None) == (csr is None):
            raise TypeError("RoommatesInstance takes either pref or csr")
        if csr is None:
            rows = tuple(tuple(p) for p in pref)
            counts = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
            off = np.zeros(len(rows) + 1, dtype=np.int64)
            np.cumsum(counts, out=off[1:])
            dv = np.fromiter(chain.from_iterable(rows), dtype=np.int64, count=int(off[-1]))
            self.__dict__["pref"] = rows  # the view's slot, already built
        else:
            off, dv = (np.asarray(a, dtype=np.int64) for a in csr)
            if (
                off.ndim != 1 or dv.ndim != 1 or not off.size or off[0] != 0
                or off[-1] != dv.size or (np.diff(off) < 0).any()
            ):
                raise ValueError("csr needs offsets from 0 to len(dv), non-decreasing")
        self.__dict__["_arrays"] = _validated(off, dv)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other):
        if not isinstance(other, RoommatesInstance):
            return NotImplemented
        return np.array_equal(self.off, other.off) and np.array_equal(self.dv, other.dv)

    def __hash__(self):
        return hash((self.off.tobytes(), self.dv.tobytes()))

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
        flat = self.dv.tolist()
        bounds = self.off.tolist()
        return tuple(tuple(flat[a:b]) for a, b in zip(bounds, bounds[1:]))

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
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        ok = (us >= 0) & (us < n) & (vs >= 0) & (vs < n)
        key = np.where(ok, np.minimum(us, vs) * n + np.maximum(us, vs), -1)
        keys = self._arrays["keys"]
        i = np.searchsorted(keys, key)
        found = i < len(keys)
        found[found] = keys[i[found]] == key[found]
        return np.where(found, i, -1)


def _validated(off: np.ndarray, dv: np.ndarray) -> dict:
    """The instance arrays of CSR rows, read-only; PreferenceError if a row is bad.

    du/dv/dpos give each directed entry's owner, neighbor and position
    in the owner's row. Each undirected edge has the key lo * n + hi;
    `keys` holds them sorted, and eu/ev/pu/pv are aligned with it.
    """
    n = len(off) - 1
    total = len(dv)
    counts = np.diff(off)
    du = np.repeat(np.arange(n, dtype=np.int64), counts)
    if total and (dv.min() < 0 or dv.max() >= n or bool((dv == du).any())):
        raise _first_defect(du, dv, n)
    lo = np.minimum(du, dv)
    # the low bit tells the two directions apart, so valid keys are distinct
    key2 = (lo * n + np.maximum(du, dv)) * 2 + (du != lo)
    order = np.argsort(key2)
    ks = key2[order]
    # valid iff every edge appears exactly once from each side
    if total % 2 or not np.array_equal(ks[0::2] ^ 1, ks[1::2]):
        raise _first_defect(du, dv, n)
    dpos = np.arange(total, dtype=np.int64) - np.repeat(off[:-1], counts)
    low, high = order[0::2], order[1::2]
    arrays = {
        "off": off,
        "du": du,
        "dv": dv,
        "dpos": dpos,
        "keys": ks[0::2] >> 1,
        "eu": du[low],
        "ev": du[high],
        "pu": dpos[low],
        "pv": dpos[high],
    }
    for a in arrays.values():
        a.flags.writeable = False
    return arrays


@dataclass(frozen=True)
class Matching:
    """Partner list with None for unmatched nodes; always an involution."""

    partner: tuple

    def __post_init__(self):
        object.__setattr__(self, "partner", tuple(self.partner))
        n = len(self.partner)
        for v, w in enumerate(self.partner):
            if w is None:
                continue
            if not isinstance(w, int) or not 0 <= w < n or w == v:
                raise ValueError(f"partner entry {v} -> {w} is out of range")
            if self.partner[w] != v:
                raise ValueError(f"partner entries {v} and {w} disagree")

    @classmethod
    def empty(cls, n: int) -> "Matching":
        return cls((None,) * n)

    @classmethod
    def from_pairs(cls, inst: RoommatesInstance, pairs) -> "Matching":
        """Matching of (u, v) pairs, each an instance edge on two fresh nodes."""
        if not isinstance(pairs, np.ndarray):
            pairs = list(pairs)
        arr = _node_pairs(pairs)
        missing = ~inst.has_edges(arr[:, 0], arr[:, 1])
        flat = arr.ravel()
        order = np.argsort(flat, kind="stable")
        srt = flat[order]
        again = np.zeros(len(flat), dtype=bool)  # a node seen in an earlier slot
        again[order[1:][srt[1:] == srt[:-1]]] = True
        bad = missing | again.reshape(-1, 2).any(axis=1)
        if bad.any():
            i = int(np.argmax(bad))
            u, v = pairs[i]
            if missing[i]:
                raise ValueError(f"pair ({u}, {v}) is not an edge of the instance")
            raise ValueError(f"pair ({u}, {v}) reuses a matched node")
        partner = np.full(inst.n, -1, dtype=np.int64)
        partner[arr[:, 0]] = arr[:, 1]
        partner[arr[:, 1]] = arr[:, 0]
        m = object.__new__(cls)  # an involution by construction
        entries = tuple(w if w >= 0 else None for w in partner.tolist())
        object.__setattr__(m, "partner", entries)
        partner.flags.writeable = False
        m.__dict__["_partners"] = partner  # the cached_property's slot
        return m

    @classmethod
    def from_partner_list(cls, seq) -> "Matching":
        return cls(tuple(None if x is None or x < 0 else x for x in seq))

    @property
    def n(self) -> int:
        return len(self.partner)

    def pairs(self) -> tuple:
        return tuple(
            (v, w) for v, w in enumerate(self.partner) if w is not None and v < w
        )

    def size(self) -> int:
        return sum(1 for w in self.partner if w is not None) // 2

    def unmatched(self) -> tuple:
        return tuple(v for v, w in enumerate(self.partner) if w is None)

    @cached_property
    def _partners(self) -> np.ndarray:
        pa = np.fromiter(
            (-1 if w is None else w for w in self.partner), dtype=np.int64, count=self.n
        )
        pa.flags.writeable = False
        return pa


def _partner_array(m: Matching) -> np.ndarray:
    """m's partners as a read-only int64 array, -1 for unmatched; built once per matching."""
    return m._partners


def check_matching(inst: RoommatesInstance, m: Matching) -> None:
    """Raise ValueError unless m matches along edges of inst."""
    if m.n != inst.n:
        raise ValueError("matching size does not fit the instance")
    # a Matching is an involution by construction, so only its pairs need checking
    pa = _partner_array(m)
    us = np.flatnonzero(pa > np.arange(m.n))  # the lower end of each pair
    has = inst.has_edges(us, pa[us])
    if not has.all():
        v = int(us[np.argmin(has)])
        raise ValueError(f"pair ({v}, {m.partner[v]}) is not an edge of the instance")


def _ranks(inst: RoommatesInstance, us, vs) -> np.ndarray:
    """Position of vs[i] in us[i]'s preference list, for every i at once.

    vs[i] None or -1 means unmatched, which ranks below every neighbor:
    its position is us[i]'s degree.  Raises ValueError when some us[i] is
    out of range or (us[i], vs[i]) is not an edge.
    """
    arr = inst._arrays
    us = np.asarray(us, dtype=np.int64)
    if not isinstance(vs, np.ndarray):
        vs = [-1 if v is None else v for v in vs]
    vs = np.asarray(vs, dtype=np.int64)
    outside = (us < 0) | (us >= inst.n)
    if outside.any():
        raise ValueError(f"node {us[np.argmax(outside)]} is out of range")
    pos = arr["off"][us + 1] - arr["off"][us]
    listed = np.flatnonzero(vs != -1)
    xs, ys = us[listed], vs[listed]
    idx = inst._edge_index(xs, ys)
    if (idx < 0).any():
        i = int(np.argmax(idx < 0))
        raise ValueError(f"{ys[i]} is not a neighbor of {xs[i]}")
    pos[listed] = np.where(arr["eu"][idx] == xs, arr["pu"][idx], arr["pv"][idx])
    return pos


def vote(inst: RoommatesInstance, u: int, a, b) -> int:
    """u's vote comparing partner a against partner b: +1, 0, or -1."""
    ra, rb = _ranks(inst, (u, u), (a, b)).tolist()
    return (ra < rb) - (rb < ra)


def edge_weight(inst: RoommatesInstance, m: Matching, u: int, v: int) -> int:
    """Combined vote of u and v for the edge uv against their partners."""
    r = _ranks(inst, (u, u, v, v), (v, m.partner[u], u, m.partner[v])).tolist()
    return (r[0] < r[1]) - (r[1] < r[0]) + (r[2] < r[3]) - (r[3] < r[2])


def loop_weight(inst: RoommatesInstance, m: Matching, v: int) -> int:
    """Vote mass of leaving v unmatched: 0 when already unmatched, else -1."""
    return 0 if m.partner[v] is None else -1


def _weights(inst: RoommatesInstance, m: Matching) -> np.ndarray:
    """Edge weights aligned with the undirected arrays eu/ev of inst."""
    arr = inst._arrays
    r = (arr["off"][1:] - arr["off"][:-1]).copy()  # partner rank; degree if exposed
    pa = _partner_array(m)
    hit = arr["dv"] == pa[arr["du"]]
    r[arr["du"][hit]] = arr["dpos"][hit]
    return (np.sign(r[arr["eu"]] - arr["pu"]) + np.sign(r[arr["ev"]] - arr["pv"])).astype(
        np.int8
    )


def blocking_edges(inst: RoommatesInstance, m: Matching) -> tuple:
    """All edges both endpoints strictly prefer to their current state."""
    arr = inst._arrays
    w = _weights(inst, m)
    idx = np.flatnonzero(w == 2)
    return tuple(zip(arr["eu"][idx].tolist(), arr["ev"][idx].tolist()))


def delta(inst: RoommatesInstance, m1: Matching, m2: Matching) -> int:
    """Vote balance of moving from m1 to m2: positive means m2 wins."""
    if m1.n != inst.n or m2.n != inst.n:
        raise ValueError("matching size does not fit the instance")
    old, new = _partner_array(m1), _partner_array(m2)
    changed = np.flatnonzero(old != new)
    # rank of the new partner, then of the old one, per changed node
    r = _ranks(inst, np.repeat(changed, 2), np.stack([new[changed], old[changed]], axis=1).ravel())
    return int(np.sign(r[1::2] - r[0::2]).sum())


@dataclass(frozen=True)
class HalfIntegralMatching:
    """Edge values in {0, 1/2, 1} plus loops, covering each node exactly once.

    ones are full edges, loop_ones the nodes parked on their loop, and
    half_cycles odd cycles whose edges all carry one half.  Cycles are
    stored rotated to their smallest node with the smaller neighbor
    second, so equal objects compare equal.
    """

    ones: tuple
    loop_ones: tuple
    half_cycles: tuple

    def __post_init__(self):
        ones = tuple(sorted((min(u, v), max(u, v)) for u, v in self.ones))
        loops = tuple(sorted(self.loop_ones))
        cycles = []
        for cyc in self.half_cycles:
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
        object.__setattr__(self, "ones", ones)
        object.__setattr__(self, "loop_ones", loops)
        object.__setattr__(self, "half_cycles", tuple(sorted(cycles)))

    def validate(self, inst: RoommatesInstance) -> None:
        """Raise ValueError unless this is a perfect half-integral matching."""
        ones = _node_pairs(self.ones)
        has = inst.has_edges(ones[:, 0], ones[:, 1])
        if not has.all():
            u, v = self.ones[int(np.argmin(has))]
            raise ValueError(f"edge ({u}, {v}) is not in the instance")
        for v in self.loop_ones:
            if not 0 <= v < inst.n:
                raise ValueError(f"loop node {v} is out of range")
        steps = [
            (u, cyc[(i + 1) % len(cyc)])
            for cyc in self.half_cycles
            for i, u in enumerate(cyc)
        ]
        cyc_edges = _node_pairs(steps)
        has = inst.has_edges(cyc_edges[:, 0], cyc_edges[:, 1])
        if not has.all():
            u, v = steps[int(np.argmin(has))]
            raise ValueError(f"cycle edge ({u}, {v}) is not in the instance")
        # every endpoint of a one and every loop counts twice, every cycle
        # node once per incident cycle edge
        loops = np.asarray(self.loop_ones, dtype=np.int64)
        cover = 2 * np.bincount(np.concatenate([ones.ravel(), loops]), minlength=inst.n)
        cover += np.bincount(cyc_edges.ravel(), minlength=inst.n)
        if (cover != 2).any():
            v = int(np.argmax(cover != 2))
            c = int(cover[v])
            raise ValueError(f"node {v} is covered {c}/2 times, expected exactly 1")


def half_from_matching(inst: RoommatesInstance, m: Matching) -> HalfIntegralMatching:
    return HalfIntegralMatching(
        ones=m.pairs(), loop_ones=m.unmatched(), half_cycles=()
    )


def fractional_value_times_two(
    inst: RoommatesInstance, m: Matching, p: HalfIntegralMatching
) -> int:
    """Twice the vote value of p against m, an exact integer.

    Ones count twice and half-cycle edges once; each side of an edge
    votes by comparing the edge's rank with its partner's.  Raises
    ValueError when p uses a pair that is not an edge.
    """
    steps = [(u, cyc[(i + 1) % len(cyc)]) for cyc in p.half_cycles for i, u in enumerate(cyc)]
    pairs = np.concatenate([_node_pairs(p.ones), _node_pairs(steps)])
    k = len(pairs)
    ends = np.concatenate([pairs[:, 0], pairs[:, 1]])  # the voting side of each pair
    others = np.concatenate([pairs[:, 1], pairs[:, 0]])
    new = _ranks(inst, ends, others)  # checks the nodes before they index m
    side = np.sign(_ranks(inst, ends, _partner_array(m)[ends]) - new)
    mult = np.concatenate([np.full(len(p.ones), 2), np.ones(len(steps), dtype=np.int64)])
    total = int((mult * (side[:k] + side[k:])).sum())
    return total + 2 * sum(loop_weight(inst, m, v) for v in p.loop_ones)


def fractional_value(
    inst: RoommatesInstance, m: Matching, p: HalfIntegralMatching
) -> Fraction:
    return Fraction(fractional_value_times_two(inst, m, p), 2)
