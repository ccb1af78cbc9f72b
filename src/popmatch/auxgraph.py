"""Auxiliary graph for testing popularity as matching maximality.

Starting from an instance and a matching M, drop every weight minus-two
edge, then rebuild the remainder as follows: every node incident to a
blocking edge that is not a star leaf gets a private exposed neighbor;
every star (a middle with two or more leaves, a leaf being a node on
exactly one blocking edge) gets one shared exposed neighbor adjacent to
its leaves; all M-unmatched nodes collapse into a single exposed node;
finally the blocking edges themselves are deleted.  M is popular in the
instance exactly when M is a maximum matching of this graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .engine import Graph
from .model import (
    Matching,
    RoommatesInstance,
    _partner_array,
    _ranks,
    _weights,
    check_matching,
)

KIND_ORIG = "orig"
KIND_BLOCK = "block"
KIND_STAR = "star"
KIND_U = "u"


@dataclass(frozen=True)
class AuxGraph:
    """The derived graph plus every mapping needed to walk back out of it.

    Node ids: matched original nodes first in ascending order (ids
    below n_matched), then one node per blocking-edge owner, one per
    star, and the collapsed exposed node last when M leaves anything
    unmatched.  payload_array is payload as an int64 array.
    """

    graph: Graph = field(compare=False)
    matching: tuple
    kind: tuple
    payload: tuple
    payload_array: np.ndarray = field(compare=False, repr=False)
    n_matched: int
    n_orig: int
    orig_to_aux: tuple
    u_id: int
    b_of: dict = field(compare=False)
    star_of: dict = field(compare=False)
    star_leaves: dict = field(compare=False)
    leaf_star: dict = field(compare=False)
    seeds: tuple = ()

    def label_of(self, i: int) -> str:
        k = self.kind[i]
        if k == KIND_ORIG:
            return str(self.payload[i])
        if k == KIND_BLOCK:
            return f"b_{self.payload[i]}"
        if k == KIND_STAR:
            return f"bS_{self.payload[i]}"
        return "u"


def build_aux(inst: RoommatesInstance, m: Matching) -> AuxGraph:
    """Construct the auxiliary graph of (inst, m)."""
    check_matching(inst, m)
    arr = inst._arrays
    n = inst.n
    w = _weights(inst, m)
    pa = _partner_array(m)
    matched = pa >= 0
    eu, ev = arr["eu"], arr["ev"]

    bmask = w == 2
    bu, bv = eu[bmask], ev[bmask]
    bdeg = np.bincount(bu, minlength=n) + np.bincount(bv, minlength=n)
    leaf = bdeg == 1
    # the one blocking partner of each leaf
    bpartner = np.full(n, -1, dtype=np.int64)
    lu = leaf[bu]
    lv = leaf[bv]
    bpartner[bu[lu]] = bv[lu]
    bpartner[bv[lv]] = bu[lv]
    leafdeg = np.bincount(bu[lv], minlength=n) + np.bincount(bv[lu], minlength=n)
    middle_mask = leafdeg >= 2
    star_leaf = leaf & middle_mask[np.where(bpartner >= 0, bpartner, 0)] & (bpartner >= 0)
    owner_mask = (bdeg > 0) & ~star_leaf

    morder = np.flatnonzero(matched)
    owners = np.flatnonzero(owner_mask)
    middles = np.flatnonzero(middle_mask)
    nm, nb, ns = len(morder), len(owners), len(middles)
    have_u = bool((~matched).any())
    n_aux = nm + nb + ns + (1 if have_u else 0)
    u_id = n_aux - 1 if have_u else -1

    orig_to_aux = np.full(n, u_id, dtype=np.int64)
    orig_to_aux[morder] = np.arange(nm, dtype=np.int64)
    b_ids = nm + np.arange(nb, dtype=np.int64)
    star_ids = nm + nb + np.arange(ns, dtype=np.int64)
    star_id_of = np.full(n, -1, dtype=np.int64)
    star_id_of[middles] = star_ids

    zmask = w == 0
    zu = orig_to_aux[eu[zmask]]
    zv = orig_to_aux[ev[zmask]]
    keep = zu != zv
    zu, zv = zu[keep], zv[keep]

    slv = np.flatnonzero(star_leaf)
    # edges at u repeat when several unmatched nodes share a neighbor
    us = np.concatenate([zu, b_ids, star_id_of[bpartner[slv]]])
    vs = np.concatenate([zv, orig_to_aux[owners], orig_to_aux[slv]])
    graph = Graph.from_edges(n_aux, np.column_stack((us, vs)))

    aux_match = np.full(n_aux, -1, dtype=np.int64)
    left = np.flatnonzero(matched & (pa > np.arange(n)))
    aux_match[orig_to_aux[left]] = orig_to_aux[pa[left]]
    aux_match[orig_to_aux[pa[left]]] = orig_to_aux[left]

    kind = [KIND_ORIG] * nm + [KIND_BLOCK] * nb + [KIND_STAR] * ns
    payload_array = np.concatenate([morder, owners, middles, np.full(int(have_u), -1)])
    payload = payload_array.tolist()
    if have_u:
        kind.append(KIND_U)

    star_leaves = {}
    leaf_star = {}
    for x in slv.tolist():
        z = int(bpartner[x])
        star_leaves.setdefault(z, []).append(x)
        leaf_star[x] = z

    return AuxGraph(
        graph=graph,
        matching=tuple(aux_match.tolist()),
        kind=tuple(kind),
        payload=tuple(payload),
        payload_array=payload_array,
        n_matched=nm,
        n_orig=n,
        orig_to_aux=tuple(orig_to_aux.tolist()),
        u_id=u_id,
        b_of={int(o): int(b) for o, b in zip(owners.tolist(), b_ids.tolist())},
        star_of={int(z): int(s) for z, s in zip(middles.tolist(), star_ids.tolist())},
        star_leaves={z: tuple(sorted(ls)) for z, ls in star_leaves.items()},
        leaf_star=leaf_star,
        seeds=tuple(range(nm, nm + nb + ns)),
    )


def blocking_partners_of(inst: RoommatesInstance, m: Matching, v: int) -> list:
    """Ascending list of y with edge vy blocking, scanning only locally."""
    off = inst._arrays["off"]
    ys = inst._arrays["dv"][off[v]:off[v + 1]]  # v's list, best first
    pa = _partner_array(m)
    k = len(ys)
    # v's partner rank, then per neighbor y: v's rank and y's partner rank in y's list
    r = _ranks(
        inst, np.concatenate([[v], ys, ys]), np.concatenate([[pa[v]], np.full(k, v), pa[ys]])
    )
    block = (np.arange(k) < r[0]) & (r[1:k + 1] < r[k + 1:])
    return sorted(ys[block].tolist())


def unmatched_zero_neighbors_of(inst: RoommatesInstance, m: Matching, v: int) -> list:
    """Ascending unmatched neighbors x of v with a zero-weight edge xv.

    The edge weight is zero exactly when v likes its own partner
    better, since the unmatched side always votes plus one.
    """
    off = inst._arrays["off"]
    pa = _partner_array(m)
    worse = inst._arrays["dv"][off[v] + _ranks(inst, [v], [pa[v]])[0] + 1:off[v + 1]]
    return sorted(worse[pa[worse] < 0].tolist())


def is_blocking_edge(inst: RoommatesInstance, m: Matching, u: int, v: int) -> bool:
    """True when uv is an edge both sides prefer to their current state."""
    if not inst.has_edges([u], [v])[0]:
        return False
    r = _ranks(inst, (u, u, v, v), (v, m.partner[u], u, m.partner[v]))
    return bool(r[0] < r[1] and r[2] < r[3])
