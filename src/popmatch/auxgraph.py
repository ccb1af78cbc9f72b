"""Auxiliary graph for testing popularity as matching maximality.

Starting from an instance and a matching M, drop every weight minus-two
edge, then rebuild the remainder as follows: every node incident to a
blocking edge that is not a star leaf gets a private exposed neighbor;
every star (a middle with two or more leaves, a leaf being a node on
exactly one blocking edge) gets one shared exposed neighbor adjacent to
its leaves; all M-unmatched nodes collapse into a single exposed node;
finally the blocking edges themselves are deleted.  M is popular in the
instance exactly when M is a maximum matching of this graph.

`AuxGraph` holds every map between the two graphs as a read-only array.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .engine import Graph
from .model import (
    Matching,
    RoommatesInstance,
    _check_ids,
    _edge_votes,
    _partner_array,
    _weights,
    check_matching,
    index_dtype,
)

# AuxGraph.kind codes
KIND_ORIG, KIND_BLOCK, KIND_STAR, KIND_U = range(4)


@dataclass(frozen=True, eq=False)
class AuxGraph:
    """The derived graph plus every mapping needed to walk back out of it.

    Node ids: matched original nodes first in ascending order (ids
    below n_matched), then one node per blocking-edge owner, one per
    star, and the collapsed exposed node last when M leaves anything
    unmatched.

    The maps are read-only arrays of index_dtype(n_aux, 0), int32
    unless ids reach 2^31.  Per auxiliary node:
    `payload_array`, the original node it stands for (a star's middle,
    -1 for the exposed node); `matching_array`, its partner or -1; and
    the star leaves in CSR form, `leaf_nodes[leaf_off[i]:leaf_off[i + 1]]`
    ascending, empty unless i is a star.  Per original node, -1 where
    there is none: `b_of_array` (its blocking node), `star_of_array`
    (the star of which it is the middle) and `leaf_star_array` (the
    middle of the star it is a leaf of).  `kind` holds int8 codes per
    auxiliary node (KIND_ORIG, ...).  `star_of`, {middle: star node},
    is a view built on first use.
    """

    graph: Graph
    kind: np.ndarray
    payload_array: np.ndarray
    matching_array: np.ndarray
    n_matched: int
    u_id: int
    b_of_array: np.ndarray
    star_of_array: np.ndarray
    leaf_star_array: np.ndarray
    leaf_off: np.ndarray
    leaf_nodes: np.ndarray
    seeds: range = range(0)

    @cached_property
    def star_of(self) -> dict:
        keys = np.flatnonzero(self.star_of_array >= 0)
        return dict(zip(keys.tolist(), self.star_of_array[keys].tolist()))

    def leaves(self, s: int) -> np.ndarray:
        """The leaves of star node s, ascending."""
        return self.leaf_nodes[self.leaf_off[s]:self.leaf_off[s + 1]]

    def label_of(self, i: int) -> str:
        k = self.kind[i]
        if k == KIND_ORIG:
            return str(self.payload_array[i])
        if k == KIND_BLOCK:
            return f"b_{self.payload_array[i]}"
        if k == KIND_STAR:
            return f"bS_{self.payload_array[i]}"
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
    bpartner = np.full(n, -1, dtype=eu.dtype)
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
    idx = index_dtype(n_aux, 0)

    orig_to_aux = np.full(n, u_id, dtype=idx)
    orig_to_aux[morder] = np.arange(nm, dtype=idx)
    b_of = np.full(n, -1, dtype=idx)
    b_of[owners] = np.arange(nm, nm + nb, dtype=idx)
    star_of = np.full(n, -1, dtype=idx)
    star_of[middles] = np.arange(nm + nb, nm + nb + ns, dtype=idx)

    zmask = w == 0
    zu = orig_to_aux[eu[zmask]]
    zv = orig_to_aux[ev[zmask]]
    keep = zu != zv
    zu, zv = zu[keep], zv[keep]

    slv = np.flatnonzero(star_leaf)
    leaf_star = np.full(n, -1, dtype=idx)
    leaf_star[slv] = bpartner[slv]
    slv_star = star_of[bpartner[slv]]
    # edges at u repeat when several unmatched nodes share a neighbor
    us = np.concatenate([zu, b_of[owners], slv_star])
    vs = np.concatenate([zv, orig_to_aux[owners], orig_to_aux[slv]])
    graph = Graph.from_edges(n_aux, np.column_stack((us, vs)))

    aux_match = np.full(n_aux, -1, dtype=idx)
    aux_match[:nm] = orig_to_aux[pa[morder]]

    leaf_off = np.zeros(n_aux + 1, dtype=idx)
    np.cumsum(np.bincount(slv_star, minlength=n_aux), out=leaf_off[1:])
    arrays = {
        "kind": np.repeat(np.arange(4, dtype=np.int8), (nm, nb, ns, int(have_u))),
        "payload_array": np.concatenate(
            [morder, owners, middles, np.full(int(have_u), -1)]
        ).astype(idx),
        "matching_array": aux_match,
        "b_of_array": b_of,
        "star_of_array": star_of,
        "leaf_star_array": leaf_star,
        "leaf_off": leaf_off,
        "leaf_nodes": slv[np.argsort(slv_star, kind="stable")].astype(idx),
    }
    for a in arrays.values():
        a.flags.writeable = False
    return AuxGraph(
        graph=graph,
        n_matched=nm,
        u_id=u_id,
        seeds=range(nm, nm + nb + ns),
        **arrays,
    )


def _neighbors(inst: RoommatesInstance, m: Matching, v: int) -> np.ndarray:
    """v's neighbors, best first; ValueError unless v is a node and m fits inst."""
    _check_ids(inst, m, [v])
    return inst.dv[inst.off[v]:inst.off[v + 1]]


def blocking_partners_of(inst: RoommatesInstance, m: Matching, v: int) -> list:
    """Ascending list of y with edge vy blocking, scanning only locally."""
    ys = _neighbors(inst, m, v)
    return sorted(ys[_edge_votes(inst, m, np.full(len(ys), v), ys) == 2].tolist())


def unmatched_zero_neighbors_of(inst: RoommatesInstance, m: Matching, v: int) -> list:
    """Ascending unmatched neighbors x of v with a zero-weight edge xv."""
    ys = _neighbors(inst, m, v)
    xs = ys[_partner_array(m)[ys] < 0]
    return sorted(xs[_edge_votes(inst, m, np.full(len(xs), v), xs) == 0].tolist())


def is_blocking_edge(inst: RoommatesInstance, m: Matching, u: int, v: int) -> bool:
    """True when uv is an edge both sides prefer to their current state."""
    return bool(_edge_votes(inst, m, [u], [v])[0] == 2)
