"""Auxiliary graph for testing popularity as matching maximality.

Starting from an instance and a matching M, drop every weight minus-two
edge, then rebuild the remainder as follows: every node incident to a
blocking edge that is not a star leaf gets a private exposed neighbor;
every star (a middle with two or more leaves, a leaf being a node on
exactly one blocking edge) gets one shared exposed neighbor adjacent to
its leaves; all M-unmatched nodes collapse into a single exposed node;
finally the blocking edges themselves are deleted.  M is popular in the
instance exactly when M is a maximum matching of this graph.

`AuxGraph` holds, as read-only arrays, what the decide reads per
auxiliary node: its kind, the original node it stands for and its
partner.  What else a certificate needs, a star's leaves or a node's
blocking partners, the decide reads from the instance.
"""

from __future__ import annotations

from array import array
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
    _ranks,
    _weights,
    check_matching,  # unused here; kept bound so outside tracers can wrap it by name
    index_dtype,
)

# AuxGraph.kind codes
KIND_ORIG, KIND_BLOCK, KIND_STAR, KIND_U = range(4)


@dataclass(frozen=True, eq=False)
class AuxGraph:
    """The derived graph plus the maps that lead back out of it.

    Node ids: matched original nodes first in ascending order (ids
    below n_matched), then one node per blocking-edge owner, one per
    star, and the collapsed exposed node last when M leaves anything
    unmatched.

    Per auxiliary node, `kind` holds int8 codes (KIND_ORIG, ...), and
    two read-only arrays of index_dtype(n_aux, 0), int32 unless ids
    reach 2^31, hold `payload_array`, the original node it stands for
    (a star's middle, -1 for the exposed node), and `matching_array`,
    its partner or -1.  `matching_array` views `matching`, an
    `array.array` buffer that the blossom search and its traces index in
    place.  `weights` holds `_weights(inst, m)`, the int8
    vote of every instance edge, for the decide's later checks.
    `star_of`, {middle: star node}, is a view built on first use.
    """

    graph: Graph
    kind: np.ndarray
    payload_array: np.ndarray
    matching_array: np.ndarray
    matching: array
    n_matched: int
    u_id: int
    weights: np.ndarray
    seeds: range = range(0)

    @cached_property
    def star_of(self) -> dict:
        stars = np.flatnonzero(self.kind == KIND_STAR)
        return dict(zip(self.payload_array[stars].tolist(), stars.tolist()))


def build_aux(inst: RoommatesInstance, m: Matching) -> AuxGraph:
    """Construct the auxiliary graph of (inst, m); the weight pass checks m
    first and raises as `check_matching` would."""
    w = _weights(inst, m)
    arr = inst._arrays
    n = inst.n
    pa = _partner_array(m)
    matched = pa >= 0
    eu, ev = arr["eu"], arr["ev"]

    # each blocking edge once per direction: ends[i] blocks with other[i]
    b = np.flatnonzero(w == 2)
    ends = np.concatenate([eu[b], ev[b]])
    other = np.roll(ends, len(b))
    bdeg = np.bincount(ends, minlength=n)
    at_leaf = np.flatnonzero(bdeg[ends] == 1)  # other[i] is the leaf's one blocking partner
    middle_mask = np.bincount(other[at_leaf], minlength=n) >= 2
    in_star = at_leaf[middle_mask[other[at_leaf]]]
    leaf_star = np.full(n, -1, dtype=eu.dtype)
    leaf_star[ends[in_star]] = other[in_star]
    slv = np.flatnonzero(leaf_star >= 0)
    owner_mask = bdeg > 0
    owner_mask[slv] = False

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
    star_of = np.full(n, -1, dtype=idx)
    star_of[middles] = np.arange(nm + nb, nm + nb + ns, dtype=idx)

    # a zero-weight edge never joins two unmatched nodes, so none is a loop at u;
    # edges at u repeat when several unmatched nodes share a neighbor
    z = np.flatnonzero(w == 0)
    slv_star = star_of[leaf_star[slv]]
    uv = np.empty((2, len(z) + nb + len(slv)), dtype=idx)  # the two ends of each edge
    np.concatenate([orig_to_aux[eu[z]], np.arange(nm, nm + nb), slv_star], out=uv[0])
    np.concatenate([orig_to_aux[ev[z]], orig_to_aux[owners], orig_to_aux[slv]], out=uv[1])
    graph = Graph.from_edges(n_aux, uv.T)

    matching = array(np.dtype(idx).char, [-1]) * n_aux
    aux_match = np.frombuffer(matching, dtype=idx)
    aux_match[:nm] = orig_to_aux[pa[morder]]
    arrays = {
        "kind": np.repeat(np.arange(4, dtype=np.int8), (nm, nb, ns, int(have_u))),
        "payload_array": np.concatenate(
            [morder, owners, middles, np.full(int(have_u), -1)]
        ).astype(idx),
        "matching_array": aux_match,
        "weights": w,
    }
    for a in arrays.values():
        a.flags.writeable = False
    return AuxGraph(
        graph=graph,
        matching=matching,
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
    ys = ys[:_ranks(inst, [v], m.partner_array[[v]])[0]]  # those v ranks above its partner
    return sorted(ys[_edge_votes(inst, m, np.full(len(ys), v), ys) == 2].tolist())


def unmatched_zero_neighbors_of(inst: RoommatesInstance, m: Matching, v: int) -> list:
    """Ascending unmatched neighbors x of v with a zero-weight edge xv."""
    ys = _neighbors(inst, m, v)
    xs = ys[_partner_array(m)[ys] < 0]
    return sorted(xs[_edge_votes(inst, m, np.full(len(xs), v), xs) == 0].tolist())


def is_blocking_edge(inst: RoommatesInstance, m: Matching, u: int, v: int) -> bool:
    """True when uv is an edge both sides prefer to their current state."""
    return bool(_edge_votes(inst, m, [u], [v])[0] == 2)
