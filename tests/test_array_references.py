"""The array forms of the auxiliary graph and certificates against the
object-based code they replaced.

`tests/helpers.py` keeps the old forms: build_aux's tuples and dicts from
per-edge loops, witness_violation's per-node loop over the odd sets, and
HalfIntegralMatching's tuple canonicalisation. The array code must give
the same values and the same error messages, on the analysis corpus
(above the oracle cap) and on random small inputs.
"""

import random

import numpy as np
import pytest

from helpers import (
    analysis_cases,
    gadget_cases,
    random_instance,
    reference_aux,
    reference_half_canonical,
    reference_witness_violation,
)
from popmatch.auxgraph import KIND_BLOCK, KIND_STAR, build_aux
from popmatch.fractional import NotFractionalPopular, is_fractional_popular
from popmatch.model import HalfIntegralMatching, Matching
from popmatch.popularity import DualWitness, Popular, is_popular, witness_violation

HUGE = 10**30


def _random_matching(rng, inst):
    pairs, taken = [], set()
    edges = sorted(inst.edges)
    rng.shuffle(edges)
    for u, v in edges:
        if u not in taken and v not in taken and rng.random() < 0.7:
            pairs.append((u, v))
            taken.update((u, v))
    return Matching.from_pairs(inst, pairs)


def _small_cases(count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        inst = random_instance(rng, rng.randint(1, 12), rng.choice([0.3, 0.6, 0.9]))
        yield inst, _random_matching(rng, inst)


def _aux_maps(aux, n) -> dict:
    """build_aux's arrays in the reference's tuple and dict forms."""
    pay = aux.payload_array
    # matched originals come first, in ascending order; the rest fold into u
    orig_to_aux = np.full(n, aux.u_id)
    orig_to_aux[pay[:aux.n_matched]] = np.arange(aux.n_matched)
    return {
        "kind": tuple(("orig", "block", "star", "u")[k] for k in aux.kind),
        "payload": tuple(pay.tolist()),
        "orig_to_aux": tuple(orig_to_aux.tolist()),
        "matching": tuple(aux.matching),
        "seeds": aux.seeds,
        "u_id": aux.u_id,
        "b_of": {int(pay[b]): b for b in np.flatnonzero(aux.kind == KIND_BLOCK).tolist()},
        "star_of": {int(pay[s]): s for s in np.flatnonzero(aux.kind == KIND_STAR).tolist()},
        "edges": sorted(aux.graph.edges()),
    }


def test_aux_arrays_match_the_tuple_reference():
    stars = 0
    for inst, m in list(analysis_cases()) + list(_small_cases(300, 5)):
        aux = build_aux(inst, m)
        ref = reference_aux(inst, m)
        assert _aux_maps(aux, inst.n) == ref
        assert aux.star_of == ref["star_of"]
        stars += len(aux.star_of)
    assert stars >= 50


def _mutated_witnesses(rng, w, n):
    """Witnesses near w: alpha entries changed, nodes moved, dropped or added."""
    alpha = list(w.alpha)
    sets = [sorted(s) for s in w.two_sets]
    for _ in range(6):
        a, s = list(alpha), [list(g) for g in sets]
        move = rng.randrange(7)
        if move == 0 and a:
            a[rng.randrange(len(a))] = rng.choice([-2, -1, 0, 1, 2])
        elif move == 1:
            a = a[: rng.randrange(len(a) + 1)]
        elif move in (2, 3) and s and any(s):
            g = rng.choice([g for g in s if g])
            other = rng.choice([-1, n, HUGE, rng.randrange(max(n, 1))])
            if move == 2:
                g.append(other)
            else:
                g[rng.randrange(len(g))] = other
        elif move == 4 and s and any(s):
            g = rng.choice([g for g in s if g])
            g.remove(rng.choice(g))
        elif move == 5 and len(s) > 1:
            src, dst = rng.sample(range(len(s)), 2)
            if s[src]:
                s[dst].append(s[src].pop())
        else:
            s.append(rng.sample(range(n), min(n, rng.choice([0, 1, 3, 4]))))
        yield DualWitness(a, [frozenset(g) for g in s])


def test_witness_check_matches_the_set_loop(triangle_pendant, two_triangles):
    rng = random.Random(8)
    popular = odd_sets = 0
    gadgets = gadget_cases(100, 10, [triangle_pendant, two_triangles])
    for inst, m in list(analysis_cases()) + list(_small_cases(200, 9)) + list(gadgets):
        res = is_popular(inst, m)
        if not isinstance(res, Popular):
            continue
        popular += 1
        odd_sets += len(res.witness.two_sets)
        assert witness_violation(inst, m, res.witness) is None
        assert reference_witness_violation(inst, m, res.witness) is None
        for w in _mutated_witnesses(rng, res.witness, inst.n):
            assert witness_violation(inst, m, w) == reference_witness_violation(inst, m, w)
    assert popular >= 200 and odd_sets >= 200


def _random_half(rng):
    """Sequences for a HalfIntegralMatching, some of them invalid."""
    def node():
        return rng.choice([rng.randrange(12), rng.randrange(12), -rng.randrange(1, 3), HUGE])

    ones = [(node(), node()) for _ in range(rng.randrange(5))]
    loops = [node() for _ in range(rng.randrange(4))]
    cycles = []
    for _ in range(rng.randrange(4)):
        size = rng.choice([3, 3, 5, 7, 1, 2, 4])
        cyc = rng.sample(range(-2, 20), size)
        if rng.random() < 0.1:
            cyc[-1] = cyc[0]
        if rng.random() < 0.1:
            cyc[rng.randrange(size)] = HUGE
        cycles.append(tuple(cyc))
    return ones, loops, cycles


def test_half_integral_canonical_form_matches_the_tuple_reference():
    rng = random.Random(12)
    drawn = [_random_half(rng) for _ in range(200)]
    for inst, m in analysis_cases():
        res = is_fractional_popular(inst, m)
        if isinstance(res, NotFractionalPopular):
            p = res.p
            ones = [pair[::-1] if rng.random() < 0.5 else pair for pair in p.ones]
            rng.shuffle(ones)
            drawn.append((ones, list(reversed(p.loop_ones)), [c[::-1] for c in p.half_cycles]))
    rejected = 0
    for ones, loops, cycles in drawn:
        try:
            expected = reference_half_canonical(ones, loops, cycles)
        except ValueError as exc:
            rejected += 1
            with pytest.raises(ValueError) as got:
                HalfIntegralMatching(ones=ones, loop_ones=loops, half_cycles=cycles)
            assert str(got.value) == str(exc)
            continue
        p = HalfIntegralMatching(ones=ones, loop_ones=loops, half_cycles=cycles)
        assert (p.ones, p.loop_ones, p.half_cycles) == expected
        same = HalfIntegralMatching(ones=p.ones, loop_ones=p.loop_ones, half_cycles=p.half_cycles)
        assert p == same and hash(p) == hash(same)
    assert 20 <= rejected <= len(drawn) - 100
