import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from popmatch.auxgraph import (
    blocking_partners_of,
    build_aux,
    is_blocking_edge,
    unmatched_zero_neighbors_of,
)
from popmatch.engine import Graph
from popmatch.formats import parse_instance, serialize_instance
from popmatch.model import (
    NO_EDGE,
    HalfIntegralMatching,
    Matching,
    PairError,
    RoommatesInstance,
    _edge_votes,
    _weights,
    blocking_edges,
    check_matching,
    delta,
    edge_weight,
    fractional_value,
    fractional_value_times_two,
    half_from_matching,
    loop_weight,
    vote,
)
from popmatch.popularity import DualWitness

from conftest import (
    TRIANGLE_PENDANT,
    TRIANGLE_PENDANT_M,
    TWO_TRIANGLES,
    TWO_TRIANGLES_M,
    TWO_TRIANGLES_PENDANTS,
    TWO_TRIANGLES_PENDANTS_M,
)
from helpers import analysis_cases, edge_list, gadget_cases, random_instance
from test_index_arrays import N, _placed


def test_instance_basics(two_triangles_pendants):
    inst, _ = two_triangles_pendants
    assert inst.n == 8
    assert inst.m == 9
    assert (0, 2) in inst.edges and (6, 7) not in inst.edges
    assert inst.rank[3][4] == 0 and inst.rank[3][6] == 3


def test_parsed_and_built_instances_are_equal():
    rng = random.Random(11)
    rows_cases = [(), ((),), ((), (), ()), ((), (2,), (1,), ())] + [
        random_instance(rng, rng.randint(1, 12), rng.choice([0.0, 0.2, 0.6])).pref
        for _ in range(60)
    ]
    for rows in rows_cases:
        built = RoommatesInstance(rows)
        parsed = parse_instance(serialize_instance(built))
        assert "pref" not in parsed.__dict__
        assert parsed == built and hash(parsed) == hash(built)
        assert parsed.pref == built.pref == rows  # the view round-trips every row
        assert repr(parsed) == repr(built) == f"RoommatesInstance(pref={rows!r})"
        assert (parsed.n, parsed.m) == (len(rows), sum(map(len, rows)) // 2)
        assert parsed.edges == built.edges
        assert parsed.rank == built.rank
    # equal exactly when the preference lists are equal
    assert RoommatesInstance(((1, 2), (0, 2), (0, 1))) != RoommatesInstance(
        ((2, 1), (0, 2), (0, 1))
    )
    assert RoommatesInstance(()) != RoommatesInstance(((),))
    assert RoommatesInstance(((),)) != ((),)


def test_instance_arrays_are_read_only(two_triangles_pendants):
    inst, _ = two_triangles_pendants
    for arr in inst._arrays.values():
        with pytest.raises(ValueError, match="read-only"):
            arr[:1] = 0
    assert inst.dv[inst.off[3]:inst.off[4]].tolist() == list(inst.pref[3])
    with pytest.raises(AttributeError):
        inst.pref = ()


def test_instance_rejects_bad_csr():
    off, dv = np.array([0, 1, 2]), np.array([1, 0])
    assert RoommatesInstance(csr=(off, dv)).pref == ((1,), (0,))
    for bad in [
        (np.array([0, 1]), dv),  # offsets end before the entries
        (np.array([1, 1, 2]), dv),  # offsets do not start at 0
        (np.array([0, 2, 1, 2]), dv),  # offsets decrease
        (np.array([], dtype=np.int64), np.array([], dtype=np.int64)),
    ]:
        with pytest.raises(ValueError, match="csr needs offsets"):
            RoommatesInstance(csr=bad)
    with pytest.raises(ValueError, match="not vice versa"):
        RoommatesInstance(csr=(np.array([0, 1, 1]), np.array([1])))
    with pytest.raises(TypeError):
        RoommatesInstance(((1,), (0,)), csr=(off, dv))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: DualWitness([0, 0, 0], csr=([0, 2.9], [0, 1, 2])), "2.9 is not an integer"),
        (lambda: DualWitness([0, 0, 0], csr=([0, 2], [0, 1, 2])), None),
        (lambda: DualWitness([0] * 6, csr=([0, 3, 1, 6], range(6))), None),
        (lambda: HalfIntegralMatching([], [], csr=([0, 5], [0, 1, 2])), None),
        (lambda: HalfIntegralMatching([], [], csr=([0, 2.9], [0, 1, 2])), "2.9 is not an integer"),
        (lambda: HalfIntegralMatching([], [], csr=([0, 3, 1, 6], range(6))), None),
        (lambda: RoommatesInstance(csr=([0, 1.0, 2], [1, 0])), "1.0 is not an integer"),
    ],
    ids=[
        "witness-float", "witness-short", "witness-decreasing",
        "half-past-end", "half-float", "half-decreasing", "instance-float",
    ],
)
def test_csr_offsets_are_checked_alike(build, message):
    # every constructor that takes csr reads its offsets through one check
    message = message or "csr needs offsets from 0 to len(values), non-decreasing"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_instance_rejects_asymmetry():
    with pytest.raises(ValueError, match="not vice versa|symmetric"):
        RoommatesInstance(((1,), ()))


def test_instance_rejects_self_rank():
    with pytest.raises(ValueError, match="itself"):
        RoommatesInstance(((0, 1), (0,)))


def test_instance_rejects_duplicates():
    with pytest.raises(ValueError, match="twice"):
        RoommatesInstance(((1, 1), (0,)))


def test_instance_rejects_out_of_range():
    with pytest.raises(ValueError, match="outside"):
        RoommatesInstance(((5,), (0,)))


def test_matching_validation(triangle_pendant):
    inst, m = triangle_pendant
    assert m.pairs() == ((0, 1), (2, 3))
    assert m.size() == 2
    assert not np.flatnonzero(m.partner_array < 0).size
    with pytest.raises(ValueError, match="not an edge"):
        Matching.from_pairs(inst, [(0, 3)])
    with pytest.raises(ValueError, match="reuses"):
        Matching.from_pairs(inst, [(0, 1), (1, 2)])
    # 1-3 is no edge either; node 1 is read before the pair, as in matching text
    with pytest.raises(ValueError, match=r"^pair \(1, 3\) reuses a matched node$"):
        Matching.from_pairs(inst, [(0, 1), (1, 3)])
    with pytest.raises(ValueError, match="disagree"):
        Matching((1, 2, None, None))
    with pytest.raises(ValueError, match="size does not fit"):
        check_matching(inst, Matching.empty(3))


@pytest.mark.parametrize(
    "partner, message",
    [
        ((1, 0, 3), "partner entry 2 -> 3 is out of range"),
        ((1, 0, -1), "partner entry 2 -> -1 is out of range"),
        ((2**64, None), "partner entry 0 -> 18446744073709551616 is out of range"),
        ((1.0, 0), "partner entry 0 -> 1.0 is out of range"),
        ((None, "0"), "partner entry 1 -> '0' is out of range"),
        ((0, None), "partner entry 0 -> 0 is out of range"),
        ((1, 2, 0), "partner entries 0 and 1 disagree"),
        ((None, 2, None), "partner entries 1 and 2 disagree"),
    ],
)
def test_matching_partner_errors(partner, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Matching(partner)


# `_of` takes an int64 partner array over; an entry it names must read as
# the int it is, not as numpy's scalar repr
@pytest.mark.parametrize(
    "partner, message",
    [
        ([1, 0, -2], "partner entry 2 -> -2 is out of range"),
        ([0, -1], "partner entry 0 -> 0 is out of range"),
        ([1, 2, 0], "partner entries 0 and 1 disagree"),
    ],
)
def test_partner_array_errors(partner, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Matching._of(np.array(partner, dtype=np.int64))
    with pytest.raises(ValueError, match=f"^{message}$"):
        Matching(np.array(partner, dtype=np.int64))


def test_reprs_and_constructor_forms():
    assert repr(Matching((1, 0, None))) == "Matching(partner=(1, 0, None))"
    half = HalfIntegralMatching([(1, 0)], [5], [(4, 2, 3)])
    assert repr(half) == (
        "HalfIntegralMatching(ones=((0, 1),), loop_ones=(5,), half_cycles=((2, 3, 4),))"
    )
    w = DualWitness((0, 1, -1), [{2, 1, 0}])
    assert repr(w) == "DualWitness(alpha=(0, 1, -1), two_sets=(frozenset({0, 1, 2}),))"
    csr = (np.array([0, 3]), np.array([0, 1, 2]))
    message = "^HalfIntegralMatching takes either half_cycles or csr$"
    with pytest.raises(TypeError, match=message):
        HalfIntegralMatching((), ())
    with pytest.raises(TypeError, match=message):
        HalfIntegralMatching((), (), (), csr=csr)
    message = "^DualWitness takes either two_sets or csr$"
    with pytest.raises(TypeError, match=message):
        DualWitness(())
    with pytest.raises(TypeError, match=message):
        DualWitness((), (), csr=csr)


@pytest.mark.parametrize(
    "pairs, kind, slot",
    [
        ([(0, 1), (2, 9)], "range", 3),
        ([(0, 1), (3, 1)], "reuse", 3),
        ([(0, 1), (2, 2)], "reuse", 3),
        ([(2, 3), (0, 1), (1, 3)], "reuse", 4),
        ([(0, 1), (3, 2), (0, 9)], "reuse", 4),
        ([(2, 3), (1, 0), (9, 1)], "range", 4),
        ([(2, 1), (0, 3)], "edge", 2),
    ],
)
def test_pair_error_names_the_first_bad_slot(triangle_pendant, pairs, kind, slot):
    inst, _ = triangle_pendant
    with pytest.raises(PairError) as err:
        Matching.from_pairs(inst, pairs)
    assert (err.value.kind, err.value.slot) == (kind, slot)


def test_matching_takes_numpy_integers():
    m = Matching((np.int64(1), np.int64(0), np.int32(3), 2, None))
    assert m.partner_array.tolist() == [1, 0, 3, 2, -1]
    assert m.partner == (1, 0, 3, 2, None)
    assert all(type(w) is int for w in m.partner[:4])
    assert m == Matching((1, 0, 3, 2, None))
    # a bool is an int, as it has always been
    assert Matching((True, 0)).partner == (1, 0)


TRIANGLE = RoommatesInstance(((1, 2), (0, 2), (0, 1)))


@pytest.mark.parametrize(
    "build, bad",
    [
        (lambda: Matching.from_pairs(TRIANGLE, [(0, 1.7)]), "1.7"),
        (lambda: Matching.from_pairs(TRIANGLE, np.array([[0.0, 1.0]])), "0.0"),
        (lambda: vote(TRIANGLE, 0, 2.9, 1), "2.9"),
        (lambda: vote(TRIANGLE, "0", 2, 1), "'0'"),
        (lambda: edge_weight(TRIANGLE, Matching.empty(3), 0, 1.5), "1.5"),
        (lambda: blocking_partners_of(TRIANGLE, Matching.empty(3), 1.0), "1.0"),
        (lambda: DualWitness([0.5, -0.7, 1], [[0, 1, 2]]), "0.5"),
        (lambda: DualWitness([0, 0, 1], [[0, 1.2, 2]]), "1.2"),
        (lambda: Graph.from_edges(3, [(0, 1.5)]), "1.5"),
        (lambda: Graph.from_edges(3, [("0", "1")]), "'0'"),
        (lambda: RoommatesInstance(((1.7,), (0,))), "1.7"),
        (lambda: RoommatesInstance((("1",), (0,))), "'1'"),
        (lambda: RoommatesInstance(csr=([0, 1, 2], [1.0, 0])), "1.0"),
        (lambda: RoommatesInstance(csr=([0, 1, 2], ["1", "0"])), "'1'"),
    ],
    ids=[
        "from_pairs", "from_pairs-array", "vote", "vote-str", "edge_weight",
        "blocking_partners_of", "witness-alpha", "witness-set", "from_edges",
        "from_edges-str", "pref", "pref-str", "csr", "csr-str",
    ],
)
def test_node_ids_must_be_integers(build, bad):
    # what operator.index refuses is refused, never truncated or parsed
    with pytest.raises(ValueError, match=f"^{re.escape(bad)} is not an integer$"):
        build()


def test_votes_and_weights(two_triangles_pendants):
    inst, m = two_triangles_pendants
    # node 3 ranks 4 above 2, and None is worse than anyone
    assert vote(inst, 3, 4, 2) == 1
    assert vote(inst, 3, 2, 4) == -1
    assert vote(inst, 3, 4, 4) == 0
    assert vote(inst, 3, 4, None) == 1
    assert vote(inst, 3, None, 4) == -1
    assert edge_weight(inst, m, 0, 2) == 2  # both prefer each other
    assert edge_weight(inst, m, 2, 3) == 0  # matched edges tie
    assert edge_weight(inst, m, 3, 6) == 0  # 3 loses, unmatched 6 gains
    assert loop_weight(inst, m, 0) == -1
    assert loop_weight(inst, m, 6) == 0


# both matched pairs are mutual first choices, so the cross edges lose 2-0
TOP_PAIRS = RoommatesInstance(((1, 2), (0, 3), (3, 0), (2, 1)))
TOP_PAIRS_M = Matching.from_pairs(TOP_PAIRS, [(0, 1), (2, 3)])


def test_losing_edge_weight():
    assert edge_weight(TOP_PAIRS, TOP_PAIRS_M, 0, 2) == -2
    assert edge_weight(TOP_PAIRS, TOP_PAIRS_M, 1, 3) == -2


def test_blocking_and_stars(two_triangles_pendants):
    inst, m = two_triangles_pendants
    assert blocking_edges(inst, m) == ((0, 2), (3, 4), (3, 5))
    aux = build_aux(inst, m)
    assert aux.star_of == {3: 9}
    assert sorted(aux.graph.neighbors(9)) == [4, 5]  # the leaves, both matched


def test_weights_refuse_a_pair_that_is_no_edge():
    # 0-3 is no edge: every reader of _weights names the pair as check_matching does
    inst = RoommatesInstance(((1, 2), (0, 2), (0, 1), ()))
    m = Matching((3, None, None, 0))
    for call in (check_matching, _weights, blocking_edges):
        with pytest.raises(PairError, match=r"^pair \(0, 3\) is not an edge of the instance$"):
            call(inst, m)
    with pytest.raises(ValueError, match="^matching size does not fit the instance$"):
        blocking_edges(inst, Matching((None,) * 3))


def test_blocking_partners_at_the_ends_of_a_row():
    # 0 is exposed, so its whole row counts; 3 ranks its partner 4 first, so
    # none of its row can block, though 0 would gain from 3
    inst = RoommatesInstance(((1, 3), (0, 2), (1,), (4, 0), (3,)))
    m = Matching.from_pairs(inst, [(1, 2), (3, 4)])
    assert blocking_edges(inst, m) == ((0, 1),)
    assert edge_weight(inst, m, 0, 3) == 0
    assert [blocking_partners_of(inst, m, v) for v in range(5)] == [[1], [0], [], [], []]
    with pytest.raises(ValueError, match="^node 5 is out of range$"):
        blocking_partners_of(inst, m, 5)


def test_no_stars_without_shared_middle(two_triangles):
    inst, m = two_triangles
    assert blocking_edges(inst, m) == ((0, 2),)
    assert build_aux(inst, m).star_of == {}


def test_aux_graph_drops_losing_edges():
    # the matched pairs survive as auxiliary edges, the two -2 edges do not
    aux = build_aux(TOP_PAIRS, TOP_PAIRS_M)
    assert aux.u_id == -1 and aux.seeds == range(0)
    assert sorted(edge_list(aux.graph)) == [(0, 1), (2, 3)]
    assert 2 not in aux.graph.neighbors(0) and 3 not in aux.graph.neighbors(1)


def test_delta_hand_values(two_triangles_pendants):
    inst, m = two_triangles_pendants
    rival = Matching.from_pairs(inst, [(0, 2), (3, 5)])
    assert delta(inst, m, rival) == 2
    assert delta(inst, m, m) == 0
    assert delta(inst, rival, m) == -2


def test_half_integral_canonical_forms():
    p = HalfIntegralMatching(ones=((2, 0),), loop_ones=(5, 1), half_cycles=((4, 3, 6),))
    assert p.ones == ((0, 2),)
    assert p.loop_ones == (1, 5)
    assert p.half_cycles == ((3, 4, 6),)
    # reversed direction canonicalizes to the same tuple
    q = HalfIntegralMatching(ones=(), loop_ones=(), half_cycles=((3, 6, 4),))
    assert q.half_cycles == ((3, 4, 6),)
    with pytest.raises(ValueError, match="odd"):
        HalfIntegralMatching(ones=(), loop_ones=(), half_cycles=((0, 1, 2, 3),))
    with pytest.raises(ValueError, match="repeats"):
        HalfIntegralMatching(ones=(), loop_ones=(), half_cycles=((0, 1, 0),))


@given(
    st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=12),
    st.randoms(use_true_random=False),
)
def test_half_integral_ones_in_any_order(rows, rnd):
    # in-order ones skip the sort; every other order takes it, to the same state
    canon = sorted((min(u, v), max(u, v)) for u, v in rows)
    shuffled = list(canon)
    rnd.shuffle(shuffled)
    forms = [
        canon,
        np.array(canon, dtype=np.int64).reshape(-1, 2),
        shuffled,
        [(v, u) for u, v in canon],
        rows,
    ]
    ps = [HalfIntegralMatching(ones=f, loop_ones=(), half_cycles=()) for f in forms]
    for p in ps:
        assert p.ones == tuple(canon)
        assert p == ps[0] and hash(p) == hash(ps[0])


def test_half_integral_coverage(triangle_pendant):
    inst, m = triangle_pendant
    p = HalfIntegralMatching(ones=(), loop_ones=(3,), half_cycles=((0, 1, 2),))
    p.validate(inst)
    with pytest.raises(ValueError, match="covered"):
        HalfIntegralMatching(ones=(), loop_ones=(), half_cycles=((0, 1, 2),)).validate(inst)
    with pytest.raises(ValueError, match="not in the instance"):
        HalfIntegralMatching(ones=((0, 3),), loop_ones=(1, 2), half_cycles=()).validate(inst)


def test_fractional_value(triangle_pendant):
    inst, m = triangle_pendant
    p = HalfIntegralMatching(ones=(), loop_ones=(3,), half_cycles=((0, 1, 2),))
    assert fractional_value_times_two(inst, m, p) == 2
    assert fractional_value(inst, m, p) == Fraction(1)
    same = half_from_matching(inst, m)
    assert fractional_value_times_two(inst, m, same) == 0
    assert same.ones == m.pairs() and same.half_cycles == ()


def test_half_from_matching_roundtrip():
    rng = random.Random(5)
    for _ in range(30):
        inst = random_instance(rng, rng.randint(2, 7), 0.6)
        pairs = []
        taken = set()
        for u, v in sorted(inst.edges):
            if u not in taken and v not in taken:
                pairs.append((u, v))
                taken.update((u, v))
        m = Matching.from_pairs(inst, pairs)
        p = half_from_matching(inst, m)
        p.validate(inst)
        assert fractional_value_times_two(inst, m, p) == 0


def _value_times_two_by_votes(inst, m, p):
    # the per-edge vote loop that fractional_value_times_two replaced
    total = 2 * sum(edge_weight(inst, m, u, v) for u, v in p.ones)
    total += 2 * sum(loop_weight(inst, m, v) for v in p.loop_ones)
    for cyc in p.half_cycles:
        total += sum(
            edge_weight(inst, m, u, cyc[(i + 1) % len(cyc)]) for i, u in enumerate(cyc)
        )
    return total


def _shuffled_maximal(inst, rng):
    partner = [None] * inst.n
    edges = sorted(inst.edges)
    rng.shuffle(edges)
    for u, v in edges:
        if partner[u] is None and partner[v] is None:
            partner[u], partner[v] = v, u
    return Matching(tuple(partner))


def test_fractional_value_matches_vote_loop():
    rng = random.Random(21)
    for _ in range(200):
        inst = random_instance(rng, rng.randint(3, 12), 0.5)
        m = _shuffled_maximal(inst, rng)
        other = _shuffled_maximal(inst, rng)
        triangles = [
            (u, v, w)
            for u, v in sorted(inst.edges)
            for w in inst.pref[v]
            if w > v and (u, w) in inst.edges
        ]
        p = HalfIntegralMatching(
            ones=other.pairs(),
            loop_ones=np.flatnonzero(other.partner_array < 0),
            half_cycles=tuple(rng.sample(triangles, min(len(triangles), 2))),
        )
        assert fractional_value_times_two(inst, m, p) == _value_times_two_by_votes(inst, m, p)


def test_fractional_value_rejects_non_edges(triangle_pendant):
    # a pair of m is never looked up, but a one that is no edge still is
    inst, m = triangle_pendant
    for ones, cycles, message in (
        (((0, 3),), (), "3 is not a neighbor of 0"),
        (((3, 0),), (), "3 is not a neighbor of 0"),
        (((0, 1), (1, 3)), (), "3 is not a neighbor of 1"),
        (((0, 1),), ((0, 1, 3),), "3 is not a neighbor of 1"),
        (((1, 1),), (), "1 is not a neighbor of 1"),
        (((0, 4),), (), "node 4 is out of range"),
        (((-1, 2),), (), "node -1 is out of range"),
    ):
        p = HalfIntegralMatching(ones=ones, loop_ones=(), half_cycles=cycles)
        with pytest.raises(ValueError, match=f"^{message}$"):
            fractional_value_times_two(inst, m, p)


def _decide_shaped_rival(inst, m, rng, cycle):
    """A rival shaped like the decide's: m minus a few pairs and a triangle's
    partners, the triangle on half values if cycle, the freed nodes paired
    anew along edges where they can be and parked on loops otherwise."""
    pa = m.partner_array
    body = set()
    triangles = [
        (u, v, w)
        for u, v in sorted(inst.edges)
        for w in inst.pref[v]
        if w > v and (u, w) in inst.edges
    ]
    half = ()
    if cycle and triangles:
        half = (rng.choice(triangles),)
        body.update(half[0])
    pairs = list(m.pairs())
    for u, v in rng.sample(pairs, min(len(pairs), rng.randint(0, 2))):
        body.update((u, v))
    body.update(int(pa[v]) for v in list(body) if pa[v] >= 0)
    cyc = set(half[0]) if half else set()
    ones = [(u, v) for u, v in pairs if u not in body and v not in body]
    free = sorted((body | set(np.flatnonzero(pa < 0).tolist())) - cyc)
    rng.shuffle(free)
    taken = set()
    for u in free:
        for v in free:
            if u not in taken and v not in taken and (min(u, v), max(u, v)) in inst.edges:
                ones.append((u, v))
                taken.update((u, v))
    loops = [v for v in free if v not in taken]
    return HalfIntegralMatching(ones=ones, loop_ones=loops, half_cycles=half)


def test_rival_scorer_matches_the_references():
    rng = random.Random(33)
    seen_loops = {True: 0, False: 0}
    seen_cycles = 0
    for _ in range(300):
        inst = random_instance(rng, rng.randint(3, 12), 0.5)
        m = _shuffled_maximal(inst, rng)
        for cycle in (False, True):
            p = _decide_shaped_rival(inst, m, rng, cycle)
            p.validate(inst)
            for v in p.loop_ones:
                seen_loops[bool(m.partner_array[v] >= 0)] += 1
            assert fractional_value_times_two(inst, m, p) == _value_times_two_by_votes(inst, m, p)
            seen_cycles += bool(p.half_cycles)
            if not p.half_cycles:
                m2 = Matching.from_pairs(inst, p.ones)
                two = fractional_value_times_two(inst, m, half_from_matching(inst, m2))
                assert 2 * delta(inst, m, m2) == two
    # loops at matched and at exposed nodes, and half cycles, all occur
    assert seen_loops[True] and seen_loops[False] and seen_cycles


# Reference votes over the inst.rank dicts, the lookup that _ranks replaced.
def _validate_message(p, inst, *m):
    try:
        p.validate(inst, *m)
    except ValueError as exc:
        return str(exc)
    return None


def test_validate_skips_only_the_pairs_of_the_matching(monkeypatch):
    """Given the checked matching, validate looks up only the ones that are
    not its pairs, and says what it says without it."""
    looked = []
    edge_index = RoommatesInstance._edge_index
    monkeypatch.setattr(
        RoommatesInstance,
        "_edge_index",
        lambda self, us, vs: looked.append(len(us)) or edge_index(self, us, vs),
    )
    rng = random.Random(17)
    seen = set()
    for _ in range(300):
        inst = random_instance(rng, rng.randint(3, 10), 0.5)
        m = _shuffled_maximal(inst, rng)
        p = _decide_shaped_rival(inst, m, rng, rng.random() < 0.5)
        ones = list(p.ones)
        fresh = sum(m.partner_array[u] != v for u, v in ones)
        looked.clear()
        assert _validate_message(p, inst, m) is None
        assert sum(looked) == fresh + 3 * len(p.half_cycles)  # cycle steps are looked up
        # a one that names no node, or that is no edge, at an unmatched node too
        u = rng.randrange(inst.n)
        bad = rng.choice([(u, 2**70), (u, -1), (u, inst.n), (u, u + 1 + rng.randrange(2))])
        q = HalfIntegralMatching(
            ones=ones + [bad], loop_ones=p.loop_ones, half_cycles=p.half_cycles
        )
        want = _validate_message(q, inst)
        seen.add(want.split(" ")[0] if want else None)
        assert _validate_message(q, inst, m) == want
    assert seen == {"edge", "node"}
    # an id beyond int64 reads as -1, which is also an unmatched node's partner
    inst = RoommatesInstance(((1,), (0,)))
    q = HalfIntegralMatching(ones=((0, 2**70),), loop_ones=(1,), half_cycles=())
    want = f"edge (0, {2**70}) is not in the instance"
    assert _validate_message(q, inst, Matching.empty(2)) == _validate_message(q, inst) == want
    assert inst.has_edges([2**70, 1], [0, 0]).tolist() == [False, True]


def _ref_rank(inst, u, v):
    if v is None:
        return len(inst.pref[u])
    if v not in inst.rank[u]:
        raise ValueError(f"{v} is not a neighbor of {u}")
    return inst.rank[u][v]


def _ref_vote(inst, u, a, b):
    ra, rb = _ref_rank(inst, u, a), _ref_rank(inst, u, b)
    return (ra < rb) - (rb < ra)


def _ref_blocking(inst, m, u, v):
    return v in inst.rank[u] and _ref_vote(inst, u, v, m.partner[u]) + _ref_vote(
        inst, v, u, m.partner[v]
    ) == 2


def _same(f, ref):
    """f() and ref() return equal values or raise ValueError with equal messages."""
    try:
        want = ref()
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            f()
        assert str(got.value) == str(exc)
        return
    assert f() == want


def test_rank_lookups_match_rank_dicts():
    rng = random.Random(44)
    for _ in range(200):
        n = rng.randint(1, 10)
        inst = random_instance(rng, n, rng.choice([0.3, 0.6, 0.9]))
        m = _shuffled_maximal(inst, rng) if rng.random() < 0.8 else Matching.empty(n)
        rival = _shuffled_maximal(inst, rng)
        # a matching of another instance on the same nodes may use non-edges
        stranger = _shuffled_maximal(random_instance(rng, n, 0.7), rng)
        for other in (rival, stranger):
            _same(
                lambda: delta(inst, m, other),
                lambda: sum(_ref_vote(inst, v, other.partner[v], m.partner[v]) for v in range(n)),
            )
        for u in range(n):
            for a in (None, *range(n)):
                b = m.partner[u]
                _same(lambda: vote(inst, u, a, b), lambda: _ref_vote(inst, u, a, b))
                _same(lambda: vote(inst, u, b, a), lambda: _ref_vote(inst, u, b, a))
            for v in range(n):
                _same(
                    lambda: edge_weight(inst, m, u, v),
                    lambda: _ref_vote(inst, u, v, m.partner[u])
                    + _ref_vote(inst, v, u, m.partner[v]),
                )
                assert is_blocking_edge(inst, m, u, v) == _ref_blocking(inst, m, u, v)
            assert blocking_partners_of(inst, m, u) == sorted(
                y for y in inst.pref[u] if _ref_blocking(inst, m, u, y)
            )
            assert unmatched_zero_neighbors_of(inst, m, u) == sorted(
                x
                for x in inst.pref[u]
                if m.partner[x] is None and _ref_vote(inst, u, x, m.partner[u]) < 0
            )


def test_rank_lookup_rejects_bad_nodes(triangle_pendant):
    inst, m = triangle_pendant
    with pytest.raises(ValueError, match="3 is not a neighbor of 0"):
        vote(inst, 0, 3, None)
    with pytest.raises(ValueError, match="node 4 is out of range"):
        vote(inst, 4, None, None)
    with pytest.raises(ValueError, match="3 is not a neighbor of 1"):
        edge_weight(inst, m, 1, 3)
    # an id beyond int64 is named as given, and blocks nothing, like -1
    with pytest.raises(ValueError, match=f"^node {2**70} is out of range$"):
        vote(inst, 2**70, 0, 1)
    with pytest.raises(ValueError, match=f"^{2**70} is not a neighbor of 0$"):
        vote(inst, 0, 2**70, 1)
    assert not is_blocking_edge(inst, m, 2**70, 0)
    assert not is_blocking_edge(inst, m, -1, 0)


def _edge_vote_cases():
    """The digest corpus, and a gadget on the top ids of an instance of N nodes."""
    gadgets = [
        (TRIANGLE_PENDANT, TRIANGLE_PENDANT_M),
        (TWO_TRIANGLES, TWO_TRIANGLES_M),
        (TWO_TRIANGLES_PENDANTS, TWO_TRIANGLES_PENDANTS_M),
    ]
    yield from analysis_cases()
    yield from gadget_cases(60, 13, gadgets)
    top = N - TWO_TRIANGLES_PENDANTS.n
    high = _placed(TWO_TRIANGLES_PENDANTS, top)
    yield high, Matching.from_pairs(high, TWO_TRIANGLES_PENDANTS_M.pair_array() + top)


def test_edge_votes_agree_with_the_weights():
    for inst, m in _edge_vote_cases():
        n = inst.n
        eu, ev = inst._arrays["eu"], inst._arrays["ev"]
        w = _weights(inst, m)
        assert np.array_equal(_edge_votes(inst, m, eu, ev), w)
        assert np.array_equal(_edge_votes(inst, m, ev, eu), w)
        # every ordered pair of the nodes that have edges, and both ends of the id range
        nodes = np.unique(np.concatenate([eu, ev, [0, n - 1]]))
        k = len(nodes)
        table = np.full((k, k), NO_EDGE, dtype=np.int8)
        iu, iv = np.searchsorted(nodes, eu), np.searchsorted(nodes, ev)
        table[iu, iv] = w
        table[iv, iu] = w
        us, vs = nodes[np.arange(k * k) // k], nodes[np.arange(k * k) % k]
        assert np.array_equal(_edge_votes(inst, m, us, vs), table.ravel())
        for bad in (-1, n, -(2**40), 2**40, 2**70):
            assert (_edge_votes(inst, m, [bad, 0, bad], [0, bad, bad]) == NO_EDGE).all()
        # the row scans against the table, which reads _weights, not _edge_votes
        exposed = m.partner_array < 0
        for i, v in enumerate(nodes.tolist()):
            row = inst.dv[inst.off[v]:inst.off[v + 1]]
            weight = table[i, np.searchsorted(nodes, row)]
            assert blocking_partners_of(inst, m, v) == sorted(row[weight == 2].tolist())
            assert unmatched_zero_neighbors_of(inst, m, v) == sorted(
                row[(weight == 0) & exposed[row]].tolist()
            )
