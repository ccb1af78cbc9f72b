import random

import pytest

import popmatch.fractional
import popmatch.popularity
from popmatch.fractional import (
    CycleThroughStar,
    FractionalPopular,
    NotFractionalPopular,
    PathPlusCycle,
    check_fractional_structure,
    is_fractional_popular,
    structure_to_fractional_matching,
)
from popmatch.model import (
    Matching,
    RoommatesInstance,
    fractional_value_times_two,
    half_from_matching,
)
from popmatch.oracle import brute_fractional_popular
from popmatch.popularity import InternalError, _reached_big_pieces, witness_violation

from helpers import enumerate_matchings, partner_first_instance, random_instance


def test_lifted_from_unpopular(two_triangles_pendants):
    inst, m = two_triangles_pendants
    res = is_fractional_popular(inst, m)
    assert isinstance(res, NotFractionalPopular) and not res.popular
    assert res.structure is None
    assert res.from_unpopular is not None and res.from_unpopular.margin == 2
    assert res.value_times_two == 4
    assert res.p == half_from_matching(inst, res.from_unpopular.better)
    assert res.p.ones == ((0, 2), (3, 4))
    assert res.p.loop_ones == (1, 5, 6, 7)
    res.p.validate(inst)
    assert fractional_value_times_two(inst, m, res.p) == 4


def test_cycle_through_star(triangle_pendant):
    inst, m = triangle_pendant
    res = is_fractional_popular(inst, m)
    assert isinstance(res, NotFractionalPopular)
    assert res.structure == CycleThroughStar(cycle=(2, 1, 0), middle=2)
    assert res.from_unpopular is None
    assert res.value_times_two == 2
    assert res.p.ones == () and res.p.loop_ones == (3,)
    assert res.p.half_cycles == ((0, 1, 2),)
    assert check_fractional_structure(inst, m, res.structure) is None
    assert structure_to_fractional_matching(inst, m, res.structure) == res.p
    assert fractional_value_times_two(inst, m, res.p) == 2


def test_path_plus_cycle(two_triangles):
    inst, m = two_triangles
    res = is_fractional_popular(inst, m)
    assert isinstance(res, NotFractionalPopular)
    assert res.structure == PathPlusCycle(
        path=(0, 2, 3), cycle=(3, 5, 4), blocking_edge=(0, 2)
    )
    assert res.value_times_two == 2
    assert res.p.ones == ((0, 2),) and res.p.loop_ones == (1,)
    assert res.p.half_cycles == ((3, 4, 5),)
    assert check_fractional_structure(inst, m, res.structure) is None
    assert structure_to_fractional_matching(inst, m, res.structure) == res.p


def test_fractional_popular_without_blocking():
    inst = RoommatesInstance(((1, 2), (0, 3), (3, 0), (2, 1)))
    m = Matching.from_pairs(inst, [(0, 1), (2, 3)])
    res = is_fractional_popular(inst, m)
    assert isinstance(res, FractionalPopular) and res.popular
    assert res.witness.two_sets == ()
    assert witness_violation(inst, m, res.witness) is None


def test_partner_first_always_fractional_popular():
    rng = random.Random(41)
    for _ in range(30):
        inst, m = partner_first_instance(rng, 2 * rng.randint(1, 5), rng.random())
        assert isinstance(is_fractional_popular(inst, m), FractionalPopular)


def test_fractional_popular_reads_the_reached_pieces_once(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return _reached_big_pieces(*args)

    monkeypatch.setattr(popmatch.popularity, "_reached_big_pieces", counted)
    assert not hasattr(popmatch.fractional, "_reached_big_pieces")
    inst, m = partner_first_instance(random.Random(7), 8, 0.6)
    assert isinstance(is_fractional_popular(inst, m), FractionalPopular)
    assert len(calls) == 1


def test_lifted_value_matches_margin():
    inst = RoommatesInstance(((2,), (2,), (0, 1, 3), (2,)))
    m = Matching.from_pairs(inst, [(2, 3)])
    res = is_fractional_popular(inst, m)
    assert isinstance(res, NotFractionalPopular) and res.structure is None
    assert res.from_unpopular.margin == 1
    assert res.value_times_two == 2


def test_check_star_cycle_rejections(triangle_pendant):
    inst, m = triangle_pendant
    good = CycleThroughStar(cycle=(2, 1, 0), middle=2)
    assert check_fractional_structure(inst, m, good) is None
    # the reflected traversal is equally valid
    assert check_fractional_structure(
        inst, m, CycleThroughStar(cycle=(2, 0, 1), middle=2)
    ) is None
    cases = [
        (CycleThroughStar((2, 1, 9), 2), "node out of range"),
        (CycleThroughStar((2, 1, 1), 2), "repeated node"),
        (CycleThroughStar((2, 1, 0, 3), 2), "not odd"),
        (CycleThroughStar((0, 1, 2), 2), "does not start at the middle"),
        (CycleThroughStar((2, 1, 3), 2), "cycle nodes 1 and 3 are not partners"),
        (CycleThroughStar((3, 0, 1), 3), "edge 3-0 is not blocking"),
    ]
    for s, expected in cases:
        msg = check_fractional_structure(inst, m, s)
        assert msg is not None and expected in msg, (s, msg)
    only_pair = Matching.from_pairs(inst, [(0, 1)])
    msg = check_fractional_structure(
        inst, only_pair, CycleThroughStar((2, 1, 0), 2)
    )
    assert msg == "middle is unmatched"
    assert "unknown structure" in check_fractional_structure(inst, m, None)


def test_check_path_cycle_rejections(two_triangles):
    inst, m = two_triangles
    cases = [
        (PathPlusCycle((0, 2), (3, 5, 4), (0, 2)), "path length 2"),
        (PathPlusCycle((0, 2, 3), (5, 4, 3), (0, 2)), "does not end at the cycle root"),
        (PathPlusCycle((4, 2, 3), (3, 5, 4), (4, 2)), "share more than the root"),
        (PathPlusCycle((0, 2, 3), (3, 5, 4), (2, 3)), "declared blocking edge differs"),
        (PathPlusCycle((1, 2, 3), (3, 5, 4), (1, 2)), "edge 1-2 is not blocking"),
        (PathPlusCycle((0, 2, 4), (4, 5, 3), (0, 2)), "path nodes 2 and 4 are not partners"),
        (PathPlusCycle((0, 2, 3), (3, 1, 4), (0, 2)), "cycle nodes 1 and 4 are not partners"),
    ]
    for s, expected in cases:
        msg = check_fractional_structure(inst, m, s)
        assert msg is not None and expected in msg, (s, msg)


def test_agrees_with_brute_on_small_instances():
    rng = random.Random(42)
    for _ in range(60):
        inst = random_instance(rng, rng.randint(2, 5), rng.choice([0.5, 0.8, 1.0]))
        for m in enumerate_matchings(inst):
            res = is_fractional_popular(inst, m)
            ref = brute_fractional_popular(inst, m)
            assert res.popular == ref.popular, (inst.pref, m.partner)
            if res.popular:
                assert witness_violation(inst, m, res.witness) is None
                assert res.witness.two_sets == ()
            else:
                res.p.validate(inst)
                assert fractional_value_times_two(inst, m, res.p) == res.value_times_two
                if res.structure is not None:
                    assert res.value_times_two == 2
                    assert check_fractional_structure(inst, m, res.structure) is None
                else:
                    assert res.value_times_two == 2 * res.from_unpopular.margin


def test_lift_needs_the_anchor_outside_the_structure(triangle_pendant):
    inst, m = triangle_pendant
    s = CycleThroughStar(cycle=(0, 1, 2), middle=0)
    message = "^structure anchor is missing its outside partner$"
    with pytest.raises(InternalError, match=message):  # the middle's partner 1 is on the cycle
        structure_to_fractional_matching(inst, m, s)
    with pytest.raises(InternalError, match=message):  # the middle has no partner
        structure_to_fractional_matching(inst, Matching((None, 2, 1, None)), s)
