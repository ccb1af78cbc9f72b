"""Exact defect messages of the structure checkers and the vote helpers."""

import pytest

from conftest import TRIANGLE_PENDANT, TRIANGLE_PENDANT_M
from popmatch.fractional import CycleThroughStar, PathPlusCycle, check_fractional_structure
from popmatch.model import (
    HalfIntegralMatching,
    Matching,
    RoommatesInstance,
    delta,
    edge_weight,
    fractional_value,
    fractional_value_times_two,
    loop_weight,
)
from popmatch.popularity import (
    CYCLE,
    PATH_TO_UNMATCHED,
    PATH_TWO_BLOCKING,
    BlockingStructure,
    check_blocking_structure,
)


@pytest.mark.parametrize(
    "kind, nodes, expected",
    [
        (PATH_TWO_BLOCKING, (4, 3, 5, 6), "path edge 3-5 should be matched"),
        (PATH_TWO_BLOCKING, (0, 1, 2, 3), "path edge 0-1 should be unmatched"),
        (PATH_TO_UNMATCHED, (0, 1), "path edge 0-1 should be unmatched"),
        (CYCLE, (0, 1, 4, 5), "cycle edge 1-4 missing"),
        (PATH_TWO_BLOCKING, (3, 4), "path too short"),
        (PATH_TO_UNMATCHED, (), "path too short"),
    ],
)
def test_blocking_structure_messages(two_triangles_pendants, kind, nodes, expected):
    inst, m = two_triangles_pendants
    assert check_blocking_structure(inst, m, BlockingStructure(kind, nodes)) == expected


# middle 0 matched to 5, blocking edges 0-1 and 0-4 around the pairs 12 and 34
STAR_NO_TIE_EDGE = RoommatesInstance(((1, 4, 5), (0, 2), (1,), (4,), (0, 3), (0,)))
STAR_LOSING_EDGE = RoommatesInstance(((1, 4, 5), (0, 2), (1, 3), (4, 2), (0, 3), (0,)))
# 0 ranks its partner 5 above 4, so only 0-1 blocks
STAR_ONE_BLOCKING = RoommatesInstance(((1, 5, 4), (0, 2), (1, 3), (2, 4), (0, 3), (0,)))
STAR_PAIRS = [(0, 5), (1, 2), (3, 4)]


@pytest.mark.parametrize(
    "inst, expected",
    [
        (STAR_NO_TIE_EDGE, "cycle edge 2-3 missing"),
        (STAR_LOSING_EDGE, "cycle edge 2-3 does not tie the vote"),
        (STAR_ONE_BLOCKING, "edge 0-4 is not blocking"),
    ],
)
def test_star_cycle_messages(inst, expected):
    m = Matching.from_pairs(inst, STAR_PAIRS)
    s = CycleThroughStar(cycle=(0, 1, 2, 3, 4), middle=0)
    assert check_fractional_structure(inst, m, s) == expected


def _feeding_path(row2, row3):
    """Blocking edge 0-1, path 0 1 2 3 4 into the triangle 4 5 6; 7 is 0's partner."""
    return RoommatesInstance(((1, 7), (0, 2), row2, row3, (5, 3, 6), (6, 4), (4, 5), (0,)))


PATH = _feeding_path((3, 1), (4, 2))
PATH_NO_TIE_EDGE = _feeding_path((1,), (4,))
PATH_LOSING_EDGE = _feeding_path((1, 3), (4, 2))
PATH_PAIRS = [(1, 2), (3, 4), (5, 6)]
FEED = PathPlusCycle(path=(0, 1, 2, 3, 4), cycle=(4, 5, 6), blocking_edge=(0, 1))


@pytest.mark.parametrize(
    "inst, pairs, s, expected",
    [
        (PATH, PATH_PAIRS + [(0, 7)], FEED, None),
        (PATH_NO_TIE_EDGE, PATH_PAIRS + [(0, 7)], FEED, "path edge 2-3 missing"),
        (PATH_LOSING_EDGE, PATH_PAIRS + [(0, 7)], FEED, "path edge 2-3 does not tie the vote"),
        (PATH, PATH_PAIRS, FEED, "path head is unmatched"),
        (
            PATH,
            PATH_PAIRS + [(0, 7)],
            PathPlusCycle(path=(0, 1, 2, 3, 4), cycle=(4, 5), blocking_edge=(0, 1)),
            "cycle length 2 is not odd and >= 3",
        ),
        (
            PATH,
            PATH_PAIRS + [(0, 7)],
            PathPlusCycle(path=(0, 1, 2, 3, 8), cycle=(8, 5, 6), blocking_edge=(0, 1)),
            "node out of range",
        ),
        (
            PATH,
            PATH_PAIRS + [(0, 7)],
            PathPlusCycle(path=(0, 1, 2, 3, 4), cycle=(4, 5, 5), blocking_edge=(0, 1)),
            "repeated node",
        ),
    ],
)
def test_path_plus_cycle_messages(inst, pairs, s, expected):
    m = Matching.from_pairs(inst, pairs)
    assert check_fractional_structure(inst, m, s) == expected


@pytest.mark.parametrize(
    "call, expected",
    [
        (
            lambda inst, m: fractional_value_times_two(
                inst, m, HalfIntegralMatching([], [-1, 0, 1, 2], [])
            ),
            "loop node -1 is out of range",
        ),
        (
            lambda inst, m: fractional_value(inst, m, HalfIntegralMatching([], [-1, 0, 1, 2], [])),
            "loop node -1 is out of range",
        ),
        (
            lambda inst, m: fractional_value_times_two(
                inst, m, HalfIntegralMatching([], [0, 1, 2, 9], [])
            ),
            "loop node 9 is out of range",
        ),
        (
            lambda inst, m: fractional_value_times_two(
                inst, Matching.empty(5), HalfIntegralMatching([], [0, 1, 2, 3], [])
            ),
            "matching size does not fit the instance",
        ),
        # an id beyond int64 is named as p holds it
        (
            lambda inst, m: fractional_value_times_two(
                inst, m, HalfIntegralMatching([(0, 2**70)], [1, 2, 3], [])
            ),
            f"node {2**70} is out of range",
        ),
        (
            lambda inst, m: fractional_value_times_two(
                inst, m, HalfIntegralMatching([], [3], [(0, 1, 2**70)])
            ),
            f"node {2**70} is out of range",
        ),
        (lambda inst, m: edge_weight(inst, m, 99, 0), "node 99 is out of range"),
        (lambda inst, m: edge_weight(inst, m, 0, -1), "node -1 is out of range"),
        (
            lambda inst, m: edge_weight(inst, Matching.empty(3), 0, 1),
            "matching size does not fit the instance",
        ),
        (lambda inst, m: loop_weight(inst, m, -1), "node -1 is out of range"),
        (
            lambda inst, m: delta(inst, m, Matching.empty(3)),
            "matching size does not fit the instance",
        ),
    ],
)
def test_vote_helpers_check_ids_first(call, expected):
    with pytest.raises(ValueError) as err:
        call(TRIANGLE_PENDANT, TRIANGLE_PENDANT_M)
    assert str(err.value) == expected
