import pytest

from popmatch.engine import Graph
from popmatch.model import (
    Matching,
    RoommatesInstance,
    fractional_value_times_two,
)
from popmatch.oracle import OracleLimitError, brute_fractional_popular, brute_popular

from helpers import brute_gallai_edmonds, brute_max_matching_size, enumerate_matchings

K4 = RoommatesInstance(tuple(tuple(x for x in range(4) if x != v) for v in range(4)))


def test_enumerate_matchings_counts(triangle_pendant):
    inst, _ = triangle_pendant
    found = list(enumerate_matchings(inst))
    assert len(found) == 6
    assert len(set(found)) == 6
    assert len(list(enumerate_matchings(K4))) == 10
    assert list(enumerate_matchings(RoommatesInstance(()))) == [Matching.empty(0)]


def test_brute_popular_fixtures(
    two_triangles_pendants, triangle_pendant, two_triangles, swap_square
):
    inst, m = two_triangles_pendants
    res = brute_popular(inst, m)
    assert res.best_delta == 3 and not res.popular
    inst, m = triangle_pendant
    assert brute_popular(inst, m).best_delta == 0
    assert brute_popular(inst, m).popular
    inst, m = two_triangles
    assert brute_popular(inst, m).best_delta == 0
    inst, m = swap_square
    res = brute_popular(inst, m)
    assert res.best_delta == 2
    assert res.witness.pairs() == ((0, 3), (1, 2))


def test_brute_fractional_fixtures(
    two_triangles_pendants, triangle_pendant, two_triangles, swap_square
):
    inst, m = triangle_pendant
    res = brute_fractional_popular(inst, m)
    assert res.best_value_times_two == 2 and not res.popular
    assert res.witness.half_cycles == ((0, 1, 2),)
    res.witness.validate(inst)
    assert fractional_value_times_two(inst, m, res.witness) == 2
    inst, m = two_triangles
    res = brute_fractional_popular(inst, m)
    assert res.best_value_times_two == 2
    assert res.witness.half_cycles == ((3, 4, 5),)
    inst, m = two_triangles_pendants
    assert brute_fractional_popular(inst, m).best_value_times_two == 6
    inst, m = swap_square
    assert brute_fractional_popular(inst, m).best_value_times_two == 4


def test_brute_fractional_on_popular_matching():
    # mutual first choices: nothing beats the matching, even fractionally
    inst = RoommatesInstance(((1, 2), (0, 3), (3, 0), (2, 1)))
    m = Matching.from_pairs(inst, [(0, 1), (2, 3)])
    res = brute_fractional_popular(inst, m)
    assert res.popular and res.best_value_times_two == 0


def test_brute_max_matching_and_decomposition():
    tri = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    assert brute_max_matching_size(tri) == 1
    dec = brute_gallai_edmonds(tri)
    assert dec.d == frozenset({0, 1, 2})
    assert dec.a == frozenset() and dec.c == frozenset()
    assert dec.components == (frozenset({0, 1, 2}),)


def test_oracle_size_guards(monkeypatch):
    monkeypatch.delenv("POPMATCH_ORACLE_LIMIT", raising=False)
    big = RoommatesInstance(((),) * 13)
    with pytest.raises(OracleLimitError, match="capped at 12"):
        brute_popular(big, Matching.empty(13))
    with pytest.raises(OracleLimitError, match="capped at 10"):
        brute_fractional_popular(
            RoommatesInstance(((),) * 11), Matching.empty(11)
        )
    with pytest.raises(OracleLimitError):
        brute_max_matching_size(Graph.from_edges(13, []))
    with pytest.raises(OracleLimitError):
        brute_gallai_edmonds(Graph.from_edges(13, []))


def test_oracle_limit_env_override(monkeypatch):
    big = RoommatesInstance(((),) * 13)
    monkeypatch.setenv("POPMATCH_ORACLE_LIMIT", "13")
    assert brute_popular(big, Matching.empty(13)).best_delta == 0
    monkeypatch.setenv("POPMATCH_ORACLE_LIMIT", "3")
    with pytest.raises(OracleLimitError, match="capped at 3"):
        brute_popular(K4, Matching.empty(4))
