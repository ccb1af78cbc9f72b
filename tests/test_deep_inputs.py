"""The two deep generators: an unpopular path and an odd cycle on a pendant.

Both are checked against the brute-force oracles at 12 nodes or fewer.  At
about 2e4 edges their searches are one long chain of narrow levels, so the
search must hand them to its scalar loop at once: one array pass per level
would make a decide quadratic in practice.
"""

import pytest

from helpers import LevelSpy, assert_same_forest, scalar_search
from popmatch.auxgraph import build_aux
from popmatch.engine import _run_search
from popmatch.fractional import is_fractional_popular
from popmatch.generator import odd_cycle_pendant, unpopular_path
from popmatch.oracle import brute_fractional_popular, brute_popular
from popmatch.popularity import Unpopular, is_popular


@pytest.mark.parametrize("edges", range(2, 13))
def test_deep_generators_agree_with_brute_force(edges):
    for seed in range(3):
        inst, m = unpopular_path(edges, seed)
        assert inst.m == max(2, edges - edges % 2) and inst.n == inst.m + 1
        if inst.n <= 12:
            assert not brute_popular(inst, m).popular
            assert not is_popular(inst, m).popular
        if inst.n <= 10:
            assert not brute_fractional_popular(inst, m).popular
            assert not is_fractional_popular(inst, m).popular
        inst, m = odd_cycle_pendant(edges, seed)
        assert inst.m == max(4, edges - edges % 2) and inst.n == inst.m
        if inst.n <= 12:
            assert brute_popular(inst, m).popular and is_popular(inst, m).popular
        if inst.n <= 10:
            assert not brute_fractional_popular(inst, m).popular
            assert not is_fractional_popular(inst, m).popular


def test_deep_generators_are_seeded_relabellings():
    for make in (unpopular_path, odd_cycle_pendant):
        assert make(40, 3) == make(40, 3) and make(40, 3) != make(40, 4)
        inst, m = make(40, 3)
        base, _ = make(40, 0)
        assert sorted(map(len, inst.pref)) == sorted(map(len, base.pref))


@pytest.mark.parametrize("make", [unpopular_path, odd_cycle_pendant])
def test_deep_search_runs_in_the_scalar_loop(make, monkeypatch):
    inst, m = make(20_000, 1)
    aux = build_aux(inst, m)
    g, ma = aux.graph, aux.matching
    spy = LevelSpy(monkeypatch)
    forest = _run_search(g, ma, aux.seeds)
    assert_same_forest(forest, scalar_search(g, ma, aux.seeds))
    assert spy.levels <= 1, spy.levels
    if make is unpopular_path:
        res = is_popular(inst, m)
        assert isinstance(res, Unpopular) and len(res.structure.nodes) == inst.n - 1
    else:
        assert is_popular(inst, m).popular and not is_fractional_popular(inst, m).popular
