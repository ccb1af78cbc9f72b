"""End-to-end acceptance gate.

Each test here covers one shipping requirement and shows up as a
single pass or fail line under ``pytest -v``.  The two randomized
corpora are built once per session and shared, so the agreement tests
and the certificate-soundness tests judge the exact same runs.
"""

import random
import time

import pytest

from helpers import (
    brute_gallai_edmonds,
    brute_max_matching_size,
    decompose,
    edge_list,
    is_maximum,
    label_sets,
    maximum_matching,
    partner_first_instance,
    random_edge_graph,
)
from popmatch.bench import run_bench
from popmatch.engine import Graph
from popmatch.fractional import (
    CycleThroughStar,
    FractionalPopular,
    NotFractionalPopular,
    PathPlusCycle,
    check_fractional_structure,
    is_fractional_popular,
)
from popmatch.generator import (
    generate_instance,
    greedy_matching,
    random_maximal_matching,
)
from popmatch.model import (
    Matching,
    blocking_edges,
    delta,
    fractional_value_times_two,
)
from popmatch.oracle import brute_fractional_popular, brute_popular
from popmatch.popularity import (
    Popular,
    Unpopular,
    check_blocking_structure,
    is_popular,
    witness_violation,
)


def _three_matchings(inst, seed):
    # empty, a random maximal, and the greedy one: the mix covers
    # undermatched, typical, and locally good inputs
    return (
        Matching.empty(inst.n),
        random_maximal_matching(inst, seed=seed),
        greedy_matching(inst),
    )


@pytest.fixture(scope="session")
def popularity_corpus():
    records = []
    disagreements = 0
    t0 = time.perf_counter()
    for seed in range(1000):
        n = 4 + seed % 5
        for inst in (
            generate_instance(n, "complete", seed=seed),
            generate_instance(n, "gnp", 0.5, seed=seed + 10_000),
        ):
            for m in _three_matchings(inst, seed):
                res = is_popular(inst, m)
                if isinstance(res, Popular) != brute_popular(inst, m).popular:
                    disagreements += 1
                records.append((inst, m, res, len(blocking_edges(inst, m))))
    elapsed = time.perf_counter() - t0
    return {"records": records, "disagreements": disagreements, "elapsed": elapsed}


@pytest.fixture(scope="session")
def fractional_corpus():
    records = []
    disagreements = 0
    for seed in range(250):
        n = 4 + seed % 4
        for inst in (
            generate_instance(n, "complete", seed=seed),
            generate_instance(n, "gnp", 0.5, seed=seed + 20_000),
        ):
            for m in _three_matchings(inst, seed):
                res = is_fractional_popular(inst, m)
                oracle = brute_fractional_popular(inst, m)
                if isinstance(res, FractionalPopular) != oracle.popular:
                    disagreements += 1
                records.append((inst, m, res, len(blocking_edges(inst, m))))
    return {"records": records, "disagreements": disagreements}


def test_popularity_agrees_with_oracle(popularity_corpus):
    c = popularity_corpus
    assert len(c["records"]) == 6000
    assert c["disagreements"] == 0
    assert c["elapsed"] < 60.0


def test_fractional_agrees_with_oracle(fractional_corpus):
    c = fractional_corpus
    assert len(c["records"]) == 1500
    assert c["disagreements"] == 0


def test_reference_instances_get_exact_verdicts(
    two_triangles_pendants, triangle_pendant, two_triangles
):
    inst, m = two_triangles_pendants
    res = is_popular(inst, m)
    assert isinstance(res, Unpopular)
    assert res.margin >= 1
    rival = Matching.from_pairs(inst, [(0, 2), (3, 5)])
    assert delta(inst, m, rival) == 2

    inst, m = triangle_pendant
    assert isinstance(is_popular(inst, m), Popular)
    fres = is_fractional_popular(inst, m)
    assert isinstance(fres, NotFractionalPopular)
    assert isinstance(fres.structure, CycleThroughStar)
    assert fres.value_times_two == 2

    inst, m = two_triangles
    assert isinstance(is_popular(inst, m), Popular)
    fres = is_fractional_popular(inst, m)
    assert isinstance(fres, NotFractionalPopular)
    s = fres.structure
    assert isinstance(s, PathPlusCycle)
    assert s.path == (0, 2, 3)
    # either way around the triangle is fine, the root must come first
    assert s.cycle in ((3, 5, 4), (3, 4, 5))
    assert fres.p.half_cycles == ((3, 4, 5),)
    assert fres.value_times_two == 2


def test_popular_witnesses_verify(popularity_corpus, fractional_corpus):
    checked = 0
    for inst, m, res, _ in popularity_corpus["records"]:
        if not isinstance(res, Popular):
            continue
        w = res.witness
        assert witness_violation(inst, m, w) is None
        assert set(w.alpha) <= {-1, 0, 1}
        seen: set = set()
        for z in w.two_sets:
            assert len(z) >= 3 and len(z) % 2 == 1
            assert not (z & seen)
            seen |= z
        assert sum(w.alpha) + sum(len(z) - 1 for z in w.two_sets) == 0
        checked += 1
    for inst, m, res, _ in fractional_corpus["records"]:
        if isinstance(res, FractionalPopular):
            assert witness_violation(inst, m, res.witness) is None
            checked += 1
    assert checked >= 100


def test_negative_certificates_verify(popularity_corpus, fractional_corpus):
    unpopular = 0
    for inst, m, res, _ in popularity_corpus["records"]:
        if not isinstance(res, Unpopular):
            continue
        assert check_blocking_structure(inst, m, res.structure) is None
        d = delta(inst, m, res.better)
        assert d == res.margin
        assert d >= 1
        unpopular += 1
    beaten = 0
    for inst, m, res, _ in fractional_corpus["records"]:
        if not isinstance(res, NotFractionalPopular):
            continue
        res.p.validate(inst)
        vt2 = fractional_value_times_two(inst, m, res.p)
        assert vt2 == res.value_times_two
        if res.structure is None:
            assert res.from_unpopular is not None
            assert vt2 == 2 * res.from_unpopular.margin
            assert vt2 >= 2
        else:
            assert check_fractional_structure(inst, m, res.structure) is None
            assert vt2 == 2
        beaten += 1
    assert unpopular >= 100 and beaten >= 100


def test_stable_matchings_are_popular(popularity_corpus, fractional_corpus):
    stable = 0
    for inst, m, res, n_blocking in popularity_corpus["records"]:
        if n_blocking == 0:
            assert isinstance(res, Popular)
            stable += 1
    for inst, m, res, n_blocking in fractional_corpus["records"]:
        if n_blocking == 0:
            assert isinstance(res, FractionalPopular)
            stable += 1
    assert stable >= 1

    rng = random.Random(20260816)
    for k in range(50):
        inst, m = partner_first_instance(rng, 4 + 2 * (k % 4), 0.6)
        assert not blocking_edges(inst, m)
        assert isinstance(is_popular(inst, m), Popular)
        assert isinstance(is_fractional_popular(inst, m), FractionalPopular)


def test_popularity_check_scales_linearly():
    rows = run_bench([10_000, 100_000, 1_000_000], seed=0, reps=3)
    assert [r.target_edges for r in rows] == [10_000, 100_000, 1_000_000]
    assert rows[-1].median_seconds < 2.0
    assert rows[-1].ns_per_edge <= 2.0 * rows[0].ns_per_edge


def test_engine_agrees_with_oracle():
    rng = random.Random(0xE17)
    for _ in range(500):
        n = rng.randint(1, 10)
        p = rng.choice((0.15, 0.3, 0.5, 0.8))
        g = Graph.from_edges(n, random_edge_graph(rng, n, p))
        match = maximum_matching(g)
        size = sum(1 for w in match if w != -1) // 2
        assert size == brute_max_matching_size(g)
        ge = decompose(g, match)
        bge = brute_gallai_edmonds(g)
        assert label_sets(ge) == (bge.d, bge.a, bge.c)
        assert {frozenset(comp) for comp in ge.components} == {
            frozenset(comp) for comp in bge.components
        }

        edges = edge_list(g)
        rng.shuffle(edges)
        lazy = [-1] * n
        for u, v in edges:
            if lazy[u] == -1 and lazy[v] == -1:
                lazy[u], lazy[v] = v, u
        lazy_size = sum(1 for w in lazy if w != -1) // 2
        assert is_maximum(g, lazy) == (lazy_size == size)
