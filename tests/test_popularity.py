import random
import re
from dataclasses import replace

import numpy as np
import pytest

from popmatch import auxgraph, fractional, model, popularity
from popmatch.auxgraph import KIND_BLOCK, KIND_ORIG, KIND_STAR, build_aux
from popmatch.fractional import (
    CycleThroughStar,
    PathPlusCycle,
    check_fractional_structure,
    is_fractional_popular,
)
from popmatch.model import (
    HalfIntegralMatching,
    Matching,
    PairError,
    RoommatesInstance,
    blocking_edges,
    delta,
)
from popmatch.oracle import brute_popular
from popmatch.popularity import (
    CYCLE,
    PATH_TO_UNMATCHED,
    PATH_TWO_BLOCKING,
    BlockingStructure,
    DualWitness,
    InternalError,
    Popular,
    Unpopular,
    _analyze,
    _finish_popular,
    _reached_big_pieces,
    build_dual_witness,
    check_blocking_structure,
    extract_blocking_structure,
    is_popular,
    more_popular_matching,
    witness_violation,
)

from conftest import (
    TRIANGLE_PENDANT,
    TRIANGLE_PENDANT_M,
    TWO_TRIANGLES,
    TWO_TRIANGLES_M,
    TWO_TRIANGLES_PENDANTS,
    TWO_TRIANGLES_PENDANTS_M,
)
from helpers import (
    analysis_cases,
    enumerate_matchings,
    partner_first_instance,
    random_instance,
    tiled,
)


def test_unpopular_two_triangles_pendants(two_triangles_pendants):
    inst, m = two_triangles_pendants
    res = is_popular(inst, m)
    assert isinstance(res, Unpopular) and not res.popular
    assert res.structure == BlockingStructure(PATH_TWO_BLOCKING, (4, 3, 2, 0))
    assert res.margin == 2
    assert res.better.pairs() == ((0, 2), (3, 4))
    assert delta(inst, m, res.better) == 2
    assert check_blocking_structure(inst, m, res.structure) is None


def test_popular_triangle_pendant(triangle_pendant):
    inst, m = triangle_pendant
    res = is_popular(inst, m)
    assert isinstance(res, Popular) and res.popular
    assert res.witness.alpha == (-1, -1, 1, -1)
    assert res.witness.two_sets == (frozenset({0, 1, 2}),)
    assert witness_violation(inst, m, res.witness) is None


def _reference_two_sets(an) -> list:
    """The odd sets as a loop over the pieces builds them."""
    members = np.asarray(an.reach.label) != 0
    sets = []
    for k in range(len(an.ge.roots)):
        comp = np.flatnonzero(an.ge.piece == k)
        root = an.ge.roots[k]
        if len(comp) >= 3 and members[root]:
            assert an.aux.kind[root] in (KIND_ORIG, KIND_STAR)
            sets.append(frozenset(an.aux.payload_array[comp].tolist()))
    return sorted(sets, key=min)


def test_dual_witness_odd_sets_match_a_piece_loop(triangle_pendant, two_triangles):
    rng = random.Random(4)
    for _ in range(60):
        # each gadget brings one reached triangle, so one odd set
        gadgets = [rng.choice([triangle_pendant, two_triangles]) for _ in range(rng.randint(1, 6))]
        others = [partner_first_instance(rng, 6, 0.5) for _ in range(rng.randint(0, 3))]
        inst, m = tiled(rng, gadgets + others)
        an = _analyze(inst, m)
        assert an.aug_path is None
        assert np.array_equal(an.big, _reached_big_pieces(an.ge, an.reach))
        w = build_dual_witness(inst, m, an.aux, an.ge, an.reach, an.big)
        assert list(w.two_sets) == _reference_two_sets(an)
        assert len(w.two_sets) >= len(gadgets)


def test_dual_witness_rejects_bad_pieces(triangle_pendant):
    # the witness check is the only check: a piece's kind is not read, and
    # two vertices of one piece on one node fail as a set collision
    inst, m = triangle_pendant
    an = _analyze(inst, m)
    comp = np.flatnonzero(an.ge.piece == an.ge.piece[an.ge.roots[0]])
    assert len(comp) == 3
    kind = an.aux.kind.copy()
    kind[an.ge.roots[0]] = KIND_BLOCK
    res = _finish_popular(inst, m, replace(an, aux=replace(an.aux, kind=kind)))
    assert res == _finish_popular(inst, m, an)
    pay = an.aux.payload_array.copy()
    pay[comp[1]] = pay[comp[0]]
    msg = "^constructed dual witness is invalid: node 0 lies in two odd sets$"
    with pytest.raises(InternalError, match=msg):
        _finish_popular(inst, m, replace(an, aux=replace(an.aux, payload_array=pay)))


def test_popular_two_triangles(two_triangles):
    inst, m = two_triangles
    res = is_popular(inst, m)
    assert isinstance(res, Popular)
    assert res.witness.alpha == (1, -1, 1, -1, -1, -1)
    assert res.witness.two_sets == (frozenset({3, 4, 5}),)


def test_unpopular_swap_square(swap_square):
    inst, m = swap_square
    res = is_popular(inst, m)
    assert isinstance(res, Unpopular)
    assert res.structure == BlockingStructure(CYCLE, (1, 0, 3, 2))
    assert res.margin == 2
    assert res.better.pairs() == ((0, 3), (1, 2))


def test_popular_without_blocking_edges():
    inst = RoommatesInstance(((1, 2), (0, 3), (3, 0), (2, 1)))
    m = Matching.from_pairs(inst, [(0, 1), (2, 3)])
    res = is_popular(inst, m)
    assert isinstance(res, Popular)
    assert res.witness.alpha == (0, 0, 0, 0)
    assert res.witness.two_sets == ()


def test_tiny_instances():
    assert is_popular(RoommatesInstance(()), Matching.empty(0)).popular
    assert is_popular(RoommatesInstance(((),)), Matching.empty(1)).popular
    pair = RoommatesInstance(((1,), (0,)))
    assert is_popular(pair, Matching.from_pairs(pair, [(0, 1)])).popular
    res = is_popular(pair, Matching.empty(2))
    assert isinstance(res, Unpopular)
    assert res.structure == BlockingStructure(PATH_TO_UNMATCHED, (1, 0))
    assert res.margin == 2
    assert res.better.pairs() == ((0, 1),)


def test_star_with_unmatched_leaves_margin_one():
    # two unmatched leaves court the same matched middle; switching to
    # the lowest leaf wins the vote 2 to 1
    inst = RoommatesInstance(((2,), (2,), (0, 1, 3), (2,)))
    m = Matching.from_pairs(inst, [(2, 3)])
    res = is_popular(inst, m)
    assert isinstance(res, Unpopular)
    assert res.structure == BlockingStructure(PATH_TO_UNMATCHED, (2, 0))
    assert res.margin == 1
    assert res.better.pairs() == ((0, 2),)


def test_check_blocking_structure_rejections(two_triangles_pendants):
    inst, m = two_triangles_pendants
    cases = [
        (BlockingStructure(PATH_TWO_BLOCKING, (4, 3, 2, 99)), "out of range"),
        (BlockingStructure(PATH_TWO_BLOCKING, (4, 3, 3, 0)), "repeated node"),
        (BlockingStructure(PATH_TWO_BLOCKING, (4, 3, 2)), "odd node count"),
        (BlockingStructure(CYCLE, (2, 3)), "cycle shorter than 4"),
        (BlockingStructure(PATH_TWO_BLOCKING, (4, 2, 3, 0)), "path edge 4-2 missing"),
        (BlockingStructure(PATH_TWO_BLOCKING, (6, 3, 2, 0)), "first edge 6-3 is not blocking"),
        (BlockingStructure(PATH_TWO_BLOCKING, (4, 3, 2, 1)), "last edge 2-1 is not blocking"),
        (BlockingStructure(PATH_TO_UNMATCHED, (3, 4)), "end node 4 is matched"),
        (BlockingStructure("zigzag", (0, 1)), "unknown kind 'zigzag'"),
    ]
    for s, expected in cases:
        msg = check_blocking_structure(inst, m, s)
        assert msg is not None and expected in msg, (s, msg)


def test_check_blocking_cycle_rejections(swap_square):
    inst, m = swap_square
    assert check_blocking_structure(inst, m, BlockingStructure(CYCLE, (1, 0, 3, 2))) is None
    msg = check_blocking_structure(inst, m, BlockingStructure(CYCLE, (0, 1, 2, 3)))
    assert msg == "closing edge 3-0 is not blocking"
    msg = check_blocking_structure(inst, m, BlockingStructure(CYCLE, (0, 3, 2, 1)))
    assert "should be matched" in msg


def test_structure_checks_read_numpy_node_ids(
    two_triangles_pendants, swap_square, two_triangles, triangle_pendant
):
    # a verdict's own structure, its nodes as numpy integers, checks out as it did
    for inst, m in (two_triangles_pendants, swap_square):
        s = is_popular(inst, m).structure
        nodes = tuple(map(np.int64, s.nodes))
        assert check_blocking_structure(inst, m, BlockingStructure(s.kind, nodes)) is None
    inst, m = two_triangles_pendants
    s = BlockingStructure(PATH_TWO_BLOCKING, (4.0, 3, 2, 0))
    assert check_blocking_structure(inst, m, s) == "node out of range"
    for inst, m in (two_triangles, triangle_pendant):
        s = is_fractional_popular(inst, m).structure
        if isinstance(s, PathPlusCycle):
            seqs = (s.path, s.cycle, s.blocking_edge)
            s = PathPlusCycle(*(tuple(map(np.int64, seq)) for seq in seqs))
        else:
            s = CycleThroughStar(tuple(map(np.int64, s.cycle)), np.int64(s.middle))
        assert check_fractional_structure(inst, m, s) is None


def test_more_popular_matching_cycle(swap_square):
    inst, m = swap_square
    better = more_popular_matching(inst, m, BlockingStructure(CYCLE, (1, 0, 3, 2)))
    assert better.pairs() == ((0, 3), (1, 2))
    assert delta(inst, m, better) == 2


def test_witness_violation_rejections(triangle_pendant):
    inst, m = triangle_pendant
    ok = DualWitness(alpha=(-1, -1, 1, -1), two_sets=(frozenset({0, 1, 2}),))
    assert witness_violation(inst, m, ok) is None
    tri = frozenset({0, 1, 2})
    cases = [
        (DualWitness((0, 0), (tri,)), "length"),
        (DualWitness((-2, -1, 1, -1), (tri,)), "outside"),
        (DualWitness((-1, -1, 1, -1), (frozenset({0, 1}),)), "size 2"),
        (DualWitness((-1, -1, 1, -1), (frozenset({0, 1, 9}),)), "invalid node 9"),
        (DualWitness((-1, -1, 1, -1), (tri, tri)), "two odd sets"),
        (DualWitness((0, 0, 0, 0), ()), "undercovered"),
        (DualWitness((-1, -1, 1, 0), (tri,)), "objective"),
    ]
    for w, expected in cases:
        msg = witness_violation(inst, m, w)
        assert msg is not None and expected in msg, (w, msg)


def test_witness_violation_unmatched_alpha():
    inst = RoommatesInstance(((),))
    m = Matching.empty(1)
    assert witness_violation(inst, m, DualWitness((0,), ())) is None
    msg = witness_violation(inst, m, DualWitness((-1,), ()))
    assert "unmatched node 0 has negative alpha" in msg
    msg = witness_violation(inst, m, DualWitness((1,), ()))
    assert "objective is 1" in msg


def test_agrees_with_brute_on_small_instances():
    rng = random.Random(31)
    for _ in range(120):
        inst = random_instance(rng, rng.randint(2, 6), rng.choice([0.4, 0.7, 1.0]))
        for m in enumerate_matchings(inst):
            res = is_popular(inst, m)
            assert res.popular == brute_popular(inst, m).popular
            if res.popular:
                assert witness_violation(inst, m, res.witness) is None
            else:
                assert check_blocking_structure(inst, m, res.structure) is None
                assert delta(inst, m, res.better) == res.margin >= 1


def test_one_weight_pass_per_popular_decide(monkeypatch):
    calls = []
    for module in (auxgraph, popularity):
        raw = module._weights
        monkeypatch.setattr(module, "_weights", lambda *a, raw=raw: calls.append(a) or raw(*a))
    popular = 0
    for inst, m in analysis_cases():
        calls.clear()
        if is_popular(inst, m).popular:
            popular += 1
            assert len(calls) == 1
    assert popular


def test_build_aux_leaves_the_matching_check_to_the_weight_pass(monkeypatch, two_triangles):
    # still bound, so outside tracers can wrap it by name
    assert auxgraph.check_matching is model.check_matching

    def refuse(*args):
        raise AssertionError("build_aux called check_matching")

    monkeypatch.setattr(auxgraph, "check_matching", refuse)
    inst, m = two_triangles
    assert np.array_equal(build_aux(inst, m).weights, model._weights(inst, m))


def test_decides_name_a_pair_that_is_no_edge():
    inst = RoommatesInstance(((1, 2), (0, 2), (0, 1), ()))
    m = Matching((3, None, None, 0))  # 0-3 is no edge
    for call in (is_popular, is_fractional_popular, blocking_edges):
        with pytest.raises(PairError, match=r"^pair \(0, 3\) is not an edge of the instance$"):
            call(inst, m)
        with pytest.raises(ValueError, match="^matching size does not fit the instance$"):
            call(inst, Matching((None,) * 3))


UNPOPULAR = (TWO_TRIANGLES_PENDANTS, TWO_TRIANGLES_PENDANTS_M)
NOT_FRACTIONAL = (TRIANGLE_PENDANT, TRIANGLE_PENDANT_M)
PATH_INTO_CYCLE = (TWO_TRIANGLES, TWO_TRIANGLES_M)


# a builder the decide calls is swapped for wrong(raw, m), raw being the
# builder itself; the decide's self-check must catch what it returns
@pytest.mark.parametrize(
    "decide, case, module, name, wrong, message",
    [
        (
            is_popular, UNPOPULAR, popularity, "extract_blocking_structure",
            lambda raw, m: lambda *a: BlockingStructure("bogus", raw(*a).nodes),
            "constructed blocking structure is invalid: unknown kind 'bogus'",
        ),
        (
            is_popular, UNPOPULAR, popularity, "more_popular_matching",
            lambda raw, m: lambda *a: m,
            "switched matching wins by 0, expected at least 1",
        ),
        (
            is_fractional_popular, UNPOPULAR, fractional, "half_from_matching",
            lambda raw, m: lambda inst, better: raw(inst, m),
            "lifted matching scores 0, expected 4",
        ),
        (
            is_fractional_popular, NOT_FRACTIONAL, fractional, "extract_fractional_structure",
            lambda raw, m: lambda *a: replace(raw(*a), middle=1),
            "constructed fractional structure is invalid: cycle does not start at the middle",
        ),
        (
            is_fractional_popular, NOT_FRACTIONAL, fractional, "structure_to_fractional_matching",
            lambda raw, m: lambda *a: HalfIntegralMatching([(0, 1), (0, 2)], [3], ()),
            "constructed half-integral matching is invalid: "
            "node 0 is covered 4/2 times, expected exactly 1",
        ),
        (
            is_fractional_popular, NOT_FRACTIONAL, fractional, "structure_to_fractional_matching",
            lambda raw, m: lambda inst, m_, s: fractional.half_from_matching(inst, m),
            "fractional structure scores 0, expected 2",
        ),
        (
            is_fractional_popular, PATH_INTO_CYCLE, fractional, "even_path_from_roots",
            lambda raw, m: lambda *a: None,
            "cycle root unreachable outside its component",
        ),
    ],
    ids=[
        "blocking-kind", "switch-margin", "lift-score",
        "structure-middle", "half-cover", "structure-score", "cycle-root-path",
    ],
)
def test_decide_self_checks_raise(monkeypatch, decide, case, module, name, wrong, message):
    inst, m = case
    monkeypatch.setattr(module, name, wrong(getattr(module, name), m))
    with pytest.raises(InternalError, match=f"^{re.escape(message)}$"):
        decide(inst, m)


def test_blocking_structure_extraction_guards():
    # hand-built paths over the auxiliary graph: the star node of middle 3
    # (leaves 4 and 5) and the matched pair 4-5 between
    inst, m = UNPOPULAR
    aux = build_aux(inst, m)
    star = int(np.flatnonzero(aux.kind == KIND_STAR)[0])
    for path, message in (
        ((star,), "augmenting path too short"),
        ((star, star), "augmenting path between blocking nodes has no matched interior"),
        ((star, 4, 5, star), "both path endpoints are pinned to one blocking partner"),
    ):
        with pytest.raises(InternalError, match=f"^{message}$"):
            extract_blocking_structure(inst, m, aux, path)
