"""The certificate writer against the dict builder it replaced.

`document_to_json` writes a verdict's certificate straight from its
arrays. Each test compares that text byte for byte with
`json.dumps(reference_document(res), sort_keys=True) + "\\n"`, and the
dict `result_to_document` reads back with the reference dict.
"""

import json
import random

import numpy as np
import pytest

from conftest import (
    TRIANGLE_PENDANT,
    TRIANGLE_PENDANT_M,
    TWO_TRIANGLES,
    TWO_TRIANGLES_M,
    TWO_TRIANGLES_PENDANTS,
    TWO_TRIANGLES_PENDANTS_M,
)
from helpers import analysis_cases, gadget_cases, reference_document
from popmatch.formats import document_to_json, result_to_document
from popmatch.fractional import (
    FractionalPopular,
    NotFractionalPopular,
    is_fractional_popular,
)
from popmatch.model import HalfIntegralMatching, Matching
from popmatch.popularity import BlockingStructure, DualWitness, Popular, Unpopular, is_popular

BIG = 2**70  # beyond int64: only outside input holds such a value


def _same(res) -> str:
    ref = reference_document(res)
    text = document_to_json(res)
    assert text == json.dumps(ref, sort_keys=True) + "\n"
    assert result_to_document(res) == ref
    return text


def _not_fractional(p, **kw) -> NotFractionalPopular:
    return NotFractionalPopular(
        structure=kw.get("structure"), p=p, value_times_two=2, from_unpopular=kw.get("unpop")
    )


@pytest.mark.parametrize("n", [0, 1, 9, 10, 11, 99, 100, 101, 1000])
def test_alpha_keys_follow_string_order(n):
    rng = random.Random(n)
    w = DualWitness([rng.choice((-1, 0, 1)) for _ in range(n)], ())
    _same(Popular(w))
    _same(FractionalPopular(w))
    # "10" sorts before "2", as json's sort_keys puts them
    assert list(result_to_document(Popular(w))["witness"]["alpha"]) == sorted(map(str, range(n)))


def test_values_beyond_int64_are_written_exactly():
    w = DualWitness([BIG, -BIG, 0, 2**63 - 1, -(2**63)], [[1, BIG, 3], [-BIG, 4, 2]])
    assert w.alpha_array.dtype == object and w.set_nodes.dtype == object
    _same(Popular(w))
    p = HalfIntegralMatching([(0, BIG), (-BIG, 5)], [BIG, 1], [(BIG, 1, 2)])
    assert p.ones_array.dtype == object and p.cycle_nodes.dtype == object
    _same(_not_fractional(p))
    # int64's extremes stay in an int64 array
    w = DualWitness([2**63 - 1, -(2**63), -1, 0, 1, -10, 10, -99], [[-(2**63), 2**63 - 1, 0]])
    assert w.alpha_array.dtype == np.int64
    _same(Popular(w))


def test_empty_parts():
    _same(_not_fractional(HalfIntegralMatching([], [], [])))
    _same(_not_fractional(HalfIntegralMatching([], [0, 1, 2], [])))
    _same(Popular(DualWitness([0, 0, 0], [])))
    # an empty set, which only a hand-built witness holds, comes first
    _same(Popular(DualWitness([0, 0, 0], [[0, 1, 2], []])))
    _same(Popular(DualWitness([0], [[], []])))


@pytest.mark.parametrize(
    "ones",
    [
        [(0, 1)],
        [(3, 12345), (0, 5), (7, 100), (99999, 100000), (-12, 9), (-3, -7)],
        [(v, v + 1) for v in range(0, 240, 2)],
    ],
)
def test_pairs_of_every_width(ones):
    _same(_not_fractional(HalfIntegralMatching(ones, [2], [(3, 4, 5), (10, 11, 12, 13, 14)])))
    flat = [v for pair in ones for v in pair]
    if min(flat) >= 0:  # a matching holds node ids
        partner = [None] * (max(flat) + 1)
        for u, v in ones:
            partner[u], partner[v] = v, u
        s = BlockingStructure(kind="path-to-unmatched", nodes=(0, 1, 2))
        _same(Unpopular(structure=s, better=Matching(partner), margin=1))


@pytest.mark.parametrize("kind", ["cycle", "path-two-blocking", "path-to-unmatched"])
def test_blocking_structure_kinds(kind):
    unpop = Unpopular(
        structure=BlockingStructure(kind=kind, nodes=(4, 0, 3, 1)),
        better=Matching((3, None, None, 0, None)),
        margin=12,
    )
    _same(unpop)
    _same(_not_fractional(HalfIntegralMatching([(0, 3)], [1, 2, 4], []), unpop=unpop))


def test_every_verdict_of_the_corpus_matches_the_reference():
    gadgets = [
        (TRIANGLE_PENDANT, TRIANGLE_PENDANT_M),
        (TWO_TRIANGLES, TWO_TRIANGLES_M),
        (TWO_TRIANGLES_PENDANTS, TWO_TRIANGLES_PENDANTS_M),
    ]
    seen = set()
    for inst, m in gadgets + list(analysis_cases()[:30]) + list(gadget_cases(20, 5, gadgets)):
        for decide in (is_popular, is_fractional_popular):
            res = decide(inst, m)
            _same(res)
            doc = reference_document(res)
            structure = doc.get("fractional_structure", {}).get("kind")
            seen.add((doc["verdict"], structure, "better_matching" in doc))
    assert seen == {
        ("popular", None, False),
        ("fractional-popular", None, False),
        ("unpopular", None, True),
        ("not-fractional-popular", "cycle-through-star", False),
        ("not-fractional-popular", "path-plus-cycle", False),
        ("not-fractional-popular", None, True),  # the rival lifted from an unpopular verdict
    }


def test_a_dict_is_written_by_json():
    doc = {"oracle": [{"check": "popularity", "agree": True}], "b": {"z": 1, "a": [2]}}
    assert document_to_json(doc) == json.dumps(doc, sort_keys=True) + "\n"
    with pytest.raises(TypeError, match="not a verdict object"):
        result_to_document(doc)
