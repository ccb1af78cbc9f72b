import copy
import random

import numpy as np
import pytest

from popmatch.formats import (
    ParseError,
    document_to_json,
    parse_certificate,
    parse_instance,
    parse_matching,
    result_to_document,
    serialize_instance,
    serialize_matching,
    verify_certificate,
)
from popmatch.fractional import is_fractional_popular
from popmatch.model import Matching, RoommatesInstance
from popmatch.popularity import is_popular

from conftest import TWO_TRIANGLES, TWO_TRIANGLES_M
from helpers import tiled


def roundtrip(res):
    return parse_certificate(document_to_json(result_to_document(res)))


def test_instance_round_trip(two_triangles_pendants):
    inst, _ = two_triangles_pendants
    assert parse_instance(serialize_instance(inst)) == inst
    lonely = RoommatesInstance(((1,), (0,), ()))
    assert parse_instance(serialize_instance(lonely)) == lonely
    assert parse_instance("0\n") == RoommatesInstance(())
    # pref is read from the checked arrays, so a bool or a numpy int in the
    # given rows is written as the int it stands for
    mixed = RoommatesInstance(((True, np.int64(2)), (0,), (np.int32(0),)))
    assert serialize_instance(mixed) == "3\n1 2\n0\n0\n"
    assert parse_instance(serialize_instance(mixed)) == mixed


def test_instance_comments_and_blanks():
    text = "# header\n\n3\n1 2  # best first\n0\n0\n\n\n"
    assert parse_instance(text) == RoommatesInstance(((1, 2), (0,), (0,)))


def test_crlf_tabs_and_comments(triangle_pendant):
    text = "# c\r\n3 # count\r\n1\t2\r\n\t# aside\r\n0  # é\r\n0"
    assert parse_instance(text) == RoommatesInstance(((1, 2), (0,), (0,)))
    assert parse_instance("3\n1\n0\n\n") == RoommatesInstance(((1,), (0,), ()))
    inst, m = triangle_pendant
    assert parse_matching("1\t0\r\n# none\r\n 3 2 \r\n", inst) == m


@pytest.mark.parametrize(
    "text, expected",
    [
        ("+3\n", "line 1, column 1: expected an integer, got '+3'"),
        ("2\n1_0\n0\n", "line 2, column 1: expected an integer, got '1_0'"),
        ("2\n\u0661\n0\n", "line 2, column 1: expected an integer, got '\u0661'"),
        ("2\n1\x0c\n0\n", "line 2, column 1: expected an integer, got '1\\x0c'"),
        ("2\n1\r0\n", "line 2, column 1: expected an integer, got '1\\r0'"),
        ("2\n1\n0\r", "line 3, column 1: expected an integer, got '0\\r'"),
        ("2\n 1 -\n0\n", "line 2, column 4: expected an integer, got '-'"),
        ("2\n1\n0 1-\n", "line 3, column 3: expected an integer, got '1-'"),
        ("2\n1 99999999999999999999999\n0\n",
         "line 2: node 0 lists 99999999999999999999999, out of range"),
    ],
)
def test_instance_grammar_is_strict(text, expected):
    with pytest.raises(ParseError) as err:
        parse_instance(text)
    assert str(err.value) == expected


def test_parse_instance_errors():
    cases = [
        ("", "missing the node count line"),
        ("2 3\n", "line 1: expected only the node count"),
        ("-1\n", "line 1: negative node count -1"),
        ("x\n", "line 1, column 1: expected an integer, got 'x'"),
        ("2\n1\n", "expected 2 preference lines, found 1"),
        ("2\n1\n0\n1\n", "expected 2 preference lines, found 3"),
        ("2\n1 q\n0\n", "line 2, column 3: expected an integer, got 'q'"),
        ("2\n1 5\n0\n", "line 2: node 0 lists 5, out of range"),
        ("2\n0\n\n", "line 2: node 0 lists itself"),
        ("3\n1 1\n0\n\n", "line 2: node 0 lists 1 twice"),
        ("2\n1\n\n", "line 2: node 0 lists 1 but 1 does not list 0 back"),
    ]
    for text, expected in cases:
        with pytest.raises(ParseError) as err:
            parse_instance(text)
        assert expected in str(err.value), (text, str(err.value))


def test_matching_round_trip(two_triangles_pendants):
    inst, m = two_triangles_pendants
    assert parse_matching(serialize_matching(m), inst) == m
    assert serialize_matching(Matching.empty(3)) == ""
    assert parse_matching("# nothing\n", inst) == Matching.empty(inst.n)
    assert parse_matching("1 0 # pair\n", inst).pairs() == ((0, 1),)


def test_parse_matching_errors(triangle_pendant):
    inst, _ = triangle_pendant
    cases = [
        ("0\n", "line 1: expected exactly two node ids"),
        ("0 9\n", "line 1: node 9 is out of range"),
        ("0 1\n1 2\n", "line 2: node 1 already matched on line 1"),
        ("0 0\n", "line 1: node 0 already matched on line 1"),
        ("0 3\n", "line 1: pair 0 3 is not an instance edge"),
    ]
    for text, expected in cases:
        with pytest.raises(ParseError) as err:
            parse_matching(text, inst)
        assert expected in str(err.value), (text, str(err.value))


@pytest.mark.parametrize(
    "text, expected",
    [
        ("0 +1\n", "line 1, column 3: expected an integer, got '+1'"),
        ("0 1\n2 3_\n", "line 2, column 3: expected an integer, got '3_'"),
        ("0 1\n2 99999999999999999999\n", "line 2: node 99999999999999999999 is out of range"),
        ("0 1\n\n2 0\n", "line 3: node 0 already matched on line 1"),
    ],
)
def test_parse_matching_grammar(triangle_pendant, text, expected):
    inst, _ = triangle_pendant
    with pytest.raises(ParseError) as err:
        parse_matching(text, inst)
    assert str(err.value) == expected


def test_parse_matching_looks_edges_up_once(monkeypatch):
    # a perfect matching of 1,000 disjoint edges; its last line reuses node 0
    n = 2000
    inst = RoommatesInstance(tuple((v ^ 1,) for v in range(n)))
    lines = [f"{u} {u + 1}" for u in range(0, n - 2, 2)] + [f"0 {n - 1}"]
    calls = []
    has_edges = RoommatesInstance.has_edges

    def counted(self, us, vs):
        calls.append(len(us))
        return has_edges(self, us, vs)

    monkeypatch.setattr(RoommatesInstance, "has_edges", counted)
    with pytest.raises(ParseError, match="^line 1000: node 0 already matched on line 1$"):
        parse_matching("\n".join(lines) + "\n", inst)
    assert len(calls) <= 1


def test_certificate_round_trips(
    two_triangles_pendants, triangle_pendant, two_triangles, swap_square
):
    happy = RoommatesInstance(((1, 2), (0, 3), (3, 0), (2, 1)))
    happy_m = Matching.from_pairs(happy, [(0, 1), (2, 3)])
    for inst, m in (
        two_triangles_pendants,
        triangle_pendant,
        two_triangles,
        swap_square,
        (happy, happy_m),
    ):
        for res in (is_popular(inst, m), is_fractional_popular(inst, m)):
            doc = roundtrip(res)
            assert verify_certificate(inst, m, doc) is None, doc


def test_witness_doc_covers_every_node(triangle_pendant):
    inst, m = triangle_pendant
    doc = result_to_document(is_popular(inst, m))
    assert doc["verdict"] == "popular"
    assert sorted(doc["witness"]["alpha"]) == [str(v) for v in range(inst.n)]
    assert doc["witness"]["two_sets"] == [[0, 1, 2]]


def test_unpopular_doc_layout(two_triangles_pendants):
    inst, m = two_triangles_pendants
    doc = result_to_document(is_popular(inst, m))
    assert doc["verdict"] == "unpopular"
    assert doc["blocking_structure"]["kind"] == "path-two-blocking"
    assert doc["blocking_structure"]["nodes"] == [4, 3, 2, 0]
    assert doc["blocking_structure"]["blocking_edges"] == [[4, 3], [2, 0]]
    assert doc["better_matching"] == [[0, 2], [3, 4]]
    assert doc["margin"] == 2


def test_lifted_doc_layout(two_triangles_pendants):
    inst, m = two_triangles_pendants
    doc = result_to_document(is_fractional_popular(inst, m))
    assert doc["verdict"] == "not-fractional-popular"
    assert "fractional_structure" not in doc
    assert doc["value_times_two"] == 4
    assert doc["margin"] == 2
    assert doc["p"]["half_cycles"] == []
    assert verify_certificate(inst, m, doc) is None


def test_structure_doc_layout(two_triangles):
    inst, m = two_triangles
    doc = result_to_document(is_fractional_popular(inst, m))
    fs = doc["fractional_structure"]
    assert fs == {
        "kind": "path-plus-cycle",
        "path": [0, 2, 3],
        "cycle": [3, 5, 4],
        "blocking_edge": [0, 2],
    }
    assert doc["p"] == {
        "ones": [[0, 2]],
        "loop_ones": [1],
        "half_cycles": [[3, 4, 5]],
    }
    assert doc["value_times_two"] == 2


def test_parse_certificate_errors():
    with pytest.raises(ParseError, match="bad certificate JSON"):
        parse_certificate("{nope")
    with pytest.raises(ParseError, match="must be a JSON object"):
        parse_certificate("[1, 2]")
    with pytest.raises(ParseError, match="unknown verdict 'maybe'"):
        parse_certificate('{"verdict": "maybe"}')


@pytest.mark.parametrize("doc", [[], [1, 2], "popular", 3, None])
def test_verify_rejects_a_non_object_document(triangle_pendant, doc):
    inst, m = triangle_pendant
    assert verify_certificate(inst, m, doc) == "certificate must be a JSON object"


def test_verify_rejects_tampered_popular(triangle_pendant):
    inst, m = triangle_pendant
    doc = roundtrip(is_popular(inst, m))

    bad = copy.deepcopy(doc)
    bad["witness"]["alpha"]["2"] = -1
    assert "undercovered" in verify_certificate(inst, m, bad)

    bad = copy.deepcopy(doc)
    bad["witness"]["alpha"]["-1"] = 1
    assert "out of range" in verify_certificate(inst, m, bad)

    bad = copy.deepcopy(doc)
    del bad["witness"]["two_sets"]
    assert "alpha and two_sets" in verify_certificate(inst, m, bad)

    bad = copy.deepcopy(doc)
    bad["verdict"] = "fractional-popular"
    assert "no two-valued sets" in verify_certificate(inst, m, bad)

    assert verify_certificate(inst, Matching.empty(inst.n), doc) is not None
    assert verify_certificate(inst, Matching.empty(inst.n + 1), doc) == (
        "matching size does not fit the instance"
    )


def test_verify_rejects_tampered_unpopular(two_triangles_pendants):
    inst, m = two_triangles_pendants
    doc = roundtrip(is_popular(inst, m))

    bad = copy.deepcopy(doc)
    bad["blocking_structure"]["nodes"] = [4, 3, 2, 1]
    assert "not blocking" in verify_certificate(inst, m, bad)

    bad = copy.deepcopy(doc)
    bad["blocking_structure"]["blocking_edges"] = [[4, 3]]
    assert "blocking_edges do not match" in verify_certificate(inst, m, bad)

    bad = copy.deepcopy(doc)
    bad["margin"] = 1
    assert "wins by 2, not 1" in verify_certificate(inst, m, bad)

    bad = copy.deepcopy(doc)
    bad["margin"] = 0
    assert "does not certify a defeat" in verify_certificate(inst, m, bad)

    bad = copy.deepcopy(doc)
    bad["better_matching"] = [[0, 2], [3, 4], [5, 6]]
    assert "not an edge" in verify_certificate(inst, m, bad)

    bad = copy.deepcopy(doc)
    bad["better_matching"] = [[0, 2], [3, 10**30]]
    assert "pair (3, 1000000000000000000000000000000) is not an edge" in verify_certificate(
        inst, m, bad
    )

    bad = copy.deepcopy(doc)
    bad["better_matching"] = [[0, 2], [2, 3]]
    assert "pair (2, 3) reuses a matched node" in verify_certificate(inst, m, bad)

    bad = copy.deepcopy(doc)
    del bad["blocking_structure"]
    assert "missing blocking_structure" in verify_certificate(inst, m, bad)

    for path, value, expected in (
        (("better_matching",), {"0": 2}, "better_matching is not a list"),
        (("blocking_structure", "nodes"), "6320", "blocking_structure needs kind and nodes"),
        (("blocking_structure", "kind"), None, "blocking_structure needs kind and nodes"),
    ):
        assert verify_certificate(inst, m, _tampered(doc, path, value)) == expected


def test_verify_rejects_tampered_fractional(two_triangles, two_triangles_pendants):
    inst, m = two_triangles
    doc = roundtrip(is_fractional_popular(inst, m))

    bad = copy.deepcopy(doc)
    bad["value_times_two"] = 3
    assert "p scores 2, document claims 3" in verify_certificate(inst, m, bad)

    bad = copy.deepcopy(doc)
    bad["p"]["loop_ones"] = []
    assert "covered" in verify_certificate(inst, m, bad)

    bad = copy.deepcopy(doc)
    bad["p"]["half_cycles"] = [[3, 4, 10**30]]
    assert "cycle edge (4, 1000000000000000000000000000000) is not in" in verify_certificate(
        inst, m, bad
    )

    bad = copy.deepcopy(doc)
    bad["p"]["ones"] = [[0, 2], [1, -1]]
    assert "edge (-1, 1) is not in the instance" in verify_certificate(inst, m, bad)

    bad = copy.deepcopy(doc)
    bad["fractional_structure"]["kind"] = "spiral"
    assert "unknown fractional structure kind" in verify_certificate(inst, m, bad)

    bad = copy.deepcopy(doc)
    bad["fractional_structure"]["path"] = [1, 2, 3]
    assert "declared blocking edge differs" in verify_certificate(inst, m, bad)
    bad["fractional_structure"]["blocking_edge"] = [1, 2]
    assert "edge 1-2 is not blocking" in verify_certificate(inst, m, bad)

    inst1, m1 = two_triangles_pendants
    lifted = roundtrip(is_fractional_popular(inst1, m1))
    bad = copy.deepcopy(lifted)
    bad["margin"] = 1
    assert "wins by 2, not 1" in verify_certificate(inst1, m1, bad)

    # two disjoint copies of the gadget: the verdict's switch lies in the first
    pref = TWO_TRIANGLES.pref + tuple(tuple(v + 6 for v in row) for row in TWO_TRIANGLES.pref)
    inst2 = RoommatesInstance(pref)
    m2 = Matching.from_pairs(inst2, [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9), (10, 11)])
    doc = roundtrip(is_fractional_popular(inst2, m2))
    assert doc["fractional_structure"]["path"] == [0, 2, 3]
    bad = copy.deepcopy(doc)
    bad["p"] = {  # the same switch made in the second copy instead
        "ones": [[0, 1], [2, 3], [4, 5], [6, 8]], "loop_ones": [7], "half_cycles": [[9, 10, 11]]
    }
    assert verify_certificate(inst2, m2, bad) == "p does not encode the declared structure"
    bad["p"] = {  # and in both copies
        "ones": [[0, 2], [6, 8]], "loop_ones": [1, 7], "half_cycles": [[3, 4, 5], [9, 10, 11]]
    }
    bad["value_times_two"] = 4
    assert verify_certificate(inst2, m2, bad) == "a structure certificate must score 2, not 4"


@pytest.mark.parametrize(
    "edit, expected",
    [
        (lambda ones: ones, None),
        (lambda ones: ones[:-1], "node 0 is covered 0/2 times, expected exactly 1"),
        (lambda ones: ones + [[2, 0]], "node 0 is covered 4/2 times, expected exactly 1"),
        (lambda ones: ones[1:] + [[15, 2]], "edge (2, 15) is not in the instance"),
    ],
    ids=["reordered", "dropped", "doubled", "swapped"],
)
def test_verify_reads_p_ones_in_any_order(edit, expected):
    # the stored ones arrive in order and skip the sort; out of order they take it
    inst, m = tiled(random.Random(3), [(TWO_TRIANGLES, TWO_TRIANGLES_M)] * 3)
    doc = roundtrip(is_fractional_popular(inst, m))
    ones = doc["p"]["ones"]
    assert ones == sorted(ones) and ones[0] == [0, 2] and [15, 16] in ones
    bad = copy.deepcopy(doc)
    bad["p"]["ones"] = edit([[v, u] for u, v in reversed(ones)])
    assert verify_certificate(inst, m, bad) == expected


def _tampered(doc, path, value):
    doc = copy.deepcopy(doc)
    *parents, last = path
    target = doc
    for key in parents:
        target = target[key]
    target[last] = value
    return doc


@pytest.mark.parametrize(
    "path, value, expected",
    [
        (("witness", "alpha", "0"), -1.5, "alpha values must be integers"),
        (("witness", "alpha", "0"), True, "alpha values must be integers"),
        (("witness", "alpha", "0"), "-1", "alpha values must be integers"),
        (("witness", "alpha", "0"), 10**30, "alpha value outside {-1, 0, 1}"),
        (("witness", "alpha", "-0"), -1, "alpha key '-0' is not a canonical node id"),
        (("witness", "alpha", "03"), -1, "alpha key '03' is not a canonical node id"),
        (("witness", "alpha", " 3"), -1, "alpha key ' 3' is not a canonical node id"),
        (("witness", "alpha", "4"), 0, "alpha key '4' is out of range"),
        (("witness", "alpha", "10000000000000000000000"), 0, "is out of range"),
        (("witness", "two_sets", 0, 2), 2.7, "witness contains a non-node entry"),
        (("witness", "two_sets", 0, 2), "2", "witness contains a non-node entry"),
        (("witness", "two_sets", 0, 2), True, "witness contains a non-node entry"),
        (("witness", "two_sets", 0), "012", "witness contains a non-node entry"),
        (("verdict",), "maybe", "unknown verdict 'maybe'"),
    ],
)
def test_verifier_rejects_loose_witness_documents(triangle_pendant, path, value, expected):
    inst, m = triangle_pendant
    doc = roundtrip(is_popular(inst, m))
    assert verify_certificate(inst, m, doc) is None
    assert expected in verify_certificate(inst, m, _tampered(doc, path, value))


@pytest.mark.parametrize("value", [True, 2.0, "2"])
def test_verifier_rejects_non_integer_scores(two_triangles_pendants, value):
    inst, m = two_triangles_pendants
    for res, key in (
        (is_popular(inst, m), "margin"),
        (is_fractional_popular(inst, m), "value_times_two"),
    ):
        doc = roundtrip(res)
        assert verify_certificate(inst, m, doc) is None
        bad = _tampered(doc, (key,), value)
        assert "does not certify a defeat" in verify_certificate(inst, m, bad)


@pytest.mark.parametrize(
    "path, value, expected",
    [
        (("p", "ones", 0, 1), True, "bad p edge [0, True]"),
        (("p", "ones", 0, 1), 2.0, "bad p edge [0, 2.0]"),
        (("p", "ones", 0, 1), "2", "bad p edge [0, '2']"),
        (("p", "ones", 0), [0, 2, 3], "bad p edge [0, 2, 3]"),
        (("p", "ones", 0), [0], "bad p edge [0]"),
        (("p", "ones", 0), "02", "bad p edge '02'"),
        (("p", "ones"), {"0": 2}, "p needs ones, loop_ones and half_cycles"),
        (("p", "loop_ones", 0), False, "p needs ones, loop_ones and half_cycles"),
        (("p", "loop_ones"), 1, "p needs ones, loop_ones and half_cycles"),
        (("p", "half_cycles", 0, 1), 4.0, "bad half cycle [3, 4.0, 5]"),
        (("p", "half_cycles", 0), "345", "bad half cycle '345'"),
        (("p", "ones", 0, 1), 2**63, "edge (0, 9223372036854775808) is not in the instance"),
        (("p", "loop_ones", 0), -(2**64), "loop node -18446744073709551616 is out of range"),
        (("p",), [], "p is not an object"),
        (("fractional_structure",), [], "fractional_structure is not an object"),
        (
            ("fractional_structure", "kind"),
            "cycle-through-star",
            "cycle-through-star needs cycle and middle",
        ),
    ],
)
def test_verifier_rejects_loose_half_integral_documents(two_triangles, path, value, expected):
    inst, m = two_triangles
    doc = roundtrip(is_fractional_popular(inst, m))
    assert verify_certificate(inst, m, doc) is None
    assert verify_certificate(inst, m, _tampered(doc, path, value)) == expected
