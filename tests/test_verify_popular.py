"""The verifier's popular path: the alpha key reader, the weight pass that
checks M, and certificate JSON that json itself refuses."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import test_certificate_digest
from popmatch import formats
from popmatch.formats import ParseError, _witness_from, parse_certificate, result_to_document
from popmatch.fractional import is_fractional_popular
from popmatch.model import Matching, RoommatesInstance
from popmatch.popularity import DualWitness, is_popular

KEYS = st.one_of(
    st.sampled_from(["", "00", " 0", "1 2", "0", "1", "10"]),
    st.text("019 -+٣３", max_size=4),  # with an Arabic-Indic and a fullwidth 3
)
VALUES = st.sampled_from([-2, -1, 0, 1, 2, True, 1.0, "1", 10**30])


def expected_defect(alpha: dict, n: int) -> str | None:
    """The message the per-key and per-value rules give, in their order."""
    for key in alpha:
        if not re.fullmatch("0|[1-9][0-9]*", key) or int(key) >= n:
            if re.fullmatch("0|-?[1-9][0-9]*", key):
                return f"alpha key {key!r} is out of range"
            return f"alpha key {key!r} is not a canonical node id"
    if any(type(v) is not int for v in alpha.values()):
        return "alpha values must be integers"
    if any(v not in (-1, 0, 1) for v in alpha.values()):
        return "alpha value outside {-1, 0, 1}"
    return None


@given(st.dictionaries(KEYS, VALUES, max_size=6), st.integers(0, 12))
@settings(max_examples=600, deadline=None)
def test_alpha_keys_read_as_the_per_key_rules_say(alpha, n):
    w = _witness_from({"alpha": alpha, "two_sets": []}, n)
    expected = expected_defect(alpha, n)
    if expected is not None:
        assert w == expected
        return
    assert isinstance(w, DualWitness)
    want = np.zeros(n, dtype=np.int64)
    for key, v in alpha.items():
        want[int(key)] = v
    np.testing.assert_array_equal(w.alpha_array, want)


def test_an_alpha_key_past_the_int_string_limit_is_out_of_range():
    key = "1" * 5000
    w = _witness_from({"alpha": {"0": 1, key: -1}, "two_sets": []}, 3)
    assert w == f"alpha key {key!r} is out of range"


@pytest.mark.parametrize(
    "text",
    ['{"verdict": ' + "1" * 5000 + "}", "[" * 100_000],
    ids=["int-past-the-limit", "deep-nesting"],
)
def test_certificate_json_that_json_refuses(text):
    with pytest.raises(ParseError, match="^bad certificate JSON: "):
        parse_certificate(text)


# 0-3 is no edge of this instance
NO_EDGE = RoommatesInstance(((1, 2), (0, 2), (0, 1), ()))
NO_EDGE_M = Matching((3, None, None, 0))
DOCS = [
    {"verdict": "popular", "witness": {"alpha": {"0": 1}, "two_sets": []}},
    {"verdict": "popular", "witness": "not a witness"},
    {"verdict": "fractional-popular", "witness": {"alpha": {"00": 5}, "two_sets": [[9]]}},
    {"verdict": "unpopular"},
    ["not", "an", "object"],
    None,
]


@pytest.mark.parametrize("doc", DOCS)
def test_a_bad_matching_is_named_before_the_document(doc):
    assert formats.verify_certificate(NO_EDGE, NO_EDGE_M, doc) == (
        "pair (0, 3) is not an edge of the instance"
    )
    wrong_size = Matching((None,) * 3)
    assert formats.verify_certificate(NO_EDGE, wrong_size, doc) == (
        "matching size does not fit the instance"
    )


def test_only_popular_documents_run_the_weight_pass(monkeypatch):
    # the other verdicts keep check_matching, which costs less on dense inputs
    def refuse(inst, m):
        raise AssertionError("the weight pass ran")

    cases = list(test_certificate_digest._workload_cases())
    docs = [
        (inst, m, result_to_document(decide(inst, m)))
        for inst, m in cases
        for decide in (is_popular, is_fractional_popular)
    ]
    monkeypatch.setattr(formats, "_weights", refuse)
    verdicts = set()
    for inst, m, doc in docs:
        if doc["verdict"] in ("unpopular", "not-fractional-popular"):
            assert formats.verify_certificate(inst, m, doc) is None
            verdicts.add(doc["verdict"])
    assert verdicts == {"unpopular", "not-fractional-popular"}
