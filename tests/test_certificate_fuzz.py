"""Mutated certificate documents against the verifier.

Each example takes a document popmatch wrote (popular, fractional-popular,
or not-fractional-popular with a structure or a lifted rival), applies
one to three mutations, and re-verifies it through the JSON reader. The
verifier must never raise: it either rejects the document with a message
or accepts it, and then the verdict the document claims must hold by
popmatch's own decisions on the same matching.
"""

import copy
import json
import random

from hypothesis import event, given, settings
from hypothesis import strategies as st

from conftest import TRIANGLE_PENDANT, TRIANGLE_PENDANT_M, TWO_TRIANGLES, TWO_TRIANGLES_M
from helpers import partner_first_instance, random_instance, tiled
from popmatch.formats import VERDICTS, parse_certificate, result_to_document, verify_certificate
from popmatch.fractional import is_fractional_popular
from popmatch.generator import greedy_matching
from popmatch.popularity import is_popular

# what each verdict claims: (popular, fractional popular), None where it says nothing
CLAIMS = {
    "popular": (True, None),
    "unpopular": (False, None),
    "fractional-popular": (None, True),
    "not-fractional-popular": (None, False),
}
ODD_VALUES = [True, False, 1.0, 2.5, "3", None, 2**63, -(2**63) - 1, 10**30]


def _corpus() -> list:
    rng = random.Random(3)
    gadgets = [(TRIANGLE_PENDANT, TRIANGLE_PENDANT_M), (TWO_TRIANGLES, TWO_TRIANGLES_M)]
    pairs = [tiled(rng, [rng.choice(gadgets) for _ in range(3)]) for _ in range(3)]
    pairs += [partner_first_instance(rng, 8, 0.5) for _ in range(2)]
    for _ in range(3):
        inst = random_instance(rng, 9, 0.5)
        pairs.append((inst, greedy_matching(inst)))
    corpus = []
    for inst, m in pairs:
        truth = (is_popular(inst, m).popular, is_fractional_popular(inst, m).popular)
        for decide in (is_popular, is_fractional_popular):
            doc = json.loads(json.dumps(result_to_document(decide(inst, m))))
            assert verify_certificate(inst, m, doc) is None
            corpus.append((inst, m, doc, truth))
    verdicts = {doc["verdict"] for _, _, doc, _ in corpus}
    assert verdicts == set(VERDICTS)
    assert any("fractional_structure" in doc for _, _, doc, _ in corpus)
    return corpus


CORPUS = _corpus()


def _slots(doc) -> tuple:
    """The document's int lists, its lists of lists and its dicts, in tree order."""
    ints, nested, dicts = [], [], []

    def walk(x):
        if isinstance(x, dict):
            dicts.append(x)
            for v in x.values():
                walk(v)
        elif isinstance(x, list):
            if x and all(isinstance(v, list) for v in x):
                nested.append(x)
            if any(type(v) is int for v in x):
                ints.append(x)
            for v in x:
                walk(v)

    walk(doc)
    return ints, nested, dicts


def _mutate(doc, draw, n: int) -> None:
    ints, nested, dicts = _slots(doc)
    move = draw(st.sampled_from(
        ["drop", "duplicate", "swap", "replace", "odd", "reorder", "rotate", "reverse",
         "move", "alpha", "scalar", "verdict"]
    ))
    if move in ("drop", "duplicate", "swap", "replace", "odd", "rotate", "reverse") and ints:
        seq = draw(st.sampled_from(ints))
        i = draw(st.integers(0, len(seq) - 1))
        j = draw(st.integers(0, len(seq) - 1))
        if move == "drop":
            del seq[i]
        elif move == "duplicate":
            seq.insert(j, seq[i])
        elif move == "swap":
            seq[i], seq[j] = seq[j], seq[i]
        elif move == "replace":
            seq[i] = draw(st.integers(-1, n))
        elif move == "odd":
            seq[i] = draw(st.sampled_from(ODD_VALUES))
        elif move == "rotate":
            seq[:] = seq[i:] + seq[:i]
        else:
            seq.reverse()
    elif move == "reorder" and nested:
        seq = draw(st.sampled_from(nested))
        seq[:] = draw(st.permutations(seq))
    elif move == "move" and "witness" in doc and len(doc["witness"]["two_sets"]) > 1:
        sets = doc["witness"]["two_sets"]
        src, dst = draw(st.permutations(range(len(sets))))[:2]
        if sets[src]:
            sets[dst].append(sets[src].pop(draw(st.integers(0, len(sets[src]) - 1))))
    elif move == "alpha" and "witness" in doc:
        alpha = doc["witness"]["alpha"]
        key = str(draw(st.integers(-1, n)))
        alpha[key] = draw(st.sampled_from([-1, 0, 1, 2, -2] + ODD_VALUES))
        if draw(st.booleans()):
            alpha.pop(draw(st.sampled_from(sorted(alpha))))
    elif move == "scalar":
        keys = [k for k in ("margin", "value_times_two", "middle") for d in dicts if k in d]
        if keys:
            key = draw(st.sampled_from(keys))
            holder = next(d for d in dicts if key in d)
            holder[key] = draw(st.sampled_from([0, 1, 2, 3, 4, -1] + ODD_VALUES))
    elif move == "verdict":
        doc["verdict"] = draw(st.sampled_from(VERDICTS))


@given(st.data())
@settings(max_examples=400, deadline=None)
def test_mutated_certificates_verify_soundly_or_are_rejected(data):
    inst, m, base, (popular, fractional) = data.draw(st.sampled_from(CORPUS))
    doc = copy.deepcopy(base)
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(doc, data.draw, inst.n)
    msg = verify_certificate(inst, m, parse_certificate(json.dumps(doc)))
    event("rejected" if msg is not None else f"accepted as {doc['verdict']}")
    if msg is not None:
        assert isinstance(msg, str) and msg
        return
    claim_popular, claim_fractional = CLAIMS[doc["verdict"]]
    assert claim_popular in (None, popular)
    assert claim_fractional in (None, fractional)
