"""Certificates stay byte for byte what popmatch wrote before.

A refactor of the search, the decomposition or the certificate builders
must leave every emitted document unchanged.  The test hashes the JSON
of both decisions over a fixed corpus, in order, and compares the
digest with the one recorded when the test was written.  A change that
is meant to alter certificates must record the new digest here and say
why.
"""

import hashlib

from conftest import (
    TRIANGLE_PENDANT,
    TRIANGLE_PENDANT_M,
    TWO_TRIANGLES,
    TWO_TRIANGLES_M,
    TWO_TRIANGLES_PENDANTS,
    TWO_TRIANGLES_PENDANTS_M,
)
from helpers import analysis_cases, gadget_cases
from popmatch.formats import document_to_json, result_to_document
from popmatch.fractional import is_fractional_popular
from popmatch.popularity import is_popular

DIGEST = "86ede32c4e2417cda39989e2904af4f9c3db4e8269eb3e366c2942f779e2c735"


def test_certificates_are_byte_identical():
    gadgets = [
        (TRIANGLE_PENDANT, TRIANGLE_PENDANT_M),
        (TWO_TRIANGLES, TWO_TRIANGLES_M),
        (TWO_TRIANGLES_PENDANTS, TWO_TRIANGLES_PENDANTS_M),
    ]
    h = hashlib.sha256()
    verdicts = set()
    for inst, m in list(analysis_cases()) + list(gadget_cases(60, 13, gadgets)):
        for decide in (is_popular, is_fractional_popular):
            doc = result_to_document(decide(inst, m))
            h.update(document_to_json(doc).encode())
            verdicts.add(doc["verdict"])
    # the corpus reaches every verdict, so every certificate kind is pinned
    assert verdicts == {"popular", "unpopular", "fractional-popular", "not-fractional-popular"}
    assert h.hexdigest() == DIGEST
