"""Certificates stay byte for byte what popmatch wrote before.

A refactor of the search, the decomposition or the certificate builders
must leave every emitted document unchanged.  Each test hashes the JSON
of both decisions over a fixed corpus, in order, and compares the
digest with the one recorded when the test was written.  A change that
is meant to alter certificates must record the new digest here and say
why.  The corpora are hashed twice: as the text of the document dict,
and as the text the CLI prints, which the writer makes straight from
the verdict's arrays.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

from conftest import (
    TRIANGLE_PENDANT,
    TRIANGLE_PENDANT_M,
    TWO_TRIANGLES,
    TWO_TRIANGLES_M,
    TWO_TRIANGLES_PENDANTS,
    TWO_TRIANGLES_PENDANTS_M,
)
from helpers import analysis_cases, gadget_cases
from popmatch.formats import document_to_json, parse_instance, parse_matching, result_to_document
from popmatch.fractional import is_fractional_popular
from popmatch.popularity import is_popular

DIGEST = "86ede32c4e2417cda39989e2904af4f9c3db4e8269eb3e366c2942f779e2c735"
WORKLOAD_DIGEST = "59a7d4ebd29f2d8176d5f9b2fc9af73fa02ff5443a89ab97cf77747e8425abba"


def _corpus() -> list:
    gadgets = [
        (TRIANGLE_PENDANT, TRIANGLE_PENDANT_M),
        (TWO_TRIANGLES, TWO_TRIANGLES_M),
        (TWO_TRIANGLES_PENDANTS, TWO_TRIANGLES_PENDANTS_M),
    ]
    return list(analysis_cases()) + list(gadget_cases(60, 13, gadgets))


def _printed_digest(cases) -> str:
    """Digest of the text the CLI prints for both decisions over cases."""
    h = hashlib.sha256()
    for inst, m in cases:
        for decide in (is_popular, is_fractional_popular):
            text = document_to_json(decide(inst, m))
            assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"
            h.update(text.encode())
    return h.hexdigest()


def test_certificates_are_byte_identical():
    h = hashlib.sha256()
    verdicts = set()
    for inst, m in _corpus():
        for decide in (is_popular, is_fractional_popular):
            doc = result_to_document(decide(inst, m))
            h.update(document_to_json(doc).encode())
            verdicts.add(doc["verdict"])
    # the corpus reaches every verdict, so every certificate kind is pinned
    assert verdicts == {"popular", "unpopular", "fractional-popular", "not-fractional-popular"}
    assert h.hexdigest() == DIGEST


def test_printed_certificates_are_byte_identical():
    assert _printed_digest(_corpus()) == DIGEST


def _workloads_module():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks the module up by name
    spec.loader.exec_module(module)
    return module


def _workload_cases():
    """The benchmark's three workloads at a tenth of their size, seeds 1-3, parsed from text."""
    w = _workloads_module()
    for seed in (1, 2, 3):
        sized = (w.dense_gnp(25_000, seed), w.dominant(1_000, 10_000, seed), w.gadgets(3_000, seed))
        for inp in sized:
            inst = parse_instance(w.instance_text(inp))
            yield inst, parse_matching(w.matching_text(inp), inst)


def test_workload_certificates_are_byte_identical():
    h = hashlib.sha256()
    verdicts = set()
    for inst, m in _workload_cases():
        for decide in (is_popular, is_fractional_popular):
            doc = result_to_document(decide(inst, m))
            h.update(document_to_json(doc).encode())
            verdicts.add(doc["verdict"])
    assert verdicts == {"popular", "unpopular", "fractional-popular", "not-fractional-popular"}
    assert h.hexdigest() == WORKLOAD_DIGEST


def test_printed_workload_certificates_are_byte_identical():
    assert _printed_digest(_workload_cases()) == WORKLOAD_DIGEST
