"""The benchmark's tracer wraps popmatch's cross-module names by path.

A name that a change deletes or renames would otherwise surface only in a
traced benchmark run.
"""

import importlib.util
from pathlib import Path

import popmatch
import popmatch.cli  # noqa: F401  (the tracer wraps names in popmatch.cli)


def _spans_module():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_names_resolve():
    spans = _spans_module()
    tracer = spans.Tracer(popmatch)  # raises on any name it cannot find
    assert len(tracer._patches) == len(spans.TARGETS)
    raw = popmatch.popularity.build_aux
    tracer.begin("check")
    assert popmatch.popularity.build_aux is not raw
    tracer.end()
    assert popmatch.popularity.build_aux is raw
