"""The benchmark's tracer wraps popmatch's cross-module names by path.

A name that a change deletes or renames, or a call the tracer's wrapper
cannot stand in for, would otherwise surface only in a traced benchmark
run.
"""

import importlib.util
import json
from pathlib import Path

import pytest

import popmatch
import popmatch.cli
from popmatch.formats import serialize_instance, serialize_matching


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
    # the package exports resolve too: a star import fails on a name __all__ lost
    namespace = {}
    exec("from popmatch import *", namespace)
    assert set(popmatch.__all__) <= namespace.keys()


@pytest.mark.parametrize(
    "command, case, code, verdict, counts",
    [
        pytest.param(
            "fractional", "triangle_pendant", 1, "not-fractional-popular", {}, id="fractional"
        ),
        # the witness and unpopular counters read w.alpha, w.two_sets and res.margin
        pytest.param(
            "witness",
            "triangle_pendant",
            0,
            "popular",
            {"popularity.odd_sets": 1, "popularity.alpha_nonzero": 4},
            id="witness",
        ),
        pytest.param(
            "check", "two_triangles_pendants", 1, "unpopular", {"popularity.margin": 2}, id="check"
        ),
    ],
)
def test_traced_verdict_records_the_parse_spans(
    tmp_path, capsys, request, command, case, code, verdict, counts
):
    inst, m = request.getfixturevalue(case)
    ipath, mpath = tmp_path / "inst.txt", tmp_path / "match.txt"
    ipath.write_text(serialize_instance(inst))
    mpath.write_text(serialize_matching(m))
    tracer = _spans_module().Tracer(popmatch)
    tracer.begin("verdict")
    try:
        got = popmatch.cli.main([command, "-i", str(ipath), "-m", str(mpath), "--json"])
    finally:
        tracer.end()
    assert got == code, capsys.readouterr().err
    assert json.loads(capsys.readouterr().out)["verdict"] == verdict
    recorded = {span[0] for span in tracer.spans}
    assert {"formats.parse_instance", "model.instance", "formats.parse_matching"} <= recorded
    metrics = tracer.metrics("verdict")
    assert metrics["model.instance_s"] > 0
    for name, value in counts.items():
        assert metrics[name] == value
