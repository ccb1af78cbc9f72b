"""The search's internal invariants, held by the tests instead of the decide.

A decide checks only its certificate, in instance terms, before it
answers.  The auxiliary matching, the forest's traces, the reachable set
and the decomposition are checked here instead, on every case of the
corpora: the auxiliary matching with `reference_validate_matching`, every trace
with `_check_alternating`, the reachable set with
`check_reach_properties`, and the pieces with `check_pieces_closed`.
"""

import numpy as np
import pytest

import popmatch.engine as engine
import popmatch.fractional as fractional
import popmatch.popularity as popularity
from conftest import TRIANGLE_PENDANT, TRIANGLE_PENDANT_M, TWO_TRIANGLES, TWO_TRIANGLES_M
from helpers import (
    _check_alternating,
    analysis_cases,
    check_pieces_closed,
    gadget_cases,
    reference_validate_matching,
)
from popmatch.engine import (
    _EVEN,
    EngineError,
    GallaiEdmonds,
    Graph,
    ReachSet,
    _trace_even,
    check_reach_properties,
    odd_cycle_through_root,
)
from popmatch.formats import document_to_json, parse_certificate, verify_certificate
from popmatch.fractional import is_fractional_popular
from popmatch.popularity import _analyze, is_popular

GADGETS = [(TRIANGLE_PENDANT, TRIANGLE_PENDANT_M), (TWO_TRIANGLES, TWO_TRIANGLES_M)]


def test_every_forest_trace_and_decomposition_passes_the_reference_checks():
    paths = traces = cycles = 0
    for inst, m in list(analysis_cases()) + list(gadget_cases(120, 11, GADGETS)):
        an = _analyze(inst, m)
        g, match = an.aux.graph, an.aux.matching
        reference_validate_matching(g, match)
        if an.aug_path is not None:
            _check_alternating(g, match, list(an.aug_path), "augmenting path")
            paths += 1
            continue
        ge, reach = an.ge, an.reach
        check_pieces_closed(g, ge)
        check_reach_properties(g, match, reach, ge, forbidden=an.aux.u_id)
        # the final forest: every even vertex traces to an exposed root
        for v in np.flatnonzero(ge.label == _EVEN).tolist():
            trace = _trace_even(match, reach.p, v)[::-1]
            assert match[trace[0]] == -1
            _check_alternating(g, match, trace, "even trace")
            traces += 1
        # every big piece, reached by the seeds or not, is one blossom based at its root
        whole = ReachSet(label=ge.label, p=reach.p)
        for k in np.flatnonzero(ge.sizes >= 3).tolist():
            root = int(ge.roots[k])
            cyc = odd_cycle_through_root(g, match, whole, ge.piece, root)
            _check_alternating(g, match, cyc, "odd cycle", closed=True)
            cycles += 1
    assert paths >= 50 and traces >= 3000 and cycles >= 300, (paths, traces, cycles)


def test_pieces_check_names_an_edge_between_two_pieces():
    # the triangle's blossom left uncontracted: three single pieces
    g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    label = np.ones(3, dtype=np.int8)
    ge = GallaiEdmonds(label=label, piece=np.arange(3), roots=np.arange(3))
    with pytest.raises(EngineError, match="^edge 0-1 joins two d-components$"):
        check_pieces_closed(g, ge)
    one = GallaiEdmonds(label=label, piece=np.zeros(3, dtype=np.int64), roots=np.zeros(1))
    check_pieces_closed(g, one)


def test_decide_runs_no_invariant_check(monkeypatch):
    """The decide's answers do not rest on the auxiliary-matching, walk
    or reach checks, nor on the reachability and shortest-path searches
    that only the benchmark's tracer still names: with each raising, both
    tests answer as before and each certificate verifies as before.  The
    gadgets bring the two fractional structures.  A name a module no
    longer binds is set anyway, so a call that comes back fails here."""
    cases = list(analysis_cases()) + list(gadget_cases(30, 11, GADGETS))

    def answers():
        out = []
        for inst, m in cases:
            for decide in (is_popular, is_fractional_popular):
                text = document_to_json(decide(inst, m))
                out.append((text, verify_certificate(inst, m, parse_certificate(text))))
        return out

    want = answers()
    assert all(defect is None for _, defect in want)

    def refuse(*args, **kwargs):
        raise AssertionError("the decide ran an invariant check")

    names = (
        "_validate_matching",
        "_check_alternating",
        "check_reach_properties",
        "reachable_set",
        "shortest_alt_path_to_root",
    )
    for module in (engine, popularity, fractional):
        for name in names:
            monkeypatch.setattr(module, name, refuse, raising=False)
    assert answers() == want
