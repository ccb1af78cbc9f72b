"""Spans around popmatch's module boundaries, recorded from outside.

popmatch has no tracing of its own, so `Tracer.install` replaces, for the
duration of one traced operation, names that one popmatch module imports
from another (`popmatch.popularity.build_aux`, ...). Module globals are
looked up at call time, so this also catches calls inside a module such as
`popularity.build_dual_witness`. `Tracer.restore` puts the originals back,
so untraced operations run the unmodified program.

Only boundary calls that happen a few times per verdict are wrapped; the
per-element helpers (`vote`, `edge_weight`, `is_blocking_edge`) are not.
Structural counts are read from the objects the wrapped calls return.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import defaultdict

LAYERS = ("cli", "formats", "model", "auxgraph", "engine", "popularity", "fractional")


def _aux_counts(aux) -> dict:
    return {
        "auxgraph.nodes": aux.graph.n,
        "auxgraph.edges": aux.graph.edge_count(),
        "auxgraph.seeds": len(aux.seeds),
        "auxgraph.stars": len(aux.star_of),
    }


def _ge_counts(ge) -> dict:
    return {"engine.big_components": sum(1 for comp in ge.components if len(comp) >= 3)}


def _reach_counts(reach) -> dict:
    return {"engine.reached_nodes": len(reach.members)}


def _analysis_counts(an) -> dict:
    return {"engine.aug_path_len": len(an.aug_path) if an.aug_path is not None else 0}


def _witness_counts(w) -> dict:
    return {
        "popularity.odd_sets": len(w.two_sets),
        "popularity.alpha_nonzero": sum(1 for a in w.alpha if a),
    }


def _unpopular_counts(res) -> dict:
    return {"popularity.margin": res.margin}


# (module, attribute, span name, counts read from the return value).
# The span name's first part is the layer the callee belongs to.
TARGETS = (
    ("cli", "parse_instance", "formats.parse_instance", None),
    ("cli", "parse_matching", "formats.parse_matching", None),
    ("cli", "result_to_document", "formats.emit", None),
    ("cli", "document_to_json", "formats.emit", None),
    ("cli", "is_popular", "popularity.is_popular", None),
    ("cli", "is_fractional_popular", "fractional.is_fractional_popular", None),
    ("formats", "parse_certificate", "formats.verify", None),
    ("formats", "verify_certificate", "formats.verify", None),
    ("formats", "RoommatesInstance", "model.instance", None),
    ("formats", "check_matching", "model.check_matching", None),
    ("auxgraph", "check_matching", "model.check_matching", None),
    ("model", "_weights", "model.weights", None),
    ("auxgraph", "_weights", "model.weights", None),
    ("popularity", "_weights", "model.weights", None),
    ("model", "_partner_array", "model.partner_array", None),
    ("auxgraph", "_partner_array", "model.partner_array", None),
    ("popularity", "_partner_array", "model.partner_array", None),
    ("fractional", "fractional_value_times_two", "model.fractional_value", None),
    ("model.HalfIntegralMatching", "validate", "model.half_validate", None),
    ("popularity", "build_aux", "auxgraph.build_aux", _aux_counts),
    ("popularity", "_run_search", "engine.search", None),
    ("engine", "_run_search", "engine.search", None),
    ("popularity", "gallai_edmonds", "engine.gallai_edmonds", _ge_counts),
    ("popularity", "reachable_set", "engine.reachable_set", _reach_counts),
    ("fractional", "reachable_set", "engine.reachable_set", None),
    ("popularity", "check_reach_properties", "engine.check_reach", None),
    ("engine.Graph", "from_edges", "engine.graph_from_edges", None),
    ("fractional", "odd_cycle_through_root", "engine.odd_cycle", None),
    ("fractional", "shortest_alt_path_to_root", "engine.alt_path", None),
    ("fractional", "even_path_from_roots", "engine.alt_path", None),
    ("popularity", "_analyze", "popularity.analyze", _analysis_counts),
    ("fractional", "_analyze", "popularity.analyze", _analysis_counts),
    ("popularity", "build_dual_witness", "popularity.witness_build", _witness_counts),
    ("popularity", "witness_violation", "popularity.witness_check", None),
    ("popularity", "_finish_unpopular", "popularity.unpopular", _unpopular_counts),
    ("fractional", "_finish_unpopular", "popularity.unpopular", _unpopular_counts),
    ("fractional", "extract_fractional_structure", "fractional.extract", None),
    ("fractional", "structure_to_fractional_matching", "fractional.lift", None),
    ("fractional", "check_fractional_structure", "fractional.check", None),
)

# Spans reported as a time metric `<name>_s`; the other spans only carry
# self time up to their layer.
TIMED = (
    "formats.parse_instance",
    "formats.parse_matching",
    "formats.emit",
    "formats.verify",
    "model.instance",
    "model.check_matching",
    "model.fractional_value",
    "model.half_validate",
    "auxgraph.build_aux",
    "engine.search",
    "engine.gallai_edmonds",
    "engine.reachable_set",
    "engine.check_reach",
    "engine.graph_from_edges",
    "engine.odd_cycle",
    "engine.alt_path",
    "popularity.witness_build",
    "popularity.witness_check",
    "popularity.unpopular",
    "fractional.extract",
    "fractional.lift",
    "fractional.check",
)
# Spans reported as a call count `<name>.calls`.
CALLED = ("model.weights", "model.partner_array", "engine.search")
COUNTS = (
    "formats.instance_bytes",
    "formats.certificate_bytes",
    "model.matching_checks",
    "auxgraph.nodes",
    "auxgraph.edges",
    "auxgraph.seeds",
    "auxgraph.stars",
    "engine.reached_nodes",
    "engine.big_components",
    "engine.aug_path_len",
    "popularity.odd_sets",
    "popularity.alpha_nonzero",
    "popularity.margin",
)


def _resolve(popmatch, path: str):
    obj = popmatch
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


class Tracer:
    """In-memory spans (name, start, end, parent, operation) and counts."""

    def __init__(self, popmatch):
        self.spans: list = []  # [name, start_ns, end_ns, parent index, op id]
        self.counts: dict = defaultdict(lambda: defaultdict(int))  # op id -> name -> value
        self.ops: dict = {}  # op id -> operation kind
        self._stack: list = []
        self._op = -1
        self._patches = []
        for owner_path, attr, name, counter in TARGETS:
            owner = _resolve(popmatch, owner_path)
            raw = owner.__dict__[attr]
            self._patches.append((owner, attr, raw, self._wrap(getattr(owner, attr), name, counter)))

    def _wrap(self, fn, name: str, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if counter is not None:
                for key, value in counter(out).items():
                    self.counts[self._op][key] += value
            return out

        return traced

    def span(self, name: str):
        return _Span(self, name)

    def begin(self, kind: str) -> None:
        """Start a traced operation; spans and counts are filed under it."""
        self._op = len(self.ops)
        self.ops[self._op] = kind
        for owner, attr, _, traced in self._patches:
            setattr(owner, attr, traced)

    def end(self) -> None:
        for owner, attr, raw, _ in self._patches:
            setattr(owner, attr, raw)
        self._op = -1

    def count(self, name: str, value: int) -> None:
        self.counts[self._op][name] += value

    def document(self) -> dict:
        keys = ("name", "start_ns", "end_ns", "parent", "op")
        return {
            "ops": [{"id": i, "kind": k} for i, k in self.ops.items()],
            "spans": [dict(zip(keys, s)) for s in self.spans],
        }

    def metrics(self, kind: str) -> dict:
        """Per-layer metrics of one operation kind, medians over its operations."""
        ops = [i for i, k in self.ops.items() if k == kind]
        per_op = {i: defaultdict(float) for i in ops}
        child = [0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for idx, (name, start, end, parent, op) in enumerate(self.spans):
            if op not in per_op:
                continue
            row = per_op[op]
            row[name + "_s"] += (end - start) / 1e9
            row[name + ".calls"] += 1
            row[name.split(".")[0] + ".self_s"] += (end - start - child[idx]) / 1e9
        for i in ops:
            row = per_op[i]
            row.update(self.counts[i])
            # parse_matching validates the pairs it reads; check_matching
            # validates again. One validation per verdict would suffice.
            row["model.matching_checks"] = (
                row["formats.parse_matching.calls"] + row["model.check_matching.calls"]
            )
        names = [n + "_s" for n in TIMED] + [n + ".calls" for n in CALLED] + list(COUNTS)
        names += [layer + ".self_s" for layer in LAYERS]
        return {
            name: statistics.median(per_op[i].get(name, 0) for i in ops) if ops else 0
            for name in names
        }


class _Span:
    __slots__ = ("tracer", "name", "idx")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        parent = t._stack[-1] if t._stack else -1
        self.idx = len(t.spans)
        t.spans.append([self.name, time.perf_counter_ns(), 0, parent, t._op])
        t._stack.append(self.idx)
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.spans[self.idx][2] = time.perf_counter_ns()
        t._stack.pop()
        return False
