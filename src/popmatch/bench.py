"""Scaling benchmark for the popularity check.

Instances are drawn so the edge count lands near each requested size, each
is paired with a greedy and a random maximal matching, and the in-memory
check is timed with the first iteration discarded as warm-up. The check
is expected to scale near-linearly in the edge count, so the headline
number is nanoseconds per edge.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

from .generator import generate_instance, greedy_matching, random_maximal_matching
from .popularity import is_popular


@dataclass(frozen=True)
class BenchRow:
    target_edges: int
    nodes: int
    edges: int
    median_seconds: float
    ns_per_edge: float | None  # None for a draw without edges


def _shape(target_edges: int) -> tuple[int, float]:
    """Node count and edge probability putting E[edges] at the target."""
    n = max(4, round(2 * target_edges**0.5))
    p = min(1.0, target_edges / (n * (n - 1) / 2))
    return n, p


def run_bench(sizes, seed: int = 0, reps: int = 3) -> list[BenchRow]:
    if reps < 1:
        raise ValueError(f"need at least one repetition, got {reps}")
    rows = []
    for k, target in enumerate(sizes):
        if target < 1:
            raise ValueError(f"bad size {target}")
        n, p = _shape(target)
        inst = generate_instance(n, "gnp", p, seed=seed + k)
        matchings = [greedy_matching(inst), random_maximal_matching(inst, seed=seed + k)]
        edges = inst.m
        times = []
        for m in matchings:
            for rep in range(reps + 1):
                t0 = time.perf_counter()
                is_popular(inst, m)
                dt = time.perf_counter() - t0
                if rep > 0:
                    times.append(dt)
        med = statistics.median(times)
        rows.append(
            BenchRow(
                target_edges=target,
                nodes=n,
                edges=edges,
                median_seconds=med,
                ns_per_edge=med / edges * 1e9 if edges else None,
            )
        )
    return rows


def format_table(rows: list[BenchRow]) -> str:
    """One line per row; the ratio is to the ns/edge of the first row with edges."""
    lines = [f"{'edges':>9}  {'nodes':>7}  {'median s':>9}  {'ns/edge':>8}  {'ratio':>6}"]
    base = next((r.ns_per_edge for r in rows if r.edges), None)
    for r in rows:
        per = ratio = "-"
        if r.edges:
            per, ratio = f"{r.ns_per_edge:.1f}", f"{r.ns_per_edge / base:.2f}"
        lines.append(f"{r.edges:>9}  {r.nodes:>7}  {r.median_seconds:>9.4f}  {per:>8}  {ratio:>6}")
    return "\n".join(lines)
