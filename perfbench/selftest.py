"""Self-test of the workload generators: `python3 perfbench/selftest.py`.

Checks, against popmatch's own generator and brute-force oracles:
- the dense draw reproduces `popmatch.generator` byte for byte, so its
  fingerprints match `popmatch gen` and `popmatch bench` at the same seed;
- every dominant matching on instances of at most 12 nodes is popular;
- every tiled gadget pair (10 nodes) is popular but not fractional popular;
- the fingerprint's blocking-edge count and the rival check's vote margin
  agree with popmatch;
- the same seed gives byte-identical instance and matching text.
Exits 1 and lists the failures if any check fails.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import workloads as W

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from popmatch.bench import _shape  # noqa: E402
from popmatch.formats import (  # noqa: E402
    parse_instance,
    parse_matching,
    serialize_instance,
    serialize_matching,
)
from popmatch.generator import generate_instance, random_maximal_matching  # noqa: E402
from popmatch.model import blocking_edges  # noqa: E402
from popmatch.oracle import brute_fractional_popular, brute_popular  # noqa: E402
from popmatch.popularity import is_popular  # noqa: E402

failures: list = []


def check(ok: bool, what: str) -> None:
    if not ok:
        failures.append(what)


def parsed(inp: W.Inputs):
    inst = parse_instance(W.instance_text(inp))
    return inst, parse_matching(W.matching_text(inp), inst)


def dense_matches_popmatch() -> None:
    for edges in (6, 20, 36, 300, 2000):
        for seed in range(4):
            inp = W.dense_gnp(edges, seed)
            n, p = _shape(edges)
            inst = generate_instance(n, "gnp", p, seed=seed)
            m = random_maximal_matching(inst, seed=seed)
            check(W.instance_text(inp) == serialize_instance(inst), f"dense {edges}/{seed}: instance")
            check(W.matching_text(inp) == serialize_matching(m), f"dense {edges}/{seed}: matching")
            check(
                W.blocking_edge_count(inp) == len(blocking_edges(inst, m)),
                f"dense {edges}/{seed}: blocking count",
            )
            res = is_popular(inst, m)
            if not res.popular:
                margin = W.vote_margin(inp, res.better.pairs())
                check(margin == res.margin, f"dense {edges}/{seed}: vote margin")


def dominant_is_popular() -> int:
    """Returns how many of the instances had blocking edges."""
    with_blocking = 0
    for seed in range(300):
        rng = random.Random(seed)
        side = rng.randint(1, 6)
        inp = W.dominant(side, rng.randint(1, side * side), seed)
        inst, m = parsed(inp)
        check(brute_popular(inst, m).popular, f"dominant seed {seed}: not popular")
        blocking = W.blocking_edge_count(inp)
        check(blocking == len(blocking_edges(inst, m)), f"dominant seed {seed}: blocking count")
        with_blocking += blocking > 0
    return with_blocking


def gadgets_are_popular_not_fractional() -> None:
    for seed in range(40):
        inst, m = parsed(W.gadgets(W.GADGET_PAIR_EDGES, seed))
        check(inst.n == 10, f"gadgets seed {seed}: {inst.n} nodes")
        check(brute_popular(inst, m).popular, f"gadgets seed {seed}: not popular")
        check(
            not brute_fractional_popular(inst, m).popular,
            f"gadgets seed {seed}: fractional popular",
        )


def seeds_are_deterministic() -> None:
    makers = {
        "dense": lambda seed: W.dense_gnp(5000, seed),
        "dominant": lambda seed: W.dominant(500, 5000, seed),
        "gadgets": lambda seed: W.gadgets(5000, seed),
    }
    for name, make in makers.items():
        a, b, c = make(7), make(7), make(8)
        for text in (W.instance_text, W.matching_text):
            check(text(a) == text(b), f"{name}: seed 7 gave two different {text.__name__}")
        check(W.instance_text(a) != W.instance_text(c), f"{name}: seeds 7 and 8 agree")


def main() -> int:
    dense_matches_popmatch()
    with_blocking = dominant_is_popular()
    check(with_blocking >= 30, f"only {with_blocking} dominant instances had blocking edges")
    gadgets_are_popular_not_fractional()
    seeds_are_deterministic()
    for what in failures:
        print(f"FAIL {what}")
    print(f"selftest: {len(failures)} failures ({with_blocking}/300 dominant with blocking edges)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
