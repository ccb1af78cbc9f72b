"""popmatch benchmark: certified verdicts on three seeded workloads.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; popmatch is imported from its
`src/`. For each workload this writes one large seeded input and ten small
ones (each a tenth of the edges) under `.perfbench_work/`, then runs popmatch in a
child process (`worker.py`): one closed-loop caller, one operation at a
time. It prints the input fingerprints and every metric with its unit, and
as its last line one JSON object
`{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
metrics are the end-to-end ones; with `--trace 1` they are the per-layer
ones from a traced run, plus the tracing overhead. Without `--workload`,
all workloads run and the last line sums them, metrics prefixed by
workload name. See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import workloads as W

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
SETUP_RUNS = 3  # set-up samples before and again after the measured loop
# Small instances per run. Decision time on one small dense draw varies by
# up to 40% from seed to seed, so linearity compares the large instance
# against ten draws, the same total edge count.
SMALL_COUNT = 10
TIME_LIMIT = 170.0  # seconds for the whole run, children included
# Timings are scaled to the speed at which `workloads.reference_work` takes
# this long, its median on a quiet 2-core machine (Python 3.11, numpy 2.4).
# On a shared machine the speed drifts by up to 2x over minutes; the scaled
# timings drift far less. The raw timings are printed too.
REFERENCE_S = 0.030


@dataclass(frozen=True)
class Workload:
    make: Callable[[int, int], W.Inputs]  # (edges, seed) -> inputs
    large: int  # edges; each of the SMALL_COUNT small instances has a tenth
    command: str
    decide: str
    verdict: str
    exit_code: int


# Why each workload was chosen: README.md and BENCHMARK.json.
WORKLOADS = {
    "unpopular-dense": Workload(
        make=W.dense_gnp,
        large=250_000,
        command="check",
        decide="is_popular",
        verdict="unpopular",
        exit_code=1,
    ),
    "popular-dominant": Workload(
        make=lambda edges, seed: W.dominant(edges // 10, edges, seed),
        large=100_000,
        command="witness",
        decide="is_popular",
        verdict="popular",
        exit_code=0,
    ),
    "nonfrac-gadgets": Workload(
        make=W.gadgets,
        large=30_000,
        command="fractional",
        decide="is_fractional_popular",
        verdict="not-fractional-popular",
        exit_code=1,
    ),
}

END_TO_END = {
    "verdict_s": "s",
    "decide_s": "s",
    "verify_s": "s",
    "linearity": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class RunFailed(Exception):
    """The benchmark itself could not run; no result is printed."""


def _child(mode: str, spec_path: Path, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), mode, str(spec_path)]
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=max(1.0, deadline - time.monotonic())
        )
    except subprocess.TimeoutExpired:
        raise RunFailed(f"worker {mode} ran past the time limit") from None
    if proc.returncode != 0:
        raise RunFailed(f"worker {mode} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _write_inputs(name: str, wl: Workload, seed: int, work: Path) -> list:
    """Write the large instance (drawn with `seed`) and the small ones
    (seeds SMALL_COUNT * seed + k), print their fingerprints, return them."""
    draws = [("large", wl.large, seed)]
    draws += [(f"small-{k}", wl.large // 10, SMALL_COUNT * seed + k) for k in range(SMALL_COUNT)]
    out = []
    for label, edges, draw_seed in draws:
        t = time.perf_counter()
        inp = wl.make(edges, draw_seed)
        inst, match = W.instance_text(inp), W.matching_text(inp)
        (work / f"{label}.inst").write_text(inst, encoding="utf-8")
        (work / f"{label}.match").write_text(match, encoding="utf-8")
        print(
            f"input {name} {label} seed={draw_seed}: nodes={inp.n} edges={inp.edges} "
            f"blocking={W.blocking_edge_count(inp)} expect={wl.verdict} "
            f"instance_sha256={W.sha256(inst)} matching_sha256={W.sha256(match)} "
            f"generate_s={time.perf_counter() - t:.3f}"
        )
        out.append(inp)
    return out


def _check_certificate(wl: Workload, inputs: W.Inputs, path: Path) -> str | None:
    """Independent of popmatch: the rival in an unpopular verdict must win."""
    if not path.exists():
        return "no certificate was written"
    if wl.verdict != "unpopular":
        return None
    doc = json.loads(path.read_text(encoding="utf-8"))
    try:
        margin = W.vote_margin(inputs, doc["better_matching"])
    except (KeyError, TypeError, ValueError) as exc:
        return f"rival matching is unusable: {exc}"
    if margin < 1 or margin != doc.get("margin"):
        return f"rival wins by {margin}, certificate claims {doc.get('margin')!r}"
    return None


def _median(values: list) -> float:
    if not values:
        raise RunFailed("no samples were taken")
    return statistics.median(values)


def _scaled(pairs: list) -> float:
    """Median of seconds over reference seconds, in seconds at REFERENCE_S."""
    return REFERENCE_S * _median([s / ref for s, ref in pairs])


def _show(label: str, pairs: list) -> None:
    raw = [s for s, _ in pairs]
    print(
        f"  {label:<14} raw median {statistics.median(raw):.4f} s  min {min(raw):.4f}"
        f"  max {max(raw):.4f}  scaled {_scaled(pairs):.4f} s  n={len(raw)}"
    )


def run_workload(name: str, seed: int, seconds: int, trace: bool, deadline: float) -> dict:
    wl = WORKLOADS[name]
    work = WORK / f"{name}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        inputs = _write_inputs(name, wl, seed, work)
        spec = {
            "src": str(ROOT / "src"),
            "large": str(work / "large"),
            "small": [str(work / f"small-{k}") for k in range(SMALL_COUNT)],
            "command": wl.command,
            "decide": wl.decide,
            "verdict": wl.verdict,
            "exit_code": wl.exit_code,
            "seconds": seconds,
            "trace": trace,
            "certificate": str(work / "certificate.json"),
            "spans": str(WORK / f"spans-{name}-{seed}.json"),
        }
        spec_path = work / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        setup_runs = 0 if trace else SETUP_RUNS
        setups = [_child("setup", spec_path, deadline) for _ in range(setup_runs)]
        res = _child("measure", spec_path, deadline)
        setups += [_child("setup", spec_path, deadline) for _ in range(setup_runs)]
        failures = dict(res["failures"])
        attempted = res["attempted"] + 1  # the independent certificate check
        for s in setups:
            attempted += s["attempted"]
            for why, k in s["failures"].items():
                failures[why] = failures.get(why, 0) + k
        problem = _check_certificate(wl, inputs[0], work / "certificate.json")
        if problem is not None:
            print(f"  independent check failed: {problem}")
            failures["independent-check"] = failures.get("independent-check", 0) + 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    samples = res["samples"]
    failed = sum(failures.values())
    print(f"workload {name}: {res['cycles']} cycles in {seconds} s, seed {seed}")
    refs = [ref for pairs in samples.values() for _, ref in pairs]
    print(
        f"  reference work: median {_median(refs):.4f} s, scaled to {REFERENCE_S} s;"
        " raw seconds, then scaled:"
    )
    for key, pairs in samples.items():
        if pairs:
            _show(key, pairs)
    if trace:
        metrics = dict(res["layers"])
        metrics["trace.overhead"] = _scaled(samples["traced"]) / _scaled(samples["verdict"])
        units = {k: _layer_unit(k) for k in metrics}
        for key in sorted(metrics):
            print(f"  {key:<32} {metrics[key]:.6g} {units[key]}")
        print(f"  spans written to {spec['spans']}")
    else:
        setup = [s["setup_s"] * REFERENCE_S / s["reference"] for s in setups]
        print(
            f"  {'setup':<14} raw median {statistics.median(s['setup_s'] for s in setups):.4f} s"
            f"  scaled {_median(setup):.4f} s  n={len(setup)}"
        )
        metrics = {
            "verdict_s": _scaled(samples["verdict"]),
            "decide_s": _scaled(samples["decide"]),
            "verify_s": _scaled(samples["verify"]),
            "linearity": _scaled(samples["decide"]) / _scaled(samples["decide_small"])
            * statistics.mean(inp.edges for inp in inputs[1:])
            / inputs[0].edges,
            "setup_s": _median(setup),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        units = END_TO_END
        for key, value in metrics.items():
            print(f"  {key:<14} {value:.4f} {units[key]}")
    rate = failed / attempted
    print(f"  error_rate     {rate:.4f} ({failed} of {attempted} operations) {failures or ''}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def _layer_unit(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    if key.endswith("_bytes"):
        return "bytes"
    if key == "trace.overhead":
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: all")
    parser.add_argument("--seed", type=int, default=0, help="a non-negative integer")
    parser.add_argument("--seconds", type=int, default=30, help="measured time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "popmatch" / "__init__.py").is_file():
        print(f"error: no popmatch sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    deadline = time.monotonic() + TIME_LIMIT * len(names)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), deadline)
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {
                    f"{name}.{key}": value
                    for name, r in results.items()
                    for key, value in r["metrics"].items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
