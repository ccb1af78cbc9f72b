"""The process that runs popmatch: `worker.py setup|measure SPEC.json`.

`run.py` starts it after writing the inputs, so the generator's memory and
time stay out of this process. It prints one JSON object on its last
stdout line; popmatch's own stdout is captured per operation.

setup: import popmatch and run one verdict on the first small instance,
timing both together.

measure: after the same set-up, loop for `seconds`. Each cycle runs, on
the large instance, one certified CLI verdict, then library decisions,
then re-verifications of the certificate the verdict wrote, then
decisions on the small instances in turn, each of the last three repeated
for at least GROUP_S seconds. With `trace` set, the cycle is one untraced
verdict, one traced verdict and one traced re-verification instead. Each
group of operations is preceded by one run of `workloads.reference_work`,
and every sample is reported as a pair (seconds, seconds of the reference
run just before the group).
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # before popmatch and numpy are imported

import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

MIN_CYCLES = 3
GROUP_S = 0.3  # short operations repeat for this long, for a steadier median


def _import_popmatch(src: str):
    sys.path.insert(0, src)
    import popmatch
    import popmatch.cli

    where = os.path.realpath(popmatch.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise ImportError(f"popmatch was imported from {where}, not from {src}")
    return popmatch


class Ops:
    """The three timed operations, each checked and counted."""

    def __init__(self, popmatch, spec: dict):
        self.cli = popmatch.cli
        self.formats = popmatch.formats
        self.spec = spec
        self.decide_fn = getattr(popmatch, spec["decide"])
        self.expect_popular = spec["exit_code"] == 0
        self.attempted = 0
        self.failures: dict = {}

    def _fail(self, why: str) -> None:
        self.failures[why] = self.failures.get(why, 0) + 1

    def verdict(self, inst_path: str, match_path: str, span=None):
        """CLI verdict; returns (seconds, certificate text or None)."""
        argv = [self.spec["command"], "-i", inst_path, "-m", match_path, "--json"]
        self.attempted += 1
        buf = io.StringIO()
        gc.collect()
        t = time.perf_counter()
        try:
            with span or contextlib.nullcontext(), contextlib.redirect_stdout(buf):
                rc = self.cli.main(argv)
        except Exception as exc:  # counted, and the run goes on
            self._fail(type(exc).__name__)
            return time.perf_counter() - t, None
        dt = time.perf_counter() - t
        text = buf.getvalue()
        if rc != self.spec["exit_code"]:
            self._fail(f"exit-code-{rc}")
            return dt, None
        try:
            verdict = json.loads(text).get("verdict")
        except (ValueError, AttributeError):
            self._fail("bad-json")
            return dt, None
        if verdict != self.spec["verdict"]:
            self._fail("wrong-verdict")
            return dt, None
        return dt, text

    def decide(self, inst, m) -> float:
        self.attempted += 1
        gc.collect()
        t = time.perf_counter()
        try:
            res = self.decide_fn(inst, m)
        except Exception as exc:
            self._fail(type(exc).__name__)
            return time.perf_counter() - t
        dt = time.perf_counter() - t
        if res.popular != self.expect_popular:
            self._fail("wrong-verdict")
        return dt

    def verify(self, inst, m, text) -> float | None:
        self.attempted += 1
        if text is None:
            self._fail("no-certificate")
            return None
        gc.collect()
        t = time.perf_counter()
        try:
            doc = self.formats.parse_certificate(text)
            msg = self.formats.verify_certificate(inst, m, doc)
        except Exception as exc:
            self._fail(type(exc).__name__)
            return time.perf_counter() - t
        dt = time.perf_counter() - t
        if msg is not None:
            self._fail("certificate-rejected")
        return dt


def _load(formats, prefix: str):
    with open(prefix + ".inst", encoding="utf-8") as fh:
        inst = formats.parse_instance(fh.read())
    with open(prefix + ".match", encoding="utf-8") as fh:
        m = formats.parse_matching(fh.read(), inst)
    return inst, m


def _paths(prefix: str) -> tuple[str, str]:
    return prefix + ".inst", prefix + ".match"


def _reference() -> float:
    """Seconds for the benchmark's fixed reference work in this process."""
    from workloads import reference_work  # after set-up, which it must not include

    gc.collect()
    t = time.perf_counter()
    reference_work()
    return time.perf_counter() - t


def _group(samples: list, op) -> None:
    """One reference run, then `op` repeated until GROUP_S seconds have passed.

    `op` returns its seconds, or None when it could not run, which ends the
    group.
    """
    ref = _reference()
    end = time.perf_counter() + GROUP_S
    while True:
        dt = op()
        if dt is None:
            return
        samples.append((dt, ref))
        if time.perf_counter() >= end:
            return


def setup(spec: dict) -> dict:
    popmatch = _import_popmatch(spec["src"])
    ops = Ops(popmatch, spec)
    ops.verdict(*_paths(spec["small"][0]))
    setup_s = time.perf_counter() - T0
    return {
        "setup_s": setup_s,
        "reference": statistics.median(_reference() for _ in range(3)),
        "attempted": ops.attempted,
        "failures": ops.failures,
    }


def measure(spec: dict) -> dict:
    popmatch = _import_popmatch(spec["src"])
    ops = Ops(popmatch, spec)
    ops.verdict(*_paths(spec["small"][0]))
    large = _load(popmatch.formats, spec["large"])
    small = itertools.cycle([_load(popmatch.formats, prefix) for prefix in spec["small"]])
    gc.collect()
    gc.freeze()  # the loaded inputs stay out of every later collection
    tracer = None
    if spec["trace"]:
        from spans import Tracer

        tracer = Tracer(popmatch)
    samples: dict = {k: [] for k in ("verdict", "decide", "verify", "decide_small", "traced")}
    certificate = None
    deadline = time.perf_counter() + spec["seconds"]
    cycles = 0
    while cycles < MIN_CYCLES or time.perf_counter() < deadline:
        cycles += 1
        if tracer is not None:
            # alternate which verdict goes first, so order favours neither
            for traced in (cycles % 2 == 0, cycles % 2 == 1):
                ref = _reference()
                if not traced:
                    dt, text = ops.verdict(*_paths(spec["large"]))
                    samples["verdict"].append((dt, ref))
                    certificate = certificate or text
                    continue
                tracer.begin("verdict")
                dt, text = ops.verdict(*_paths(spec["large"]), span=tracer.span("cli.main"))
                tracer.count("formats.instance_bytes", os.path.getsize(spec["large"] + ".inst"))
                tracer.count("formats.certificate_bytes", len(text or ""))
                tracer.end()
                samples["traced"].append((dt, ref))
            tracer.begin("verify")
            ops.verify(*large, text)
            tracer.end()
            continue
        ref = _reference()
        dt, text = ops.verdict(*_paths(spec["large"]))
        samples["verdict"].append((dt, ref))
        certificate = certificate or text
        _group(samples["decide"], lambda: ops.decide(*large))
        _group(samples["verify"], lambda: ops.verify(*large, text))
        _group(samples["decide_small"], lambda: ops.decide(*next(small)))
    out = {
        "samples": samples,
        "cycles": cycles,
        "attempted": ops.attempted,
        "failures": ops.failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if certificate is not None:
        with open(spec["certificate"], "w", encoding="utf-8") as fh:
            fh.write(certificate)
    if tracer is not None:
        out["layers"] = tracer.metrics("verdict")
        out["layers"]["formats.verify_s"] = tracer.metrics("verify")["formats.verify_s"]
        with open(spec["spans"], "w", encoding="utf-8") as fh:
            json.dump(tracer.document(), fh)
    return out


def main() -> None:
    mode, spec_path = sys.argv[1], sys.argv[2]
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    result = setup(spec) if mode == "setup" else measure(spec)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
