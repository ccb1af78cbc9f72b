"""Command line interface.

Exit codes are part of the contract: 0 means popular (fractional-popular
for the fractional command), 1 means not, 2 means usage, parse, or
environment trouble, or an internal error, reported as `internal error: …`
on stderr, and 3 means the oracle cross-check disagreed.
"""

from __future__ import annotations

import argparse
import functools
import sys
import traceback

from .bench import format_table, run_bench
from .engine import EngineError
from .formats import (
    ParseError,
    document_to_json,
    parse_instance,
    parse_matching,
    result_to_document,  # unused here; kept bound so outside tracers can wrap it by name
    serialize_instance,
)
from .fractional import CycleThroughStar, is_fractional_popular
from .generator import generate_instance
from .model import _groups
from .oracle import OracleLimitError, brute_fractional_popular, brute_popular
from .popularity import InternalError, is_popular


@functools.cache  # built once per process; parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="popmatch",
        description="Decide popularity and fractional popularity of roommates matchings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, blurb in (
        ("check", "report whether the matching is popular"),
        ("witness", "like check, but print the full certificate"),
        ("fractional", "report whether the matching is fractional popular"),
        ("oracle", "cross-check the fast verdicts against brute force"),
    ):
        cp = sub.add_parser(name, help=blurb)
        cp.add_argument("-i", "--instance", required=True, help="instance file")
        cp.add_argument("-m", "--matching", required=True, help="matching file")
        cp.add_argument("--json", action="store_true", help="emit the certificate document")

    gp = sub.add_parser("gen", help="write a seeded random instance")
    gp.add_argument("-n", "--nodes", type=int, required=True)
    model = gp.add_mutually_exclusive_group(required=True)
    model.add_argument("--complete", action="store_true", help="complete graph")
    model.add_argument("--gnp", type=float, metavar="P", help="G(n, p) edge draw")
    gp.add_argument("--seed", type=int, required=True)
    gp.add_argument("-o", "--output", required=True, help="output path, - for stdout")

    bp = sub.add_parser("bench", help="time the check across instance sizes")
    bp.add_argument("--sizes", required=True, help="comma-separated edge counts")
    bp.add_argument("--seed", type=int, default=0)
    bp.add_argument("--reps", type=int, default=3)
    return parser


def _load(args):
    # the parsers read UTF-8 bytes, so the text is never decoded
    with open(args.instance, "rb") as fh:
        inst = parse_instance(fh.read())
    with open(args.matching, "rb") as fh:
        m = parse_matching(fh.read(), inst)
    return inst, m


def _cmd_check(args, full: bool) -> int:
    inst, m = _load(args)
    res = is_popular(inst, m)
    if args.json:
        sys.stdout.write(document_to_json(res))
        return 0 if res.popular else 1
    if res.popular:
        print("popular")
        if full:
            w = res.witness
            alpha = w.alpha_array.tolist()
            neg = [v for v, a in enumerate(alpha) if a == -1]
            pos = [v for v, a in enumerate(alpha) if a == 1]
            print(f"witness: alpha is -1 on {neg}, +1 on {pos}, 0 elsewhere")
            for group in _groups(w.set_off, w.set_nodes, list):  # each set ascending
                print(f"witness: odd set {group} at dual value 2")
        return 0
    s = res.structure
    print(f"unpopular: {s.kind} through nodes {list(s.nodes)}; a rival wins by {res.margin}")
    if full:
        print(f"rival matching: {res.better.pairs()}")
    return 1


def _cmd_fractional(args) -> int:
    inst, m = _load(args)
    res = is_fractional_popular(inst, m)
    if args.json:
        sys.stdout.write(document_to_json(res))
        return 0 if res.popular else 1
    if res.popular:
        print("fractional-popular")
        return 0
    print(f"not-fractional-popular: a half-integral matching wins by {res.value_times_two}/2")
    s = res.structure
    if s is None:
        print(f"an outright better matching exists (margin {res.from_unpopular.margin})")
    elif isinstance(s, CycleThroughStar):
        print(f"odd cycle {list(s.cycle)} hung on middle node {s.middle}")
    else:
        print(f"path {list(s.path)} feeding odd cycle {list(s.cycle)}")
    print(
        f"p: ones={[list(e) for e in res.p.ones]} "
        f"loops={list(res.p.loop_ones)} "
        f"half-cycles={[list(c) for c in res.p.half_cycles]}"
    )
    return 1


def _cmd_oracle(args) -> int:
    inst, m = _load(args)
    res = is_popular(inst, m)
    ref = brute_popular(inst, m)
    agree = res.popular == ref.popular
    rows = [
        {
            "check": "popularity",
            "verdict": "popular" if res.popular else "unpopular",
            "oracle_best_delta": ref.best_delta,
            "agree": agree,
        }
    ]
    fres = is_fractional_popular(inst, m)
    try:
        fref = brute_fractional_popular(inst, m)
    except OracleLimitError as exc:
        rows.append({"check": "fractional", "skipped": str(exc)})
        fagree = None
    else:
        fagree = fres.popular == fref.popular
        rows.append(
            {
                "check": "fractional",
                "verdict": "fractional-popular" if fres.popular else "not-fractional-popular",
                "oracle_best_value_times_two": fref.best_value_times_two,
                "agree": fagree,
            }
        )
    if args.json:
        sys.stdout.write(document_to_json({"oracle": rows}))
    else:
        for row in rows:
            if "skipped" in row:
                print(f"{row['check']}: skipped ({row['skipped']})")
            else:
                word = "agree" if row["agree"] else "DISAGREE"
                print(f"{row['check']}: {row['verdict']} - oracle {word}")
    if not agree or fagree is False:
        return 3
    return 0 if res.popular else 1


def _cmd_gen(args) -> int:
    model = "complete" if args.complete else "gnp"
    inst = generate_instance(args.nodes, model, args.gnp, seed=args.seed)
    text = serialize_instance(inst)
    if args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0


def _cmd_bench(args) -> int:
    sizes = []
    for tok in filter(str.strip, args.sizes.split(",")):
        try:
            sizes.append(int(tok))
        except ValueError:
            raise ValueError(f"--sizes: {tok.strip()!r} is not an integer") from None
    if not sizes:
        raise ValueError("no sizes given")
    rows = run_bench(sizes, seed=args.seed, reps=args.reps)
    print(format_table(rows))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "check":
            return _cmd_check(args, full=False)
        if args.command == "witness":
            return _cmd_check(args, full=True)
        if args.command == "fractional":
            return _cmd_fractional(args)
        if args.command == "oracle":
            return _cmd_oracle(args)
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "bench":
            return _cmd_bench(args)
    except (ParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OracleLimitError as exc:
        print(f"error: {exc} (raise POPMATCH_ORACLE_LIMIT to override)", file=sys.stderr)
        return 2
    except (InternalError, EngineError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # exit code 1 means "not popular", never a crash
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
