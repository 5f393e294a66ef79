"""Command-line front end: verify suites, generate instances, check them.

Exit codes: 0 means everything passed, 1 means a suite or instance check
reported failures, 2 means the invocation itself was unusable (bad
parameters, unreadable files, malformed JSON).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .errors import RejectedInputError
from .generate import (
    InstanceSpec,
    check_instance,
    instance_payload,
    spec_from_json,
    spec_to_json,
)
from .serialize import canonical_json
from .suites import SUITE_NAMES, SuiteParams, render_report, run_suite


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conekit",
        description="Positive-cone calculus on block algebras: randomized "
        "verification suites, instance generation and re-validation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument(
        "--suite", choices=(*SUITE_NAMES, "all"), default="all",
        help="which suite to run (default: all)",
    )
    verify.add_argument("--seed", type=int, default=1, help="root seed (default 1)")
    verify.add_argument(
        "--trials", type=int, default=100, help="trials per property (default 100)"
    )
    verify.add_argument(
        "--tol", type=float, default=1e-9, help="pass/fail tolerance (default 1e-9)"
    )
    verify.add_argument(
        "--blocks", type=int, default=3, help="max blocks per algebra (default 3)"
    )
    verify.add_argument(
        "--max-dim", dest="max_dim", type=int, default=4,
        help="max matrix block dimension (default 4)",
    )
    verify.add_argument(
        "--depth", type=int, default=2, help="tower depth for system trials (default 2)"
    )
    verify.add_argument(
        "--json", nargs="?", const="-", default=None, metavar="PATH",
        help="emit the canonical JSON report instead of text, to PATH "
        "(or stdout when PATH is omitted or '-')",
    )
    verify.add_argument(
        "--workers", type=int, default=1,
        help="worker processes; the report is identical for any count (default 1)",
    )

    gen = sub.add_parser("gen", help="generate a splitting instance as JSON")
    gen.add_argument("--spec", help="path to a JSON instance spec to start from")
    gen.add_argument("--seed", type=int, help="instance seed")
    gen.add_argument("--blocks", type=int, help="max blocks per level")
    gen.add_argument("--max-dim", dest="max_dim", type=int, help="max block dimension")
    gen.add_argument("--depth", type=int, help="tower depth")
    gen.add_argument("--tol", type=float, help="tolerance stored with the instance")
    gen.add_argument("--out", help="write the instance here instead of stdout")

    check = sub.add_parser("check", help="re-validate a stored instance")
    check.add_argument("--instance", required=True, help="path to an instance JSON file")
    check.add_argument(
        "--tol", type=float, default=None,
        help="override the tolerance stored in the instance",
    )
    return parser


def _cmd_verify(args: argparse.Namespace) -> int:
    try:
        params = SuiteParams(
            seed=args.seed,
            trials=args.trials,
            tol=args.tol,
            blocks=args.blocks,
            max_dim=args.max_dim,
            depth=args.depth,
            workers=args.workers,
        )
        report = run_suite(args.suite, params)
    except RejectedInputError as exc:
        print(f"conekit verify: {exc}", file=sys.stderr)
        return 2
    if args.json is not None:
        text = canonical_json(report)
        if args.json == "-":
            print(text)
        else:
            try:
                with open(args.json, "w", encoding="utf-8") as fh:
                    fh.write(text + "\n")
            except OSError as exc:
                print(f"conekit verify: cannot write {args.json}: {exc}", file=sys.stderr)
                return 2
    else:
        sys.stdout.write(render_report(report))
    return 0 if report["ok"] else 1


def _cmd_gen(args: argparse.Namespace) -> int:
    base = spec_to_json(InstanceSpec())
    if args.spec is not None:
        try:
            with open(args.spec, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
            base = spec_to_json(spec_from_json(loaded))
        except (OSError, ValueError) as exc:
            print(f"conekit gen: cannot use spec file: {exc}", file=sys.stderr)
            return 2
    for field in ("seed", "blocks", "max_dim", "depth", "tol"):
        value = getattr(args, field)
        if value is not None:
            base[field] = value
    try:
        payload = instance_payload(spec_from_json(base))
    except (RejectedInputError, ValueError) as exc:
        print(f"conekit gen: {exc}", file=sys.stderr)
        return 2
    text = canonical_json(payload)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            print(f"conekit gen: cannot write {args.out}: {exc}", file=sys.stderr)
            return 2
    else:
        print(text)
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    if args.tol is not None and not (math.isfinite(args.tol) and args.tol > 0):
        print(
            f"conekit check: tol must be positive and finite, got {args.tol}",
            file=sys.stderr,
        )
        return 2
    try:
        with open(args.instance, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"conekit check: cannot read instance: {exc}", file=sys.stderr)
        return 2
    problems = check_instance(payload, args.tol)
    if problems:
        for problem in problems:
            print(f"FAIL {problem}")
        return 1
    digest = payload.get("digest", "?") if isinstance(payload, dict) else "?"
    print(f"ok digest={digest}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "verify":
        return _cmd_verify(args)
    if args.command == "gen":
        return _cmd_gen(args)
    return _cmd_check(args)


if __name__ == "__main__":
    sys.exit(main())
