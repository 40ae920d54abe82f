"""Command line entry point: run a scenario file, emit metrics and
optionally the event trace, and report invariant violations.

Exit codes: 0 clean run, 1 invariant violations (with ``--check``),
2 bad usage or malformed scenario.
"""
from __future__ import annotations

import argparse
import sys

from .runner import format_metrics, run_scenario
from .scenario import ScenarioError, parse_scenario
from .sim import TRACE_FORMATS


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="disthash",
        description="Run a cluster-protocol scenario in the deterministic simulator.")
    parser.add_argument("--scenario", required=True, help="scenario text file")
    parser.add_argument("--metrics", help="write metrics lines here instead of stdout")
    parser.add_argument("--trace", help="record the event trace and write it to this file")
    parser.add_argument("--trace-format", choices=sorted(TRACE_FORMATS), default="digest",
                        help="one digest line (default) or one JSON object per event")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 if post-run invariants are violated")
    args = parser.parse_args(argv)

    try:
        with open(args.scenario) as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        sc = parse_scenario(text)
    except ScenarioError as exc:
        print(f"error: {args.scenario}: {exc}", file=sys.stderr)
        return 2

    result = run_scenario(sc, trace=bool(args.trace))
    lines = format_metrics(result)
    if args.metrics:
        with open(args.metrics, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    else:
        for line in lines:
            print(line)
    if args.trace:
        with open(args.trace, "w") as fh:
            fh.write("\n".join(result.sim.trace_lines(args.trace_format)) + "\n")

    if args.check and result.issues:
        for issue in result.issues:
            print(f"invariant: {issue}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
