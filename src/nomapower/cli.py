"""Command-line entry point.

Exit codes: 0 on success, 1 when a run fails validation (or a fixture
fails), 2 on configuration errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .scenario import (ALGORITHMS, OUTPUT_FORMATS, ConfigError, load_config,
                       run_fixture_checks, run_scenario, write_outputs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nomapower",
        description="Power control for downlink multi-cell NOMA")
    parser.add_argument("--fixtures", action="store_true",
                        help="run the built-in analytic fixtures and exit")
    sub = parser.add_subparsers(dest="command")
    run_p = sub.add_parser("run", help="run a scenario config")
    run_p.add_argument("config", help="YAML scenario file")
    run_p.add_argument("--seed", type=int, help="override the base seed")
    run_p.add_argument("--out", default="out", help="output directory")
    run_p.add_argument("--algo", choices=ALGORITHMS,
                       help="override the configured algorithm")
    run_p.add_argument("--format", choices=OUTPUT_FORMATS, default="csv")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.fixtures:
        return 0 if run_fixture_checks() else 1
    if args.command != "run":
        parser.print_help()
        return 2
    try:
        config = load_config(args.config)
        overrides = {}
        if args.seed is not None:
            overrides["seed"] = args.seed
        if args.algo is not None:
            overrides["algorithm"] = args.algo
        if overrides:
            config = dataclasses.replace(config, **overrides)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    artifacts = run_scenario(config)
    paths = write_outputs(artifacts, args.out, fmt=args.format)
    print(f"wrote {len(paths)} file(s) under {args.out}")
    for failure in artifacts.validation_failures:
        print(f"validation failure: {failure}", file=sys.stderr)
    return 0 if artifacts.ok else 1


if __name__ == "__main__":
    sys.exit(main())
