"""Command-line interface.

Subcommands: validate, score, classify, stats, scenario, checklist.
classify, stats, scenario and checklist take --format and --out; scenario
also takes --seed and --paper-check; any other option is a usage error
(exit 2). Reports go to stdout (or --out); diagnostics go to stderr, each
warning as one "warning: <Class>: <message>" line. Exit codes: 0 success,
1 internal error, 2 input or validation error. The SPW_REGISTER
environment variable supplies a default register path where one is not
given on the command line.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from pathlib import Path

from . import cvss
from .errors import SpwkitError
from .register import Register, load_register
from .report import (
    FORMATS,
    ReportDocument,
    checklist_report,
    classify_report,
    scenario_report,
    stats_report,
)
from .scenario import evaluate, load_scenario

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INPUT = 2

REGISTER_ENV = "SPW_REGISTER"


def _seed(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer, got '{text}'")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--format", choices=list(FORMATS), default="md",
                        help="report output format (default: md)")
    output.add_argument("--out", metavar="PATH",
                        help="write the report to PATH instead of stdout")
    parser = argparse.ArgumentParser(
        prog="spw",
        description="Power-aware security risk assessment for CubeSat missions.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a register file")
    p.set_defaults(handler=cmd_validate)
    p.add_argument("register", nargs="?", help=f"register CSV (default: ${REGISTER_ENV})")

    p = sub.add_parser("score", help="score a CVSS v3.1 vector string")
    p.set_defaults(handler=cmd_score)
    p.add_argument("vector", help="vector, e.g. CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H")

    p = sub.add_parser("classify", parents=[output],
                       help="tier-classify every register entry")
    p.set_defaults(handler=cmd_classify)
    p.add_argument("register", nargs="?", help=f"register CSV (default: ${REGISTER_ENV})")

    p = sub.add_parser("stats", parents=[output],
                       help="per-subsystem severity summary")
    p.set_defaults(handler=cmd_stats)
    p.add_argument("register", nargs="?", help=f"register CSV (default: ${REGISTER_ENV})")

    p = sub.add_parser("scenario", parents=[output],
                       help="evaluate a scenario file and report the comparison")
    p.set_defaults(handler=cmd_scenario)
    p.add_argument("scenario", help="scenario JSON file")
    p.add_argument("--seed", type=_seed, default=None,
                   help="override the scenario's Monte Carlo seed")
    p.add_argument("--paper-check", action="store_true",
                   help="append a comparison of computed values against the "
                        "published reference figures bundled for this scenario")

    p = sub.add_parser("checklist", parents=[output],
                       help="emit the supply-chain baseline practice checklist")
    p.set_defaults(handler=cmd_checklist)
    return parser


def _load(args) -> Register:
    path = args.register or os.environ.get(REGISTER_ENV)
    if not path:
        raise SpwkitError(
            f"no register given: pass a path or set ${REGISTER_ENV}")
    return load_register(path)


def _emit(doc: ReportDocument, args) -> None:
    rendered = doc.render(args.format)
    if args.out:
        Path(args.out).write_text(rendered, encoding="utf-8")
    else:
        sys.stdout.write(rendered)


def cmd_validate(args) -> int:
    register = _load(args)
    print(f"{len(register)} entries OK")
    return EXIT_OK


def cmd_score(args) -> int:
    print(cvss.score_string(args.vector))
    return EXIT_OK


def cmd_classify(args) -> int:
    _emit(classify_report(_load(args)), args)
    return EXIT_OK


def cmd_stats(args) -> int:
    _emit(stats_report(_load(args)), args)
    return EXIT_OK


def cmd_scenario(args) -> int:
    scenario = load_scenario(args.scenario)
    register = load_register(scenario.register_path)
    result = evaluate(scenario, register, seed=args.seed)
    _emit(scenario_report(result, paper_check=args.paper_check), args)
    return EXIT_OK


def cmd_checklist(args) -> int:
    _emit(checklist_report(), args)
    return EXIT_OK


def _diagnostic(prefix: str, message) -> None:
    """One stderr line in one write (print() makes two), with CR and LF as ``\\r`` and ``\\n``."""
    sys.stderr.write(prefix + str(message).replace("\r", r"\r").replace("\n", r"\n") + "\n")


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    _diagnostic(f"warning: {category.__name__}: ", message)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning
            return args.handler(args)
    except (SpwkitError, OSError) as exc:
        _diagnostic("error: ", exc)
        return EXIT_INPUT
    except Exception as exc:  # pragma: no cover - defensive
        _diagnostic("internal error: ", exc)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
