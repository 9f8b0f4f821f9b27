"""Command-line interface.

Subcommands: validate, score, classify, stats, scenario, checklist.
classify, stats, scenario and checklist take --format and --out; scenario
also takes --seed and --paper-check; any other option is a usage error
(exit 2). Reports go to stdout (or --out); diagnostics go to stderr, each
warning as one "warning: <Class>: <message>" line. Exit codes: 0 success,
1 internal error, 2 input or validation error, chosen by main() alone; it
flushes stdout before it returns 0, so a closed pipe, like a report that
stdout cannot encode, is exit 2 (written a slice at a time once all
encode, such a report leaves stdout empty at any size). $SPW_REGISTER
supplies a default register path where one is not given on the command
line. Only `scenario` imports spwkit.scenario, on its first call to
load_scenario() or evaluate() here. run(), the `spw` process, freezes the
garbage collector once the command returns (in-process main() never does).
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import warnings

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

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INPUT = 2

REGISTER_ENV = "SPW_REGISTER"
REPORT_SLICE = 1 << 16  # characters per report write: no second full-size copy


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
    register = argparse.ArgumentParser(add_help=False)
    register.add_argument("register", nargs="?", help=f"register CSV (default: ${REGISTER_ENV})")
    parser = argparse.ArgumentParser(
        prog="spw",
        description="Power-aware security risk assessment for CubeSat missions.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[register], help="validate a register file")
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("score", help="score a CVSS v3.1 vector string")
    p.set_defaults(handler=cmd_score)
    p.add_argument("vector", help="vector, e.g. CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H")

    p = sub.add_parser("classify", parents=[output, register],
                       help="tier-classify every register entry")
    p.set_defaults(handler=cmd_classify)

    p = sub.add_parser("stats", parents=[output, register],
                       help="per-subsystem severity summary")
    p.set_defaults(handler=cmd_stats)

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


def _write(stream, text: str) -> None:
    """Write ``text`` in slices once all encode as the stream will: none if one cannot."""
    slices = range(0, len(text), REPORT_SLICE)
    if getattr(stream, "encoding", None):  # io.StringIO has none and takes any text
        for at in slices:
            try:
                text[at:at + REPORT_SLICE].encode(stream.encoding, stream.errors)
            except UnicodeEncodeError as exc:
                raise UnicodeEncodeError(exc.encoding, text, at + exc.start, at + exc.end,
                                         exc.reason) from None
    for at in slices:
        stream.write(text[at:at + REPORT_SLICE])


def _emit(doc: ReportDocument, args) -> None:
    rendered = doc.render(args.format)
    if args.out:
        try:
            out = open(args.out, "w", encoding="utf-8")
        except ValueError as exc:  # a NUL in the path
            raise SpwkitError(f"cannot write report file {args.out}: {exc}") from exc
        with out:
            _write(out, rendered)
    elif sys.stdout is not None:  # None when fd 1 was closed at start-up
        _write(sys.stdout, rendered)


def load_scenario(path):
    from .scenario import load_scenario
    return load_scenario(path)


def evaluate(scenario, register, seed=None):
    from .scenario import evaluate
    return evaluate(scenario, register, seed=seed)


def cmd_validate(args) -> None:
    print(f"{len(_load(args))} entries OK")


def cmd_score(args) -> None:
    print(cvss.score_string(args.vector))


def cmd_classify(args) -> None:
    _emit(classify_report(_load(args)), args)


def cmd_stats(args) -> None:
    _emit(stats_report(_load(args)), args)


def cmd_scenario(args) -> None:
    scenario = load_scenario(args.scenario)
    result = evaluate(scenario, load_register(scenario.register_path), seed=args.seed)
    _emit(scenario_report(result, paper_check=args.paper_check), args)


def cmd_checklist(args) -> None:
    _emit(checklist_report(), args)


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
            args.handler(args)
        if sys.stdout is not None:  # None when fd 1 was closed at start-up
            sys.stdout.flush()  # a closed pipe fails here, not at shutdown
    except (SpwkitError, OSError, UnicodeEncodeError) as exc:
        _diagnostic("error: ", exc)
        return EXIT_INPUT
    except Exception as exc:  # pragma: no cover - defensive
        _diagnostic("internal error: ", exc)
        return EXIT_INTERNAL
    return EXIT_OK


def run() -> None:
    """The ``spw`` process: exit with ``main()``'s code, skipping shutdown's
    collections of objects the OS reclaims with the process anyway."""
    code = main()
    gc.freeze()
    if code:  # shutdown flushes stdout again: let what a failed write left land in /dev/null
        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
    raise SystemExit(code)


if __name__ == "__main__":
    run()
