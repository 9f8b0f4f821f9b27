"""Output checks: compare an spw report against the values the benchmark
worked out from its own inputs (see inputs.py)."""

from __future__ import annotations

import csv
import io
from itertools import dropwhile, takewhile

# Scenario tables print SG and P_op at two decimals; a correct cell is
# within half a unit of its last digit, plus float slack for sums taken
# in another order.
HALF_UNIT = 0.005 + 1e-9


class CheckError(Exception):
    """A report disagrees with the expected values."""


def check_triage(stdout: bytes, expected: dict) -> None:
    """`spw classify --format csv`: one row per generated id, in order, with
    the oracle score and the recomputed tier."""
    lines = stdout.decode("utf-8").splitlines(keepends=True)
    if not lines or lines[0] != "# Operational risk tiers\n":
        raise CheckError("missing '# Operational risk tiers' section")
    table = list(csv.reader(io.StringIO("".join(lines[1:]))))
    if not table or table[0] != ["Id", "Title", "Subsystem", "Score", "Tier"]:
        raise CheckError(f"unexpected header {table[:1]}")
    rows = table[1:]
    want = expected["rows"]
    if len(rows) != len(want):
        raise CheckError(f"{len(rows)} rows, expected {len(want)}")
    for row, (entry_id, score, tier) in zip(rows, want):
        if (row[0], row[3], row[4]) != (entry_id, score, tier):
            raise CheckError(f"row {row[0]}: got score {row[3]} tier {row[4]}, "
                             f"expected {entry_id} score {score} tier {tier}")


def _markdown_table(text: str, title_prefix: str) -> list[list[str]]:
    """Body rows of the first table whose title starts with title_prefix."""
    lines = iter(text.splitlines())
    for line in lines:
        if line.startswith("## " + title_prefix):
            break
    else:
        raise CheckError(f"no '{title_prefix}' table")
    table = takewhile(lambda ln: ln.startswith("|"),
                      dropwhile(lambda ln: not ln.startswith("|"), lines))
    # Skip the header and the |---| rule.
    return [[cell.strip() for cell in ln.strip("|").split("|")] for ln in list(table)[2:]]


def check_scenario(stdout: bytes, expected: dict) -> None:
    """`spw scenario` (markdown): SG and P_op of every strategy within half a
    unit of the last printed digit of the recomputed values."""
    rows = _markdown_table(stdout.decode("utf-8"), "Strategy results:")
    want = expected["strategies"]
    if [r[0] for r in rows] != list(want):
        raise CheckError(f"strategies {[r[0] for r in rows]}, expected {list(want)}")
    for name, sg, p_op, *_ in rows:
        for label, cell, value in (("SG", sg, want[name]["sg"]),
                                   ("P_op", p_op, want[name]["p_op"])):
            if abs(float(cell) - value) > HALF_UNIT:
                raise CheckError(f"{name}: {label} {cell}, expected {value:.6f}")


CHECKS = {
    "register-triage": check_triage,
    "scenario-wide": check_scenario,
    "montecarlo-deep": check_scenario,
}
