"""Report documents and their markdown / CSV / plain-text renderings.

All numeric cells are formatted once, when a document is built, so every
output format carries identical values: gains and per-watt ratios at two
decimals, index values at three, summary statistics at one.

Scenario reports can append a published-figure comparison: each bundled
reference value is checked against the computed quantity at its printed
precision and marked ``pass``, or flagged ``paper-stated`` when the
computation does not reproduce it (including figures whose derivation was
never stated and cannot be reproduced from the inputs).
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

from .errors import SpwkitError
from .register import Register
from .spw import SPW_DISPLAY_DECIMALS
from .taxonomy import RiskTier, classify_tier

if TYPE_CHECKING:
    from .scenario import ComparisonReport

PASS_MARK = "pass"
FLAG_MARK = "FLAG paper-stated"


@dataclass(frozen=True)
class Section:
    """One titled block: a table, prose, or a fillable checklist."""

    title: str
    header: tuple[str, ...] = ()
    rows: tuple[tuple[str, ...], ...] = ()
    prose: str = ""
    checklist: tuple[str, ...] = ()


@dataclass(frozen=True)
class ReportDocument:
    sections: tuple[Section, ...]

    def render(self, fmt: str) -> str:
        """The document in ``fmt``, a key of ``FORMATS``."""
        return FORMATS[fmt](self.sections)


def _one_line(text: str, br: str) -> str:
    """``text`` with each line break (CRLF, CR or LF) written as ``br``."""
    return text.replace("\r\n", "\n").replace("\r", "\n").replace("\n", br)


def _md_row(cells: tuple[str, ...]) -> str:
    # A "|" would end the cell; a line break, here or in a title or prose, the block.
    return "| " + " | ".join(_one_line(c.replace("|", r"\|"), "<br>") for c in cells) + " |"


def _render_markdown(sections: tuple[Section, ...]) -> str:
    parts = []
    for s in sections:
        parts.append(f"## {_one_line(s.title, '<br>')}\n")
        if s.prose:
            parts.append(_one_line(s.prose, "<br>") + "\n")
        elif s.checklist:
            parts.extend(f"- [ ] {item}" for item in s.checklist)
            parts.append("")
        else:
            parts.append(_md_row(s.header))
            parts.append("|" + "|".join(" --- " for _ in s.header) + "|")
            parts.extend(map(_md_row, s.rows))
            parts.append("")
    return "\n".join(parts).rstrip() + "\n"


def _render_csv(sections: tuple[Section, ...]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for s in sections:
        buf.write(f"# {_one_line(s.title, ' ')}\n")
        if s.prose:
            writer.writerow([s.prose])
        elif s.checklist:
            writer.writerow(["done", "practice"])
            writer.writerows(["", item] for item in s.checklist)
        else:
            writer.writerow(s.header)
            writer.writerows(s.rows)
    return buf.getvalue()


def _render_text(sections: tuple[Section, ...]) -> str:
    parts = []
    for s in sections:
        title = _one_line(s.title, " ")
        parts.extend((title, "-" * len(title)))
        if s.prose:
            parts.append(_one_line(s.prose, " "))
        elif s.checklist:
            parts.extend(f"[ ] {item}" for item in s.checklist)
        else:
            table = [[_one_line(c, " ") for c in row] for row in (s.header, *s.rows)]
            widths = [max(len(row[i]) for row in table) for i in range(len(s.header))]
            for row in table:
                parts.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        parts.append("")
    return "\n".join(parts).rstrip() + "\n"


# Each --format value -> its renderer.
FORMATS = {"md": _render_markdown, "csv": _render_csv, "text": _render_text}


def fmt(value: float, decimals: int) -> str:
    """``value`` to ``decimals`` places; NaN (a ratio to a zero baseline) reads ``n/a``."""
    return "n/a" if math.isnan(value) else f"{value:.{decimals}f}"


def fmt_times(value: float) -> str:
    """A ratio as ``1.23x``, or ``n/a``."""
    return fmt(value, 2) + ("" if math.isnan(value) else "x")


def fmt_pct(fraction: float, decimals: int = 0) -> str:
    return f"{fraction * 100:.{decimals}f}%"


def stats_report(register: Register) -> ReportDocument:
    """Severity summary table plus the whole-register band distribution."""
    from .stats import severity_distribution, summarize
    return ReportDocument((
        Section("Severity summary by subsystem", ("Subsystem", "n", "Mean", "Median", "IQR"),
                tuple((s.subsystem.display_name, str(s.n), fmt(s.mean, 1), fmt(s.median, 1),
                       fmt(s.iqr, 1)) for s in summarize(register))),
        Section("Severity band distribution (all entries)", ("Band", "Entries"),
                tuple((str(b), str(n)) for b, n in severity_distribution(register).items()))))


def classify_report(register: Register) -> ReportDocument:
    """Tier classification of every register entry."""
    # One string per distinct score and per tier, in two tables, since
    # RiskTier.HIGH == 2 == 2.0.
    scores: dict[float, str] = {}
    tiers = {tier: str(tier) for tier in RiskTier}

    def score_text(score: float) -> str:
        if score not in scores or not score:  # -0.0 == 0.0, yet prints "-0.0"
            scores[score] = fmt(score, 1)
        return scores[score]

    return ReportDocument((Section(
        "Operational risk tiers", ("Id", "Title", "Subsystem", "Score", "Tier"),
        tuple((e.id, e.title, e.subsystem.display_name, score_text(e.cvss_score),
               tiers[classify_tier(e)]) for e in register.entries)),))


CHECKLIST_ITEMS = (
    "Contractual obligations requiring firmware provenance and patch "
    "transparency for all critical components",
    "Shared register of approved component versions, maintained across "
    "the consortium",
    "Documented acceptance testing at integration, including basic "
    "firmware integrity verification",
    "Named point of contact at each vendor responsible for security "
    "disclosures",
)


def checklist_report() -> ReportDocument:
    """Baseline supply-chain assurance practices as a fillable checklist."""
    return ReportDocument((Section("Supply-chain baseline practices",
                                   checklist=CHECKLIST_ITEMS),))


def scenario_report(report: ComparisonReport, paper_check: bool = False) -> ReportDocument:
    """Full scenario evaluation document."""
    sections = [
        Section(f"Strategy results: {report.scenario_name}",
                ("Strategy", "SG", "P_op (W)", "+/- (W)", "SpW", "sigma (first-order)",
                 f"sigma (MC, n={report.monte_carlo_n})", "SEI"),
                tuple((o.name, fmt(o.sg, 2), fmt(o.power.total, 2), fmt(o.power.uncertainty, 2),
                       fmt(o.spw, SPW_DISPLAY_DECIMALS), fmt(o.first_order.spw_sigma, 2),
                       fmt(o.monte_carlo.spw_sigma, 2), fmt(o.sei_value, 3))
                      for o in report.outcomes)),
        Section(f"Comparison vs baseline ({report.baseline})",
                ("Strategy", "SpW ratio", "Power saving", "Security reduction", "SEI ratio"),
                tuple((o.name, fmt_times(o.spw_ratio), fmt_pct(o.power_saving),
                       fmt_pct(o.security_reduction, 1), fmt_times(o.sei_ratio))
                      for o in report.outcomes)),
        Section("Target classification", ("Id", "Title", "Tier"),
                tuple((e.id, e.title, str(classify_tier(e))) for e in report.targets)),
    ]

    composed = [o.name for o in report.outcomes if o.rrf_composed]
    if composed:
        sections.append(Section("Layered controls", prose="Effective RRF composed as "
                                "1 - prod(1 - rrf) for: " + ", ".join(composed)))

    # max keeps the first of equal ratios, so a tie goes to the first-listed strategy.
    best = max((o for o in report.outcomes if o.name != report.baseline),
               key=lambda o: o.spw_ratio)
    controls = " + ".join(best.controls) + " vs " + " + ".join(
        report.outcome(report.baseline).controls)
    finding = (
        f"{best.name} delivers {fmt_times(best.spw_ratio)} the per-watt security "
        f"of {report.baseline} while using {fmt_pct(best.power_saving)} less power "
        f"({fmt_pct(best.security_reduction, 1)} lower absolute gain)")
    sections.append(Section(
        "Summary",
        ("Scenario", "Key Controls", "SpW Advantage", "Power Saving", "Principal Finding"),
        ((report.scenario_name, controls, fmt_times(best.spw_ratio), fmt_pct(best.power_saving),
          finding),)))

    if paper_check:
        sections.extend(_paper_check_sections(report))
    return ReportDocument(tuple(sections))


@lru_cache(maxsize=1)
def _reference_figures() -> dict:
    """The bundled published figures, keyed by scenario name."""
    import json
    from importlib import resources
    text = (resources.files("spwkit") / "data" / "reference_figures.json").read_text(
        encoding="utf-8")
    return json.loads(text)


# Each published-figure kind -> its quantity, from a strategy's outcome.
_QUANTITIES = {
    "sg": lambda o: o.sg,
    "p_operational": lambda o: o.power.total,
    "spw": lambda o: o.spw,
    "spw_sigma": lambda o: o.first_order.spw_sigma,
    "sei": lambda o: o.sei_value,
    "spw_ratio": lambda o: o.spw_ratio,
    "power_saving_pct": lambda o: o.power_saving * 100.0,
    "security_reduction_pct": lambda o: o.security_reduction * 100.0,
    "sei_ratio": lambda o: o.sei_ratio,
}


def paper_check_rows(report: ComparisonReport) -> list[tuple[str, str, str, str]] | None:
    """(quantity, computed, published, status) rows, or None if no figures
    are on file for this scenario."""
    figures = _reference_figures().get(report.scenario_name)
    if figures is None:
        return None
    rows = []
    for check in figures["checks"]:
        kind = check["kind"]
        strategy = check.get("strategy", "")
        try:
            outcome = report.outcome(strategy)
        except KeyError:
            raise SpwkitError(f"published figures for '{report.scenario_name}' name strategy "
                              f"'{strategy}', which the scenario does not have") from None
        decimals = check["decimals"]
        computed_text = fmt(_QUANTITIES[kind](outcome), decimals)
        published_text = fmt(check["value"], decimals)
        if not check.get("derivable", True):
            status = FLAG_MARK + " (derivation unstated)"
        elif computed_text == published_text:
            status = PASS_MARK
        else:
            status = FLAG_MARK + " (not reproduced)"
        rows.append((f"{kind}[{strategy}]", computed_text, published_text, status))
    return rows


def _paper_check_sections(report: ComparisonReport) -> tuple[Section, ...]:
    rows = paper_check_rows(report)
    if rows is None:
        return (Section("Published-figure check",
                        prose="No published reference figures on file for this scenario."),)
    return (Section("Published-figure check", ("Quantity", "Computed", "Published", "Status"),
                    tuple(rows)),
            *(Section("Note", prose=note)
              for note in _reference_figures()[report.scenario_name].get("notes", [])))
