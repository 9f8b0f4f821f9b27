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
import json
import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from importlib import resources

from .errors import SpwkitError
from .register import Register
from .scenario import SPW_DISPLAY_DECIMALS, ComparisonReport
from .stats import severity_distribution, summarize
from .taxonomy import RiskTier, classify_tier

REFERENCE_FIGURES = "reference_figures.json"

PASS_MARK = "pass"
FLAG_MARK = "FLAG paper-stated"


class ReportFormat(Enum):
    MARKDOWN = "md"
    CSV = "csv"
    PLAIN_TEXT = "text"


@dataclass(frozen=True)
class Section:
    """One titled block: a table, prose, or a fillable checklist."""

    title: str
    header: tuple[str, ...] = ()
    rows: tuple[tuple[str, ...], ...] = ()
    prose: str = ""
    checklist: tuple[str, ...] = ()


@dataclass
class ReportDocument:
    sections: list[Section] = field(default_factory=list)

    def add_table(self, title, header, rows):
        """``rows`` yields rows of cell strings; a row given as a tuple is kept, not copied."""
        self.sections.append(Section(title=title, header=tuple(header),
                                     rows=tuple(map(tuple, rows))))

    def add_prose(self, title, text):
        self.sections.append(Section(title=title, prose=text))

    def add_checklist(self, title, items):
        self.sections.append(Section(title=title, checklist=tuple(items)))

    def render(self, fmt: ReportFormat) -> str:
        if fmt is ReportFormat.MARKDOWN:
            return self._render_markdown()
        if fmt is ReportFormat.CSV:
            return self._render_csv()
        return self._render_text()

    def _render_markdown(self) -> str:
        parts = []
        for s in self.sections:
            parts.append(f"## {s.title}\n")
            if s.prose:
                parts.append(s.prose + "\n")
            elif s.checklist:
                parts.extend(f"- [ ] {item}" for item in s.checklist)
                parts.append("")
            else:
                parts.append("| " + " | ".join(s.header) + " |")
                parts.append("|" + "|".join(" --- " for _ in s.header) + "|")
                parts.extend("| " + " | ".join(r) + " |" for r in s.rows)
                parts.append("")
        return "\n".join(parts).rstrip() + "\n"

    def _render_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        for s in self.sections:
            buf.write(f"# {s.title}\n")
            if s.prose:
                writer.writerow([s.prose])
            elif s.checklist:
                writer.writerow(["done", "practice"])
                writer.writerows(["", item] for item in s.checklist)
            else:
                writer.writerow(s.header)
                writer.writerows(s.rows)
        return buf.getvalue()

    def _render_text(self) -> str:
        parts = []
        for s in self.sections:
            parts.append(s.title)
            parts.append("-" * len(s.title))
            if s.prose:
                parts.append(s.prose)
            elif s.checklist:
                parts.extend(f"[ ] {item}" for item in s.checklist)
            else:
                table = [s.header, *s.rows]
                widths = [max(len(row[i]) for row in table) for i in range(len(s.header))]
                for row in table:
                    parts.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
            parts.append("")
        return "\n".join(parts).rstrip() + "\n"


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
    doc = ReportDocument()
    rows = [
        (s.subsystem.display_name, str(s.n), fmt(s.mean, 1), fmt(s.median, 1), fmt(s.iqr, 1))
        for s in summarize(register)
    ]
    doc.add_table("Severity summary by subsystem",
                  ("Subsystem", "n", "Mean", "Median", "IQR"), rows)
    distribution = severity_distribution(register)
    doc.add_table("Severity band distribution (all entries)",
                  ("Band", "Entries"),
                  [(str(band), str(count)) for band, count in distribution.items()])
    return doc


def classify_report(register: Register) -> ReportDocument:
    """Tier classification of every register entry."""
    doc = ReportDocument()
    # One string per distinct score and per tier, in two tables, since
    # RiskTier.HIGH == 2 == 2.0.
    scores: dict[float, str] = {}
    tiers = {tier: str(tier) for tier in RiskTier}

    def score_text(score: float) -> str:
        if score not in scores or not score:  # -0.0 == 0.0, yet prints "-0.0"
            scores[score] = fmt(score, 1)
        return scores[score]

    doc.add_table("Operational risk tiers",
                  ("Id", "Title", "Subsystem", "Score", "Tier"),
                  ((e.id, e.title, e.subsystem.display_name, score_text(e.cvss_score),
                    tiers[classify_tier(e)]) for e in register.entries))
    return doc


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
    doc = ReportDocument()
    doc.add_checklist("Supply-chain baseline practices", CHECKLIST_ITEMS)
    return doc


def scenario_report(report: ComparisonReport, paper_check: bool = False) -> ReportDocument:
    """Full scenario evaluation document."""
    doc = ReportDocument()

    doc.add_table(
        f"Strategy results: {report.scenario_name}",
        ("Strategy", "SG", "P_op (W)", "+/- (W)", "SpW", "sigma (first-order)",
         f"sigma (MC, n={report.monte_carlo_n})", "SEI"),
        [(o.name, fmt(o.sg, 2), fmt(o.power.total, 2), fmt(o.power.uncertainty, 2),
          fmt(o.spw, SPW_DISPLAY_DECIMALS), fmt(o.first_order.spw_sigma, 2),
          fmt(o.monte_carlo.spw_sigma, 2), fmt(o.sei_value, 3)) for o in report.outcomes])
    doc.add_table(
        f"Comparison vs baseline ({report.baseline})",
        ("Strategy", "SpW ratio", "Power saving", "Security reduction", "SEI ratio"),
        [(o.name, fmt_times(o.spw_ratio), fmt_pct(o.power_saving),
          fmt_pct(o.security_reduction, 1), fmt_times(o.sei_ratio))
         for o in report.outcomes])

    tier_rows = [(e.id, e.title, str(classify_tier(e))) for e in report.targets]
    doc.add_table("Target classification", ("Id", "Title", "Tier"), tier_rows)

    composed = [o.name for o in report.outcomes if o.rrf_composed]
    if composed:
        doc.add_prose("Layered controls",
                      "Effective RRF composed as 1 - prod(1 - rrf) for: " + ", ".join(composed))

    # max keeps the first of equal ratios, so a tie goes to the first-listed strategy.
    best = max((o for o in report.outcomes if o.name != report.baseline),
               key=lambda o: o.spw_ratio)
    controls = " + ".join(best.controls) + " vs " + " + ".join(
        report.outcome(report.baseline).controls)
    finding = (
        f"{best.name} delivers {fmt(best.spw_ratio, 2)}x the per-watt security "
        f"of {report.baseline} while using {fmt_pct(best.power_saving)} less power "
        f"({fmt_pct(best.security_reduction, 1)} lower absolute gain)")
    doc.add_table(
        "Summary",
        ("Scenario", "Key Controls", "SpW Advantage", "Power Saving", "Principal Finding"),
        [(report.scenario_name, controls,
          fmt_times(best.spw_ratio), fmt_pct(best.power_saving), finding)])

    if paper_check:
        _append_paper_check(doc, report)
    return doc


@lru_cache(maxsize=1)
def _reference_figures() -> dict:
    """The bundled published figures, keyed by scenario name."""
    text = (resources.files("spwkit") / "data" / REFERENCE_FIGURES).read_text(
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


def _append_paper_check(doc: ReportDocument, report: ComparisonReport) -> None:
    rows = paper_check_rows(report)
    if rows is None:
        doc.add_prose("Published-figure check",
                      "No published reference figures on file for this scenario.")
        return
    doc.add_table("Published-figure check", ("Quantity", "Computed", "Published", "Status"),
                  rows)
    for note in _reference_figures()[report.scenario_name].get("notes", []):
        doc.add_prose("Note", note)
