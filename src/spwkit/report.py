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
from dataclasses import dataclass, field
from enum import Enum
from importlib import resources

from .errors import SpwkitError
from .register import Register
from .scenario import ComparisonReport, ScenarioSpec
from .stats import severity_distribution, summarize
from .taxonomy import classify_tier

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
        self.sections.append(Section(
            title=title, header=tuple(header),
            rows=tuple(tuple(str(c) for c in r) for r in rows)))

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
                for item in s.checklist:
                    writer.writerow(["", item])
            else:
                writer.writerow(s.header)
                for r in s.rows:
                    writer.writerow(r)
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
    return f"{value:.{decimals}f}"


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
    rows = [
        (e.id, e.title, e.subsystem.display_name, fmt(e.cvss_score, 1),
         str(classify_tier(e)))
        for e in register.entries
    ]
    doc.add_table("Operational risk tiers",
                  ("Id", "Title", "Subsystem", "Score", "Tier"), rows)
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


def _best_candidate(report: ComparisonReport):
    candidates = [c for c in report.comparisons if c.candidate != report.baseline]
    return max(candidates, key=lambda c: c.spw_ratio)


def scenario_report(scenario: ScenarioSpec, report: ComparisonReport,
                    paper_check: bool = False) -> ReportDocument:
    """Full scenario evaluation document."""
    doc = ReportDocument()

    rows = []
    for o in report.outcomes:
        rows.append((
            o.name, fmt(o.sg, 2), fmt(o.power.total, 2), fmt(o.power.uncertainty, 2),
            fmt(o.spw, 2), fmt(o.first_order.spw_sigma, 2),
            fmt(o.monte_carlo.spw_sigma, 2), fmt(o.sei_value, 3)))
    doc.add_table(
        f"Strategy results: {report.scenario_name}",
        ("Strategy", "SG", "P_op (W)", "+/- (W)", "SpW", "sigma (first-order)",
         f"sigma (MC, n={scenario.monte_carlo_n})", "SEI"),
        rows)

    rows = [
        (c.candidate, fmt(c.spw_ratio, 2) + "x", fmt_pct(c.power_saving),
         fmt_pct(c.security_reduction, 1), fmt(c.sei_ratio, 2) + "x")
        for c in report.comparisons
    ]
    doc.add_table(
        f"Comparison vs baseline ({report.baseline})",
        ("Strategy", "SpW ratio", "Power saving", "Security reduction", "SEI ratio"),
        rows)

    tier_rows = [(e.id, e.title, str(classify_tier(e))) for e in report.targets]
    doc.add_table("Target classification", ("Id", "Title", "Tier"), tier_rows)

    composed = [o.name for o in report.outcomes if o.rrf_composed]
    if composed:
        doc.add_prose(
            "Layered controls",
            "Effective RRF composed as 1 - prod(1 - rrf) for: " + ", ".join(composed))

    best = _best_candidate(report)
    baseline_controls = " + ".join(
        c.control_id for c in scenario.strategy(report.baseline).controls)
    candidate_controls = " + ".join(
        c.control_id for c in scenario.strategy(best.candidate).controls)
    finding = (
        f"{best.candidate} delivers {fmt(best.spw_ratio, 2)}x the per-watt security "
        f"of {report.baseline} while using {fmt_pct(best.power_saving)} less power "
        f"({fmt_pct(best.security_reduction, 1)} lower absolute gain)")
    doc.add_table(
        "Summary",
        ("Scenario", "Key Controls", "SpW Advantage", "Power Saving", "Principal Finding"),
        [(report.scenario_name, f"{candidate_controls} vs {baseline_controls}",
          fmt(best.spw_ratio, 2) + "x", fmt_pct(best.power_saving), finding)])

    if paper_check:
        _append_paper_check(doc, report)
    return doc


def _reference_figures(scenario_name: str) -> dict | None:
    text = (resources.files("spwkit") / "data" / REFERENCE_FIGURES).read_text(
        encoding="utf-8")
    return json.loads(text).get(scenario_name)


def _computed_quantity(kind: str, strategy: str, report: ComparisonReport) -> float:
    of_outcome = kind in ("sg", "p_operational", "spw", "spw_sigma", "sei")
    try:
        found = report.outcome(strategy) if of_outcome else report.comparison(strategy)
    except KeyError:
        raise SpwkitError(f"published figures for '{report.scenario_name}' name strategy "
                          f"'{strategy}', which the scenario does not have") from None
    if of_outcome:
        return {
            "sg": found.sg,
            "p_operational": found.power.total,
            "spw": found.spw,
            "spw_sigma": found.first_order.spw_sigma,
            "sei": found.sei_value,
        }[kind]
    return {
        "spw_ratio": found.spw_ratio,
        "power_saving_pct": found.power_saving * 100.0,
        "security_reduction_pct": found.security_reduction * 100.0,
        "sei_ratio": found.sei_ratio,
    }[kind]


def _check_rows(checks: list[dict], report: ComparisonReport) -> list[tuple[str, str, str, str]]:
    rows = []
    for check in checks:
        kind = check["kind"]
        strategy = check.get("strategy", "")
        decimals = check["decimals"]
        published = check["value"]
        computed = _computed_quantity(kind, strategy, report)
        computed_text = fmt(computed, decimals)
        published_text = fmt(published, decimals)
        if not check.get("derivable", True):
            status = FLAG_MARK + " (derivation unstated)"
        elif computed_text == published_text:
            status = PASS_MARK
        else:
            status = FLAG_MARK + " (not reproduced)"
        label = f"{kind}[{strategy}]" if strategy else kind
        rows.append((label, computed_text, published_text, status))
    return rows


def paper_check_rows(report: ComparisonReport) -> list[tuple[str, str, str, str]] | None:
    """(quantity, computed, published, status) rows, or None if no figures
    are on file for this scenario."""
    figures = _reference_figures(report.scenario_name)
    return None if figures is None else _check_rows(figures["checks"], report)


def _append_paper_check(doc: ReportDocument, report: ComparisonReport) -> None:
    figures = _reference_figures(report.scenario_name)
    if figures is None:
        doc.add_prose("Published-figure check",
                      "No published reference figures on file for this scenario.")
        return
    doc.add_table("Published-figure check", ("Quantity", "Computed", "Published", "Status"),
                  _check_rows(figures["checks"], report))
    for note in figures.get("notes", []):
        doc.add_prose("Note", note)
