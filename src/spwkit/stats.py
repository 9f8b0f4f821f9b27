"""Per-subsystem severity summary: count, mean, median and IQR.

Quantile convention: on the sorted sample, the q-th quantile sits at
position ``q*(n-1)`` (0-indexed) with linear interpolation between
neighbouring order statistics; the median is the 0.5 quantile, which for
even n is the midpoint of the two central values. IQR = Q3 - Q1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cvss import Severity, severity_for
from .errors import check_range
from .register import Register
from .taxonomy import Subsystem

@dataclass(frozen=True)
class SubsystemSummary:
    """Severity statistics for one subsystem (full precision retained)."""

    subsystem: Subsystem
    n: int
    mean: float
    median: float
    iqr: float


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolation quantile of an unsorted sample."""
    if not values:
        raise ValueError("quantile of empty sample")
    check_range(ValueError, "quantile", "q", q, 0, 1)
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lower = int(pos)
    frac = pos - lower
    if frac == 0.0 or lower + 1 >= len(ordered):
        return float(ordered[lower])
    return ordered[lower] + frac * (ordered[lower + 1] - ordered[lower])


def summarize_scores(scores: list[float]) -> tuple[float, float, float]:
    """(mean, median, iqr) of a non-empty score sample.

    All three statistics are computed over the sorted sample, so results
    are bit-for-bit independent of input order.
    """
    ordered = sorted(scores)
    mean = sum(ordered) / len(ordered)
    median = quantile(ordered, 0.5)
    iqr = quantile(ordered, 0.75) - quantile(ordered, 0.25)
    return mean, median, iqr


def summarize(register: Register) -> list[SubsystemSummary]:
    """One summary row per subsystem present, in ``Subsystem`` order."""
    scores: dict[Subsystem, list[float]] = {subsystem: [] for subsystem in Subsystem}
    for entry in register.entries:
        scores[entry.subsystem].append(entry.cvss_score)
    return [SubsystemSummary(subsystem, len(group), *summarize_scores(group))
            for subsystem, group in scores.items() if group]


def severity_distribution(register: Register) -> dict[Severity, int]:
    """Whole-register entry counts per qualitative severity band."""
    counts = {band: 0 for band in Severity}
    for entry in register.entries:
        counts[severity_for(entry.cvss_score)] += 1
    return counts
