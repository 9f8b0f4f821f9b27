"""Severity summary statistics against independent oracles."""

import random

import numpy as np
import pytest

from spwkit.cvss import Severity
from spwkit.register import COLUMNS, loads
from spwkit.stats import (
    SubsystemSummary,
    quantile,
    severity_distribution,
    summarize,
    summarize_scores,
)
from spwkit.taxonomy import Subsystem


def register_with_scores(by_subsystem):
    header = ",".join(COLUMNS)
    rows = []
    n = 0
    for token, scores in by_subsystem.items():
        for s in scores:
            n += 1
            rows.append(",".join([
                f"R{n}", "t", token, "S", "", "", f"{s:.1f}", "availability",
                "", "", "", ""]))
    return loads(header + "\n" + "\n".join(rows) + ("\n" if rows else ""))


def oracle_stats(scores):
    """Sort + direct position arithmetic, written out independently."""
    s = sorted(scores)
    n = len(s)
    mean = sum(s) / n

    def at(fraction):
        position = fraction * (n - 1)
        below = int(position)
        remainder = position - below
        if below == n - 1:
            return float(s[below])
        return s[below] + remainder * (s[below + 1] - s[below])

    return mean, at(0.5), at(0.75) - at(0.25)


class TestBundledSummary:
    EXPECTED = {
        Subsystem.GROUND_SEGMENT: (10, 8.2, 8.4, 1.4),
        Subsystem.ONBOARD_COMPUTING: (11, 6.9, 6.8, 1.7),
        Subsystem.COMMUNICATIONS: (12, 8.0, 8.2, 2.0),
        Subsystem.NETWORK_CONSTELLATION: (9, 7.5, 7.3, 1.3),
    }

    def test_matches_reference_summary(self, register):
        rows = summarize(register)
        assert len(rows) == 4
        for row in rows:
            n, mean, median, iqr = self.EXPECTED[row.subsystem]
            assert row.n == n
            assert round(row.mean, 1) == mean
            assert round(row.median, 1) == median
            assert round(row.iqr, 1) == iqr

    def test_canonical_row_order(self, register):
        assert [r.subsystem for r in summarize(register)] == [
            Subsystem.GROUND_SEGMENT, Subsystem.ONBOARD_COMPUTING,
            Subsystem.COMMUNICATIONS, Subsystem.NETWORK_CONSTELLATION]

    def test_band_distribution(self, register):
        distribution = severity_distribution(register)
        assert distribution[Severity.CRITICAL] == 9
        assert distribution[Severity.HIGH] == 21
        assert distribution[Severity.MEDIUM] == 12
        assert distribution[Severity.LOW] == 0
        assert sum(distribution.values()) == 42


class TestEdgeCases:
    def test_empty_register(self):
        assert summarize(register_with_scores({})) == []

    def test_single_entry(self):
        rows = summarize(register_with_scores({"comms": [5.0]}))
        assert rows == [SubsystemSummary(Subsystem.COMMUNICATIONS, 1, 5.0, 5.0, 0.0)]

    def test_absent_subsystems_omitted(self):
        rows = summarize(register_with_scores({"obc": [4.0, 6.0]}))
        assert [r.subsystem for r in rows] == [Subsystem.ONBOARD_COMPUTING]

    def test_quantile_rejects_bad_input(self):
        with pytest.raises(ValueError):
            quantile([], 0.5)
        with pytest.raises(ValueError):
            quantile([1.0], 1.5)

    @pytest.mark.parametrize("q", [1.5, -0.5, float("nan")])
    def test_quantile_names_a_rejected_fraction(self, q):
        with pytest.raises(ValueError) as info:
            quantile([1.0], q)
        assert str(info.value) == f"quantile: q={q} outside [0, 1]"


class TestOracleEquivalence:
    def test_exact_against_direct_computation(self):
        rng = random.Random(1234)
        for _ in range(1000):
            scores = [rng.randrange(0, 101) / 10 for _ in range(rng.randint(1, 50))]
            mean, median, iqr = summarize_scores(scores)
            o_mean, o_median, o_iqr = oracle_stats(scores)
            assert mean == o_mean
            assert median == o_median
            assert iqr == o_iqr

    def test_close_to_numpy_linear(self):
        rng = random.Random(99)
        for _ in range(200):
            scores = [rng.uniform(0, 10) for _ in range(rng.randint(1, 50))]
            _, median, iqr = summarize_scores(scores)
            assert median == pytest.approx(float(np.quantile(scores, 0.5)), abs=1e-12)
            np_iqr = float(np.quantile(scores, 0.75) - np.quantile(scores, 0.25))
            assert iqr == pytest.approx(np_iqr, abs=1e-12)


class TestInvariants:
    def test_permutation_invariance(self, register):
        entries = list(register.entries)
        random.Random(7).shuffle(entries)
        from spwkit.register import Register
        assert summarize(Register(entries=entries)) == summarize(register)

    def test_median_within_range(self):
        rng = random.Random(5)
        for _ in range(200):
            scores = [rng.uniform(0, 10) for _ in range(rng.randint(1, 30))]
            _, median, _ = summarize_scores(scores)
            assert min(scores) <= median <= max(scores)

    def test_iqr_nonnegative(self):
        rng = random.Random(6)
        for _ in range(200):
            scores = [rng.uniform(0, 10) for _ in range(rng.randint(1, 30))]
            assert summarize_scores(scores)[2] >= 0.0
