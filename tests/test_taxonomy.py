"""STRIDE codes and the tier classifier."""

import warnings

import pytest
from hypothesis import given, strategies as st

from spwkit.errors import DefaultTierWarning
from spwkit.register import loads, COLUMNS
from spwkit.taxonomy import (
    MissionFunction,
    RiskTier,
    Stride,
    classify_tier,
)


HIGH_TRIGGERS = {MissionFunction.TELEMETRY_INTEGRITY,
                 MissionFunction.COMMAND_INTEGRITY,
                 MissionFunction.NAVIGATION_INTEGRITY}


def entry_with(missions, score="5.0"):
    header = ",".join(COLUMNS)
    cells = ["X1", "t", "comms", "S", "", "", score,
             ";".join(m.value for m in missions), "", "", "", ""]
    return loads(header + "\n" + ",".join(cells) + "\n").entries[0]


class TestStrideEnum:
    def test_six_categories(self):
        assert len(Stride) == 6

    def test_letter_codes_bijective(self):
        letters = [s.value for s in Stride]
        assert sorted(letters) == ["D", "E", "I", "R", "S", "T"]


class TestClassifyTier:
    def test_command_integrity_is_high(self):
        entry = entry_with({MissionFunction.COMMAND_INTEGRITY}, score="9.0")
        assert classify_tier(entry) is RiskTier.HIGH

    def test_payload_confidentiality_only_is_medium(self):
        entry = entry_with({MissionFunction.PAYLOAD_CONFIDENTIALITY})
        assert classify_tier(entry) is RiskTier.MEDIUM

    def test_availability_only_is_low(self):
        entry = entry_with({MissionFunction.AVAILABILITY})
        assert classify_tier(entry) is RiskTier.LOW

    def test_high_dominates_medium(self):
        entry = entry_with({MissionFunction.TELEMETRY_INTEGRITY,
                            MissionFunction.PAYLOAD_CONFIDENTIALITY})
        assert classify_tier(entry) is RiskTier.HIGH

    def test_other_only_defaults_low_with_warning(self):
        with pytest.warns(DefaultTierWarning, match="^entry X1 tagged only 'other'"):
            assert classify_tier(entry_with({MissionFunction.OTHER})) is RiskTier.LOW

    def test_other_only_bare_set_warning_names_no_id(self):
        with pytest.warns(DefaultTierWarning, match="^entry tagged only 'other'"):
            assert classify_tier(frozenset({MissionFunction.OTHER})) is RiskTier.LOW

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            classify_tier(frozenset())

    def test_each_other_only_entry_warns_though_the_tier_is_memoised(self):
        header = ",".join(COLUMNS)
        ids = ["O1", "H1", "O2", "O3", "A1", "O4"]
        lines = [",".join([row_id, "t", "comms", "S", "", "", "5.0",
                           "command_integrity" if row_id[0] == "H" else
                           "availability" if row_id[0] == "A" else "other", "", "", "", ""])
                 for row_id in ids]
        register = loads("\n".join([header, *lines]) + "\n")
        others = [e for e in register if e.id.startswith("O")]
        assert all(e.mission_functions is others[0].mission_functions for e in others)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for _ in range(2):
                tiers = [classify_tier(e) for e in register]
            bare = classify_tier(set(others[0].mission_functions))
        assert tiers == [RiskTier.LOW, RiskTier.HIGH, RiskTier.LOW, RiskTier.LOW,
                         RiskTier.LOW, RiskTier.LOW]
        assert bare is RiskTier.LOW
        assert all(w.category is DefaultTierWarning for w in caught)
        expected = [f"entry {row_id} tagged only 'other'; defaulting to low tier"
                    for row_id in ("O1", "O2", "O3", "O4")] * 2
        assert [str(w.message) for w in caught] == [
            *expected, "entry tagged only 'other'; defaulting to low tier"]
        with pytest.raises(ValueError, match="^entry has no mission_functions to classify$"):
            classify_tier(set())

    def test_independent_of_score(self):
        low = entry_with({MissionFunction.NAVIGATION_INTEGRITY}, score="0.1")
        high = entry_with({MissionFunction.NAVIGATION_INTEGRITY}, score="10.0")
        assert classify_tier(low) is classify_tier(high)

    def test_tier_ordering(self):
        assert RiskTier.HIGH > RiskTier.MEDIUM > RiskTier.LOW

    @pytest.mark.filterwarnings("ignore::spwkit.errors.DefaultTierWarning")
    @given(st.sets(st.sampled_from(sorted(MissionFunction, key=lambda m: m.value)),
                   min_size=1),
           st.sampled_from(sorted(HIGH_TRIGGERS, key=lambda m: m.value)))
    def test_adding_high_trigger_never_lowers(self, missions, trigger):
        before = classify_tier(frozenset(missions))
        after = classify_tier(frozenset(missions) | {trigger})
        assert after >= before
        assert after is RiskTier.HIGH
