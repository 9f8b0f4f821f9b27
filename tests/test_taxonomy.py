"""STRIDE data, the ATT&CK crosswalk and the tier classifier."""

import pytest
from hypothesis import given, strategies as st

from spwkit.errors import DefaultTierWarning, UnknownTechniqueIdWarning
from spwkit.register import loads, COLUMNS
from spwkit.taxonomy import (
    MissionFunction,
    RiskTier,
    Stride,
    Subsystem,
    attack_crosswalk,
    classify_tier,
    crosswalk,
    stride_table,
)

def stride_rows(component):
    return [row for row in stride_table() if row.component == component]


HIGH_TRIGGERS = {MissionFunction.TELEMETRY_INTEGRITY,
                 MissionFunction.COMMAND_INTEGRITY,
                 MissionFunction.NAVIGATION_INTEGRITY}


def entry_with(missions, techniques=(), score="5.0"):
    header = ",".join(COLUMNS)
    cells = ["X1", "t", "comms", "S", ";".join(techniques), "", score,
             ";".join(m.value for m in missions), "", "", "", ""]
    return loads(header + "\n" + ",".join(cells) + "\n").entries[0]


class TestStrideEnum:
    def test_six_categories(self):
        assert len(Stride) == 6

    def test_letter_codes_bijective(self):
        letters = [s.value for s in Stride]
        assert sorted(letters) == ["D", "E", "I", "R", "S", "T"]
        for s in Stride:
            assert Stride.from_token(s.value) is s

    def test_display_names(self):
        assert Stride.INFORMATION_DISCLOSURE.display_name == "Information disclosure"


class TestStrideTable:
    def test_ten_rows(self):
        assert len(stride_table()) == 10

    def test_component_threat_layout(self):
        layout = [(r.component, r.threat) for r in stride_table()]
        assert layout == [
            (Subsystem.GROUND_SEGMENT, Stride.SPOOFING),
            (Subsystem.GROUND_SEGMENT, Stride.TAMPERING),
            (Subsystem.GROUND_SEGMENT, Stride.ELEVATION_OF_PRIVILEGE),
            (Subsystem.ONBOARD_COMPUTING, Stride.TAMPERING),
            (Subsystem.ONBOARD_COMPUTING, Stride.ELEVATION_OF_PRIVILEGE),
            (Subsystem.COMMUNICATIONS, Stride.INFORMATION_DISCLOSURE),
            (Subsystem.COMMUNICATIONS, Stride.DENIAL_OF_SERVICE),
            (Subsystem.COMMUNICATIONS, Stride.SPOOFING),
            (Subsystem.NETWORK_CONSTELLATION, Stride.SPOOFING),
            (Subsystem.NETWORK_CONSTELLATION, Stride.DENIAL_OF_SERVICE),
        ]

    def test_communications_examples(self):
        rows = stride_rows(Subsystem.COMMUNICATIONS)
        assert [r.threat for r in rows] == [Stride.INFORMATION_DISCLOSURE,
                                            Stride.DENIAL_OF_SERVICE,
                                            Stride.SPOOFING]

    def test_network_examples(self):
        rows = stride_rows(Subsystem.NETWORK_CONSTELLATION)
        assert [r.threat for r in rows] == [Stride.SPOOFING, Stride.DENIAL_OF_SERVICE]

    def test_ground_examples_include_elevation(self):
        rows = stride_rows(Subsystem.GROUND_SEGMENT)
        assert len(rows) == 3
        assert Stride.ELEVATION_OF_PRIVILEGE in {r.threat for r in rows}

    def test_examples_nonempty_text(self):
        assert all(r.example for r in stride_table())


class TestCrosswalk:
    def test_bundles_the_core_pairs(self):
        by_id = {r.technique_id: r.technique_name for r in attack_crosswalk()}
        assert by_id["T1078"] == "Valid Accounts"
        assert by_id["T1071"] == "Application Layer Protocol"
        assert by_id["T1547"] == "Boot Persistence"

    def test_entry_with_t1078(self):
        rows = crosswalk(entry_with({MissionFunction.AVAILABILITY}, ["T1078"]))
        assert [r.technique_name for r in rows] == ["Valid Accounts"]

    def test_entry_with_t1547(self):
        rows = crosswalk(entry_with({MissionFunction.AVAILABILITY}, ["T1547"]))
        assert [r.technique_name for r in rows] == ["Boot Persistence"]

    def test_empty_technique_list(self):
        assert crosswalk(entry_with({MissionFunction.AVAILABILITY})) == []

    def test_unknown_id_warns_and_skips(self):
        entry = entry_with({MissionFunction.AVAILABILITY}, ["T9999", "T1078"])
        with pytest.warns(UnknownTechniqueIdWarning, match="T9999"):
            rows = crosswalk(entry)
        assert [r.technique_id for r in rows] == ["T1078"]


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
        with pytest.warns(DefaultTierWarning):
            assert classify_tier(entry_with({MissionFunction.OTHER})) is RiskTier.LOW

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            classify_tier(frozenset())

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
