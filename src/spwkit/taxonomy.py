"""Threat taxonomy: STRIDE categories, the ATT&CK crosswalk and the
three-tier operational risk classifier.

Attack-vector coding guidance for registers in this domain: CVSS
"Network" covers anything RF-reachable (uplink, downlink, crosslinks),
and "Physical" reflects orbital inaccessibility (integration-time access
only). This is coding guidance; the scoring arithmetic is standard.

The classifier tiers an entry by which mission functions it can affect,
not by its score:

* high   -- telemetry, command or navigation integrity at risk
* medium -- payload confidentiality or ground data flows at risk
* low    -- availability during short contact windows, or minor inefficiency

The first matching rule wins, so an entry touching both a high and a
medium trigger is high.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from enum import Enum, IntEnum
from functools import lru_cache
from importlib import resources

from .errors import DefaultTierWarning, UnknownTechniqueIdWarning


class Subsystem(Enum):
    """The four principal subsystems; values are the register file tokens."""

    GROUND_SEGMENT = "ground"
    ONBOARD_COMPUTING = "obc"
    COMMUNICATIONS = "comms"
    NETWORK_CONSTELLATION = "network"

    @property
    def display_name(self) -> str:
        return _SUBSYSTEM_NAMES[self]


_SUBSYSTEM_NAMES = {
    Subsystem.GROUND_SEGMENT: "Ground segment",
    Subsystem.ONBOARD_COMPUTING: "Onboard computing",
    Subsystem.COMMUNICATIONS: "Communications",
    Subsystem.NETWORK_CONSTELLATION: "Network/constellation",
}


class Stride(Enum):
    """The six STRIDE categories; values are the one-letter codes."""

    SPOOFING = "S"
    TAMPERING = "T"
    REPUDIATION = "R"
    INFORMATION_DISCLOSURE = "I"
    DENIAL_OF_SERVICE = "D"
    ELEVATION_OF_PRIVILEGE = "E"


class MissionFunction(Enum):
    """Mission-function tags used by the tier classifier."""

    TELEMETRY_INTEGRITY = "telemetry_integrity"
    COMMAND_INTEGRITY = "command_integrity"
    NAVIGATION_INTEGRITY = "navigation_integrity"
    PAYLOAD_CONFIDENTIALITY = "payload_confidentiality"
    GROUND_DATA_FLOW = "ground_data_flow"
    AVAILABILITY = "availability"
    OTHER = "other"


class RiskTier(IntEnum):
    """Operational risk tiers, totally ordered high > medium > low."""

    LOW = 0
    MEDIUM = 1
    HIGH = 2

    def __str__(self):
        return self.name.capitalize()


_HIGH_TRIGGERS = frozenset({
    MissionFunction.TELEMETRY_INTEGRITY,
    MissionFunction.COMMAND_INTEGRITY,
    MissionFunction.NAVIGATION_INTEGRITY,
})
_MEDIUM_TRIGGERS = frozenset({
    MissionFunction.PAYLOAD_CONFIDENTIALITY,
    MissionFunction.GROUND_DATA_FLOW,
})


@dataclass(frozen=True)
class AttackCrosswalkRow:
    pattern: str
    technique_id: str
    technique_name: str


def classify_tier(entry) -> RiskTier:
    """Tier an entry (or a bare set of mission functions).

    Entries tagged only 'other' fall through to low with a warning naming
    the entry's id, since nothing mission-critical is claimed for them.
    """
    funcs = frozenset(getattr(entry, "mission_functions", entry))
    if not funcs:
        raise ValueError("entry has no mission_functions to classify")
    if funcs & _HIGH_TRIGGERS:
        return RiskTier.HIGH
    if funcs & _MEDIUM_TRIGGERS:
        return RiskTier.MEDIUM
    if funcs == {MissionFunction.OTHER}:
        entry_id = getattr(entry, "id", None)
        name = "entry" if entry_id is None else f"entry {entry_id}"
        warnings.warn(f"{name} tagged only 'other'; defaulting to low tier",
                      DefaultTierWarning, stacklevel=2)
    return RiskTier.LOW


@lru_cache(maxsize=1)
def attack_crosswalk() -> tuple[AttackCrosswalkRow, ...]:
    """The bundled register-condition to ATT&CK technique crosswalk."""
    text = (resources.files("spwkit") / "data" / "attack_crosswalk.csv").read_text(
        encoding="utf-8")
    rows = csv.DictReader(ln for ln in text.splitlines() if not ln.startswith("#"))
    return tuple(
        AttackCrosswalkRow(row["pattern"], row["technique_id"], row["technique_name"])
        for row in rows)


@lru_cache(maxsize=1)
def _crosswalk_by_id() -> dict[str, AttackCrosswalkRow]:
    return {row.technique_id: row for row in attack_crosswalk()}


def crosswalk(entry) -> list[AttackCrosswalkRow]:
    """Crosswalk rows for the technique ids an entry lists.

    Ids absent from the bundled crosswalk raise a warning (not an error)
    and are skipped.
    """
    ids = getattr(entry, "attack_techniques", entry)
    by_id = _crosswalk_by_id()
    out = []
    for tid in ids:
        row = by_id.get(tid)
        if row is None:
            warnings.warn(
                f"technique id '{tid}' not in bundled crosswalk",
                UnknownTechniqueIdWarning, stacklevel=2)
            continue
        out.append(row)
    return out
