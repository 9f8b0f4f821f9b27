"""Threat taxonomy: subsystems, STRIDE categories, mission functions and
the three-tier operational risk classifier.

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

import warnings
from enum import Enum, IntEnum

from .errors import DefaultTierWarning


class Subsystem(Enum):
    """The four principal subsystems; values are the register file tokens.

    Each member carries its ``display_name`` as a plain attribute.
    """

    GROUND_SEGMENT = "ground", "Ground segment"
    ONBOARD_COMPUTING = "obc", "Onboard computing"
    COMMUNICATIONS = "comms", "Communications"
    NETWORK_CONSTELLATION = "network", "Network/constellation"

    def __new__(cls, token: str, display_name: str):
        member = object.__new__(cls)
        member._value_ = token
        member.display_name = display_name
        return member


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
_OTHER_ONLY = frozenset({MissionFunction.OTHER})


def classify_tier(entry) -> RiskTier:
    """Tier an entry (or a bare set of mission functions).

    Entries tagged only 'other' fall through to low with a warning naming
    the entry's id, since nothing mission-critical is claimed for them.
    """
    funcs = frozenset(getattr(entry, "mission_functions", entry))
    if not funcs:
        raise ValueError("entry has no mission_functions to classify")
    if funcs == _OTHER_ONLY:
        entry_id = getattr(entry, "id", None)
        name = "entry" if entry_id is None else f"entry {entry_id}"
        warnings.warn(f"{name} tagged only 'other'; defaulting to low tier",
                      DefaultTierWarning, stacklevel=2)
    if not funcs.isdisjoint(_HIGH_TRIGGERS):
        return RiskTier.HIGH
    if not funcs.isdisjoint(_MEDIUM_TRIGGERS):
        return RiskTier.MEDIUM
    return RiskTier.LOW
