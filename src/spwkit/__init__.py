"""spwkit: power-aware security risk assessment for CubeSat missions.

Scores CVSS v3.1 vectors, validates STRIDE/ATT&CK-coded vulnerability
registers, classifies entries into operational risk tiers, and evaluates
security-per-watt trade-off scenarios between candidate control strategies.
"""

from .cvss import BaseScore, CvssVector, Severity, base_score, parse_vector, score_string
from .register import (
    Register,
    VulnerabilityEntry,
    load_bundled_register,
    load_register,
    save_register,
    serialize,
)
from .scenario import (
    ComparisonReport,
    ControlSpec,
    ScenarioSpec,
    StrategySpec,
    evaluate,
    load_scenario,
)
from .spw import (
    PowerComponent,
    PowerEstimate,
    SeiCriteria,
    SeiWeights,
    SigmaMethod,
    SpwResult,
    VulnContribution,
    operational_power,
    security_gain,
    sei,
    spw,
    spw_normalised,
)
from .stats import SubsystemSummary, severity_distribution, summarize
from .taxonomy import (
    MissionFunction,
    RiskTier,
    Stride,
    Subsystem,
    classify_tier,
)

__version__ = "0.1.0"

__all__ = [
    "BaseScore", "CvssVector", "Severity", "base_score", "parse_vector",
    "score_string",
    "Register", "VulnerabilityEntry", "load_bundled_register", "load_register",
    "save_register", "serialize",
    "ComparisonReport", "ControlSpec", "ScenarioSpec", "StrategySpec", "evaluate",
    "load_scenario",
    "PowerComponent", "PowerEstimate", "SeiCriteria", "SeiWeights",
    "SigmaMethod", "SpwResult", "VulnContribution", "operational_power",
    "security_gain", "sei", "spw", "spw_normalised",
    "SubsystemSummary", "severity_distribution", "summarize",
    "MissionFunction", "RiskTier", "Stride", "Subsystem", "classify_tier",
    "__version__",
]
