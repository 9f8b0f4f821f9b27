"""spwkit: power-aware security risk assessment for CubeSat missions.

Scores CVSS v3.1 vectors, validates STRIDE/ATT&CK-coded vulnerability
registers, classifies entries into operational risk tiers, and evaluates
security-per-watt trade-off scenarios between candidate control strategies.

``import spwkit`` imports only ``spwkit.spw`` (and numpy) and binds the
name ``spw`` to the function. Every other public name is imported from its
submodule on first attribute access (PEP 562): ``spwkit.evaluate`` loads
``spwkit.scenario``, and nothing loads it before.
"""

import importlib

from .spw import spw

__version__ = "0.1.0"

# Each public name -> the submodule that defines it.
_SUBMODULE = {name: module for module, names in {
    "cvss": "BaseScore CvssVector Severity base_score parse_vector score_string",
    "register": "Register VulnerabilityEntry load_bundled_register load_register "
                "save_register serialize",
    "scenario": "ComparisonReport ControlSpec ScenarioSpec StrategySpec evaluate load_scenario",
    "spw": "PowerComponent PowerEstimate SeiCriteria SeiWeights SigmaMethod SpwResult "
           "VulnContribution operational_power security_gain sei spw_normalised",
    "stats": "SubsystemSummary severity_distribution summarize",
    "taxonomy": "MissionFunction RiskTier Stride Subsystem classify_tier",
}.items() for name in names.split()}

__all__ = ["spw", "__version__", *_SUBMODULE]


def __getattr__(name: str):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SUBMODULE[name]}", __name__), name)
    globals()[name] = value
    return value
