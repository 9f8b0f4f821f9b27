"""Declarative trade-off scenarios: loading, validation and evaluation.

A scenario file is UTF-8 JSON (a leading byte order mark is skipped) with
this shape, no other keys and no key twice, at any level::

    {
      "name": "...",
      "register": "register_42.csv",          // path, relative to this file
      "baseline": "strategy name",
      "weights": {"alpha": .., "beta": .., "gamma": .., "delta": ..},
      "monte_carlo_n": 20000,                  // optional, default 10000, 1..1000000
      "seed": 7,                               // optional, default 0
      "strategies": [
        {
          "name": "...",
          "controls": [
            {"id": "SC-8/ECC", "rrf": 0.9,
             "description": "...",             // optional, checked, not read
             "adapted_from": "SC-8",           // optional, checked, not read
             "power": [
               {"label": "...", "p_base_w": 0.18,
                "duty_cycle": 1.0,             // optional, default 1.0
                "env_factor": 1.0,             // optional, default 1.0
                "node_count": 1,               // optional, default 1
                "uncertainty_w": 0.02}         // optional, default 0.0
             ]}
          ],
          "targets": [{"vuln_id": "C1", "p": 0.8, "m": 1.0}],
          "criteria": {"latency": 0.2, "storage": 0.1, "complexity": 0.9}
        }, ...
      ]
    }

Of several faults the first found is reported: an object's own keys come
before the objects nested in it, and the ``monte_carlo_n`` and ``seed``
ranges, then the three rules that span strategies, come last.

Every control in a strategy applies to every target of that strategy;
when a strategy layers several controls the effective risk-reduction
factor is ``1 - prod(1 - rrf_j)`` (independent layers), and evaluation
flags that the composition rule fired; each ``StrategyOutcome`` also
holds the strategy's comparison with the baseline.

Per-target probability and criticality live here, not on register rows,
because the same register entry can carry different estimates in
different studies.
"""

from __future__ import annotations

import json
import math
import sys
import warnings
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import (
    DuplicatePowerLabelWarning,
    DuplicateStrategyNameError,
    FactorOutOfRangeError,
    NonPositivePowerError,
    SchemaViolationError,
    UnknownBaselineError,
    UnresolvedVulnIdError,
    ZeroBaselineError,
    check_range,
)
from .register import Register, VulnerabilityEntry, load_register
from .spw import (
    DEFAULT_MONTE_CARLO_N,
    SPW_DISPLAY_DECIMALS,
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

MAX_MONTE_CARLO_N = 1_000_000
_UNIT = (float, 0, 1)  # a _fields rule: a number in [0, 1]


@dataclass(frozen=True)
class ControlSpec:
    """A candidate control: risk reduction plus its power cost."""

    control_id: str
    rrf: float
    power_components: tuple[PowerComponent, ...]


@dataclass(frozen=True)
class TargetSpec:
    """One addressed register entry with per-scenario estimates."""

    vuln_id: str
    exploit_probability: float
    mission_criticality: float


@dataclass(frozen=True)
class StrategySpec:
    name: str
    controls: tuple[ControlSpec, ...]
    targets: tuple[TargetSpec, ...]
    latency_score: float
    storage_score: float
    complexity_score: float

    def effective_rrf(self) -> float:
        """Combined risk reduction of all layered controls."""
        return 1.0 - math.prod(1.0 - c.rrf for c in self.controls)

    def power_components(self) -> tuple[PowerComponent, ...]:
        return tuple(c for control in self.controls for c in control.power_components)


def _named(records, name: str):
    """The record in ``records`` called ``name``; ``KeyError`` if none is."""
    return {r.name: r for r in records}[name]


@dataclass(frozen=True)
class ScenarioSpec:
    name: str
    register_path: str
    baseline_strategy: str
    strategies: tuple[StrategySpec, ...]
    sei_weights: SeiWeights
    monte_carlo_n: int = DEFAULT_MONTE_CARLO_N
    seed: int = 0

    def __post_init__(self):
        for key in ("monte_carlo_n", "seed"):
            value = getattr(self, key)
            if not isinstance(value, int) or isinstance(value, bool):
                raise SchemaViolationError(f"scenario: {key} must be an int, got {value!r}")
        check_range(SchemaViolationError, "scenario", "monte_carlo_n", self.monte_carlo_n,
                    1, MAX_MONTE_CARLO_N)
        check_range(SchemaViolationError, "scenario", "seed", self.seed, 0)
        if len(self.strategies) < 2:
            raise SchemaViolationError("scenario needs at least two strategies")
        names = [s.name for s in self.strategies]
        if len(set(names)) < len(names):
            duplicate = min(n for n in names if names.count(n) > 1)
            raise DuplicateStrategyNameError(f"strategy name '{duplicate}' appears twice")
        if self.baseline_strategy not in names:
            raise UnknownBaselineError(f"baseline '{self.baseline_strategy}' is not a "
                                       f"strategy (have: {', '.join(names)})")

    def strategy(self, name: str) -> StrategySpec:
        return _named(self.strategies, name)


@dataclass(frozen=True)
class StrategyOutcome:
    """Everything computed for one strategy, and how it compares with the baseline."""

    name: str
    controls: tuple[str, ...]  # control ids, in the order the strategy lists them
    power: PowerEstimate
    first_order: SpwResult
    monte_carlo: SpwResult
    sei_value: float
    rrf_composed: bool
    spw_ratio: float
    power_saving: float
    security_reduction: float
    sei_ratio: float

    @property
    def sg(self) -> float:
        return self.first_order.sg

    @property
    def spw(self) -> float:
        return self.first_order.spw


@dataclass(frozen=True)
class ComparisonReport:
    scenario_name: str
    baseline: str
    monte_carlo_n: int
    outcomes: tuple[StrategyOutcome, ...]
    targets: tuple[VulnerabilityEntry, ...]  # every targeted entry, first-seen order

    def outcome(self, name: str) -> StrategyOutcome:
        return _named(self.outcomes, name)

    # The acceptance suite and the README read the baseline comparison under this name.
    comparison = outcome


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's pairs as a dict; ``json`` alone keeps a repeated key's last value."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        repeated = next(k for k, n in Counter(k for k, _ in pairs).items() if n > 1)
        raise SchemaViolationError(f"key '{repeated}' appears more than once in an object")
    return doc


def _typed(value, kind: type, key: str, where: str, lo=-math.inf, hi=math.inf):
    """``value`` checked as ``kind``; strings must encode as UTF-8 (JSON
    admits lone surrogate escapes, which no report could print), numbers
    must be finite, integral where ``kind`` is ``int``, and within the
    ``lo``/``hi`` bounds given."""
    if kind not in (int, float):
        if not isinstance(value, kind):
            raise SchemaViolationError(f"{where}: '{key}' must be {kind.__name__}")
        if kind is str:
            try:
                value.encode("utf-8")
            except UnicodeEncodeError:
                raise SchemaViolationError(
                    f"{where}: '{key}' holds a lone surrogate, not UTF-8 text") from None
        return value
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise SchemaViolationError(f"{where}: '{key}' must be a number")
    if not abs(value) <= sys.float_info.max:  # NaN, infinities, ints too big for float
        raise SchemaViolationError(f"{where}: '{key}' must be a finite number")
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise SchemaViolationError(f"{where}: '{key}' must be an integer, got {value}")
    value = kind(value)
    check_range(SchemaViolationError, where, key, value, lo, hi)
    return value


def _fields(doc, where: str, /, **rules) -> list:
    """One value per rule, in rule order, from ``doc`` checked as a JSON
    object holding no key outside ``rules``. A rule is a type (a required
    key), a ``(type, lo, hi)`` tuple (a required key within those bounds)
    or a default value (an optional key of the default's type)."""
    if not isinstance(doc, dict):
        raise SchemaViolationError(f"{where} must be a JSON object")
    if not rules.keys() >= doc.keys():
        raise SchemaViolationError(
            f"{where}: unknown key(s): {sorted(doc.keys() - rules.keys())}")
    values = []
    for key, rule in rules.items():
        kind, lo, hi = rule if type(rule) is tuple else (rule, -math.inf, math.inf)
        if key in doc:
            values.append(_typed(doc[key], kind if type(kind) is type else type(kind),
                                 key, where, lo, hi))
        elif type(kind) is type:
            raise SchemaViolationError(f"{where}: missing key '{key}'")
        else:
            values.append(kind)
    return values


def _parse_component(doc, where: str) -> PowerComponent:
    try:
        return PowerComponent(*_fields(doc, where, label=str, p_base_w=float, duty_cycle=1.0,
                                       env_factor=1.0, node_count=1, uncertainty_w=0.0))
    except (FactorOutOfRangeError, NonPositivePowerError) as exc:
        raise type(exc)(f"{where}: {exc}") from None


def _parse_control(doc, where: str) -> ControlSpec:
    power, control_id, rrf, _, _ = _fields(doc, where, power=list, id=str, rrf=_UNIT,
                                           description="", adapted_from="")
    if not power:
        raise SchemaViolationError(f"{where}: power model must not be empty")
    return ControlSpec(control_id, rrf, tuple(
        _parse_component(c, f"{where}.power[{i}]") for i, c in enumerate(power)))


def _parse_target(doc, where: str) -> TargetSpec:
    return TargetSpec(*_fields(doc, where, vuln_id=str, p=_UNIT, m=_UNIT))


def _parse_strategy(doc, index: int) -> StrategySpec:
    where = f"strategies[{index}]"
    name, controls, targets, criteria = _fields(doc, where, name=str, controls=list,
                                                targets=list, criteria=dict)
    if not controls:
        raise SchemaViolationError(f"{where}: needs at least one control")
    strategy = StrategySpec(
        name, tuple(_parse_control(c, f"{where}.controls[{i}]") for i, c in enumerate(controls)),
        tuple(_parse_target(t, f"{where}.targets[{i}]") for i, t in enumerate(targets)),
        *_fields(criteria, f"{where}.criteria", latency=_UNIT, storage=_UNIT, complexity=_UNIT))

    labels = [c.label for c in strategy.power_components()]
    for label in sorted({l for l in labels if labels.count(l) > 1}):
        warnings.warn(
            f"strategy '{name}' lists power label '{label}' more than once; "
            "shared components must not be double-counted",
            DuplicatePowerLabelWarning, stacklevel=3)
    return strategy


def parse_scenario(doc: dict, base_dir: Path | None = None) -> ScenarioSpec:
    """Validate a scenario document; register path resolves against base_dir."""
    name, register_path, weights, strategies, baseline, monte_carlo_n, seed = _fields(
        doc, "scenario", name=str, register=str, weights=dict, strategies=list, baseline=str,
        monte_carlo_n=DEFAULT_MONTE_CARLO_N, seed=0)
    if base_dir is not None:
        register_path = str((base_dir / register_path).absolute())
    return ScenarioSpec(
        name=name, register_path=register_path, baseline_strategy=baseline,
        sei_weights=SeiWeights(*_fields(weights, "weights", alpha=float, beta=float,
                                        gamma=float, delta=float)),
        strategies=tuple(_parse_strategy(s, i) for i, s in enumerate(strategies)),
        monte_carlo_n=monte_carlo_n, seed=seed)


def check_targets_resolve(scenario: ScenarioSpec,
                          register: Register) -> dict[str, VulnerabilityEntry]:
    """Every targeted register entry by id, in first-seen order.

    Raises ``UnresolvedVulnIdError`` for the first target whose id is not
    in the register.
    """
    resolved: dict[str, VulnerabilityEntry] = {}
    for strategy in scenario.strategies:
        for target in strategy.targets:
            if target.vuln_id in resolved:
                continue
            entry = register.get(target.vuln_id)
            if entry is None:
                raise UnresolvedVulnIdError(
                    f"strategy '{strategy.name}' targets unknown register id "
                    f"'{target.vuln_id}'")
            resolved[target.vuln_id] = entry
    return resolved


def load_scenario(path: str | Path) -> ScenarioSpec:
    """Load a scenario file and check its cross-references.

    The scenario's register is loaded (a relative path resolves against
    the scenario file's directory) to check that every targeted id exists.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise SchemaViolationError(f"cannot read scenario file {path}: {exc}") from exc
    try:  # a decode error's position counts the byte order mark, as a register's does
        doc = json.loads(data.decode("utf-8").removeprefix("\ufeff"),
                         object_pairs_hook=_unique_keys)
    except SchemaViolationError as exc:
        raise SchemaViolationError(f"{path}: {exc}") from None
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, long ints, deep nesting
        raise SchemaViolationError(f"{path} is not valid JSON: {exc}") from exc
    scenario = parse_scenario(doc, base_dir=path.parent)
    check_targets_resolve(scenario, load_register(scenario.register_path))
    return scenario


def evaluate(scenario: ScenarioSpec, register: Register,
             seed: int | None = None) -> ComparisonReport:
    """Evaluate every strategy and compare each against the baseline.

    Deterministic for a fixed (scenario, register, seed); each strategy's
    Monte Carlo stream is seeded independently from the master seed, and a
    ``seed`` given here replaces the scenario's, under the same check. The
    multi-criteria index takes the SpW term at display precision
    (``SPW_DISPLAY_DECIMALS``) so the printed arithmetic stays self-consistent.
    """
    if seed is not None:
        scenario = replace(scenario, seed=seed)
    entries = check_targets_resolve(scenario, register)
    seeds = np.random.SeedSequence(scenario.seed).generate_state(len(scenario.strategies))
    child_seeds = dict(zip((s.name for s in scenario.strategies), seeds))

    def measure(strategy: StrategySpec, base: StrategyOutcome | None = None) -> StrategyOutcome:
        """The strategy's outcome, compared with ``base`` (itself if None)."""
        rrf = strategy.effective_rrf()
        sg = security_gain([
            VulnContribution(
                vuln_id=t.vuln_id, cvss=entries[t.vuln_id].cvss_score,
                exploit_probability=t.exploit_probability,
                mission_criticality=t.mission_criticality, rrf=rrf)
            for t in strategy.targets])
        components = strategy.power_components()
        power = operational_power(components)
        try:
            first_order = spw(sg, power, SigmaMethod.FIRST_ORDER)
            monte_carlo = spw(sg, power, SigmaMethod.MONTE_CARLO,
                              components=components, n_samples=scenario.monte_carlo_n,
                              seed=int(child_seeds[strategy.name]))
            spw_ratio = spw_normalised(first_order, base.first_order if base else first_order)
        except (FactorOutOfRangeError, NonPositivePowerError, ZeroBaselineError) as exc:
            raise type(exc)(f"strategy '{strategy.name}': {exc}") from None
        sei_value = sei(scenario.sei_weights, SeiCriteria(
            spw_term=round(first_order.spw, SPW_DISPLAY_DECIMALS),
            latency_score=strategy.latency_score, storage_score=strategy.storage_score,
            complexity_score=strategy.complexity_score))
        base_power, base_sg, base_sei = ((base.power.total, base.sg, base.sei_value) if base
                                         else (power.total, sg, sei_value))
        power_saving, security_reduction = 1.0 - power.total / base_power, (base_sg - sg) / base_sg
        sei_ratio = sei_value / base_sei if base_sei else math.nan  # reports print NaN as n/a
        for figure, value in zip(("power saving", "security reduction", "SEI ratio"),
                                 (power_saving * 100, security_reduction * 100, sei_ratio)):
            if math.isinf(value):  # the percentages as reports print them
                raise FactorOutOfRangeError(f"strategy '{strategy.name}': {figure} is not finite")
        return StrategyOutcome(
            name=strategy.name, controls=tuple(c.control_id for c in strategy.controls),
            power=power, first_order=first_order, monte_carlo=monte_carlo,
            sei_value=sei_value, rrf_composed=sum(1 for c in strategy.controls if c.rrf > 0) > 1,
            spw_ratio=spw_ratio, power_saving=power_saving,
            security_reduction=security_reduction, sei_ratio=sei_ratio)

    # The baseline goes first, so its errors win over those of earlier-listed strategies.
    base = measure(scenario.strategy(scenario.baseline_strategy))
    return ComparisonReport(
        scenario_name=scenario.name, baseline=base.name, monte_carlo_n=scenario.monte_carlo_n,
        outcomes=tuple(base if s.name == base.name else measure(s, base)
                       for s in scenario.strategies),
        targets=tuple(entries.values()))
