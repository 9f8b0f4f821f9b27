"""Declarative trade-off scenarios: loading, validation and evaluation.

A scenario file is JSON with this shape and no other keys, at any level::

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
             "description": "...",             // optional
             "adapted_from": "SC-8",           // optional
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

Every control in a strategy applies to every target of that strategy;
when a strategy layers several controls the effective risk-reduction
factor is ``1 - prod(1 - rrf_j)`` (independent layers), and evaluation
flags that the composition rule fired.

Per-target probability and criticality live here, not on register rows,
because the same register entry can carry different estimates in
different studies.
"""

from __future__ import annotations

import json
import math
import sys
import warnings
from dataclasses import dataclass, field, replace
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
)
from .register import Register, VulnerabilityEntry, load_register
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

DEFAULT_MONTE_CARLO_N = 10_000
MAX_MONTE_CARLO_N = 1_000_000

SPW_DISPLAY_DECIMALS = 2


@dataclass(frozen=True)
class ControlSpec:
    """A candidate control: risk reduction plus its power cost."""

    control_id: str
    rrf: float
    power_components: tuple[PowerComponent, ...]
    description: str = ""
    adapted_from: str = ""


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
        residual = 1.0
        for control in self.controls:
            residual *= 1.0 - control.rrf
        return 1.0 - residual

    def power_components(self) -> tuple[PowerComponent, ...]:
        return tuple(c for control in self.controls for c in control.power_components)


@dataclass(frozen=True)
class ScenarioSpec:
    name: str
    register_path: str
    baseline_strategy: str
    strategies: tuple[StrategySpec, ...]
    sei_weights: SeiWeights
    monte_carlo_n: int = DEFAULT_MONTE_CARLO_N
    seed: int = 0
    _by_name: dict[str, StrategySpec] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for key in ("monte_carlo_n", "seed"):
            value = getattr(self, key)
            if not isinstance(value, int) or isinstance(value, bool):
                raise SchemaViolationError(f"scenario: {key} must be an int, got {value!r}")
        if not 1 <= self.monte_carlo_n <= MAX_MONTE_CARLO_N:
            raise SchemaViolationError(f"scenario: monte_carlo_n={self.monte_carlo_n} "
                                       f"outside [1, {MAX_MONTE_CARLO_N}]")
        if self.seed < 0:
            raise SchemaViolationError(f"scenario: seed must be >= 0, got {self.seed}")
        if len(self.strategies) < 2:
            raise SchemaViolationError("scenario needs at least two strategies")
        by_name = {s.name: s for s in self.strategies}
        if len(by_name) < len(self.strategies):
            names = [s.name for s in self.strategies]
            duplicate = min(n for n in by_name if names.count(n) > 1)
            raise DuplicateStrategyNameError(f"strategy name '{duplicate}' appears twice")
        if self.baseline_strategy not in by_name:
            raise UnknownBaselineError(f"baseline '{self.baseline_strategy}' is not a "
                                       f"strategy (have: {', '.join(by_name)})")
        object.__setattr__(self, "_by_name", by_name)

    def strategy(self, name: str) -> StrategySpec:
        return self._by_name[name]


@dataclass(frozen=True)
class StrategyOutcome:
    """Everything computed for one strategy."""

    name: str
    power: PowerEstimate
    first_order: SpwResult
    monte_carlo: SpwResult
    sei_value: float
    rrf_composed: bool

    @property
    def sg(self) -> float:
        return self.first_order.sg

    @property
    def spw(self) -> float:
        return self.first_order.spw


@dataclass(frozen=True)
class StrategyComparison:
    """A strategy measured against the scenario baseline."""

    candidate: str
    spw_ratio: float
    power_saving: float
    security_reduction: float
    sei_ratio: float


@dataclass(frozen=True)
class ComparisonReport:
    scenario_name: str
    baseline: str
    outcomes: tuple[StrategyOutcome, ...]
    comparisons: tuple[StrategyComparison, ...]
    targets: tuple[VulnerabilityEntry, ...]  # every targeted entry, first-seen order

    def outcome(self, name: str) -> StrategyOutcome:
        for o in self.outcomes:
            if o.name == name:
                return o
        raise KeyError(name)

    def comparison(self, name: str) -> StrategyComparison:
        for c in self.comparisons:
            if c.candidate == name:
                return c
        raise KeyError(name)


def _object(doc, keys, where: str) -> dict:
    """``doc`` checked as a JSON object holding no key outside ``keys``."""
    if not isinstance(doc, dict):
        raise SchemaViolationError(f"{where} must be a JSON object")
    unknown = set(doc).difference(keys)
    if unknown:
        raise SchemaViolationError(f"{where}: unknown key(s): {sorted(unknown)}")
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
    if not lo <= value <= hi:
        raise SchemaViolationError(f"{where}: {key} must be >= {lo}, got {value}" if hi == math.inf
                                   else f"{where}: {key}={value} outside [{lo}, {hi}]")
    return value


def _require(mapping: dict, key: str, kind: type, where: str, lo=-math.inf, hi=math.inf):
    if key not in mapping:
        raise SchemaViolationError(f"{where}: missing key '{key}'")
    return _typed(mapping[key], kind, key, where, lo, hi)


def _optional(mapping: dict, key: str, default, where: str):
    if key not in mapping:
        return default
    return _typed(mapping[key], type(default), key, where)


def _parse_component(doc, where: str) -> PowerComponent:
    _object(doc, {"label", "p_base_w", "duty_cycle", "env_factor", "node_count",
                  "uncertainty_w"}, where)
    return PowerComponent(
        label=_require(doc, "label", str, where),
        p_base=_require(doc, "p_base_w", float, where),
        duty_cycle=_optional(doc, "duty_cycle", 1.0, where),
        environmental_factor=_optional(doc, "env_factor", 1.0, where),
        node_count=_optional(doc, "node_count", 1, where),
        uncertainty=_optional(doc, "uncertainty_w", 0.0, where),
    )


def _parse_control(doc, where: str) -> ControlSpec:
    _object(doc, {"id", "rrf", "description", "adapted_from", "power"}, where)
    power = _require(doc, "power", list, where)
    if not power:
        raise SchemaViolationError(f"{where}: power model must not be empty")
    return ControlSpec(
        control_id=_require(doc, "id", str, where),
        rrf=_require(doc, "rrf", float, where, 0, 1),
        power_components=tuple(
            _parse_component(c, f"{where}.power[{i}]") for i, c in enumerate(power)),
        description=_optional(doc, "description", "", where),
        adapted_from=_optional(doc, "adapted_from", "", where))


def _parse_target(doc, where: str) -> TargetSpec:
    _object(doc, {"vuln_id", "p", "m"}, where)
    return TargetSpec(
        vuln_id=_require(doc, "vuln_id", str, where),
        exploit_probability=_require(doc, "p", float, where, 0, 1),
        mission_criticality=_require(doc, "m", float, where, 0, 1))


def _parse_strategy(doc, index: int) -> StrategySpec:
    where = f"strategies[{index}]"
    _object(doc, {"name", "controls", "targets", "criteria"}, where)
    name = _require(doc, "name", str, where)
    controls_doc = _require(doc, "controls", list, where)
    if not controls_doc:
        raise SchemaViolationError(f"{where}: needs at least one control")
    controls = tuple(
        _parse_control(c, f"{where}.controls[{i}]") for i, c in enumerate(controls_doc))
    targets = tuple(_parse_target(t, f"{where}.targets[{i}]")
                    for i, t in enumerate(_require(doc, "targets", list, where)))
    c_where = f"{where}.criteria"
    criteria = _object(_require(doc, "criteria", dict, where),
                       {"latency", "storage", "complexity"}, c_where)
    strategy = StrategySpec(
        name=name, controls=controls, targets=targets,
        latency_score=_require(criteria, "latency", float, c_where, 0, 1),
        storage_score=_require(criteria, "storage", float, c_where, 0, 1),
        complexity_score=_require(criteria, "complexity", float, c_where, 0, 1))

    labels = [c.label for c in strategy.power_components()]
    for label in sorted({l for l in labels if labels.count(l) > 1}):
        warnings.warn(
            f"strategy '{name}' lists power label '{label}' more than once; "
            "shared components must not be double-counted",
            DuplicatePowerLabelWarning, stacklevel=3)
    return strategy


def parse_scenario(doc: dict, base_dir: Path | None = None) -> ScenarioSpec:
    """Validate a scenario document; register path resolves against base_dir."""
    _object(doc, {"name", "register", "baseline", "weights", "monte_carlo_n", "seed",
                  "strategies"}, "scenario")
    name = _require(doc, "name", str, "scenario")
    register_path = _require(doc, "register", str, "scenario")
    if base_dir is not None:
        register_path = str((base_dir / register_path).absolute())

    weight_keys = ("alpha", "beta", "gamma", "delta")
    weights_doc = _object(_require(doc, "weights", dict, "scenario"), weight_keys, "weights")
    weights = SeiWeights(**{k: _require(weights_doc, k, float, "weights") for k in weight_keys})

    strategies = tuple(_parse_strategy(s, i) for i, s in
                       enumerate(_require(doc, "strategies", list, "scenario")))
    return ScenarioSpec(
        name=name, register_path=register_path,
        baseline_strategy=_require(doc, "baseline", str, "scenario"),
        strategies=strategies, sei_weights=weights,
        monte_carlo_n=_optional(doc, "monte_carlo_n", DEFAULT_MONTE_CARLO_N, "scenario"),
        seed=_optional(doc, "seed", 0, "scenario"))


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
        doc = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise SchemaViolationError(f"cannot read scenario file {path}: {exc}") from exc
    except ValueError as exc:  # undecodable bytes, bad JSON, over-long int literals
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

    def measure(strategy: StrategySpec, base: StrategyOutcome | None = None
                ) -> tuple[StrategyOutcome, StrategyComparison]:
        """The strategy's outcome and its comparison with ``base`` (itself if None)."""
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
        criteria = SeiCriteria(
            spw_term=round(first_order.spw, SPW_DISPLAY_DECIMALS),
            latency_score=strategy.latency_score,
            storage_score=strategy.storage_score,
            complexity_score=strategy.complexity_score)
        outcome = StrategyOutcome(
            name=strategy.name, power=power, first_order=first_order,
            monte_carlo=monte_carlo, sei_value=sei(scenario.sei_weights, criteria),
            rrf_composed=sum(1 for c in strategy.controls if c.rrf > 0) > 1)
        base = base or outcome
        return outcome, StrategyComparison(
            candidate=strategy.name, spw_ratio=spw_ratio,
            power_saving=1.0 - power.total / base.power.total,
            security_reduction=(base.sg - sg) / base.sg if base.sg else 0.0,
            sei_ratio=outcome.sei_value / base.sei_value if base.sei_value else float("nan"))

    # The baseline goes first, so its errors win over those of earlier-listed strategies.
    base = measure(scenario.strategy(scenario.baseline_strategy))
    measured = [base if s.name == base[0].name else measure(s, base[0])
                for s in scenario.strategies]
    return ComparisonReport(
        scenario_name=scenario.name, baseline=scenario.baseline_strategy,
        outcomes=tuple(o for o, _ in measured), comparisons=tuple(c for _, c in measured),
        targets=tuple(entries.values()))

