"""Scenario loading, validation and evaluation against known outcomes."""

import dataclasses
import json

import pytest

from spwkit.errors import (
    DuplicatePowerLabelWarning,
    DuplicateStrategyNameError,
    NonPositivePowerError,
    SchemaViolationError,
    UnknownBaselineError,
    UnresolvedVulnIdError,
    ZeroBaselineError,
)
from spwkit.register import load_register
from spwkit.scenario import (
    _typed,
    evaluate,
    load_scenario,
    parse_scenario,
)
from spwkit.taxonomy import RiskTier, classify_tier


def strategy_doc(name, rrf=0.5, p_base=1.0, targets=("C1",), controls=None,
                 criteria=None):
    if controls is None:
        controls = [{
            "id": f"CTL/{name}", "rrf": rrf,
            "power": [{"label": "load", "p_base_w": p_base, "uncertainty_w": 0.0}],
        }]
    return {
        "name": name,
        "controls": controls,
        "targets": [{"vuln_id": t, "p": 0.5, "m": 1.0} for t in targets],
        "criteria": criteria or {"latency": 0.5, "storage": 0.5, "complexity": 0.5},
    }


def scenario_doc(strategies, baseline=None, **extra):
    doc = {
        "name": "test scenario",
        "baseline": baseline or strategies[0]["name"],
        "weights": {"alpha": 0.4, "beta": 0.3, "gamma": 0.2, "delta": 0.1},
        "seed": 1,
        "monte_carlo_n": 2000,
        "strategies": strategies,
    }
    doc.update(extra)
    return doc


class TestLoadFixtures:
    def test_s1_shape(self, scenario_s1_path):
        scenario = load_scenario(scenario_s1_path)
        assert [s.name for s in scenario.strategies] == ["ECC", "RSA-2048"]
        assert scenario.baseline_strategy == "RSA-2048"

    def test_s2_shape(self, scenario_s2_path):
        scenario = load_scenario(scenario_s2_path)
        assert [s.name for s in scenario.strategies] == ["Centralised", "DSP"]
        targets = [t.vuln_id for t in scenario.strategies[0].targets]
        assert targets == ["N1", "N5", "O2"]

    def test_register_path_resolved(self, scenario_s1_path):
        scenario = load_scenario(scenario_s1_path)
        assert load_register(scenario.register_path).get("C1") is not None


class TestValidation:
    def test_unresolved_vuln_id(self, tmp_scenario):
        path = tmp_scenario(scenario_doc(
            [strategy_doc("a", targets=("Z9",)), strategy_doc("b")]))
        with pytest.raises(UnresolvedVulnIdError, match="Z9"):
            load_scenario(path)

    def test_unknown_baseline(self, tmp_scenario):
        path = tmp_scenario(scenario_doc(
            [strategy_doc("a"), strategy_doc("b")], baseline="missing"))
        with pytest.raises(UnknownBaselineError, match="missing"):
            load_scenario(path)

    def test_duplicate_strategy_name(self, tmp_scenario):
        path = tmp_scenario(scenario_doc([strategy_doc("a"), strategy_doc("a")]))
        with pytest.raises(DuplicateStrategyNameError, match="'a'"):
            load_scenario(path)

    def test_single_strategy_rejected(self):
        with pytest.raises(SchemaViolationError, match="two strategies"):
            parse_scenario(scenario_doc([strategy_doc("a")], register="r.csv"))

    def test_missing_key(self):
        doc = scenario_doc([strategy_doc("a"), strategy_doc("b")], register="r.csv")
        del doc["weights"]
        with pytest.raises(SchemaViolationError, match="weights"):
            parse_scenario(doc)

    def test_unknown_top_level_key(self):
        doc = scenario_doc([strategy_doc("a"), strategy_doc("b")],
                           register="r.csv", extra_key=1)
        with pytest.raises(SchemaViolationError, match="extra_key"):
            parse_scenario(doc)

    def test_weights_must_sum_to_one(self):
        from spwkit.errors import WeightsNotNormalizedError
        doc = scenario_doc([strategy_doc("a"), strategy_doc("b")], register="r.csv")
        doc["weights"]["alpha"] = 0.9
        with pytest.raises(WeightsNotNormalizedError, match="sum"):
            parse_scenario(doc)

    def test_rrf_out_of_range(self):
        doc = scenario_doc(
            [strategy_doc("a", rrf=1.5), strategy_doc("b")], register="r.csv")
        with pytest.raises(SchemaViolationError, match="rrf"):
            parse_scenario(doc)

    def test_empty_power_model(self):
        bad = strategy_doc("a")
        bad["controls"][0]["power"] = []
        with pytest.raises(SchemaViolationError, match="power"):
            parse_scenario(scenario_doc([bad, strategy_doc("b")], register="r.csv"))

    def test_not_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(SchemaViolationError, match="JSON"):
            load_scenario(path)

    def test_target_probability_out_of_range(self):
        bad = strategy_doc("a")
        bad["targets"][0]["p"] = 1.5
        with pytest.raises(SchemaViolationError, match="p=1.5"):
            parse_scenario(scenario_doc([bad, strategy_doc("b")], register="r.csv"))

    def test_criteria_out_of_range(self):
        bad = strategy_doc("a", criteria={"latency": 2.0, "storage": 0.5,
                                          "complexity": 0.5})
        with pytest.raises(SchemaViolationError, match="latency"):
            parse_scenario(scenario_doc([bad, strategy_doc("b")], register="r.csv"))

    def test_duplicate_power_label_warns(self):
        controls = [{
            "id": "CTL", "rrf": 0.5,
            "power": [
                {"label": "same", "p_base_w": 1.0},
                {"label": "same", "p_base_w": 2.0},
            ],
        }]
        doc = scenario_doc(
            [strategy_doc("a", controls=controls), strategy_doc("b")],
            register="r.csv")
        with pytest.warns(DuplicatePowerLabelWarning, match="same"):
            parse_scenario(doc)

    @pytest.mark.parametrize("key", ["p_base_w", "uncertainty_w", "env_factor"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), 10 ** 400])
    def test_non_finite_power_number(self, key, value):
        bad = strategy_doc("a")
        bad["controls"][0]["power"][0][key] = value
        with pytest.raises(SchemaViolationError, match=f"'{key}' must be a finite number"):
            parse_scenario(scenario_doc([bad, strategy_doc("b")], register="r.csv"))

    def test_non_finite_number_in_file(self, tmp_scenario):
        bad = strategy_doc("a")
        bad["controls"][0]["power"][0]["p_base_w"] = float("nan")
        path = tmp_scenario(scenario_doc([bad, strategy_doc("b")]))
        assert "NaN" in path.read_text(encoding="utf-8")
        with pytest.raises(SchemaViolationError, match="'p_base_w' must be a finite number"):
            load_scenario(path)

    def test_non_integral_node_count(self):
        bad = strategy_doc("a")
        bad["controls"][0]["power"][0]["node_count"] = 2.7
        with pytest.raises(SchemaViolationError, match="'node_count' must be an integer"):
            parse_scenario(scenario_doc([bad, strategy_doc("b")], register="r.csv"))

    @pytest.mark.parametrize("key,value", [("monte_carlo_n", 2.5), ("seed", 1.5)])
    def test_non_integral_top_level_integer(self, key, value):
        doc = scenario_doc([strategy_doc("a"), strategy_doc("b")], register="r.csv")
        doc[key] = value
        with pytest.raises(SchemaViolationError, match=f"'{key}' must be an integer"):
            parse_scenario(doc)

    def test_integral_float_accepted_as_integer(self):
        doc = scenario_doc([strategy_doc("a"), strategy_doc("b")], register="r.csv",
                           seed=3.0)
        doc["strategies"][0]["controls"][0]["power"][0]["node_count"] = 2.0
        scenario = parse_scenario(doc)
        assert scenario.seed == 3 and type(scenario.seed) is int
        assert scenario.strategies[0].power_components()[0].node_count == 2

    def test_negative_seed(self):
        doc = scenario_doc([strategy_doc("a"), strategy_doc("b")], register="r.csv",
                           seed=-1)
        with pytest.raises(SchemaViolationError, match="seed must be >= 0"):
            parse_scenario(doc)

    @pytest.mark.parametrize("bounds, value, message", [
        (dict(hi=1), 5.0, r"w: k=5.0 outside \[-inf, 1\]"),
        (dict(lo=0), -1.0, r"w: k must be >= 0, got -1.0"),
    ], ids=["hi-only", "lo-only"])
    def test_bound_on_one_side(self, bounds, value, message):
        with pytest.raises(SchemaViolationError, match=message):
            _typed(value, float, "k", "w", **bounds)
        assert _typed(0.5, float, "k", "w", **bounds) == 0.5

    @pytest.mark.parametrize("strategies, extra, message", [
        ([strategy_doc("a", rrf=1.5)], {}, r"strategies\[0\].controls\[0\]: rrf=1.5"),
        ([strategy_doc("a")], {"monte_carlo_n": 0}, "monte_carlo_n=0 outside"),
        ([strategy_doc("a"), strategy_doc("a")], {"seed": -1}, "seed must be >= 0"),
        ([strategy_doc("a"), strategy_doc("b")], {"baseline": "c", "monte_carlo_n": 0},
         "monte_carlo_n=0 outside"),
    ], ids=["one-strategy+rrf", "one-strategy+monte_carlo_n", "duplicate+seed",
            "unknown-baseline+monte_carlo_n"])
    def test_cross_strategy_faults_reported_last(self, strategies, extra, message):
        # ScenarioSpec checks strategy count, names and baseline when it is built.
        doc = scenario_doc(strategies, register="r.csv", **extra)
        with pytest.raises(SchemaViolationError, match=message):
            parse_scenario(doc)

    def test_seed_type_reported_before_monte_carlo_n_range(self):
        # The parser checks types; ScenarioSpec checks the range when it is built.
        doc = scenario_doc([strategy_doc("a"), strategy_doc("b")], register="r.csv",
                           monte_carlo_n=0, seed="x")
        with pytest.raises(SchemaViolationError, match="^scenario: 'seed' must be a number$"):
            parse_scenario(doc)


class TestScenarioSpec:
    """The spec checks its own keys and bounds, however it is built."""

    @pytest.fixture(scope="class")
    def s1(self, scenario_s1_path):
        return load_scenario(scenario_s1_path)

    def test_duplicate_strategy_name(self, s1):
        ecc, rsa = s1.strategies
        with pytest.raises(DuplicateStrategyNameError,
                           match="^strategy name 'RSA-2048' appears twice$"):
            dataclasses.replace(s1, strategies=(dataclasses.replace(ecc, name="RSA-2048"), rsa))

    def test_unknown_baseline(self, s1):
        with pytest.raises(UnknownBaselineError,
                           match=r"^baseline 'DSA' is not a strategy \(have: ECC, RSA-2048\)$"):
            dataclasses.replace(s1, baseline_strategy="DSA")

    def test_single_strategy(self, s1):
        with pytest.raises(SchemaViolationError, match="^scenario needs at least two strategies$"):
            dataclasses.replace(s1, strategies=s1.strategies[1:])

    @pytest.mark.parametrize("changes, message", [
        (dict(monte_carlo_n=0), r"monte_carlo_n=0 outside \[1, 1000000\]"),
        (dict(monte_carlo_n=-5), r"monte_carlo_n=-5 outside \[1, 1000000\]"),
        (dict(monte_carlo_n=10**15), r"monte_carlo_n=1000000000000000 outside \[1, 1000000\]"),
        (dict(seed=-1), "seed must be >= 0, got -1"),
    ], ids=["n-zero", "n-negative", "n-huge", "seed-negative"])
    def test_monte_carlo_bounds(self, s1, changes, message):
        with pytest.raises(SchemaViolationError, match=f"^scenario: {message}$"):
            dataclasses.replace(s1, **changes)

    @pytest.mark.parametrize("changes, message", [
        (dict(monte_carlo_n=2.5), "monte_carlo_n must be an int, got 2.5"),
        (dict(monte_carlo_n="100"), "monte_carlo_n must be an int, got '100'"),
        (dict(monte_carlo_n=True), "monte_carlo_n must be an int, got True"),
        (dict(seed=2.5), "seed must be an int, got 2.5"),
        (dict(seed=True), "seed must be an int, got True"),
    ], ids=["n-float", "n-str", "n-bool", "seed-float", "seed-bool"])
    def test_monte_carlo_types(self, s1, changes, message):
        with pytest.raises(SchemaViolationError, match=f"^scenario: {message}$"):
            dataclasses.replace(s1, **changes)

    def test_types_checked_before_bounds(self, s1):
        with pytest.raises(SchemaViolationError, match="^scenario: seed must be an int"):
            dataclasses.replace(s1, monte_carlo_n=0, seed=2.5)

    def test_evaluate_seed_override_checked(self, s1):
        register = load_register(s1.register_path)
        with pytest.raises(SchemaViolationError, match="^scenario: seed must be >= 0, got -3$"):
            evaluate(s1, register, seed=-3)

    def test_strategy_by_name(self, s1):
        assert s1.strategy("RSA-2048") is s1.strategies[1]
        with pytest.raises(KeyError):
            s1.strategy("DSA")


@pytest.fixture(scope="module")
def s1_result(scenario_s1_path):
    scenario = load_scenario(scenario_s1_path)
    register = load_register(scenario.register_path)
    return evaluate(scenario, register)


@pytest.fixture(scope="module")
def s2_result(scenario_s2_path):
    scenario = load_scenario(scenario_s2_path)
    register = load_register(scenario.register_path)
    return evaluate(scenario, register)


class TestEvaluateS1:
    @pytest.fixture()
    def result(self, s1_result):
        return s1_result

    def test_gains(self, result):
        assert result.outcome("ECC").sg == pytest.approx(6.48, abs=1e-12)
        assert result.outcome("RSA-2048").sg == pytest.approx(6.84, abs=1e-12)

    def test_per_watt(self, result):
        assert result.outcome("ECC").spw == pytest.approx(36.0, abs=0.05)
        assert result.outcome("RSA-2048").spw == pytest.approx(13.2, abs=0.05)

    def test_ratio(self, result):
        assert result.comparison("ECC").spw_ratio == pytest.approx(2.7, abs=0.05)

    def test_power_saving(self, result):
        assert result.comparison("ECC").power_saving == pytest.approx(0.6538, abs=1e-4)


class TestEvaluateS2:
    @pytest.fixture()
    def result(self, s2_result):
        return s2_result

    def test_gains(self, result):
        assert f"{result.outcome('Centralised').sg:.2f}" == "18.62"
        assert result.outcome("DSP").sg == pytest.approx(16.66, abs=1e-9)

    def test_power_totals(self, result):
        assert result.outcome("Centralised").power.total == pytest.approx(11.7, abs=1e-9)
        assert result.outcome("DSP").power.total == pytest.approx(5.28, abs=1e-9)
        assert result.outcome("Centralised").power.uncertainty == pytest.approx(1.2)
        assert result.outcome("DSP").power.uncertainty == pytest.approx(0.6)

    def test_per_watt(self, result):
        assert f"{result.outcome('Centralised').spw:.2f}" == "1.59"
        assert f"{result.outcome('DSP').spw:.2f}" == "3.16"

    def test_ratio(self, result):
        assert result.comparison("DSP").spw_ratio == pytest.approx(1.98, abs=0.01)

    def test_power_saving(self, result):
        assert result.comparison("DSP").power_saving * 100 == pytest.approx(55, abs=0.5)

    def test_security_reduction(self, result):
        assert result.comparison("DSP").security_reduction * 100 == \
            pytest.approx(10.5, abs=0.1)

    def test_index_values(self, result):
        assert result.outcome("Centralised").sei_value == pytest.approx(0.806, abs=1e-12)
        assert result.outcome("DSP").sei_value == pytest.approx(1.704, abs=1e-3)


class TestEvaluateProperties:
    def test_identical_strategies_are_symmetric(self, tmp_scenario):
        path = tmp_scenario(scenario_doc([
            strategy_doc("first", rrf=0.7, p_base=2.0),
            strategy_doc("second", rrf=0.7, p_base=2.0),
        ]))
        scenario = load_scenario(path)
        result = evaluate(scenario, load_register(scenario.register_path))
        comp = result.comparison("second")
        assert comp.spw_ratio == 1.0
        assert comp.power_saving == 0.0
        assert comp.security_reduction == 0.0
        assert comp.sei_ratio == 1.0

    def test_baseline_self_comparison_exact(self, scenario_s2_path):
        scenario = load_scenario(scenario_s2_path)
        result = evaluate(scenario, load_register(scenario.register_path))
        comp = result.comparison(result.baseline)
        assert (comp.spw_ratio, comp.power_saving, comp.security_reduction,
                comp.sei_ratio) == (1.0, 0.0, 0.0, 1.0)

    def test_deterministic_given_seed(self, scenario_s2_path):
        scenario = load_scenario(scenario_s2_path)
        register = load_register(scenario.register_path)
        a = evaluate(scenario, register)
        b = evaluate(scenario, register)
        assert a == b

    def test_seed_override_changes_monte_carlo(self, scenario_s2_path):
        scenario = load_scenario(scenario_s2_path)
        register = load_register(scenario.register_path)
        a = evaluate(scenario, register, seed=1)
        b = evaluate(scenario, register, seed=2)
        assert a.outcome("DSP").monte_carlo.spw_sigma != \
            b.outcome("DSP").monte_carlo.spw_sigma

    # Full-precision Monte Carlo sigmas; the reports round to two decimals
    # and cannot see a last-bit change in the sampler.
    @pytest.mark.parametrize("fixture, seed, expected", [
        ("scenario_s1_path", None, {"ECC": "2.337874936579809",
                                    "RSA-2048": "0.7336447590719795"}),
        ("scenario_s1_path", 3, {"ECC": "2.327407147260382",
                                 "RSA-2048": "0.7333668991895242"}),
        ("scenario_s2_path", None, {"Centralised": "0.08015169098434442",
                                    "DSP": "0.14969306908506938"}),
        ("scenario_s2_path", 3, {"Centralised": "0.08029617935175538",
                                 "DSP": "0.14805177022567353"}),
    ])
    def test_monte_carlo_sigmas_pinned(self, request, fixture, seed, expected):
        scenario = load_scenario(request.getfixturevalue(fixture))
        result = evaluate(scenario, load_register(scenario.register_path), seed=seed)
        assert {o.name: repr(o.monte_carlo.spw_sigma) for o in result.outcomes} == expected

    def test_appending_a_strategy_keeps_earlier_monte_carlo_sigmas(self, scenario_s1_path):
        # Each strategy's stream is the child seed at its list position.
        scenario = load_scenario(scenario_s1_path)
        register = load_register(scenario.register_path)
        extra = dataclasses.replace(scenario.strategies[0], name="ECC-copy")
        longer = dataclasses.replace(scenario, strategies=(*scenario.strategies, extra))
        before = evaluate(scenario, register)
        after = evaluate(longer, register)
        for name in ("ECC", "RSA-2048"):
            assert repr(after.outcome(name).monte_carlo.spw_sigma) == \
                repr(before.outcome(name).monte_carlo.spw_sigma)

    def test_ordering_invariant_under_uniform_power_rescale(self, tmp_scenario):
        def build(scale):
            return scenario_doc([
                strategy_doc("a", rrf=0.9, p_base=0.4 * scale),
                strategy_doc("b", rrf=0.6, p_base=0.1 * scale),
                strategy_doc("c", rrf=0.8, p_base=0.3 * scale),
            ])

        orders = []
        for scale in (1.0, 3.5):
            path = tmp_scenario(build(scale))
            scenario = load_scenario(path)
            result = evaluate(scenario, load_register(scenario.register_path))
            ranked = sorted(result.outcomes, key=lambda o: o.spw, reverse=True)
            orders.append([o.name for o in ranked])
        assert orders[0] == orders[1]

    def test_zero_rrf_zeroes_everything(self, tmp_scenario):
        path = tmp_scenario(scenario_doc([
            strategy_doc("none", rrf=0.0),
            strategy_doc("base", rrf=0.5),
        ], baseline="base"))
        scenario = load_scenario(path)
        result = evaluate(scenario, load_register(scenario.register_path))
        assert result.outcome("none").sg == 0.0
        assert result.outcome("none").spw == 0.0

    def test_rrf_composition(self, tmp_scenario):
        controls = [
            {"id": "one", "rrf": 0.5,
             "power": [{"label": "p1", "p_base_w": 1.0}]},
            {"id": "two", "rrf": 0.5,
             "power": [{"label": "p2", "p_base_w": 1.0}]},
        ]
        path = tmp_scenario(scenario_doc([
            strategy_doc("layered", controls=controls),
            strategy_doc("plain", rrf=0.75),
        ]))
        scenario = load_scenario(path)
        assert scenario.strategy("layered").effective_rrf() == pytest.approx(0.75)
        result = evaluate(scenario, load_register(scenario.register_path))
        assert result.outcome("layered").rrf_composed
        assert not result.outcome("plain").rrf_composed
        assert result.outcome("layered").sg == pytest.approx(
            result.outcome("plain").sg)

    def test_strategy_power_sums_over_controls(self, tmp_scenario):
        controls = [
            {"id": "one", "rrf": 0.5,
             "power": [{"label": "p1", "p_base_w": 1.5}]},
            {"id": "two", "rrf": 0.0,
             "power": [{"label": "p2", "p_base_w": 0.5, "node_count": 3}]},
        ]
        path = tmp_scenario(scenario_doc([
            strategy_doc("multi", controls=controls), strategy_doc("other")]))
        scenario = load_scenario(path)
        result = evaluate(scenario, load_register(scenario.register_path))
        assert result.outcome("multi").power.total == pytest.approx(3.0)


def target_tiers(path):
    """(id, tier) of every targeted entry of the scenario at ``path``, first-seen order."""
    scenario = load_scenario(path)
    targets = evaluate(scenario, load_register(scenario.register_path)).targets
    return [(e.id, classify_tier(e)) for e in targets]


class TestClassifyTargets:
    def test_s1_target_is_high(self, scenario_s1_path):
        assert target_tiers(scenario_s1_path) == [("C1", RiskTier.HIGH)]

    def test_s2_targets_all_high(self, scenario_s2_path):
        tiers = dict(target_tiers(scenario_s2_path))
        assert tiers == {"N1": RiskTier.HIGH, "N5": RiskTier.HIGH,
                         "O2": RiskTier.HIGH}

    def test_availability_only_target_is_low(self, tmp_scenario):
        path = tmp_scenario(scenario_doc([
            strategy_doc("a", targets=("C3",)), strategy_doc("b", targets=("C3",))]))
        assert target_tiers(path) == [("C3", RiskTier.LOW)]

    def test_evaluation_carries_targets_first_seen(self, tmp_scenario):
        path = tmp_scenario(scenario_doc([
            strategy_doc("a", targets=("C3", "C1")),
            strategy_doc("b", targets=("C1", "N1"))]))
        scenario = load_scenario(path)
        register = load_register(scenario.register_path)
        targets = evaluate(scenario, register).targets
        assert targets == tuple(register.get(i) for i in ("C3", "C1", "N1"))

    def test_unresolved_target(self, register):
        doc = scenario_doc([strategy_doc("a", targets=("Z9",)), strategy_doc("b")],
                           register="r.csv")
        scenario = parse_scenario(doc)
        with pytest.raises(UnresolvedVulnIdError, match="'Z9'"):
            evaluate(scenario, register)


def idle_power(duty_cycle=1.0, uncertainty_w=0.0):
    """One control whose single power component is 1 W scaled by ``duty_cycle``."""
    return [{"id": "CTL", "rrf": 0.5, "power": [
        {"label": "load", "p_base_w": 1.0, "duty_cycle": duty_cycle,
         "uncertainty_w": uncertainty_w}]}]


class TestEvaluateErrors:
    """Errors raised while evaluating name the strategy they come from."""

    def evaluate_doc(self, tmp_scenario, strategies, baseline):
        scenario = load_scenario(tmp_scenario(scenario_doc(strategies, baseline=baseline)))
        return evaluate(scenario, load_register(scenario.register_path))

    def test_zero_operational_power(self, tmp_scenario):
        strategies = [strategy_doc("base"), strategy_doc("off", controls=idle_power(0.0))]
        with pytest.raises(NonPositivePowerError,
                           match=r"^strategy 'off': operational power 0\.0 W must be > 0"):
            self.evaluate_doc(tmp_scenario, strategies, "base")

    def test_interval_through_zero(self, tmp_scenario):
        strategies = [strategy_doc("base"),
                      strategy_doc("wide", controls=idle_power(uncertainty_w=2.0))]
        with pytest.raises(NonPositivePowerError,
                           match="^strategy 'wide': power uncertainty admits non-positive"):
            self.evaluate_doc(tmp_scenario, strategies, "base")

    def test_zero_baseline_reported_before_earlier_strategies(self, tmp_scenario):
        unexploitable = strategy_doc("base")
        for target in unexploitable["targets"]:
            target["p"] = 0.0
        strategies = [strategy_doc("off", controls=idle_power(0.0)), unexploitable]
        with pytest.raises(ZeroBaselineError, match="^strategy 'base': baseline SpW must be > 0"):
            self.evaluate_doc(tmp_scenario, strategies, "base")
