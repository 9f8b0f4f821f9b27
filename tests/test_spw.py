"""The gain / power / per-watt / index calculus and its invariants."""

import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spwkit.errors import (
    EmptyPowerModelError,
    FactorOutOfRangeError,
    NonPositivePowerError,
    SpwkitError,
    WeightsNotNormalizedError,
    ZeroBaselineError,
)
from spwkit.spw import (
    MONTE_CARLO_CHUNK,
    PowerComponent,
    PowerEstimate,
    SeiCriteria,
    SeiWeights,
    SigmaMethod,
    VulnContribution,
    operational_power,
    security_gain,
    sei,
    spw,
    spw_normalised,
)
from spwkit.spw import _power_samples


def contribution(cvss, p, m, rrf, vuln_id="V1"):
    return VulnContribution(vuln_id=vuln_id, cvss=cvss, exploit_probability=p,
                            mission_criticality=m, rrf=rrf)


def contributions_strategy(max_size=5):
    factor = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
    return st.lists(
        st.builds(contribution,
                  cvss=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
                  p=factor, m=factor, rrf=factor),
        min_size=0, max_size=max_size)


class TestSecurityGain:
    def test_single_contribution(self):
        assert security_gain([contribution(9.0, 0.8, 1.0, 0.9)]) == pytest.approx(6.48, abs=1e-12)

    def test_three_contributions(self):
        sg = security_gain([
            contribution(7.4, 0.9, 1.0, 0.95, "N1"),
            contribution(8.3, 0.8, 1.0, 0.95, "N5"),
            contribution(9.0, 0.7, 1.0, 0.95, "O2"),
        ])
        assert sg == pytest.approx(18.62, abs=1e-9)
        assert f"{sg:.2f}" == "18.62"

    def test_empty_is_zero(self):
        assert security_gain([]) == 0.0

    @pytest.mark.parametrize("bad", [
        (10.1, 0.5, 0.5, 0.5),
        (-0.1, 0.5, 0.5, 0.5),
        (5.0, 1.2, 0.5, 0.5),
        (5.0, 0.5, -0.5, 0.5),
        (5.0, 0.5, 0.5, 1.01),
    ])
    def test_factor_out_of_range(self, bad):
        with pytest.raises(FactorOutOfRangeError, match="V1"):
            security_gain([contribution(*bad)])

    @given(contributions_strategy())
    def test_matches_exact_fraction_oracle(self, contribs):
        oracle = sum(
            (Fraction(c.cvss) * Fraction(c.exploit_probability)
             * Fraction(c.mission_criticality) * Fraction(c.rrf)
             for c in contribs),
            start=Fraction(0))
        assert security_gain(contribs) == pytest.approx(float(oracle), abs=1e-9)

    @given(contributions_strategy(max_size=4))
    def test_linear_in_rrf(self, contribs):
        halved = [contribution(c.cvss, c.exploit_probability,
                               c.mission_criticality, c.rrf / 2, c.vuln_id)
                  for c in contribs]
        assert security_gain(halved) * 2 == pytest.approx(security_gain(contribs), abs=1e-12)


class TestOperationalPower:
    def test_constellation_decomposition(self):
        estimate = operational_power([
            PowerComponent("uplink", 0.4, node_count=24, uncertainty=1.0),
            PowerComponent("ground", 2.1, uncertainty=0.2),
        ])
        assert estimate.total == pytest.approx(11.7, abs=1e-12)
        assert estimate.uncertainty == pytest.approx(1.2, abs=1e-12)

    def test_three_component_decomposition(self):
        estimate = operational_power([
            PowerComponent("detect", 0.05, node_count=24),
            PowerComponent("monitor", 0.02, node_count=24),
            PowerComponent("coordinate", 0.15, node_count=24),
        ])
        assert estimate.total == pytest.approx(5.28, abs=1e-12)

    def test_duty_cycle_scales(self):
        estimate = operational_power([PowerComponent("x", 2.0, duty_cycle=0.25)])
        assert estimate.total == pytest.approx(0.5)

    def test_environmental_factor_scales(self):
        estimate = operational_power([PowerComponent("x", 2.0, environmental_factor=1.2)])
        assert estimate.total == pytest.approx(2.4)

    def test_zero_duty_cycle_total_rejected_at_spw(self):
        estimate = operational_power([PowerComponent("x", 1.0, duty_cycle=0.0)])
        assert estimate.total == 0.0
        with pytest.raises(NonPositivePowerError):
            spw(1.0, estimate)

    def test_empty_model(self):
        with pytest.raises(EmptyPowerModelError):
            operational_power([])

    def test_nonpositive_base(self):
        with pytest.raises(NonPositivePowerError):
            operational_power([PowerComponent("x", 0.0)])

    @pytest.mark.parametrize("args", [
        dict(label="wide", p_base=0.18, uncertainty=1e308),     # width 2u overflows
        dict(label="edge", p_base=1.7e308, uncertainty=1e307),  # total + u overflows
        dict(label="many", p_base=1e308, node_count=24),        # total overflows
    ], ids=lambda args: args["label"])
    def test_non_finite_interval_rejected(self, args):
        with pytest.raises(FactorOutOfRangeError, match=args["label"]):
            operational_power([PowerComponent(**args)])


class TestSpw:
    def test_crypto_example(self):
        result = spw(6.48, PowerEstimate(0.18, 0.02))
        assert result.spw == pytest.approx(36.0, abs=1e-9)

    def test_constellation_example(self):
        result = spw(16.67, PowerEstimate(5.28, 0.6))
        assert result.spw == pytest.approx(3.157, abs=5e-4)
        assert f"{result.spw:.2f}" == "3.16"

    def test_zero_gain(self):
        for method in SigmaMethod:
            result = spw(0.0, PowerEstimate(1.0, 0.1), method, seed=3)
            assert result.spw == 0.0
            assert result.spw_sigma == 0.0

    def test_first_order_sigma(self):
        result = spw(6.48, PowerEstimate(0.18, 0.02))
        assert result.spw_sigma == pytest.approx(36.0 * 0.02 / 0.18, rel=1e-12)

    def test_first_order_sigma_zero_when_no_uncertainty(self):
        assert spw(5.0, PowerEstimate(2.0, 0.0)).spw_sigma == 0.0

    def test_monte_carlo_seeded_bit_exact(self):
        kwargs = dict(n_samples=50_000, seed=42)
        a = spw(6.48, PowerEstimate(0.18, 0.02), SigmaMethod.MONTE_CARLO, **kwargs)
        b = spw(6.48, PowerEstimate(0.18, 0.02), SigmaMethod.MONTE_CARLO, **kwargs)
        assert a.spw_sigma == b.spw_sigma

    def test_monte_carlo_seed_changes_stream(self):
        a = spw(6.48, PowerEstimate(0.18, 0.02), SigmaMethod.MONTE_CARLO, seed=1)
        b = spw(6.48, PowerEstimate(0.18, 0.02), SigmaMethod.MONTE_CARLO, seed=2)
        assert a.spw_sigma != b.spw_sigma

    def test_monte_carlo_converges_across_seeds(self):
        sigmas = [
            spw(6.48, PowerEstimate(0.18, 0.02), SigmaMethod.MONTE_CARLO,
                n_samples=100_000, seed=seed).spw_sigma
            for seed in (101, 202)
        ]
        assert abs(sigmas[0] - sigmas[1]) / sigmas[0] < 0.05

    @pytest.mark.parametrize("sg, centre, width", [(6.48, 0.18, 0.02), (6.84, 0.52, 0.05)],
                             ids=["S1-ECC", "S1-RSA-2048"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_monte_carlo_matches_closed_form_for_one_component(self, sg, centre, width, seed):
        """Power uniform on [a, b] gives sd(sg / P) = sg * sqrt(1/(ab) - (ln(b/a)/(b-a))^2);
        the sample sd must lie within 5 standard errors of it."""
        n = 20_000
        a, b = centre - width, centre + width
        exact = sg * math.sqrt(1 / (a * b) - (math.log(b / a) / (b - a)) ** 2)
        x = sg / _power_samples(np.array([centre]), np.array([width]), n, seed)  # spw's draws
        kurtosis = np.mean((x - x.mean()) ** 4) / np.var(x) ** 2
        standard_error = exact * math.sqrt((kurtosis - 1) / (4 * (n - 1)))
        result = spw(sg, (centre, width), SigmaMethod.MONTE_CARLO, n_samples=n, seed=seed)
        assert abs(result.spw_sigma - exact) < 5 * standard_error

    def test_monte_carlo_per_component_sampling(self):
        components = (
            PowerComponent("a", 0.4, node_count=24, uncertainty=1.0),
            PowerComponent("b", 2.1, uncertainty=0.2),
        )
        estimate = operational_power(components)
        pooled = spw(18.62, estimate, SigmaMethod.MONTE_CARLO,
                     n_samples=100_000, seed=5)
        split = spw(18.62, estimate, SigmaMethod.MONTE_CARLO,
                    components=components, n_samples=100_000, seed=5)
        # independent component draws concentrate the total vs one wide interval
        assert split.spw_sigma < pooled.spw_sigma

    def test_monte_carlo_rejects_interval_through_zero(self):
        with pytest.raises(NonPositivePowerError):
            spw(1.0, PowerEstimate(0.1, 0.5), SigmaMethod.MONTE_CARLO, seed=0)

    def test_nonpositive_power(self):
        with pytest.raises(NonPositivePowerError):
            spw(1.0, PowerEstimate(0.0, 0.0))

    @pytest.mark.parametrize("power", [(0.18, -0.02), (0.18, float("nan")), (float("inf"), 0.02)])
    def test_first_order_rejects_an_invalid_interval(self, power):
        with pytest.raises(FactorOutOfRangeError, match="not a finite interval"):
            spw(6.48, PowerEstimate(*power))

    @pytest.mark.parametrize("sg", [-1.0, float("nan")])
    def test_negative_gain_rejected(self, sg):
        for method in SigmaMethod:
            with pytest.raises(FactorOutOfRangeError, match=f"security gain {sg} must be >= 0"):
                spw(sg, PowerEstimate(1.0, 0.1), method)

    @pytest.mark.parametrize("power, methods", [
        ((5e-324, 0.0), list(SigmaMethod)),             # the ratio overflows
        ((1e-250, 1e-50), [SigmaMethod.FIRST_ORDER]),   # the relative width overflows
        ((1e-307, 9e-308), [SigmaMethod.MONTE_CARLO]),  # the smallest draws overflow
    ])
    def test_overflowing_result_rejected(self, power, methods):
        for method in methods:
            with pytest.raises(FactorOutOfRangeError, match="is not finite"):
                spw(6.48, power, method, n_samples=1000)

    @settings(derandomize=True, deadline=None)
    @given(st.floats(), st.floats(), st.floats())
    def test_any_interval_gives_a_finite_result_or_an_error(self, sg, total, uncertainty):
        for method in SigmaMethod:
            try:
                result = spw(sg, (total, uncertainty), method, n_samples=16)
            except SpwkitError:
                continue
            assert math.isfinite(result.spw) and result.spw >= 0
            assert math.isfinite(result.spw_sigma) and result.spw_sigma >= 0

    @pytest.mark.parametrize("k", [2.0, 4.0, 0.5, 0.25])
    def test_power_scaling_exact_for_binary_factors(self, k):
        base = spw(6.48, PowerEstimate(0.18, 0.0))
        scaled = spw(6.48, PowerEstimate(0.18 * k, 0.0))
        assert scaled.spw == base.spw / k

    @given(st.floats(min_value=0.01, max_value=100.0, allow_nan=False),
           st.floats(min_value=0.1, max_value=50.0, allow_nan=False),
           st.floats(min_value=0.1, max_value=20.0, allow_nan=False))
    def test_power_scaling_general(self, k, total, sg):
        base = spw(sg, PowerEstimate(total, 0.0))
        scaled = spw(sg, PowerEstimate(total * k, 0.0))
        assert scaled.spw == pytest.approx(base.spw / k, rel=1e-12)


MC = SigmaMethod.MONTE_CARLO


@st.composite
def sampler_inputs(draw):
    """Components, and an n at or next to a chunk boundary for their count."""
    k = draw(st.integers(min_value=1, max_value=64))
    centres = draw(st.lists(st.floats(min_value=0.01, max_value=1000.0),
                            min_size=k, max_size=k))
    widths = draw(st.lists(st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=10.0)),
                           min_size=k, max_size=k))
    rows = MONTE_CARLO_CHUNK // k
    n = rows * draw(st.sampled_from([1, 2])) + draw(st.sampled_from([-1, 0, 1]))
    return np.array(centres), np.array(widths), n


class TestMonteCarloSampler:
    @settings(max_examples=60, deadline=None)
    @given(sampler_inputs(), st.integers(min_value=0, max_value=2**64 - 1))
    def test_chunked_draws_equal_one_uniform_call(self, inputs, seed):
        centres, widths, n = inputs
        reference = np.random.default_rng(seed).uniform(
            centres - widths, centres + widths, size=(n, len(centres))).sum(axis=1)
        assert _power_samples(centres, widths, n, seed).tobytes() == reference.tobytes()

    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_samples_give_zero_sigma(self, n):
        assert spw(6.48, PowerEstimate(0.18, 0.02), MC, n_samples=n).spw_sigma == 0.0

    def test_negative_sample_count_rejected(self):
        with pytest.raises(ValueError):
            spw(6.48, PowerEstimate(0.18, 0.02), MC, n_samples=-1)

    def test_interval_through_zero_rejected_across_chunks(self):
        components = [PowerComponent("wide", 0.1, uncertainty=0.5)] + [
            PowerComponent(f"c{i}", 1e-4) for i in range(7)]
        with pytest.raises(NonPositivePowerError):
            spw(1.0, operational_power(components), MC, components=components,
                n_samples=3 * MONTE_CARLO_CHUNK // len(components), seed=0)

    @pytest.mark.parametrize("power", [
        (float("inf"), 1.0), (1.0, float("inf")), (1.0, float("nan")), (1e308, 1e308),
    ])
    def test_bare_estimate_with_non_finite_range(self, power):
        for method in SigmaMethod:
            with pytest.raises(FactorOutOfRangeError, match="not a finite interval"):
                spw(1.0, power, method)

    def test_bare_estimate_with_negative_width(self):
        for method in SigmaMethod:
            with pytest.raises(FactorOutOfRangeError, match="not a finite interval"):
                spw(1.0, (1.0, -0.5), method)

    def test_memory_is_linear_in_n(self):
        components = [PowerComponent(f"c{i}", 1.0, uncertainty=0.1) for i in range(24)]
        power = operational_power(components)
        tracemalloc.start()
        try:
            spw(10.0, power, MC, components=components, n_samples=100_000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000  # one (n, k) float64 matrix alone is 19.2 MB


class TestValueTypesCheckThemselves:
    @pytest.mark.parametrize("value, field, bad, error", [
        (contribution(9.0, 0.8, 1.0, 0.9), "rrf", 1.5, FactorOutOfRangeError),
        (PowerComponent("x", 1.0), "uncertainty", -0.1, FactorOutOfRangeError),
        (SeiWeights(0.4, 0.3, 0.2, 0.1), "alpha", 1.5, WeightsNotNormalizedError),
        (SeiCriteria(1.0, 0.5, 0.5, 0.5), "latency_score", 1.5, FactorOutOfRangeError),
    ], ids=["VulnContribution", "PowerComponent", "SeiWeights", "SeiCriteria"])
    def test_replace_rejects_an_out_of_range_field(self, value, field, bad, error):
        with pytest.raises(error, match=field):
            replace(value, **{field: bad})


class TestNormalisation:
    def test_crypto_ratio(self):
        ratio = spw_normalised(spw(6.48, PowerEstimate(0.18, 0.02)),
                               spw(6.84, PowerEstimate(0.52, 0.05)))
        assert ratio == pytest.approx(2.7368, abs=1e-4)
        assert round(ratio, 1) == 2.7

    def test_published_style_ratio(self):
        # ratio of the printed per-watt values
        assert 36.0 / 13.2 == pytest.approx(2.727, abs=5e-4)
        assert 3.157 / 1.5915 == pytest.approx(1.98, abs=5e-3)

    def test_identity(self):
        result = spw(5.0, PowerEstimate(2.0, 0.0))
        assert spw_normalised(result, result) == 1.0

    def test_zero_baseline(self):
        with pytest.raises(ZeroBaselineError):
            spw_normalised(spw(5.0, PowerEstimate(2.0, 0.0)),
                           spw(0.0, PowerEstimate(2.0, 0.0)))

    def test_argmax_invariant_under_baseline_choice(self):
        results = [spw(sg, PowerEstimate(p, 0.0))
                   for sg, p in [(6.0, 2.0), (8.0, 1.6), (4.0, 2.5)]]
        for baseline in results:
            ratios = [spw_normalised(r, baseline) for r in results]
            assert ratios.index(max(ratios)) == 1


class TestSei:
    def test_weighted_example(self):
        value = sei(SeiWeights(0.4, 0.3, 0.2, 0.1), SeiCriteria(1.59, 0.2, 0.1, 0.9))
        assert value == pytest.approx(0.806, abs=1e-12)
        assert f"{value:.3f}" == "0.806"

    def test_direct_arithmetic_example(self):
        value = sei(SeiWeights(0.4, 0.3, 0.2, 0.1), SeiCriteria(3.16, 0.8, 0.7, 0.6))
        assert value == pytest.approx(1.704, abs=1e-3)

    def test_degenerate_weights(self):
        assert sei(SeiWeights(1.0, 0.0, 0.0, 0.0),
                   SeiCriteria(2.5, 0.9, 0.9, 0.9)) == pytest.approx(2.5)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(WeightsNotNormalizedError):
            sei(SeiWeights(0.4, 0.3, 0.2, 0.2), SeiCriteria(1.0, 0.5, 0.5, 0.5))

    def test_weight_range(self):
        with pytest.raises(WeightsNotNormalizedError):
            sei(SeiWeights(1.5, -0.5, 0.0, 0.0), SeiCriteria(1.0, 0.5, 0.5, 0.5))

    def test_criterion_range(self):
        with pytest.raises(FactorOutOfRangeError):
            sei(SeiWeights(0.25, 0.25, 0.25, 0.25), SeiCriteria(1.0, 1.5, 0.5, 0.5))

    def test_spw_term_enters_raw(self):
        # a per-watt magnitude above 1 passes through unscaled
        value = sei(SeiWeights(0.5, 0.5, 0.0, 0.0), SeiCriteria(36.0, 0.0, 0.0, 0.0))
        assert value == pytest.approx(18.0)
