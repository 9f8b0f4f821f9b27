"""The gain / power / per-watt / index calculus and its invariants."""

import math
import os
import sys
import threading
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from spwkit.errors import (
    EmptyPowerModelError,
    FactorOutOfRangeError,
    NonPositivePowerError,
    SpwkitError,
    WeightsNotNormalizedError,
    ZeroBaselineError,
)
from spwkit.scenario import MAX_MONTE_CARLO_N
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
from spwkit.spw import _power_samples, _sample_sd

from .sigma_oracle import sigma_two_uniforms, sigma_uniforms

SPW_MODULE = sys.modules[_power_samples.__module__]


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

    @pytest.mark.parametrize("sg, first, second", [
        (18.62, (9.6, 1.0), (2.1, 0.2)),   # S2 Centralised: telemetry uplink, ground processing
        (16.66, (1.2, 0.15), (3.6, 0.4)),  # S2 DSP: anomaly detection, ISL coordination
    ], ids=["S2-Centralised", "S2-DSP"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_monte_carlo_matches_closed_form_for_two_components(self, sg, first, second, seed):
        """The sample sd must lie within 5 standard errors of the trapezoid-density oracle."""
        n = 20_000
        exact = sigma_two_uniforms(sg, *first, *second)
        centres, widths = np.array([first[0], second[0]]), np.array([first[1], second[1]])
        x = sg / _power_samples(centres, widths, n, seed)  # spw's draws
        kurtosis = np.mean((x - x.mean()) ** 4) / np.var(x) ** 2
        standard_error = exact * math.sqrt((kurtosis - 1) / (4 * (n - 1)))
        components = [PowerComponent("first", first[0], uncertainty=first[1]),
                      PowerComponent("second", second[0], uncertainty=second[1])]
        result = spw(sg, operational_power(components), SigmaMethod.MONTE_CARLO,
                     components=components, n_samples=n, seed=seed)
        assert abs(result.spw_sigma - exact) < 5 * standard_error

    def test_two_component_oracle_matches_a_midpoint_integral(self):
        sg, (c1, u1), (c2, u2), m = 16.66, (1.2, 0.15), (3.6, 0.4), 200
        xs = [c1 - u1 + (i + 0.5) * 2 * u1 / m for i in range(m)]
        ys = [c2 - u2 + (i + 0.5) * 2 * u2 / m for i in range(m)]
        mean_inverse = sum(1 / (x + y) for x in xs for y in ys) / m**2
        mean_inverse_square = sum(1 / (x + y) ** 2 for x in xs for y in ys) / m**2
        midpoint = sg * math.sqrt(mean_inverse_square - mean_inverse**2)
        assert sigma_two_uniforms(sg, c1, u1, c2, u2) == pytest.approx(midpoint, rel=1e-4)

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

    def test_monte_carlo_sigma_of_a_huge_spw(self):
        # The squared deviations of ratios near 1e200 overflow, the SD does not.
        exact = spw(6.48, (1e-200, 0.0), SigmaMethod.MONTE_CARLO)
        assert exact.spw == 6.48e200 and exact.spw_sigma == 0.0
        wide = spw(6.48, (1e-200, 1e-201), SigmaMethod.MONTE_CARLO)
        assert math.isfinite(wide.spw_sigma)
        unit = spw(6.48, (1.0, 0.1), SigmaMethod.MONTE_CARLO)
        assert wide.spw_sigma == pytest.approx(unit.spw_sigma * 1e200, rel=1e-9)

    @settings(derandomize=True, deadline=None)
    @given(st.floats(), st.floats(), st.floats())
    @example(6.48, 1e-200, 0.0)
    @example(6.48, 1e-200, 1e-201)
    def test_monte_carlo_returns_wherever_first_order_does(self, sg, total, uncertainty):
        try:
            spw(sg, (total, uncertainty))
        except SpwkitError:
            return
        try:
            spw(sg, (total, uncertainty), SigmaMethod.MONTE_CARLO, n_samples=16)
        except SpwkitError as exc:
            samples = _power_samples(np.array([total]), np.array([uncertainty]), 16, 0)
            if isinstance(exc, NonPositivePowerError):
                assert (samples <= 0).any()
            else:
                with np.errstate(over="ignore"):
                    assert not np.isfinite(sg / samples).all(), exc

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

    @pytest.mark.parametrize("argument, value", [
        ("n_samples", -5), ("n_samples", 2.5), ("n_samples", True), ("n_samples", 0),
        ("seed", -1), ("seed", 1.0),
    ])
    def test_monte_carlo_rejects_a_bad_count_or_seed(self, argument, value):
        with pytest.raises(FactorOutOfRangeError, match=f"^{argument} must be an integer"):
            spw(6.48, PowerEstimate(0.18, 0.02), SigmaMethod.MONTE_CARLO, **{argument: value})
        spw(6.48, PowerEstimate(0.18, 0.02), **{argument: value})  # first-order ignores both

    def test_monte_carlo_takes_numpy_integers(self):
        as_numpy = spw(6.48, PowerEstimate(0.18, 0.02), SigmaMethod.MONTE_CARLO,
                       n_samples=np.int64(1000), seed=np.uint32(3))
        assert as_numpy == spw(6.48, PowerEstimate(0.18, 0.02), SigmaMethod.MONTE_CARLO,
                               n_samples=1000, seed=3)


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


@st.composite
def split_inputs(draw):
    """Components, and an n from 1 to 7 chunks, often next to a chunk
    boundary: every block boundary is one."""
    k = draw(st.integers(min_value=1, max_value=64))
    centres = draw(st.lists(st.floats(min_value=0.01, max_value=1000.0),
                            min_size=k, max_size=k))
    widths = draw(st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=k, max_size=k))
    rows = MONTE_CARLO_CHUNK // k
    n = draw(st.one_of(
        st.builds(lambda chunks, offset: max(1, chunks * rows + offset),
                  st.integers(min_value=0, max_value=7), st.sampled_from([-1, 0, 1])),
        st.integers(min_value=1, max_value=7 * rows + 1)))
    return np.array(centres), np.array(widths), n


class TestMonteCarloSampler:
    @settings(max_examples=60, deadline=None)
    @given(sampler_inputs(), st.integers(min_value=0, max_value=2**64 - 1))
    def test_chunked_draws_equal_one_uniform_call(self, inputs, seed):
        centres, widths, n = inputs
        reference = np.random.default_rng(seed).uniform(
            centres - widths, centres + widths, size=(n, len(centres))).sum(axis=1)
        assert _power_samples(centres, widths, n, seed).tobytes() == reference.tobytes()

    # One sampler: a bare interval is drawn exactly as a one-component model.
    @settings(derandomize=True, deadline=None)
    @given(st.floats(min_value=0.0, max_value=1e6),
           st.floats(min_value=5e-324, max_value=1e300),
           st.floats(min_value=0.0, max_value=1e300),
           st.integers(min_value=1, max_value=3 * MONTE_CARLO_CHUNK),
           st.integers(min_value=0, max_value=2**64 - 1))
    @example(6.48, 0.18, 0.02, 1, 0)
    @example(6.48, 0.1, 0.5, 100, 0)  # the interval admits non-positive totals
    def test_a_bare_interval_is_one_component(self, sg, total, uncertainty, n, seed):
        assume(math.isfinite(total + 2 * uncertainty))

        def outcome(**kwargs):
            try:
                return spw(sg, (total, uncertainty), MC, n_samples=n, seed=seed, **kwargs)
            except SpwkitError as exc:
                return type(exc), str(exc)

        component = PowerComponent("c", total, uncertainty=uncertainty)
        assert outcome() == outcome(components=[component])

    @pytest.mark.parametrize("n", [1])
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

    @staticmethod
    def assert_warm_call_holds_one_n_length_array(n):
        components = [PowerComponent(f"c{i}", 1.0, uncertainty=0.1) for i in range(24)]
        power = operational_power(components)
        spw(10.0, power, MC, components=components, n_samples=n, seed=1)
        tracemalloc.start()
        try:
            spw(10.0, power, MC, components=components, n_samples=n, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * n + 512 * 1024  # the float64 samples plus a fixed working set

    def test_warm_call_holds_one_n_length_array(self):
        for n in (100_000, MAX_MONTE_CARLO_N):
            self.assert_warm_call_holds_one_n_length_array(n)

    @pytest.mark.parametrize("size", [8192, 1 << 22])
    def test_working_set_is_fixed_at_any_ufunc_buffer_size(self, size):
        # numpy caps a ufunc's buffer at its operand: a 128 KB chunk here.
        previous = np.setbufsize(size)
        try:
            self.assert_warm_call_holds_one_n_length_array(MAX_MONTE_CARLO_N)
        finally:
            np.setbufsize(previous)

    def test_leaves_the_callers_ufunc_buffer_size(self):
        # The sampler sets its own buffer size on each thread it fills from;
        # a size that is not numpy's default shows a reset to the default too.
        components = [PowerComponent(f"c{i}", 1.0, uncertainty=0.1) for i in range(24)]
        previous = np.setbufsize(4096)
        try:
            spw(10.0, operational_power(components), MC, components=components,
                n_samples=100_000, seed=1)
            assert np.getbufsize() == 4096
        finally:
            np.setbufsize(previous)

    # The draws do not depend on how many blocks split the rows, even with
    # more blocks than cores switching threads as often as they can.
    @settings(derandomize=True, deadline=None)
    @given(split_inputs(), st.integers(min_value=0, max_value=2**64 - 1))
    def test_split_draws_equal_one_uniform_call(self, inputs, seed):
        centres, widths, n = inputs
        reference = np.random.default_rng(seed).uniform(
            centres - widths, centres + widths, size=(n, len(centres))).sum(axis=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in (1, 2, 3, 5):
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(SPW_MODULE, "MONTE_CARLO_WORKERS", workers)
                    samples = _power_samples(centres, widths, n, seed)
                assert samples.tobytes() == reference.tobytes()
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("worker", [False, True], ids=["calling-thread", "worker"])
    def test_a_failing_block_is_raised_after_every_thread_ends(self, monkeypatch, worker):
        class BlockFailed(Exception):
            pass

        failure = BlockFailed()
        fill = SPW_MODULE._fill_block

        def fill_or_fail(out, first, *args):
            if (first > 0) is worker:
                raise failure
            fill(out, first, *args)

        monkeypatch.setattr(SPW_MODULE, "_fill_block", fill_or_fail)
        components = [PowerComponent(f"c{i}", 1.0, uncertainty=0.1) for i in range(8)]
        threads = threading.active_count()
        with pytest.raises(BlockFailed) as raised:
            spw(10.0, operational_power(components), MC, components=components,
                n_samples=4 * MONTE_CARLO_CHUNK // len(components), seed=1)
        assert raised.value is failure
        assert threading.active_count() == threads

    # The plan depends on n and k alone: the blocks, the draws and the
    # working set are the same whatever CPUs the process may run on.
    def test_many_cpus_keep_a_fixed_working_set(self, monkeypatch):
        centres, widths = np.full(24, 1.0), np.full(24, 0.1)
        fill = SPW_MODULE._fill_block

        def plan():
            blocks = []

            def record(out, first, *args):
                blocks.append((first, len(out)))
                fill(out, first, *args)

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(SPW_MODULE, "_fill_block", record)
                samples = _power_samples(centres, widths, 4 * MONTE_CARLO_CHUNK, 1)
            return sorted(blocks), samples.tobytes()

        expected = plan()
        for cpus in (1, 64):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                                raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            assert plan() == expected
            self.assert_warm_call_holds_one_n_length_array(100_000)

    # Below 4 chunks a second thread costs more than it saves, so the
    # calling thread fills all the rows as one block.
    @pytest.mark.parametrize("chunks, first_chunks", [(3, [0]), (4, [0, 2])])
    def test_the_rows_split_from_4_chunks(self, monkeypatch, chunks, first_chunks):
        rows = MONTE_CARLO_CHUNK // 24
        fill = SPW_MODULE._fill_block
        firsts = []

        def record(out, first, *args):
            firsts.append(first)
            fill(out, first, *args)

        monkeypatch.setattr(SPW_MODULE, "_fill_block", record)
        _power_samples(np.full(24, 1.0), np.full(24, 0.1), chunks * rows, 1)
        assert sorted(firsts) == [c * rows for c in first_chunks]


@st.composite
def sd_inputs(draw):
    """Non-negative values, up to a few chunks of them, whose maximum lies
    anywhere from 1e-300 to past the in-place SD's overflow gate."""
    n = draw(st.integers(min_value=2, max_value=3 * MONTE_CARLO_CHUNK))
    gate = math.sqrt(sys.float_info.max / (2 * n))
    top = draw(st.one_of(
        st.floats(min_value=1e-300, max_value=gate),
        st.sampled_from([gate, math.nextafter(gate, math.inf), 2 * gate]),
        st.floats(min_value=gate, max_value=sys.float_info.max)))
    spread = draw(st.sampled_from([0.0, 1e-12, 0.1, 1.0]))  # relative width below the maximum
    x = top * (1.0 - spread * np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random(n))
    x[draw(st.integers(min_value=0, max_value=n - 1))] = top
    return x


class TestSampleSd:
    @settings(max_examples=300, deadline=None)
    @given(sd_inputs())
    def test_equals_numpy_std_bit_for_bit(self, x):
        """Up to the overflow gate the SD is ``np.std(x, ddof=1)``; above it,
        numpy's SD of ``x / max(x)`` times ``max(x)``."""
        top = x.max()
        with np.errstate(over="ignore", invalid="ignore"):  # as spw() calls it
            if top <= math.sqrt(sys.float_info.max / (2 * len(x))):
                expected = float(np.std(x, ddof=1))
            else:
                expected = float(np.std(x / top, ddof=1)) * float(top)
            assert repr(_sample_sd(x.copy())) == repr(expected)

    def test_an_infinite_value_gives_nan(self):
        with np.errstate(over="ignore", invalid="ignore"):  # as spw() calls it
            assert math.isnan(_sample_sd(np.array([1.0, math.inf, 2.0])))


S2_PAIRS = pytest.mark.parametrize("sg, first, second", [
    (18.62, (9.6, 1.0), (2.1, 0.2)),
    (16.66, (1.2, 0.15), (3.6, 0.4)),
], ids=["S2-Centralised", "S2-DSP"])

# Bundled-scale components, mixing wide and narrow intervals.
SIX_COMPONENTS = [(0.18, 0.02), (0.52, 0.05), (1.2, 0.15), (3.6, 0.4), (9.6, 1.0), (2.1, 0.2)]


class TestSigmaOracle:
    """The k-component oracle against the two-component form, a midpoint
    integral and itself at higher precision, then the sampler against it."""

    @S2_PAIRS
    def test_general_form_equals_the_two_component_form(self, sg, first, second):
        assert sigma_uniforms(sg, [first, second]) == pytest.approx(
            sigma_two_uniforms(sg, *first, *second), rel=1e-12)

    def test_three_components_match_a_midpoint_integral(self):
        sg, components, m = 16.66, [(1.2, 0.15), (3.6, 0.4), (0.5, 0.1)], 200
        xs, ys, zs = (c - u + (np.arange(m) + 0.5) * 2 * u / m for c, u in components)
        plane = ys[:, None] + zs[None, :]
        sums = np.zeros(2)
        for x in xs:
            inverse = 1 / (x + plane)
            sums += inverse.sum(), (inverse * inverse).sum()
        mean_inverse, mean_inverse_square = sums / m**3
        midpoint = sg * math.sqrt(mean_inverse_square - mean_inverse**2)
        assert sigma_uniforms(sg, components) == pytest.approx(midpoint, rel=1e-4)

    def test_six_components_need_no_more_digits(self):
        assert sigma_uniforms(16.66, SIX_COMPONENTS) == sigma_uniforms(
            16.66, SIX_COMPONENTS, digits=80)

    @settings(derandomize=True, deadline=None)
    @given(st.floats(min_value=0.1, max_value=50.0),
           st.lists(st.tuples(st.floats(min_value=0.1, max_value=10.0),    # centre
                              st.floats(min_value=0.05, max_value=0.5)),  # half-width / centre
                    min_size=1, max_size=6),
           st.integers(min_value=0, max_value=2**32 - 1))
    @example(16.66, [(c, u / c) for c, u in SIX_COMPONENTS], 0)
    def test_monte_carlo_lies_within_5_standard_errors(self, sg, parts, seed):
        n = 20_000
        components = [PowerComponent(f"p{i}", c, uncertainty=c * r)
                      for i, (c, r) in enumerate(parts)]
        centres = np.array([p.total for p in components])
        widths = np.array([p.uncertainty for p in components])
        exact = sigma_uniforms(sg, zip(centres.tolist(), widths.tolist()))
        x = sg / _power_samples(centres, widths, n, seed)  # spw's draws
        kurtosis = np.mean((x - x.mean()) ** 4) / np.var(x) ** 2
        standard_error = exact * math.sqrt((kurtosis - 1) / (4 * (n - 1)))
        result = spw(sg, operational_power(components), SigmaMethod.MONTE_CARLO,
                     components=components, n_samples=n, seed=seed)
        assert abs(result.spw_sigma - exact) < 5 * standard_error


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

    # Each message names its value, NaN included, in one of check_range's two forms.
    @pytest.mark.parametrize("build, error, message", [
        (lambda: PowerComponent("x", 1.0, duty_cycle=2.0), FactorOutOfRangeError,
         "x: duty_cycle=2.0 outside [0, 1]"),
        (lambda: PowerComponent("x", 1.0, duty_cycle=math.nan), FactorOutOfRangeError,
         "x: duty_cycle=nan outside [0, 1]"),
        (lambda: PowerComponent("x", 1.0, node_count=0), FactorOutOfRangeError,
         "x: node_count must be >= 1, got 0"),
        (lambda: PowerComponent("x", 1.0, node_count=math.nan), FactorOutOfRangeError,
         "x: node_count must be >= 1, got nan"),
        (lambda: PowerComponent("x", 1.0, node_count=2.5), FactorOutOfRangeError,
         "x: node_count must be an integer, got 2.5"),
        (lambda: PowerComponent("x", 1.0, node_count=True), FactorOutOfRangeError,
         "x: node_count must be an integer, got True"),
        (lambda: PowerComponent("x", 1.0, node_count=2.0), FactorOutOfRangeError,
         "x: node_count must be an integer, got 2.0"),
        (lambda: PowerComponent("x", 1.0, uncertainty=-0.1), FactorOutOfRangeError,
         "x: uncertainty must be >= 0, got -0.1"),
        (lambda: PowerComponent("x", 1.0, uncertainty=math.nan), FactorOutOfRangeError,
         "x: uncertainty must be >= 0, got nan"),
        (lambda: SeiWeights(1.5, 0.0, 0.0, 0.0), WeightsNotNormalizedError,
         "weights: alpha=1.5 outside [0, 1]"),
        (lambda: SeiWeights(0.5, 0.5, 0.0, math.nan), WeightsNotNormalizedError,
         "weights: delta=nan outside [0, 1]"),
        (lambda: SeiCriteria(1.0, 1.5, 0.5, 0.5), FactorOutOfRangeError,
         "criteria: latency_score=1.5 outside [0, 1]"),
        (lambda: SeiCriteria(1.0, 0.5, math.nan, 0.5), FactorOutOfRangeError,
         "criteria: storage_score=nan outside [0, 1]"),
        (lambda: contribution(10.5, 0.8, 1.0, 0.9), FactorOutOfRangeError,
         "V1: cvss=10.5 outside [0.0, 10.0]"),
        (lambda: contribution(9.0, 0.8, math.nan, 0.9), FactorOutOfRangeError,
         "V1: mission_criticality=nan outside [0.0, 1.0]"),
        (lambda: spw(6.48, PowerEstimate(0.18, 0.02), SigmaMethod.MONTE_CARLO, n_samples=0),
         FactorOutOfRangeError, "n_samples must be an integer >= 1, got 0"),
    ], ids=["duty_cycle", "duty_cycle-nan", "node_count", "node_count-nan",
            "node_count-fraction", "node_count-bool", "node_count-float", "uncertainty",
            "uncertainty-nan", "weights", "weights-nan", "criteria", "criteria-nan", "cvss",
            "contribution-nan", "n_samples"])
    def test_a_rejected_value_is_named(self, build, error, message):
        with pytest.raises(error) as info:
            build()
        assert str(info.value) == message

    def test_node_count_takes_numpy_integers(self):
        assert PowerComponent("x", 1.5, node_count=np.int64(3)).total == 4.5
        assert PowerComponent("x", 1.5, node_count=np.uint8(2)).total == 3.0


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

    def test_overflowing_ratio_rejected(self):
        # Both SpWs are finite, 1e200 and 1e-200; their ratio is not.
        with pytest.raises(FactorOutOfRangeError, match="^SpW ratio .* is not finite$"):
            spw_normalised(spw(1.0, PowerEstimate(1e-200, 0.0)),
                           spw(1e-200, PowerEstimate(1.0, 0.0)))

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
