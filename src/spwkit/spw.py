"""Security-per-watt calculus: security gain, operational power, the
SpW ratio with uncertainty, normalisation and the multi-criteria index.

The core quantities::

    gain        = sum(cvss_i * p_i * m_i * rrf_i)           over contributions
    power       = sum(p_base * duty_cycle * env * nodes)    over components
    spw         = gain / power, with a sigma band
    spw_norm    = spw_candidate / spw_baseline
    index (SEI) = alpha*spw_term + beta*latency + gamma*storage + delta*complexity

Sigma on SpW is this toolkit's own estimate, in one of two senses. The
first-order sigma, ``spw * sum(u) / power``, is a worst-case relative
half-width: the summed component half-widths ``u`` carried over to the
ratio. The Monte Carlo sigma is the sample standard deviation of
``gain / power`` over seeded draws, each component uniform on its
interval. A uniform has standard deviation ``u / sqrt(3)``, so for a
single component the two differ by about sqrt(3) (S1 ECC: 4.00 against
2.34). Published uncertainty figures for the modelled scenarios are not
derivable from their stated inputs and are only ever shown as reference
values.

The value types check their ranges when built, so the functions taking
them need not; ``spw`` checks the bare ``(total, uncertainty)`` it is given.

The Monte Carlo sampler fills its ``n`` power totals chunk by chunk, so
memory is O(n) rather than O(n * k) for ``k`` components, and its draws are
bit-identical to one ``Generator.uniform`` call over the ``(n, k)`` matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    EmptyPowerModelError,
    FactorOutOfRangeError,
    NonPositivePowerError,
    WeightsNotNormalizedError,
    ZeroBaselineError,
)

MONTE_CARLO_CHUNK = 1 << 17  # float64 values (1 MB) drawn per sampler chunk


@dataclass(frozen=True)
class VulnContribution:
    """One addressed vulnerability's term in the security gain sum."""

    vuln_id: str
    cvss: float
    exploit_probability: float
    mission_criticality: float
    rrf: float

    def __post_init__(self):
        checks = (
            ("cvss", self.cvss, 0.0, 10.0),
            ("exploit_probability", self.exploit_probability, 0.0, 1.0),
            ("mission_criticality", self.mission_criticality, 0.0, 1.0),
            ("rrf", self.rrf, 0.0, 1.0),
        )
        for name, value, lo, hi in checks:
            if not lo <= value <= hi:
                raise FactorOutOfRangeError(
                    f"{self.vuln_id}: {name}={value} outside [{lo}, {hi}]")

    @property
    def gain(self) -> float:
        return self.cvss * self.exploit_probability * self.mission_criticality * self.rrf


@dataclass(frozen=True)
class PowerComponent:
    """One power draw: base watts scaled by duty cycle, environment and
    node count, with a +/- half-width in watts on the component total."""

    label: str
    p_base: float
    duty_cycle: float = 1.0
    environmental_factor: float = 1.0
    node_count: int = 1
    uncertainty: float = 0.0

    def __post_init__(self):
        if self.p_base <= 0:
            raise NonPositivePowerError(f"{self.label}: p_base must be > 0")
        if not 0.0 <= self.duty_cycle <= 1.0:
            raise FactorOutOfRangeError(f"{self.label}: duty_cycle outside [0, 1]")
        if self.environmental_factor <= 0:
            raise FactorOutOfRangeError(f"{self.label}: environmental_factor must be > 0")
        if self.node_count < 1:
            raise FactorOutOfRangeError(f"{self.label}: node_count must be >= 1")
        if self.uncertainty < 0:
            raise FactorOutOfRangeError(f"{self.label}: uncertainty must be >= 0")
        if not math.isfinite(self.total + 2 * self.uncertainty):  # the sampled interval and width
            raise FactorOutOfRangeError(f"{self.label}: total +/- uncertainty is not finite")

    @property
    def total(self) -> float:
        return self.p_base * self.duty_cycle * self.environmental_factor * self.node_count


class PowerEstimate(NamedTuple):
    """Total operational watts and a worst-case +/- half-width."""

    total: float
    uncertainty: float


class SigmaMethod(Enum):
    FIRST_ORDER = "first-order"
    MONTE_CARLO = "monte-carlo"


@dataclass(frozen=True)
class SpwResult:
    sg: float
    spw: float
    spw_sigma: float


@dataclass(frozen=True)
class SeiWeights:
    alpha: float
    beta: float
    gamma: float
    delta: float

    def __post_init__(self):
        for name, w in zip("alpha beta gamma delta".split(), self.as_tuple()):
            if not 0.0 <= w <= 1.0:
                raise WeightsNotNormalizedError(f"weight {name}={w} outside [0, 1]")
        if abs(sum(self.as_tuple()) - 1.0) > 1e-9:
            raise WeightsNotNormalizedError(
                f"weights sum to {sum(self.as_tuple())}, expected 1.0")

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.alpha, self.beta, self.gamma, self.delta)


@dataclass(frozen=True)
class SeiCriteria:
    """Criterion inputs for the index.

    ``spw_term`` enters the weighted sum as given. It is a raw per-watt
    magnitude (typically ~1-40), deliberately not rescaled to [0, 1];
    the remaining criterion scores are unit-interval ratings.
    """

    spw_term: float
    latency_score: float
    storage_score: float
    complexity_score: float

    def __post_init__(self):
        for name in ("latency_score", "storage_score", "complexity_score"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise FactorOutOfRangeError(f"{name}={value} outside [0, 1]")


def security_gain(contributions: Sequence[VulnContribution]) -> float:
    """Sum of cvss * p * m * rrf over the addressed vulnerabilities."""
    return sum(c.gain for c in contributions)


def operational_power(components: Sequence[PowerComponent]) -> PowerEstimate:
    """Aggregate a power model.

    The combined uncertainty is the plain sum of component half-widths:
    each half-width bounds an interval, so the sum bounds the total.
    """
    if not components:
        raise EmptyPowerModelError("power model has no components")
    return PowerEstimate(
        total=sum(c.total for c in components),
        uncertainty=sum(c.uncertainty for c in components),
    )


def _power_samples(centres: np.ndarray, widths: np.ndarray, n: int,
                   seed: int) -> np.ndarray:
    """``n`` draws of the summed power, component ``j`` uniform on
    ``[centres[j] - widths[j], centres[j] + widths[j]]``.

    Bit for bit ``default_rng(seed).uniform(centres - widths, centres +
    widths, size=(n, k)).sum(axis=1)``: ``uniform`` computes ``low + (high
    - low) * next_double`` in C order, and so does this, at most
    ``MONTE_CARLO_CHUNK`` values at a time.
    """
    rng = np.random.default_rng(seed)
    low = centres - widths
    span = (centres + widths) - low
    samples = np.empty(n)
    rows = max(1, MONTE_CARLO_CHUNK // len(low))
    u = np.empty((min(n, rows), len(low)))
    for start in range(0, n, rows):
        chunk = u[:min(rows, n - start)]
        rng.random(out=chunk)
        chunk *= span
        chunk += low
        chunk.sum(axis=1, out=samples[start:start + len(chunk)])
    return samples


def spw(
    sg: float,
    power: PowerEstimate | tuple[float, float],
    sigma_method: SigmaMethod = SigmaMethod.FIRST_ORDER,
    *,
    components: Sequence[PowerComponent] | None = None,
    n_samples: int = 10_000,
    seed: int = 0,
) -> SpwResult:
    """Security gain per operational watt, with a sigma band.

    First-order sigma propagates the relative power uncertainty:
    ``spw * (u / total)``, a worst-case half-width. Monte Carlo draws each
    power component total uniformly from ``[total - u, total + u]``
    (independently, seeded) and reports the sample standard deviation of
    ``sg / power``; when no component list is given the aggregate estimate
    is treated as a single component.

    Raises ``FactorOutOfRangeError`` if ``sg < 0``, ``u < 0``, ``total + 2u``
    is not finite, or SpW or its sigma overflows (a near-zero total).
    """
    total, uncertainty = power
    if total <= 0:
        raise NonPositivePowerError(f"operational power {total} W must be > 0")
    if not (uncertainty >= 0 and math.isfinite(total + 2 * uncertainty)):
        raise FactorOutOfRangeError(f"power {total} +/- {uncertainty} W is not a finite interval")
    if not sg >= 0:
        raise FactorOutOfRangeError(f"security gain {sg} must be >= 0")
    ratio = sg / total

    if sigma_method is SigmaMethod.FIRST_ORDER:
        sigma = ratio * (uncertainty / total)
    else:
        if components:
            centres = np.array([c.total for c in components])
            widths = np.array([c.uncertainty for c in components])
        else:
            centres = np.array([total])
            widths = np.array([uncertainty])
        samples = _power_samples(centres, widths, n_samples, seed)
        if np.any(samples <= 0):
            raise NonPositivePowerError(
                "power uncertainty admits non-positive totals; narrow the intervals")
        # In place: the same ufunc on the same operands as ``sg / samples``.
        with np.errstate(over="ignore", invalid="ignore"):  # overflow is rejected below
            sigma = (float(np.std(np.divide(sg, samples, out=samples), ddof=1))
                     if n_samples > 1 else 0.0)
    if not (math.isfinite(ratio) and math.isfinite(sigma)):
        raise FactorOutOfRangeError(f"SpW {ratio} +/- {sigma} for {total} W is not finite")

    return SpwResult(sg=sg, spw=ratio, spw_sigma=sigma)


def spw_normalised(candidate: SpwResult, baseline: SpwResult) -> float:
    """Candidate-to-baseline SpW ratio."""
    if baseline.spw <= 0:
        raise ZeroBaselineError("baseline SpW must be > 0 for normalisation")
    return candidate.spw / baseline.spw


def sei(weights: SeiWeights, criteria: SeiCriteria) -> float:
    """Weighted multi-criteria index, exactly as the weights are given."""
    return (
        weights.alpha * criteria.spw_term
        + weights.beta * criteria.latency_score
        + weights.gamma * criteria.storage_score
        + weights.delta * criteria.complexity_score
    )

