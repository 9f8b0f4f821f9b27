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

The Monte Carlo sampler (``_power_samples``) fills one n-length array of
power totals, O(n) rather than O(n * k) for ``k`` components. The ratios
are then divided into that array and their SD taken in place,
bit-identical to ``np.std(ddof=1)`` wherever that cannot overflow: one
n-length array in all.
"""

from __future__ import annotations

import math
import numbers
import sys
import threading
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
    check_range,
)

# float64 values (128 KB) drawn per sampler chunk: the chunk stays
# cache-sized next to the n-length samples array.
MONTE_CARLO_CHUNK = 1 << 14
# Sampler blocks per call, each holding its own chunk and an 8 KB ufunc
# buffer, about 140 KB: two stay within 512 KB.
MONTE_CARLO_WORKERS = 2

DEFAULT_MONTE_CARLO_N = 10_000
SPW_DISPLAY_DECIMALS = 2  # SpW as reports print it, and as the index takes it


@dataclass(frozen=True)
class VulnContribution:
    """One addressed vulnerability's term in the security gain sum."""

    vuln_id: str
    cvss: float
    exploit_probability: float
    mission_criticality: float
    rrf: float

    def __post_init__(self):
        for name in ("cvss", "exploit_probability", "mission_criticality", "rrf"):
            check_range(FactorOutOfRangeError, self.vuln_id, name, getattr(self, name),
                        0.0, 10.0 if name == "cvss" else 1.0)

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
        check_range(FactorOutOfRangeError, self.label, "duty_cycle", self.duty_cycle, 0, 1)
        if self.environmental_factor <= 0:
            raise FactorOutOfRangeError(f"{self.label}: environmental_factor must be > 0")
        check_range(FactorOutOfRangeError, self.label, "node_count", self.node_count, 1)
        if isinstance(self.node_count, bool) or not isinstance(self.node_count, numbers.Integral):
            raise FactorOutOfRangeError(
                f"{self.label}: node_count must be an integer, got {self.node_count}")
        check_range(FactorOutOfRangeError, self.label, "uncertainty", self.uncertainty, 0)
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
        names = ("alpha", "beta", "gamma", "delta")
        for name in names:
            check_range(WeightsNotNormalizedError, "weights", name, getattr(self, name), 0, 1)
        total = sum(getattr(self, name) for name in names)
        if abs(total - 1.0) > 1e-9:
            raise WeightsNotNormalizedError(f"weights sum to {total}, expected 1.0")


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
            check_range(FactorOutOfRangeError, "criteria", name, getattr(self, name), 0, 1)


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


def _fill_block(out: np.ndarray, first: int, u: np.ndarray, low: np.ndarray,
                span: np.ndarray, seed: int) -> None:
    """Sample rows ``first:first + len(out)`` into ``out``, ``len(u)`` rows
    at a time through ``u``, from a generator advanced past the ``first *
    k`` draws of the rows before them."""
    rng = np.random.Generator(np.random.PCG64(seed).advance(first * len(low)))
    size = np.setbufsize(1024)  # an 8 KB ufunc buffer, set per thread
    try:
        for at in range(0, len(out), len(u)):
            chunk = u[:len(out) - at]
            rng.random(out=chunk)
            chunk *= span
            chunk += low
            chunk.sum(axis=1, out=out[at:at + len(chunk)])
    finally:
        np.setbufsize(size)  # the calling thread fills block 0: restore its size


def _power_samples(centres: np.ndarray, widths: np.ndarray, n: int,
                   seed: int) -> np.ndarray:
    """``n`` draws of the summed power, component ``j`` uniform on
    ``[centres[j] - widths[j], centres[j] + widths[j]]``.

    Bit for bit ``default_rng(seed).uniform(centres - widths, centres +
    widths, size=(n, k)).sum(axis=1)``: ``uniform`` computes ``low + (high
    - low) * next_double`` in C order, one 64-bit draw per value, and so
    does this, at most ``MONTE_CARLO_CHUNK`` values at a time. On every
    machine, from 4 chunks on (below that a thread costs more than it
    saves), the rows split into ``min(chunks, MONTE_CARLO_WORKERS)`` blocks
    of whole chunks, each block's generator advanced to its first draw, so
    the values do not depend on the block count. The calling thread fills
    the first block and a thread each the others, each through its own
    chunk buffer and an 8 KB ufunc buffer (``np.setbufsize``, restored on
    return): memory is the n-length result plus about 140 KB per block.
    """
    low = centres - widths
    span = (centres + widths) - low
    samples = np.empty(n)
    rows = max(1, MONTE_CARLO_CHUNK // len(low))
    chunks = -(-n // rows)
    block = -(-chunks // (min(chunks, MONTE_CARLO_WORKERS) if chunks >= 4 else 1)) * rows
    # Buffers made here, not in the workers: a lower peak RSS.
    blocks = [(samples[start:start + block], start, np.empty((min(rows, n - start), len(low))))
              for start in range(0, n, block)]
    errors = []

    def fill(out, first, u):
        try:
            _fill_block(out, first, u, low, span, seed)
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=fill, args=args) for args in blocks[1:]]
    for thread in threads:
        thread.start()
    fill(*blocks[0])
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return samples


def _sample_sd(x: np.ndarray) -> float:
    """Sample SD (``ddof=1``) of two or more values in ``[0, inf]``;
    overwrites ``x``. NaN if any value is infinite.

    numpy's ``_var`` ufuncs run in their order on ``x`` itself instead of on
    a copy. With every value at most ``sqrt(max_float / 2n)`` neither the
    sum nor the squared deviations can overflow, and the result is
    ``np.std(x, ddof=1)`` bit for bit; above that the values are first
    divided by their maximum and the SD multiplied back.
    """
    n = len(x)
    scale = float(x.max())
    if scale > math.sqrt(sys.float_info.max / (2 * n)):
        np.divide(x, scale, out=x)
    else:
        scale = 1.0
    mean = np.add.reduce(x) / n
    np.subtract(x, mean, out=x)
    np.square(x, out=x)
    return math.sqrt(np.add.reduce(x) / (n - 1)) * scale


def spw(
    sg: float,
    power: PowerEstimate | tuple[float, float],
    sigma_method: SigmaMethod = SigmaMethod.FIRST_ORDER,
    *,
    components: Sequence[PowerComponent] | None = None,
    n_samples: int = DEFAULT_MONTE_CARLO_N,
    seed: int = 0,
) -> SpwResult:
    """Security gain per operational watt, with a sigma band.

    First-order sigma propagates the relative power uncertainty:
    ``spw * (u / total)``, a worst-case half-width. Monte Carlo draws each
    power component total uniformly from ``[total - u, total + u]``
    (independently, seeded) and reports the sample standard deviation of
    ``sg / power``; when no component list is given the bare interval is
    sampled as one component.

    Raises ``FactorOutOfRangeError`` if ``sg < 0``, ``u < 0``, ``total + 2u``
    is not finite, or SpW or its sigma overflows (a near-zero total); and,
    for Monte Carlo, unless ``n_samples`` is an integer >= 1 and ``seed``
    an integer >= 0. One sample gives sigma 0.0.
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
        for name, value, lo in (("n_samples", n_samples, 1), ("seed", seed, 0)):
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < lo:
                raise FactorOutOfRangeError(f"{name} must be an integer >= {lo}, got {value!r}")
        components = components or (PowerComponent("power", total, uncertainty=uncertainty),)
        samples = _power_samples(np.array([c.total for c in components]),
                                 np.array([c.uncertainty for c in components]), n_samples, seed)
        if samples.min() <= 0:  # a reduction: no second n-length array
            raise NonPositivePowerError(
                "power uncertainty admits non-positive totals; narrow the intervals")
        # In place: the same ufunc on the same operands as ``sg / samples``.
        with np.errstate(over="ignore", invalid="ignore"):  # overflow is rejected below
            ratios = np.divide(sg, samples, out=samples)
            sigma = _sample_sd(ratios) if n_samples > 1 else 0.0
    if not (math.isfinite(ratio) and math.isfinite(sigma)):
        raise FactorOutOfRangeError(f"SpW {ratio} +/- {sigma} for {total} W is not finite")

    return SpwResult(sg=sg, spw=ratio, spw_sigma=sigma)


def spw_normalised(candidate: SpwResult, baseline: SpwResult) -> float:
    """Candidate-to-baseline SpW ratio; ``FactorOutOfRangeError`` if it overflows."""
    if baseline.spw <= 0:
        raise ZeroBaselineError("baseline SpW must be > 0 for normalisation")
    ratio = candidate.spw / baseline.spw
    if not math.isfinite(ratio):
        raise FactorOutOfRangeError(
            f"SpW ratio {candidate.spw} / {baseline.spw} is not finite")
    return ratio


def sei(weights: SeiWeights, criteria: SeiCriteria) -> float:
    """Weighted multi-criteria index, exactly as the weights are given."""
    return (
        weights.alpha * criteria.spw_term
        + weights.beta * criteria.latency_score
        + weights.gamma * criteria.storage_score
        + weights.delta * criteria.complexity_score
    )

