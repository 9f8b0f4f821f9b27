"""Independent closed-form oracle for the Monte Carlo SpW sigma of up to
six uniform power components.

With ``P = X1 + ... + Xk``, each ``Xj`` uniform on ``[aj, bj]`` of width
``wj``, and ``G`` a k-th antiderivative of ``g``,

    E[g(P)] = (k-th mixed difference of G over the 2**k interval corners) / (w1 * ... * wk)

where a corner picks ``aj`` or ``bj`` for each component, takes ``G`` at
the sum of its picks, and enters with the sign ``(-1)**(number of aj
picked)``. Terms of ``G`` that are polynomials of degree below k cancel in
the difference, so for ``g = 1/s`` take ``G = s**(k-1) ln s / (k-1)!``, and
for ``g = 1/s**2`` take ``G = -s**(k-2) ln s / (k-2)!`` (``-1/s`` when
``k = 1``). The SD of ``sg / P`` is then ``sg * sqrt(E[1/P**2] - E[1/P]**2)``.

For two components the density of ``P`` is a trapezoid and the difference
is written out in ``sigma_two_uniforms``:

    E[g(P)] = (G(b1 + b2) - G(a1 + b2) - G(b1 + a2) + G(a1 + a2)) / (w1 * w2)

Computed differently from the engine on purpose: no sampling, no numpy,
and every step in exact-input decimal arithmetic at 50 digits, because
the mixed differences and the final variance cancel most of their leading
digits, and more of them as k grows.
"""

from __future__ import annotations

from decimal import Decimal, localcontext
from itertools import product
from math import factorial, prod

DIGITS = 50


def _second_difference(g, a1, b1, a2, b2):
    return g(b1 + b2) - g(a1 + b2) - g(b1 + a2) + g(a1 + a2)


def sigma_two_uniforms(sg: float, c1: float, u1: float, c2: float, u2: float) -> float:
    """SD of ``sg / (X + Y)``, ``X`` uniform on ``c1 +/- u1`` and ``Y`` on
    ``c2 +/- u2``; both half-widths must be > 0 and both intervals positive."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        d = Decimal
        a1, b1 = d(c1) - d(u1), d(c1) + d(u1)
        a2, b2 = d(c2) - d(u2), d(c2) + d(u2)
        if not (a1 > 0 and a2 > 0 and b1 > a1 and b2 > a2):
            raise ValueError("needs two positive intervals of non-zero width")
        area = (b1 - a1) * (b2 - a2)
        mean_inverse = _second_difference(lambda s: s * s.ln(), a1, b1, a2, b2) / area
        mean_inverse_square = -_second_difference(lambda s: s.ln(), a1, b1, a2, b2) / area
        variance = mean_inverse_square - mean_inverse * mean_inverse
        return float(d(sg) * variance.sqrt())


def _mixed_difference(g, intervals):
    k = len(intervals)
    total = Decimal(0)
    for picks in product((0, 1), repeat=k):  # 0 picks a component's a, 1 its b
        term = g(sum(interval[pick] for interval, pick in zip(intervals, picks)))
        total += term if (k - sum(picks)) % 2 == 0 else -term
    return total


def sigma_uniforms(sg: float, components, digits: int = DIGITS) -> float:
    """SD of ``sg / P``, ``P`` the sum of independent uniforms on ``c +/- u``
    for each ``(c, u)`` in ``components``, at ``digits`` significant digits;
    1 to 6 components, each half-width > 0 and each interval positive."""
    with localcontext() as ctx:
        ctx.prec = digits
        d = Decimal
        intervals = [(d(c) - d(u), d(c) + d(u)) for c, u in components]
        k = len(intervals)
        if not 1 <= k <= 6 or not all(0 < a < b for a, b in intervals):
            raise ValueError("needs 1 to 6 positive intervals of non-zero width")
        volume = prod((b - a for a, b in intervals), start=d(1))
        mean_inverse = _mixed_difference(
            lambda s: s ** (k - 1) * s.ln() / factorial(k - 1), intervals) / volume
        mean_inverse_square = _mixed_difference(
            (lambda s: -s ** (k - 2) * s.ln() / factorial(k - 2)) if k > 1 else (lambda s: -1 / s),
            intervals) / volume
        variance = mean_inverse_square - mean_inverse * mean_inverse
        return float(d(sg) * variance.sqrt())
