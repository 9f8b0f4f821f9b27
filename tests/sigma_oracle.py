"""Independent closed-form oracle for the Monte Carlo SpW sigma of two
uniform power components.

With ``P = X + Y``, ``X`` uniform on ``[a1, b1]`` and ``Y`` on ``[a2, b2]``,
the density of ``P`` is a trapezoid, and for any ``g`` with a second
antiderivative ``G``

    E[g(P)] = (G(b1 + b2) - G(a1 + b2) - G(b1 + a2) + G(a1 + a2)) / (w1 * w2)

where ``w1 = b1 - a1`` and ``w2 = b2 - a2``. For ``g = 1/s`` take
``G = s ln s`` (the linear term of the antiderivative cancels in the
difference), and for ``g = 1/s**2`` take ``G = -ln s``. The SD of
``sg / P`` is then ``sg * sqrt(E[1/P**2] - E[1/P]**2)``.

Computed differently from the engine on purpose: no sampling, no numpy,
and every step in exact-input decimal arithmetic at 50 digits, because
both second differences and the final variance cancel most of their
leading digits.
"""

from __future__ import annotations

from decimal import Decimal, localcontext

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
