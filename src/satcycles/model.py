"""Parameter state and the saturated piecewise-linear field.

The equation under study is

    x' = eps * f(x) + mu * sin(t) + lam,

with f(x) = a*x + (b - a)*sat(x), i.e. slope ``b`` on [-1, 1] and slope
``a`` outside.  ``eps`` scales the field (eps=1 is the plain equation) and
``lam`` is a constant bias used by the crossing-time machinery; both
default to the unmodified equation so one parameter type covers every
variant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["Params", "sat", "f_eval"]


def sat(x: float) -> float:
    """Normalized saturation: identity on [-1, 1], clamped to +-1 outside."""
    if x > 1.0:
        return 1.0
    if x < -1.0:
        return -1.0
    return x


@dataclass(frozen=True)
class Params:
    """Full parameter state (a, b, mu) plus the eps/lam deformation scalars."""

    a: float
    b: float
    mu: float
    eps: float = 1.0
    lam: float = 0.0

    def __post_init__(self):
        for name in ("a", "b", "mu", "eps", "lam"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"parameter {name} must be finite, got {v!r}")

    @property
    def a_eff(self) -> float:
        """Outer-zone slope of the effective field eps*f."""
        return self.eps * self.a

    @property
    def b_eff(self) -> float:
        """Inner-zone slope of the effective field eps*f."""
        return self.eps * self.b


def f_eval(p: Params, x: float) -> float:
    """The piecewise-linear field f(x) = a*x + (b - a)*sat(x).

    Equals a*x + (a - b) for x <= -1, b*x on [-1, 1], and a*x + (b - a)
    for x >= 1; odd in x and continuous at the breakpoints.
    """
    return p.a * x + (p.b - p.a) * sat(x)
