"""Reference computations the benchmark's checks use instead of satcycles.

Neither function calls into the package: a fixed-step RK4 integrator of the
continuous right-hand side checks that cycle initial conditions close, and a
trapezoid rule over one forcing period checks points of the averaging
function's zero set.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi


def _period_map(a, b, mu, eps, lam, x0, t0, direction, steps):
    """x(t0 + 2*pi) from x(t0) = x0 (direction +1), or back from t0 + 2*pi (-1).

    With t = t0 + tau forward and t = t0 + 2*pi - tau backward, both
    directions read dX/dtau = direction*(eps*f(X) + lam) + mu*sin(tau +
    direction*t0), since sin is odd and 2*pi-periodic.  A step that carries
    X across x = 1 or x = -1 is cut where it meets the level (regula falsi on
    the step length), so RK4 keeps its order across the kinks of sat(x).
    """
    scale = direction * eps
    bias = direction * lam
    phase = direction * t0
    gap = b - a
    sin = math.sin

    def rhs(tau, v):
        s = 1.0 if v > 1.0 else (-1.0 if v < -1.0 else v)
        return scale * (a * v + gap * s) + bias + mu * sin(tau + phase)

    def rk4(tau, v, h):
        k1 = rhs(tau, v)
        k2 = rhs(tau + 0.5 * h, v + 0.5 * h * k1)
        k3 = rhs(tau + 0.5 * h, v + 0.5 * h * k2)
        k4 = rhs(tau + h, v + h * k3)
        return v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    h = TWO_PI / steps
    x = x0
    for k in range(steps):
        tau, left = k * h, h
        while left > 0.0:
            y = rk4(tau, x, left)
            level = 1.0 if (x - 1.0) * (y - 1.0) < 0.0 else (
                -1.0 if (x + 1.0) * (y + 1.0) < 0.0 else None)
            if level is None:
                x = y
                break
            lo, g_lo, hi, g_hi = 0.0, x - level, left, y - level
            cut = left
            for _ in range(60):
                cut = hi - g_hi * (hi - lo) / (g_hi - g_lo)
                g = rk4(tau, x, cut) - level
                if g == 0.0 or hi - lo < 1e-15:
                    break
                if (g > 0.0) == (g_lo > 0.0):
                    lo, g_lo = cut, g
                    g_hi *= 0.5
                else:
                    hi, g_hi = cut, g
                    g_lo *= 0.5
            tau += cut
            left -= cut
            x = level
    return x


def closure_gap(a, b, mu, eps, lam, x0, t0=0.0, steps=1024):
    """|x(t0 + 2*pi) - x0| for x(t0) = x0 under x' = eps*f(x) + mu*sin(t) + lam.

    The start is integrated forward and backward over one period and the
    smaller gap is kept: a cycle attracts in one of the two directions, so
    the integration error is damped there instead of amplified by the
    multiplier.
    """
    return min(
        abs(_period_map(a, b, mu, eps, lam, x0, t0, d, steps) - x0) for d in (1.0, -1.0)
    )


def averaged_field(a, b, x, mu, n=16384):
    """(integral, integral of |.|) of f(x - mu*cos t) over one period.

    f(v) = a*v + (b - a)*sat(v); the integral is the shifted averaging
    function M_shift(x, mu).  The integrand is periodic with kinks, so the
    trapezoid error is of order (2*pi/n)**2 times the kink jumps.
    """
    t = np.arange(n) * (TWO_PI / n)
    v = x - mu * np.cos(t)
    f = a * v + (b - a) * np.clip(v, -1.0, 1.0)
    w = TWO_PI / n
    return float(f.sum() * w), float(np.abs(f).sum() * w)
