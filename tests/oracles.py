"""Independent oracles and shared property sweeps used by the test suite.

The flow oracle is a fixed-step RK4 integrator of the continuous
right-hand side; it shares no code with the package's exact flow.
The quadrature oracle re-integrates the averaging function numerically,
finding the integrand's corner times by its own scan-plus-bisection (it
never touches the package's interval algebra).  Because the integrand has
corners, a plain uniform trapezoid rule stalls at O(h^2); panels are
therefore aligned to the corners and carry the standard endpoint-derivative
correction, which restores O(h^4) while staying a trapezoid-based rule.
"""

import math

import numpy as np

from satcycles import Params, advance, dP, half_Q, poincare_P

TWO_PI = 2.0 * math.pi


def rk4_oracle(p: Params, tau: float, x, t_end: float, step: float):
    """Classical fixed-step RK4 of the continuous right-hand side.

    Used only in tests as a cross-check of :func:`advance`; accepts a
    scalar or an array of initial states.
    """
    if step <= 0.0:
        raise ValueError("step must be positive")
    span = t_end - tau
    scalar = np.isscalar(x)
    if span <= 0.0:
        return float(x) if scalar else np.asarray(x, dtype=float)
    n = max(1, int(math.ceil(span / step)))
    h = span / n
    a, slope_gap, mu, eps, lam = p.a, p.b - p.a, p.mu, p.eps, p.lam

    if scalar:
        u = float(x)
        sin = math.sin

        def rhs(t, v):
            s = 1.0 if v > 1.0 else (-1.0 if v < -1.0 else v)
            return eps * (a * v + slope_gap * s) + mu * sin(t) + lam

    else:
        u = np.asarray(x, dtype=float)

        def rhs(t, v):
            return eps * (a * v + slope_gap * np.clip(v, -1.0, 1.0)) + mu * math.sin(t) + lam

    for i in range(n):
        t = tau + i * h
        k1 = rhs(t, u)
        k2 = rhs(t + 0.5 * h, u + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, u + 0.5 * h * k2)
        k4 = rhs(t + h, u + h * k3)
        u = u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return u


def _corner_times(x, mu, n=4096):
    """Times where x - mu*cos(t) meets +-1, by scan and bisection."""
    ts = np.linspace(0.0, TWO_PI, n + 1)
    vs = x - mu * np.cos(ts)
    corners = []
    for level in (1.0, -1.0):
        g = vs - level
        for i in range(n):
            if g[i] == 0.0:
                corners.append(float(ts[i]))
                continue
            if (g[i] > 0.0) == (g[i + 1] > 0.0) and g[i + 1] != 0.0:
                continue
            lo, hi = float(ts[i]), float(ts[i + 1])
            lo_pos = g[i] > 0.0
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                gm = x - mu * math.cos(mid) - level
                if gm == 0.0:
                    lo = hi = mid
                    break
                if (gm > 0.0) == lo_pos:
                    lo = mid
                else:
                    hi = mid
            corners.append(0.5 * (lo + hi))
        if g[n] == 0.0:
            corners.append(float(ts[n]))
    return sorted(corners)


def melnikov_trapezoid(x, mu, p, nodes=4096):
    """Corner-aligned, endpoint-corrected trapezoid value of the shifted
    averaging integral; independent of the closed-form interval algebra."""
    breaks = [0.0]
    for t in _corner_times(x, mu):
        if t - breaks[-1] > 1e-12:
            breaks.append(t)
    if TWO_PI - breaks[-1] > 1e-12:
        breaks.append(TWO_PI)
    else:
        breaks[-1] = TWO_PI
    a, b = p.a, p.b
    total = 0.0
    for alpha, beta in zip(breaks, breaks[1:]):
        mid = 0.5 * (alpha + beta)
        v_mid = x - mu * math.cos(mid)
        slope = b if abs(v_mid) <= 1.0 else a
        n_i = max(8, int(round(nodes * (beta - alpha) / TWO_PI)))
        ts = np.linspace(alpha, beta, n_i + 1)
        vs = x - mu * np.cos(ts)
        gs = a * vs + (b - a) * np.clip(vs, -1.0, 1.0)
        h = (beta - alpha) / n_i
        total += h * (gs.sum() - 0.5 * (gs[0] + gs[-1]))
        total -= (h * h / 12.0) * slope * mu * (math.sin(beta) - math.sin(alpha))
    return total


def semigroup_worst(n=100, seed=777):
    """Worst |advance(0->t) - advance(0->s->t)| over random draws."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n):
        a, b = rng.uniform(-2, 2, 2)
        mu = rng.uniform(-3, 3)
        x = rng.uniform(-3, 3)
        s, t = sorted(rng.uniform(0.0, TWO_PI, 2))
        p = Params(a=a, b=b, mu=mu)
        direct = advance(p, 0.0, x, t).final_state
        mid = advance(p, 0.0, x, s).final_state
        split = advance(p, s, mid, t).final_state
        worst = max(worst, abs(direct - split))
    return worst


def oracle_worst(n=100, seed=20240901, step=1e-4, final_cap=100.0):
    """Worst |advance - rk4| over random draws with |a|,|b| <= 3, |mu| <= 5,
    |x| <= 5.

    Draws whose exact final state exceeds ``final_cap`` are redrawn: on
    exploding trajectories (amplification ~ e^{2*pi*|a|}) an absolute
    comparison at 1e-6 is below the floating-point resolution of either
    integrator, so it would measure rounding, not agreement.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    kept = 0
    while kept < n:
        a, b = rng.uniform(-3, 3, 2)
        mu = rng.uniform(-5, 5)
        x = rng.uniform(-5, 5)
        p = Params(a=a, b=b, mu=mu)
        exact = advance(p, 0.0, x, TWO_PI).final_state
        if abs(exact) > final_cap:
            continue
        kept += 1
        worst = max(worst, abs(exact - rk4_oracle(p, 0.0, x, TWO_PI, step)))
    return worst


def qq_equals_p_worst(p, n=50, seed=3, span=5.0):
    rng = np.random.default_rng(seed)
    return max(
        abs(half_Q(p, half_Q(p, x)) - poincare_P(p, x))
        for x in rng.uniform(-span, span, n)
    )


def q_monotone_violations(p, xs):
    qs = [half_Q(p, x) for x in xs]
    return sum(1 for q0, q1 in zip(qs, qs[1:]) if not q0 > q1)


def dp_fd_worst_rel(p, n=100, seed=42, span=4.0, h=1e-5):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for x in rng.uniform(-span, span, n):
        exact = dP(p, x)
        fd = (poincare_P(p, x + h) - poincare_P(p, x - h)) / (2.0 * h)
        worst = max(worst, abs(exact - fd) / max(abs(exact), 1e-30))
    return worst
