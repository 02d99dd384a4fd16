"""Independent oracles and shared property sweeps used by the test suite.

The flow oracle is a fixed-step RK4 integrator of the continuous
right-hand side; it shares no code with the package's exact flow.
The quadrature oracle re-integrates the averaging function numerically,
finding the integrand's corner times by its own scan-plus-bisection (it
never touches the package's interval algebra).  Because the integrand has
corners, a plain uniform trapezoid rule stalls at O(h^2); panels are
therefore aligned to the corners and carry the standard endpoint-derivative
correction, which restores O(h^4) while staying a trapezoid-based rule.
``reference_next_contact`` is the contact search as a Python walk over
every scan cell, which ``exactflow._next_contact`` must match bitwise.
``read_csv`` parses the CSV files the command line writes.
"""

import math

import numpy as np

from satcycles import Params, advance, dP, half_Q, linear_zone_flow, poincare_P
from satcycles.exactflow import (
    CROSSING_TIME_TOL,
    GRAZE_PROBE_DT,
    SCAN_PER_PERIOD,
    TOUCH_VALUE_TOL,
    _newton_bracket,
    _reach,
    _saturating,
    _within_reach,
)

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


def reference_next_contact(z, mu, tau, x, levels, t_max):
    """The contact search as a walk over every scan cell.

    Earliest time in (tau, t_max] where the in-zone flow meets any level.

    Returns (time, level) or None.  Both transversal crossings and
    tangential touches (flow extremum landing on a level) are contacts.
    Crossing times are refined on (u - level, u') and extremum times on
    (u', u''), with u' = p*u + q + mu*sin(t) and u'' = p*u' + mu*cos(t).  A
    cell whose extremum ``_reach`` puts out of reach of every level is not
    refined: it can hold no contact.
    """
    if not t_max > tau:
        return None
    p, q = z.p, z.q

    # Starting exactly on a queried level: establish the departure side a
    # hair later so the sign scan has a nonzero reference.
    t_ref, u_ref = tau, x
    if any(x == lv for lv in levels):
        for off in (GRAZE_PROBE_DT, TWO_PI / SCAN_PER_PERIOD / 16.0):
            t_probe = min(tau + off, t_max)
            u_probe = linear_zone_flow(z, mu, tau, x, t_probe)
            if all(u_probe != lv for lv in levels):
                t_ref, u_ref = t_probe, u_probe
                break
        else:
            return None  # flow is glued to the boundary; nothing to report

    step = TWO_PI / SCAN_PER_PERIOD
    n = max(1, int(math.ceil((t_max - t_ref) / step - 1e-12)))
    ts = t_ref + step * np.arange(1, n + 1)
    ts[-1] = t_max
    with _saturating():
        us = linear_zone_flow(z, mu, tau, x, ts)
        dus = p * us + q + mu * np.sin(ts)

    def contact(lv, lo, hi, lo_pos):
        def gap(s):
            u = linear_zone_flow(z, mu, tau, x, s)
            return u - lv, p * u + q + mu * math.sin(s)
        return _newton_bracket(gap, lo, hi, lo_pos, CROSSING_TIME_TOL)

    def slopes(s):
        du = p * linear_zone_flow(z, mu, tau, x, s) + q + mu * math.sin(s)
        return du, p * du + mu * math.cos(s)

    t_l, u_l = t_ref, u_ref
    du_l = p * u_l + q + mu * math.sin(t_l)
    for t_r, u_r, du_r in zip(ts.tolist(), us.tolist(), dus.tolist()):
        if t_r <= t_l:
            continue
        candidates = []
        # Derivative changes sign: the extremum may sit on a level (a touch),
        # or cross it and come back within the cell (a short excursion that
        # the value test below cannot see).
        if (du_l > 0.0) != (du_r > 0.0) and _within_reach(
                _reach(p, q, mu, x, t_max - tau, t_r - t_l), u_l, u_r, levels):
            t_ext = _newton_bracket(slopes, t_l, t_r, du_l > 0.0, CROSSING_TIME_TOL)
            u_ext = linear_zone_flow(z, mu, tau, x, t_ext)
            for lv in levels:
                g_l, g_r, g_ext = u_l - lv, u_r - lv, u_ext - lv
                if abs(g_ext) <= TOUCH_VALUE_TOL:
                    candidates.append((t_ext, lv))
                elif g_r != 0.0 and (g_r > 0.0) == (g_l > 0.0) != (g_ext > 0.0):
                    candidates.append((contact(lv, t_l, t_ext, g_l > 0.0), lv))
        # Transversal crossing: value changes side.
        for lv in levels:
            g_l, g_r = u_l - lv, u_r - lv
            if g_r == 0.0:
                candidates.append((t_r, lv))
            elif (g_l > 0.0) != (g_r > 0.0):
                candidates.append((contact(lv, t_l, t_r, g_l > 0.0), lv))
        if candidates:
            return min(candidates)
        t_l, u_l, du_l = t_r, u_r, du_r
    return None


def read_csv(path):
    """Parse a package CSV back into (meta, header, rows of raw strings)."""
    meta, header, rows = {}, None, []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh.read().splitlines():
            if line.startswith("# "):
                key, _, value = line[2:].partition("=")
                meta[key] = value
            elif header is None:
                header = line.split(",")
            else:
                rows.append(line.split(","))
    return meta, header, rows
