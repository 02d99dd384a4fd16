"""Event-driven exact integration of the saturated forcing equation.

Inside one linearity zone the equation reduces to x' = p*x + q + mu*sin(t),
whose solution is elementary.  Trajectories are assembled by chaining that
closed form between zone-boundary contacts, located on a uniform scan whose
candidate cells are flagged on arrays (an O(1) window test first rules out
windows with none) and refined by Newton on the exact slope; a contact
switches zones only when the flow leaves the zone (tangential grazes are
skipped).  Only the contact scan evaluates the closed form on arrays.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np
from numpy import ndarray

from .errors import ZoneSwitchLimitError
from .gridscan import _newton_bracket
from .model import Params

__all__ = [
    "LOWER",
    "INNER",
    "UPPER",
    "ZoneCoeffs",
    "Segment",
    "Trajectory",
    "zone_of",
    "zone_coeffs",
    "linear_zone_flow",
    "advance",
    "sample",
    "transitions",
]

TWO_PI = 2.0 * math.pi

LOWER = "lower"
INNER = "inner"
UPPER = "upper"

# |p| below this uses the exact p=0 form; avoids cancellation in (e^{p dt}-1)/p.
P_DEGENERATE = 1e-10
# Scan resolution for contact detection, samples per forcing period per zone.
SCAN_PER_PERIOD = 256
# Contact and extremum times are refined until a Newton step or the bracket
# is shorter than this.
CROSSING_TIME_TOL = 1e-12
# A located contact with |du/dt| below this is treated as a potential graze.
GRAZE_DERIV_TOL = 1e-9
GRAZE_PROBE_DT = 1e-9
# An in-zone extremum counts as a boundary contact when this close to the level.
TOUCH_VALUE_TOL = 1e-12
# math.exp overflows just below 710; both flow paths saturate to inf from here.
EXP_SATURATION = 709.0
# Zone-contact cap of advance.
MAX_SWITCHES = 10_000
# The reach test skips an extremum cell only when the closed form's terms
# grow by at most e**REACH_MAX_GROWTH over the search, and it widens its
# bound by REACH_ROUNDING times the size of those terms.  Evaluating the
# closed form rounds by a few ulps of that size (about 1e-15 of it), so
# the widening covers the rounding of both cell ends and of the extremum
# value the refinement would compute by a factor of more than 10**4.
REACH_MAX_GROWTH = 30.0
REACH_ROUNDING = 1e-10

@dataclass(frozen=True)
class ZoneCoeffs:
    """Per-zone linear equation x' = p*x + q + mu*sin(t)."""

    p: float
    q: float


@dataclass(frozen=True)
class Segment:
    t_start: float
    t_end: float
    zone: str
    entry_state: float


@dataclass(frozen=True)
class Trajectory:
    """Piecewise record of one solution over [tau, t_end].

    ``a_in_measure`` is the total time spent with |u| <= 1.
    """

    segments: tuple[Segment, ...]
    a_in_measure: float
    final_state: float


def zone_of(x: float) -> str:
    """Zone membership; |x| = 1 is assigned to the inner zone."""
    if x > 1.0:
        return UPPER
    if x < -1.0:
        return LOWER
    return INNER


def zone_coeffs(p: Params, zone: str) -> ZoneCoeffs:
    """Linear coefficients of eps*f(x) + lam on the given zone."""
    if zone == INNER:
        return ZoneCoeffs(p.b_eff, p.lam)
    if zone == UPPER:
        return ZoneCoeffs(p.a_eff, p.eps * (p.b - p.a) + p.lam)
    if zone == LOWER:
        return ZoneCoeffs(p.a_eff, p.eps * (p.a - p.b) + p.lam)
    raise ValueError(f"unknown zone {zone!r}")


def _saturating():
    """numpy error state for the array flow.  A saturated exponential (inf)
    meets 0 and -inf there as it does on the float path, where math gives
    inf and nan without a warning."""
    return np.errstate(over="ignore", invalid="ignore")


def _exp(z: float) -> float:
    return math.exp(z) if z < EXP_SATURATION else math.inf


def _expm1(z):
    if type(z) is ndarray:
        with np.errstate(over="ignore"):
            return np.where(z < EXP_SATURATION, np.expm1(z), math.inf)
    return math.expm1(z) if z < EXP_SATURATION else math.inf


def linear_zone_flow(z: ZoneCoeffs, mu: float, tau: float, x: float, t):
    """Closed-form solution of x' = p*x + q + mu*sin(t) with value x at tau.

    ``t`` is a float or an array of times (``x`` may be an array broadcast
    against it).  Floats stay on ``math``, which is several times cheaper
    than numpy on scalars; the exact type test keeps the dispatch cheap on
    this hot path.

    The value is x + expm1(p*(t - tau))*(x - v(tau)) + (v(t) - v(tau)), with
    v the zone's periodic solution; expm1 keeps it exact for small nonzero
    p, where exp(p*dt) - 1 would cancel.  Where it leaves the doubles (only
    a zone with p > 0 grows) it saturates to inf with the sign of x - v(tau).
    """
    cos, sin = (np.cos, np.sin) if type(t) is ndarray else (math.cos, math.sin)
    p, q = z.p, z.q
    dt = t - tau
    if abs(p) < P_DEGENERATE:
        return x + q * dt + mu * (math.cos(tau) - cos(t))
    c = p * p + 1.0
    w = p * math.sin(tau) + math.cos(tau)
    gap = x + q / p + mu * w / c  # x - v(tau)
    u = x + _expm1(p * dt) * gap + mu * (w - (p * sin(t) + cos(t))) / c
    if p > 0.0 and not (np.isfinite(u).all() if type(u) is ndarray else math.isfinite(u)):
        side = np.copysign(math.inf, gap)
        u = np.where(np.isfinite(u), u, side) if type(u) is ndarray else float(side)
    return u


def _reach(p, q, mu, x, span, h):
    """Distance from both ends of a scan cell of width ``h`` beyond which no
    extremum inside the cell can touch or cross a level (inf: no bound).

    The flow starts at x and runs for ``span`` in a zone with coefficients
    (p, q).  There u'' = p*u' + mu*cos(t), and u' vanishes in a cell whose
    derivative changes sign, so with |p|*h < 1/2 every |u''| on the cell is
    at most M2 = |mu| / (1 - |p|*h) and u stays within M2*h**2 of both
    ends.  TOUCH_VALUE_TOL enters twice: a value within it of a level is a
    touch.  The last term is the rounding allowance (see REACH_ROUNDING).
    """
    ph = abs(p) * h
    growth = max(p, 0.0) * span
    if ph >= 0.5 or growth > REACH_MAX_GROWTH:
        return math.inf
    e = math.exp(growth)
    # Largest term of the closed form over the search (see linear_zone_flow).
    size = (1.0 + e) * (abs(x) + 2.0 * abs(mu)) + abs(q) * (
        span if abs(p) < P_DEGENERATE else (1.0 + e) / abs(p))
    return abs(mu) * h * h / (1.0 - ph) + 2.0 * TOUCH_VALUE_TOL + REACH_ROUNDING * size


def _clear_window(p, q, mu, tau, x, levels, t_max):
    """Whether the flow from x at tau (|p| >= P_DEGENERATE) surely meets no
    level on [tau, t_max].  u(s) - lv = (K - lv) + E*e**(p*(s - tau)) -
    R*cos(s - phi) with K = -q/p, E = x - v(tau), R = |mu|/sqrt(p**2 + 1), and
    the first two terms are monotone: it suffices that at both ends they keep
    one sign and exceed R plus ``_reach``'s margin for a cell of width 0."""
    c = p * p + 1.0
    gap = x + q / p + mu * (p * math.sin(tau) + math.cos(tau)) / c  # E
    e_end = _exp(p * (t_max - tau))
    margin = abs(mu) / math.sqrt(c) + _reach(p, q, mu, x, t_max - tau, 0.0)
    ends = [(-q / p - lv + gap, -q / p - lv + gap * e_end) for lv in levels]
    return all(min(m) > margin or max(m) < -margin for m in ends)


def _within_reach(reach, u_l, u_r, levels):
    """Whether a level lies within ``reach`` of the nearer end of a cell."""
    return not all(min(abs(u_l - lv), abs(u_r - lv)) > reach for lv in levels)


def _next_contact(z, mu, tau, x, levels, t_max):
    """Earliest time in (tau, t_max] where the in-zone flow meets any level.

    Returns (time, level) or None.  Both transversal crossings and
    tangential touches (flow extremum landing on a level) are contacts.
    Unless ``_clear_window`` rules them out, the scan cells where u' or the
    side of a level changes, or that end on a level, are examined in order.
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
    elif abs(p) >= P_DEGENERATE and _clear_window(p, q, mu, tau, x, levels, t_max):
        return None

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

    # Rows t, u, u' from the reference point on.  The flags repeat the walk's
    # own float comparisons, so every cell whose body can find a contact is kept.
    cells = np.concatenate(([[t_ref], [u_ref], [p * u_ref + q + mu * math.sin(t_ref)]],
                            (ts, us, dus)), axis=1)
    ts, us, dus = cells
    flagged = (dus[:-1] > 0.0) != (dus[1:] > 0.0)
    for lv in levels:
        above = us > lv
        flagged |= (above[:-1] != above[1:]) | (us[1:] == lv)
    flagged &= ts[1:] > ts[:-1]
    for i in np.flatnonzero(flagged).tolist():
        (t_l, u_l, du_l), (t_r, u_r, du_r) = cells[:, i:i + 2].T.tolist()
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
    return None


_ZONE_EXITS = {INNER: (-1.0, 1.0), UPPER: (1.0,), LOWER: (-1.0,)}
_NEIGHBOR = {(INNER, 1.0): UPPER, (INNER, -1.0): LOWER, (UPPER, 1.0): INNER, (LOWER, -1.0): INNER}


def _departure_zone(p: Params, tau: float, x: float, t_end: float) -> str:
    """Zone to integrate in when starting exactly on a breakpoint.

    The field is continuous, so the initial derivative is zone-independent
    and its sign tells which side the solution moves to; a grazing start
    (zero derivative) is resolved by probing the inner-zone extension.
    """
    z = zone_coeffs(p, INNER)
    xdot = z.p * x + z.q + p.mu * math.sin(tau)
    if xdot == 0.0:
        probe = linear_zone_flow(z, p.mu, tau, x, min(tau + GRAZE_PROBE_DT, t_end))
        xdot = probe - x
    if x == 1.0:
        return UPPER if xdot > 0.0 else INNER
    return LOWER if xdot < 0.0 else INNER


def advance(p: Params, tau: float, x: float, t_end: float) -> Trajectory:
    """Exact solution over [tau, t_end] chained across zone crossings.

    Fails only when the zone-switch count exceeds MAX_SWITCHES; genuine
    solutions cross at most a few times per period, so hitting the cap
    always signals a tolerance pathology.
    """
    if t_end < tau:
        raise ValueError("t_end must be >= tau")
    zone = zone_of(x)
    if x == 1.0 or x == -1.0:
        zone = _departure_zone(p, tau, x, t_end)
    segments = []
    seg_t, seg_x = tau, x
    search_t, search_x = tau, x
    events = 0
    while True:
        z = zone_coeffs(p, zone)
        hit = _next_contact(z, p.mu, search_t, search_x, _ZONE_EXITS[zone], t_end)
        if hit is None:
            segments.append(Segment(seg_t, t_end, zone, seg_x))
            final = linear_zone_flow(z, p.mu, seg_t, seg_x, t_end)
            break
        s, level = hit
        events += 1
        if events > MAX_SWITCHES:
            raise ZoneSwitchLimitError(
                f"more than {MAX_SWITCHES} zone contacts in [{tau}, {t_end}]"
            )
        # Switch zones only when the flow actually leaves the zone; a grazing
        # contact (zero derivative, no side change just after) is skipped.
        xdot = z.p * level + z.q + p.mu * math.sin(s)
        inside_pos = zone == UPPER or (zone == INNER and level == -1.0)
        crossing = abs(xdot) >= GRAZE_DERIV_TOL
        if not crossing:
            t_probe = min(s + GRAZE_PROBE_DT, t_end)
            g_after = linear_zone_flow(z, p.mu, seg_t, seg_x, t_probe) - level
            crossing = g_after != 0.0 and (g_after > 0.0) != inside_pos
        if not crossing:
            search_t, search_x = s, level
            continue
        segments.append(Segment(seg_t, s, zone, seg_x))
        zone = _NEIGHBOR[(zone, level)]
        seg_t = search_t = s
        seg_x = search_x = float(level)

    a_in = sum(s.t_end - s.t_start for s in segments if s.zone == INNER)
    return Trajectory(tuple(segments), a_in, final)

def sample(p: Params, traj: Trajectory, ts) -> np.ndarray:
    """Evaluate the trajectory at times ``ts`` (inside its span)."""
    starts = [s.t_start for s in traj.segments]
    out = np.empty(len(ts))
    for j, t in enumerate(ts):
        i = min(max(bisect_right(starts, t) - 1, 0), len(starts) - 1)
        seg = traj.segments[i]
        z = zone_coeffs(p, seg.zone)
        out[j] = linear_zone_flow(z, p.mu, seg.t_start, seg.entry_state, t)
    return out


def transitions(traj: Trajectory):
    """Zone-switch events as (time, level, zone_from, zone_to) tuples."""
    return [
        (s1.t_start, s1.entry_state, s0.zone, s1.zone)
        for s0, s1 in zip(traj.segments, traj.segments[1:])
    ]
