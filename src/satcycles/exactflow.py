"""Event-driven exact integration of the saturated forcing equation.

Inside one linearity zone the equation reduces to x' = p*x + q + mu*sin(t),
whose solution is elementary.  Trajectories are assembled by chaining that
closed form between zone-boundary contacts, located by a uniform scan and
refined by Newton on the exact slope; a contact switches zones only when
the flow actually leaves the zone (tangential grazes are skipped).
``advance_batch`` runs the same event loop for an array of initial values
at once and hands every row that needs the rarer branches of ``advance``
(grazes, touches, two levels in one cell) to ``advance`` whole.
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
    "advance_batch",
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
# Zone-contact cap of advance (and of every row of advance_batch).
MAX_SWITCHES = 10_000
# The reach test skips an extremum cell only when the closed form's terms
# grow by at most e**REACH_MAX_GROWTH over the search, and it widens its
# bound by REACH_ROUNDING times the size of those terms.  Evaluating the
# closed form rounds by a few ulps of that size (about 1e-15 of it), so
# the widening covers the rounding of both cell ends and of the extremum
# value the refinement would compute by a factor of more than 10**4.
REACH_MAX_GROWTH = 30.0
REACH_ROUNDING = 1e-10
# advance_batch marches at least this many scan cells per row and step, and
# holds at most BATCH_ELEMENTS values in one temporary array (rows are taken
# in chunks of BATCH_ELEMENTS // BATCH_COLUMNS), whatever the number of rows.
# Against 8 columns (512 rows per chunk), 16 took about 15 % longer per
# grid and kept the peak RSS of 100 cycle searches 0.4 MB lower (2-vCPU VM).
BATCH_COLUMNS = 16
BATCH_ELEMENTS = 4096


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


def _exp(z):
    if type(z) is ndarray:
        with np.errstate(over="ignore"):
            return np.where(z < EXP_SATURATION, np.exp(z), math.inf)
    return math.exp(z) if z < EXP_SATURATION else math.inf


def linear_zone_flow(z: ZoneCoeffs, mu: float, tau: float, x: float, t):
    """Closed-form solution of x' = p*x + q + mu*sin(t) with value x at tau.

    ``t`` is a float or an array of times; when it is an array, ``tau`` and
    ``x`` may be arrays too (broadcast against ``t``).  Floats stay on
    ``math``, which is several times cheaper than numpy on scalars; the
    exact type tests keep the dispatch cheap on this hot path.

    The value equals e*(x - v(tau)) + v(t), with e = exp(p*(t - tau)) and v
    the zone's periodic solution.  Where it leaves the doubles (only a zone
    with p > 0 grows) it saturates to inf with the sign of x - v(tau).
    """
    if type(t) is ndarray:
        cos, sin = np.cos, np.sin
        cos_tau, sin_tau = (cos, sin) if type(tau) is ndarray else (math.cos, math.sin)
    else:
        cos = cos_tau = math.cos
        sin = sin_tau = math.sin
    p, q = z.p, z.q
    dt = t - tau
    if abs(p) < P_DEGENERATE:
        return x + q * dt + mu * (cos_tau(tau) - cos(t))
    e = _exp(p * dt)
    c = p * p + 1.0
    w = p * sin_tau(tau) + cos_tau(tau)
    u = e * x + (q / p) * (e - 1.0) + mu * (e * w - (p * sin(t) + cos(t))) / c
    if p > 0.0 and not (np.isfinite(u).all() if type(u) is ndarray else math.isfinite(u)):
        side = np.copysign(math.inf, x + q / p + mu * w / c)  # the sign of x - v(tau)
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
    Takes floats or arrays; the scalar contact search and advance_batch
    share it.
    """
    ph = abs(p) * h
    if type(ph) is ndarray:
        exp, maximum, minimum, where = np.exp, np.maximum, np.minimum, np.where
    else:
        exp, maximum, minimum = math.exp, max, min

        def where(cond, yes, no):
            return yes if cond else no
    growth = maximum(p, 0.0) * span
    e = exp(minimum(growth, REACH_MAX_GROWTH))
    # Largest term of the closed form over the search (see linear_zone_flow).
    size = (1.0 + e) * (abs(x) + 2.0 * abs(mu)) + abs(q) * where(
        abs(p) < P_DEGENERATE, span, (1.0 + e) / maximum(abs(p), P_DEGENERATE))
    bound = (abs(mu) * h * h / maximum(1.0 - ph, 0.5)
             + 2.0 * TOUCH_VALUE_TOL + REACH_ROUNDING * size)
    return where((ph < 0.5) & (growth <= REACH_MAX_GROWTH), bound, math.inf)


def _within_reach(reach, u_l, u_r, levels):
    """Whether a level lies within ``reach`` of the nearer end of a cell."""
    return not all(min(abs(u_l - lv), abs(u_r - lv)) > reach for lv in levels)


def _next_contact(z, mu, tau, x, levels, t_max):
    """Earliest time in (tau, t_max] where the in-zone flow meets any level.

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

# Zone codes of advance_batch, in the order of the levels, and per code:
# whether -1 and +1 are exits, and the code of the zone entered through each.
_ZONES = (LOWER, INNER, UPPER)
_EXITS = np.array([[lv in _ZONE_EXITS[z] for lv in (-1.0, 1.0)] for z in _ZONES])
_ENTERED = np.array([[_ZONES.index(_NEIGHBOR[z, lv]) if (z, lv) in _NEIGHBOR else -1
                      for lv in (-1.0, 1.0)] for z in _ZONES])
# Outcome of one row's contact search in advance_batch.
_NO_CONTACT, _CONTACT, _FALLBACK = 0, 1, 2


def _flow_by_zone(zcs, mu, zone, tau, x, t):
    """linear_zone_flow for every row of ``t``: ``zone`` holds the rows'
    zone codes in ascending order, ``tau`` and ``x`` broadcast against ``t``."""
    out = np.empty(t.shape)
    bounds = [0, *(np.count_nonzero(zone <= c) for c in range(len(zcs)))]
    with _saturating():
        for z, lo, hi in zip(zcs, bounds, bounds[1:]):
            if lo < hi:
                out[lo:hi] = linear_zone_flow(z, mu, tau[lo:hi], x[lo:hi], t[lo:hi])
    return out


def _contact_times(zcs, p, q, mu, zone, tau, x, level, lo, hi, lo_pos):
    """``_newton_bracket`` on (u - level, u') for every row at once, with the
    same steps and stop tests per row; a row that has stopped keeps its
    state."""
    t = 0.5 * (lo + hi)
    last = before = hi - lo
    best, best_g = t, np.full(t.size, math.inf)
    go = np.ones(t.size, dtype=bool)
    while go.any():
        u = _flow_by_zone(zcs, mu, zone, tau, x, t)
        with _saturating():
            g, slope = u - level, p * u + q + mu * np.sin(t)
            usable = (slope != 0.0) & (np.abs(slope) < math.inf)
            step = np.where(usable, g / np.where(usable, slope, 1.0), math.inf)
        better = go & (np.abs(g) < best_g)
        best, best_g = np.where(better, t, best), np.where(better, np.abs(g), best_g)
        up = (g > 0.0) == lo_pos
        lo, hi = np.where(go & up, t, lo), np.where(go & ~up, t, hi)
        mid = 0.5 * (lo + hi)
        nxt = t - step
        go &= ((g != 0.0) & (last >= CROSSING_TIME_TOL) & (hi - lo > CROSSING_TIME_TOL)
               & (lo < mid) & (mid < hi) & (nxt != t))
        nxt = np.where((lo <= nxt) & (nxt <= hi) & (2.0 * np.abs(step) <= before), nxt, mid)
        before, last = np.where(go, last, before), np.where(go, np.abs(nxt - t), last)
        t = np.where(go, nxt, t)
    return best


def _contacts_batch(zcs, mu, zone, tau, x, t_end):
    """First contact of every row's search from (tau, x) to t_end, found as
    ``_next_contact`` finds it: (outcome, level, time) per row.  ``zone``
    holds the rows' zone codes in ascending order."""
    m = zone.size
    outcome = np.full(m, _NO_CONTACT)
    # The bracket of each contact: its level, ends and side at the left end.
    level, lo, hi = np.zeros(m), np.zeros(m), np.zeros(m)
    lo_pos = np.zeros(m, dtype=bool)
    p = np.array([z.p for z in zcs])[zone]
    q = np.array([z.q for z in zcs])[zone]
    exit_lo, exit_hi = _EXITS[zone].T
    t_ref, u_ref = tau.copy(), x.copy()
    # Starting on a level: take the reference a hair later.
    on = (t_end > tau) & ((exit_lo & (x == -1.0)) | (exit_hi & (x == 1.0)))
    if on.any():
        t_ref[on] = np.minimum(tau[on] + GRAZE_PROBE_DT, t_end)
        u_ref[on] = _flow_by_zone(zcs, mu, zone[on], tau[on], x[on], t_ref[on])
        stuck = on & ((exit_lo & (u_ref == -1.0)) | (exit_hi & (u_ref == 1.0)))
        outcome[stuck] = _FALLBACK

    step = TWO_PI / SCAN_PER_PERIOD
    live = np.flatnonzero((t_end > tau) & (outcome == _NO_CONTACT))
    n = np.maximum(1.0, np.ceil((t_end - t_ref[live]) / step - 1e-12))
    done = np.zeros(live.size)
    t_l, u_l = t_ref[live], u_ref[live]
    while live.size:
        # The next `width` cells of each row's grid t_ref + j*step (whose
        # point n is t_end); column 0 holds the left end of the first.  The
        # block widens as rows drop out, up to BATCH_ELEMENTS values.
        width = min(max(BATCH_COLUMNS, BATCH_ELEMENTS // live.size), int(np.max(n - done)))
        j = done[:, None] + np.arange(1.0, width + 1.0)
        t = np.empty((live.size, width + 1))
        t[:, 0] = t_l
        t[:, 1:] = t_ref[live, None] + step * j
        np.copyto(t[:, 1:], t_end, where=j >= n[:, None])
        u = np.empty_like(t)
        u[:, 0] = u_l
        u[:, 1:] = _flow_by_zone(zcs, mu, zone[live], tau[live, None], x[live, None], t[:, 1:])
        valid = (j <= n[:, None]) & (t[:, 1:] > t[:, :-1])
        # A value crossing of either level.  Only the levels that are exits
        # count, but a row cannot cross the other one first.
        side = (u > -1.0).view(np.int8) + (u > 1.0).view(np.int8)
        candidate = ((side[:, :-1] != side[:, 1:]) | (np.abs(u[:, 1:]) == 1.0)) & valid
        # An extremum cell is a candidate when a level is within its reach.
        with _saturating():
            rising = p[live, None] * u + q[live, None] + mu * np.sin(t) > 0.0
        ei, ej = np.nonzero((rising[:, :-1] != rising[:, 1:]) & valid)
        near = np.zeros_like(valid)
        if ei.size:
            r = live[ei]
            reach = _reach(p[r], q[r], mu, x[r], t_end - tau[r], t[ei, ej + 1] - t[ei, ej])
            ul, ur = u[ei, ej], u[ei, ej + 1]
            far_lo = ~exit_lo[r] | (np.minimum(np.abs(ul + 1.0), np.abs(ur + 1.0)) > reach)
            far_hi = ~exit_hi[r] | (np.minimum(np.abs(ul - 1.0), np.abs(ur - 1.0)) > reach)
            near[ei, ej] = ~(far_lo & far_hi)
            candidate |= near
        first = candidate.argmax(axis=1)
        hit = candidate[np.arange(live.size), first]
        if hit.any():
            r = np.flatnonzero(hit)
            c = first[r]
            rows = live[r]
            ul, ur = u[r, c], u[r, c + 1]
            lo_x = ((ul > -1.0) != (ur > -1.0)) | (ur == -1.0)
            hi_x = ((ul > 1.0) != (ur > 1.0)) | (ur == 1.0)
            simple = (~near[r, c] & (lo_x != hi_x) & (np.abs(ur) != 1.0)
                      & np.where(lo_x, exit_lo[rows], exit_hi[rows]))
            outcome[rows] = np.where(simple, _CONTACT, _FALLBACK)
            level[rows] = np.where(lo_x, -1.0, 1.0)
            lo[rows], hi[rows] = t[r, c], t[r, c + 1]
            lo_pos[rows] = ul > level[rows]
        more = ~hit & (done + width < n)
        live, n, done = live[more], n[more], done[more] + width
        t_l, u_l = t[more, -1], u[more, -1]

    s = np.zeros(m)
    rows = np.flatnonzero(outcome == _CONTACT)
    if rows.size:
        s[rows] = _contact_times(zcs, p[rows], q[rows], mu, zone[rows], tau[rows], x[rows],
                                 level[rows], lo[rows], hi[rows], lo_pos[rows])
    return outcome, level, s


def advance_batch(p: Params, xs: ndarray, t_end: float) -> ndarray:
    """``advance(p, 0.0, x, t_end).final_state`` for every x of the 1-D
    array ``xs``, from one event loop over all of them.

    Every row marches its own scan grid (the one ``_next_contact`` uses),
    a block of cells per step (BATCH_COLUMNS, wider as rows drop out), in
    lockstep with the others, and stops at its first candidate cell.  When
    no row marches any more, each stopped row whose cell holds a value
    crossing of exactly one level has its contact time refined as
    ``_next_contact`` refines it, all rows at once, then switches zones;
    then the next contact search begins.  A row that needs a branch only
    ``advance`` has is handed whole to ``advance``: a start on a level whose
    probe lands on a level, an extremum within reach of a level, a scan
    point exactly on a level, two levels in one cell, a contact with
    |x'| < GRAZE_DERIV_TOL, or more than MAX_SWITCHES contacts.  The results agree with ``advance``
    to rounding: numpy's sin and cos may differ from math's in the last bit.
    """
    if t_end < 0.0:
        raise ValueError("t_end must be >= tau")
    out = np.empty(xs.size)
    chunk = BATCH_ELEMENTS // BATCH_COLUMNS
    for start in range(0, xs.size, chunk):
        out[start:start + chunk] = _advance_rows(p, xs[start:start + chunk], t_end)
    return out


def _advance_rows(p, x0, t_end):
    zcs = [zone_coeffs(p, z) for z in _ZONES]
    final = np.empty(x0.size)
    rows = np.arange(x0.size)
    zone = np.where(x0 > 1.0, 2, np.where(x0 < -1.0, 0, 1))
    for i in np.flatnonzero(np.abs(x0) == 1.0).tolist():
        zone[i] = _ZONES.index(_departure_zone(p, 0.0, float(x0[i]), t_end))
    tau, x = np.zeros(x0.size), x0.copy()
    events = np.zeros(x0.size, dtype=int)
    fallback = []
    while rows.size:
        # Rows in ascending zone order, as _flow_by_zone takes them.
        order = np.concatenate([np.flatnonzero(zone == c) for c in range(len(_ZONES))])
        rows, zone, tau, x, events = (a[order] for a in (rows, zone, tau, x, events))
        outcome, level, s = _contacts_batch(zcs, p.mu, zone, tau, x, t_end)
        end = outcome == _NO_CONTACT
        final[rows[end]] = _flow_by_zone(zcs, p.mu, zone[end], tau[end], x[end],
                                         np.full(end.sum(), t_end))
        hit = outcome == _CONTACT
        events += hit
        coeffs = np.array([[z.p, z.q] for z in zcs])[zone]
        xdot = coeffs[:, 0] * level + coeffs[:, 1] + p.mu * np.sin(s)
        switch = hit & (np.abs(xdot) >= GRAZE_DERIV_TOL) & (events <= MAX_SWITCHES)
        fallback.extend(rows[~end & ~switch].tolist())
        zone = _ENTERED[zone[switch], (level[switch] > 0.0).astype(int)]
        rows, tau, x, events = rows[switch], s[switch], level[switch], events[switch]
    for i in fallback:
        final[i] = advance(p, 0.0, float(x0[i]), t_end).final_state
    return final


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
