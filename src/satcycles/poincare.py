"""Poincare-map analysis: return map, half-map, displacement, derivatives,
regime classification, analytic one-zonal cycles, and the global cycle finder.

The time-2pi map P has derivative exp(2*pi*a_eff + (b_eff - a_eff)*m) where
m is the time the trajectory spends in the inner zone, so multipliers come
for free from the exact trajectory.  The half-map Q(x) = -u(pi, 0, x) is
strictly decreasing and satisfies Q(Q(x)) = P(x); its unique fixed point is
the symmetric cycle, which the finder always locates first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial

from .errors import CenterRegimeError, CountUnstableError, InvariantViolatedError
from .exactflow import (
    INNER,
    LOWER,
    TWO_PI,
    UPPER,
    EXP_SATURATION,
    P_DEGENERATE,
    _exp,
    advance,
    zone_coeffs,
)
from .gridscan import _newton_bracket, scan_roots
from .model import Params

__all__ = [
    "CycleRecord",
    "Regime",
    "ATTRACTING",
    "REPELLING",
    "NONHYPERBOLIC",
    "poincare_P",
    "half_Q",
    "displacement_d",
    "dP",
    "classify_regime",
    "analytic_one_zone_cycles",
    "find_all_cycles",
]

ATTRACTING = "attracting"
REPELLING = "repelling"
NONHYPERBOLIC = "nonhyperbolic"

# Multipliers within this band of 1 are reported as nonhyperbolic.
HYPERBOLICITY_BAND = 1e-7
# Roots closer than DEDUP_TOL are one cycle; ROOT_XTOL ends their refinement.
DEDUP_TOL = 1e-7
ROOT_XTOL = 1e-12


@dataclass(frozen=True)
class CycleRecord:
    """One limit cycle: initial condition at t=0, zonal type, multiplier."""

    x0: float
    zonal_type: str
    multiplier: float
    stability: str
    symmetric: bool


@dataclass(frozen=True)
class Regime:
    tag: str
    detail: str


def poincare_P(p: Params, x: float) -> float:
    """Time-2pi return map u(2*pi, 0, x)."""
    return advance(p, 0.0, x, TWO_PI).final_state


def half_Q(p: Params, x: float) -> float:
    """Half-map -u(pi, 0, x); satisfies Q(Q(x)) = P(x) when lam = 0."""
    return -advance(p, 0.0, x, math.pi).final_state


def displacement_d(p: Params, x: float) -> float:
    """P(x) - x; zeros are the periodic solutions."""
    return poincare_P(p, x) - x


def _multiplier_from_measure(p: Params, a_in_measure: float) -> float:
    return _exp(TWO_PI * p.a_eff + (p.b_eff - p.a_eff) * a_in_measure)


def _bias_gain(slope: float, dt: float) -> float:
    """Solution at time dt of y' = slope*y + 1 from y = 0: expm1(slope*dt)/slope,
    dt when |slope| < P_DEGENERATE and inf once slope*dt saturates."""
    if abs(slope) < P_DEGENERATE:
        return dt
    z = slope * dt
    return math.expm1(z) / slope if z < EXP_SATURATION else math.inf


def _bias_derivative(p: Params, traj) -> float:
    """Derivative of the trajectory's final state in lam: y' = p(t)*y + 1
    from y = 0, solved exactly on each segment.  The field is continuous, so
    y does not jump at a contact."""
    y = 0.0
    for seg in traj.segments:
        slope = zone_coeffs(p, seg.zone).p
        dt = seg.t_end - seg.t_start
        y = (y if abs(slope) < P_DEGENERATE else _exp(slope * dt) * y) + _bias_gain(slope, dt)
    return y


def dP(p: Params, x: float) -> float:
    """Exact derivative of the return map from the inner-zone residence time."""
    traj = advance(p, 0.0, x, TWO_PI)
    return _multiplier_from_measure(p, traj.a_in_measure)


def _stability(multiplier: float) -> str:
    if multiplier < 1.0 - HYPERBOLICITY_BAND:
        return ATTRACTING
    if multiplier > 1.0 + HYPERBOLICITY_BAND:
        return REPELLING
    return NONHYPERBOLIC


def classify_regime(p: Params) -> Regime:
    """Dynamical regime of the unbiased (lam = 0) equation.

    Classification depends on the effective slopes eps*a, eps*b and on mu;
    eps = 0 degenerates to the global-center case.
    """
    a, b = p.a_eff, p.b_eff
    if a == 0.0 and b == 0.0:
        return Regime("global_center", "field vanishes: every solution is 2*pi-periodic")
    if b == 0.0 and abs(p.mu) < 1.0:
        return Regime(
            "center_no_cycles",
            "inner band holds a continuum of periodic solutions and no isolated ones",
        )
    if a * b < 0.0:
        return Regime("mixed_sign", "slopes of opposite sign: cycle count depends on mu")
    return Regime("unique_cycle", "exactly one limit cycle, the symmetric solution")


def _zonal_type(traj) -> str:
    zones = {s.zone for s in traj.segments}
    if zones == {INNER}:
        return "one_inner"
    if zones == {UPPER}:
        return "one_upper"
    if zones == {LOWER}:
        return "one_lower"
    return "three_zonal" if len(zones) == 3 else "two_zonal"


def analytic_one_zone_cycles(p: Params) -> list[CycleRecord]:
    """Closed-form cycles confined to a single linearity zone.

    Each zone's linear equation x' = p*x + q + mu*sin(t) with p != 0 has the
    unique periodic solution v(t) = -q/p - mu*(cos t + p sin t)/(p^2 + 1);
    it is a cycle of the piecewise equation iff its range stays inside the
    zone (non-strictly, so grazing cycles on the existence boundary count).
    Returns an empty list when no zone qualifies.
    """
    records = []
    for zone in (LOWER, INNER, UPPER):
        z = zone_coeffs(p, zone)
        if abs(z.p) < P_DEGENERATE:
            continue  # p = 0 gives a continuum or nothing, never an isolated cycle
        center = -z.q / z.p
        amp = abs(p.mu) / math.sqrt(z.p * z.p + 1.0)
        if zone == UPPER:
            ok = center - amp >= 1.0
        elif zone == LOWER:
            ok = center + amp <= -1.0
        else:
            ok = abs(center) + amp <= 1.0
        if not ok:
            continue
        x0 = center - p.mu / (z.p * z.p + 1.0)
        mult = _exp(TWO_PI * z.p)
        records.append(
            CycleRecord(
                x0=x0,
                zonal_type="one_" + zone,
                multiplier=mult,
                stability=_stability(mult),
                symmetric=(zone == INNER and p.lam == 0.0),
            )
        )
    records.sort(key=lambda r: r.x0)
    return records


def _symmetric_root(p: Params, bound: float) -> float:
    """Unique fixed point of the strictly decreasing half-map Q in [-bound, bound]."""
    def fq(x):
        traj = advance(p, 0.0, x, math.pi)
        slope = -_exp(math.pi * p.a_eff + (p.b_eff - p.a_eff) * traj.a_in_measure)
        return -traj.final_state - x, slope - 1.0

    # The band is invariant (repelling when a_eff > 0): Q(x) - x changes sign.
    if not fq(-bound)[0] > 0.0 > fq(bound)[0]:
        raise InvariantViolatedError(f"Q(x) - x has no sign change on [-{bound}, {bound}]")
    return _newton_bracket(fq, -bound, bound, True, ROOT_XTOL)


def _record(p: Params, x0: float, traj, symmetric: bool) -> CycleRecord:
    """Classify a refined root, confirmed by |d| < 1e-9 or by a Newton step of
    at most one ulp (a multiplier so large that no double brings |d| there).
    A root within DEDUP_TOL of a one-zonal cycle whose multiplier is beyond
    the doubles, where the computed d means nothing, is that closed-form
    cycle."""
    d = traj.final_state - x0
    mult = _multiplier_from_measure(p, traj.a_in_measure)
    if not (abs(d) < 1e-9 or abs(d) <= abs(mult - 1.0) * math.ulp(x0) < math.inf):
        for rec in analytic_one_zone_cycles(p):
            if rec.multiplier == math.inf and abs(rec.x0 - x0) < DEDUP_TOL:
                return replace(rec, symmetric=symmetric)
        raise CountUnstableError(
            f"refined root x0={x0!r} fails the displacement check (|d|={abs(d):.3e})")
    return CycleRecord(
        x0=x0,
        zonal_type=_zonal_type(traj),
        multiplier=mult,
        stability=_stability(mult),
        symmetric=symmetric,
    )


def find_all_cycles(p: Params) -> list[CycleRecord]:
    """All limit cycles found by a displacement-sign scan over the trapping band.

    The symmetric cycle is located first through the half-map (guaranteed
    unique fixed point).  The remaining zeros of the displacement are
    isolated by ``scan_roots`` on the slope bound of d' = dP - 1: dP is
    exp(2*pi*a_eff + (b_eff - a_eff)*m) with the inner-zone time m in
    [0, 2*pi], so d' lies between exp(2*pi*min(a_eff, b_eff)) - 1 and
    exp(2*pi*max(a_eff, b_eff)) - 1.  Each bracket is refined by
    ``gridscan._newton_bracket`` on the exact slope and classified by the
    exact multiplier; the cycle whose roots include the symmetric one is
    flagged symmetric.  Raises CenterRegimeError in (analytically known)
    center regimes and CountUnstableError when a cell of the scan stays
    undecided, a root fails its check, or the count at lam = 0 is even
    (there Q pairs every non-symmetric cycle with another).
    """
    regime = classify_regime(p)
    if p.lam == 0.0 and regime.tag in ("global_center", "center_no_cycles"):
        raise CenterRegimeError(f"{regime.tag}: {regime.detail}")

    # One-zonal equilibrium scale plus the invariant-band bound for large mu.
    equil = abs(1.0 - p.b / p.a) if p.a != 0.0 else 1.0
    bound = equil + abs(p.mu) * (1.0 + 1.0 / max(abs(p.a_eff), 1e-6)) + 1.0

    trajs = {}  # every point the refinement evaluated, for the records

    def d_and_slope(x):
        traj = trajs[x] = advance(p, 0.0, x, TWO_PI)
        return traj.final_state - x, _multiplier_from_measure(p, traj.a_in_measure) - 1.0

    x_s = _symmetric_root(p, bound) if p.lam == 0.0 else None
    roots = [] if x_s is None else [x_s]
    slopes = (_exp(TWO_PI * min(p.a_eff, p.b_eff)) - 1.0,
              _exp(TWO_PI * max(p.a_eff, p.b_eff)) - 1.0)
    exact, brackets = scan_roots(partial(displacement_d, p), -bound, bound, slopes)
    roots += exact + [_newton_bracket(d_and_slope, *b, ROOT_XTOL) for b in brackets]
    groups = []  # the roots of each cycle; the first one is its x0
    for r in sorted(roots):
        if groups and abs(r - groups[-1][0]) < DEDUP_TOL:
            groups[-1].append(r)
        else:
            groups.append([r])
    if p.lam == 0.0 and len(groups) % 2 == 0:
        raise CountUnstableError(
            f"{len(groups)} cycles at lam = 0, where Q pairs the non-symmetric ones: "
            f"x_s={x_s!r}, roots {[g[0] for g in groups]!r}")
    return [_record(p, g[0], trajs[g[0]] if g[0] in trajs else advance(p, 0.0, g[0], TWO_PI),
                    x_s in g) for g in groups]
