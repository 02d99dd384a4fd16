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
from dataclasses import dataclass

from numpy import ndarray

from .errors import CenterRegimeError, CountUnstableError
from .exactflow import (
    INNER,
    LOWER,
    TWO_PI,
    UPPER,
    P_DEGENERATE,
    _exp,
    advance,
    advance_batch,
    zone_coeffs,
)
from .gridscan import bisect_root, scan_roots
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
# Roots closer than this are one cycle; Newton polishing stays within it.
DEDUP_TOL = 1e-7


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


def poincare_P(p: Params, x):
    """Time-2pi return map u(2*pi, 0, x); a 1-D ndarray ``x`` is mapped
    row by row through ``advance_batch``."""
    if type(x) is ndarray:
        return advance_batch(p, x, TWO_PI)
    return advance(p, 0.0, x, TWO_PI).final_state


def half_Q(p: Params, x: float) -> float:
    """Half-map -u(pi, 0, x); satisfies Q(Q(x)) = P(x) when lam = 0."""
    return -advance(p, 0.0, x, math.pi).final_state


def displacement_d(p: Params, x):
    """P(x) - x; zeros are the periodic solutions.  Floats or ndarrays, as
    ``poincare_P``."""
    return poincare_P(p, x) - x


def _multiplier_from_measure(p: Params, a_in_measure: float) -> float:
    return _exp(TWO_PI * p.a_eff + (p.b_eff - p.a_eff) * a_in_measure)


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


def _symmetric_root(p: Params, x_bound: float) -> float:
    """Unique fixed point of the strictly decreasing half-map Q."""
    def fq(x):
        return half_Q(p, x) - x

    lo, hi = -x_bound, x_bound
    f_lo, f_hi = fq(lo), fq(hi)
    grow = 0
    while f_lo <= 0.0 and grow < 60:
        lo *= 2.0
        f_lo = fq(lo)
        grow += 1
    while f_hi >= 0.0 and grow < 60:
        hi *= 2.0
        f_hi = fq(hi)
        grow += 1
    return bisect_root(fq, lo, hi, True, xtol=1e-12)


def _polish(p: Params, x: float, lo: float, hi: float):
    """A few Newton steps on the displacement, using the exact multiplier;
    returns the polished x and its trajectory over one period."""
    for _ in range(4):
        traj = advance(p, 0.0, x, TWO_PI)
        d = traj.final_state - x
        if abs(d) < 1e-13:
            return x, traj
        slope = _multiplier_from_measure(p, traj.a_in_measure) - 1.0
        if abs(slope) < 1e-3:
            return x, traj  # near-fold: keep the bisection result
        nxt = x - d / slope
        if not lo <= nxt <= hi:
            return x, traj
        x = nxt
    return x, advance(p, 0.0, x, TWO_PI)


def _record(p: Params, x0: float, traj) -> CycleRecord:
    if abs(traj.final_state - x0) >= 1e-9:
        raise CountUnstableError(
            f"refined root x0={x0!r} fails the displacement check "
            f"(|d|={abs(traj.final_state - x0):.3e})"
        )
    mult = _multiplier_from_measure(p, traj.a_in_measure)
    symmetric = p.lam == 0.0 and abs(half_Q(p, x0) - x0) < 1e-9
    return CycleRecord(
        x0=x0,
        zonal_type=_zonal_type(traj),
        multiplier=mult,
        stability=_stability(mult),
        symmetric=symmetric,
    )


def find_all_cycles(p: Params, *, grid: int = 4096,
                    tol_root: float = 1e-11) -> list[CycleRecord]:
    """All limit cycles found by a displacement-sign scan over the trapping band.

    The symmetric cycle is located first through the half-map (guaranteed
    unique fixed point); remaining zeros of the displacement are bracketed
    on an adaptive grid (each level evaluated as one batch), bisected to
    min(tol_root, 1e-12), Newton-polished, and classified by the exact
    multiplier.  Raises CenterRegimeError in (analytically known) center
    regimes and CountUnstableError when adjacent grid refinements disagree
    on the root count.
    """
    regime = classify_regime(p)
    if p.lam == 0.0 and regime.tag in ("global_center", "center_no_cycles"):
        raise CenterRegimeError(f"{regime.tag}: {regime.detail}")

    # One-zonal equilibrium scale plus the invariant-band bound for large mu.
    equil = abs(1.0 - p.b / p.a) if p.a != 0.0 else 1.0
    bound = equil + abs(p.mu) * (1.0 + 1.0 / max(abs(p.a_eff), 1e-6)) + 1.0

    def dfun(x):
        return displacement_d(p, x)

    roots = []
    if p.lam == 0.0:
        roots.append(_symmetric_root(p, bound))
    exact, brackets = scan_roots(dfun, -bound, bound, grid)
    roots.extend(exact)
    for lo, hi, lo_pos in brackets:
        roots.append(bisect_root(dfun, lo, hi, lo_pos, xtol=min(tol_root, 1e-12)))
    roots.sort()

    merged = []
    for r in roots:
        if merged and abs(r - merged[-1]) < DEDUP_TOL:
            continue
        merged.append(r)

    records = []
    for r in merged:
        records.append(_record(p, *_polish(p, r, r - DEDUP_TOL, r + DEDUP_TOL)))
    records.sort(key=lambda rec: rec.x0)
    return records
