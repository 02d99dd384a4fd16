"""Three-zonal crossing-time system and the implicit bias function lam(x).

A periodic solution of x' = eps*f(x) + mu*sin(t) + lam that crosses both
x = 1 and x = -1 does so at four times t1 < t2 < t3 < t4 < t1 + 2*pi per
period: down through 1 at t1, down through -1 at t2, back up through -1 at
t3 and up through 1 at t4.  Two equivalent residual formulations are
provided: the direct transition system built from the per-zone closed-form
flow (the solver target, whose Jacobian is closed form too) and the
rearranged exponential form used as a cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import BracketFailedError, NoConvergenceError, OrderViolatedError
from .exactflow import (INNER, LOWER, TWO_PI, UPPER, ZoneCoeffs, _exp, advance, linear_zone_flow,
                        transitions, zone_coeffs)
from .gridscan import _newton_bracket
from .model import Params
from .poincare import ROOT_XTOL

__all__ = [
    "CrossingSequence",
    "g_aux",
    "residual_3z",
    "residual_direct",
    "solve_crossing_system",
    "extract_crossings",
    "lambda_of_x",
]

# Newton on the direct system: iteration cap and residual target (infinity
# norm).
NEWTON_MAX_ITER = 100
RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class CrossingSequence:
    """The four transition times of a three-zonal periodic solution.

    ``lam`` records the constant bias the sequence belongs to; the residual
    evaluations themselves read the bias from their Params argument.
    """

    t1: float
    t2: float
    t3: float
    t4: float
    lam: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.t1 < TWO_PI:
            raise ValueError("t1 must lie in [0, 2*pi)")
        if not (self.t1 < self.t2 < self.t3 < self.t4 < self.t1 + TWO_PI):
            raise ValueError("crossing times must satisfy t1 < t2 < t3 < t4 < t1 + 2*pi")

    def as_array(self) -> np.ndarray:
        return np.array([self.t1, self.t2, self.t3, self.t4])


def g_aux(t: float, s: float, p: Params) -> float:
    """Auxiliary kernel (mu*s*(s*sin t + cos t) + b_eff*(s^2 + 1))/(s^2 + 1)."""
    c = s * s + 1.0
    return (p.mu * s * (s * math.sin(t) + math.cos(t)) + p.b_eff * c) / c


def residual_3z(p: Params, cs: CrossingSequence) -> np.ndarray:
    """Exponentially rearranged form of the four transition conditions.

    Written verbatim with the effective slopes; vanishes exactly on
    solutions of :func:`residual_direct` (each component is a nonzero
    multiple of the corresponding direct equation).
    """
    a, b, lam = p.a_eff, p.b_eff, p.lam
    t1, t2, t3, t4 = cs.t1, cs.t2, cs.t3, cs.t4
    pi = math.pi
    r1 = math.exp(-b * t1) * (g_aux(t1, b, p) + lam) + math.exp(-b * t2) * (
        g_aux(t2 + pi, b, p) - lam
    )
    r2 = math.exp(-a * t2) * (g_aux(t2 + pi, a, p) - lam) - math.exp(-a * t3) * (
        g_aux(t3 + pi, a, p) - lam
    )
    r3 = math.exp(-b * t3) * (g_aux(t3 + pi, b, p) - lam) + math.exp(-b * t4) * (
        g_aux(t4, b, p) + lam
    )
    r4 = math.exp(-a * t1) * (g_aux(t1, a, p) + lam) - math.exp(-a * (t4 - TWO_PI)) * (
        g_aux(t4, a, p) + lam
    )
    return np.array([r1, r2, r3, r4])


# Zone, start level and end level of the legs t1 -> t2 -> t3 -> t4 -> t1 + 2*pi.
_LEGS = ((INNER, 1.0, -1.0), (LOWER, -1.0, -1.0), (INNER, -1.0, 1.0), (UPPER, 1.0, 1.0))


def _residual_direct_raw(p: Params, t1, t2, t3, t4) -> np.ndarray:
    starts, ends = (t1, t2, t3, t4), (t2, t3, t4, t1 + TWO_PI)
    return np.array([
        linear_zone_flow(zone_coeffs(p, zone), p.mu, s, x, e) - lv
        for (zone, x, lv), s, e in zip(_LEGS, starts, ends)
    ])


def residual_direct(p: Params, cs: CrossingSequence) -> np.ndarray:
    """Direct transition residuals [u(t2,t1,1)+1, u(t3,t2,-1)+1,
    u(t4,t3,-1)-1, u(t1+2*pi,t4,1)-1] with per-leg zone coefficients."""
    return _residual_direct_raw(p, cs.t1, cs.t2, cs.t3, cs.t4)


def _leg_fields(p: Params, t: list[float], r: list[float]) -> tuple[list, list]:
    """Lists A and B of the Jacobian of the direct system at times t with
    residuals r.  Residual i depends only on t_i and t_{i+1}: its derivative
    in t_{i+1} is B_i, the field where the leg ends, and in t_i it is -A_i,
    exp(p*(t_{i+1} - t_i)) times the field where the leg starts."""
    a, b = [], []
    for (zone, x, lv), s, e, ri in zip(_LEGS, t, t[1:] + [t[0] + TWO_PI], r):
        z = zone_coeffs(p, zone)
        a.append(_exp(z.p * (e - s)) * (z.p * x + z.q + p.mu * math.sin(s)))
        b.append(z.p * (ri + lv) + z.q + p.mu * math.sin(e))
    return a, b


def _newton_step(p: Params, t: list[float], r: list[float]) -> list[float]:
    """Newton step of the direct system in closed form.  Row i of its cyclic
    bidiagonal Jacobian gives s_{i+1} = (A_i*s_i - r_i)/B_i, so around the
    cycle s_1 = g*s_1 + h with g = prod(A)/prod(B): at a solution that is
    the cycle's multiplier, as the field is continuous, and the pivot 1 - g
    vanishes where it is 1.  Raises NoConvergenceError at a zero pivot or a
    non-finite step."""
    a, b = _leg_fields(p, t, r)
    try:
        g, h = 1.0, 0.0
        for ai, bi, ri in zip(a, b, r):
            g, h = ai * g / bi, (ai * h - ri) / bi
        step = [h / (1.0 - g)]
        for ai, bi, ri in zip(a, b, r[:3]):
            step.append((ai * step[-1] - ri) / bi)
    except ZeroDivisionError:
        step = [math.nan]
    if not all(map(math.isfinite, step)):
        raise NoConvergenceError(f"singular Jacobian at residual {max(map(abs, r)):.3e}")
    return step


def solve_crossing_system(p: Params, guess: CrossingSequence) -> CrossingSequence:
    """Damped Newton on the direct transition system, to RESIDUAL_TOL.

    The step solves the closed-form Jacobian (``_newton_step``); it is
    accepted only if it preserves the strict ordering of the times and
    reduces the residual infinity norm (falling back to the largest
    ordering-preserving step when no factor reduces it).  Raises
    NoConvergenceError at a singular Jacobian or after NEWTON_MAX_ITER
    iterations and OrderViolatedError when even arbitrarily damped steps
    break the ordering.
    """
    t = guess.as_array()
    for _ in range(NEWTON_MAX_ITER):
        r = _residual_direct_raw(p, *t)
        norm = float(np.max(np.abs(r)))
        if norm < RESIDUAL_TOL:
            # Shift the whole sequence by a period if Newton drifted t1 out
            # of [0, 2*pi); the system is invariant under that shift.
            shift = TWO_PI * math.floor(t[0] / TWO_PI)
            return CrossingSequence(*(t - shift).tolist(), lam=p.lam)
        step = np.array(_newton_step(p, t.tolist(), r.tolist()))
        fallback = None  # the longest ordered step, taken when none reduces the norm
        for k in range(60):
            cand = t + 0.5**k * step
            if not cand[0] < cand[1] < cand[2] < cand[3] < cand[0] + TWO_PI:
                continue
            if float(np.max(np.abs(_residual_direct_raw(p, *cand)))) < norm:
                break
            if fallback is None:
                fallback = cand
        else:
            if fallback is None:
                raise OrderViolatedError(
                    "no damping factor keeps t1 < t2 < t3 < t4 < t1 + 2*pi"
                )
            cand = fallback  # exploratory step; the iteration cap bounds this
        t = cand
    raise NoConvergenceError(
        f"no convergence after {NEWTON_MAX_ITER} iterations, residual {norm:.3e}"
    )


# The zone-switch events (level, zone_from, zone_to) at t1, t2, t3 and t4.
_PATTERN = [(x, _LEGS[i - 1][0], zone) for i, (zone, x, _) in enumerate(_LEGS)]


def extract_crossings(p: Params, x0: float):
    """Crossing times of the three-zonal cycle through x0, or None.

    Integrates over two periods, finds the first down-through-1 event and
    checks that the next three events complete the three-zonal pattern
    within one period.
    """
    traj = advance(p, 0.0, x0, 2.0 * TWO_PI)
    events = transitions(traj)
    for k, event in enumerate(events):
        if event[1:] != _PATTERN[0]:
            continue
        window = events[k : k + 4]
        if [ev[1:] for ev in window] != _PATTERN:
            return None
        times = [ev[0] for ev in window]
        if not times[3] < times[0] + TWO_PI:
            return None
        shift = TWO_PI * math.floor(times[0] / TWO_PI)
        return CrossingSequence(*(tv - shift for tv in times), lam=p.lam)
    return None


def _bias_derivative(p: Params, traj) -> float:
    """Derivative of the trajectory's final state in lam: y' = p(t)*y + 1
    from y = 0, the zone flow with q = 1 and mu = 0 on each segment.  The
    field is continuous, so y does not jump at a contact."""
    y = 0.0
    for seg in traj.segments:
        z = ZoneCoeffs(zone_coeffs(p, seg.zone).p, 1.0)
        y = linear_zone_flow(z, 0.0, seg.t_start, y, seg.t_end)
    return y


def lambda_of_x(p: Params, x: float) -> float:
    """The unique bias lam with d(x; lam) = 0, by Newton on the exact slope.

    dd/dlam lies in [S(min), S(max)], S(s) the same flow over one segment of length 2*pi with
    slope a_eff or b_eff, so d(0) brackets the root: -d(0)/S(max) to -d(0)/S(min), widened by 1e-9.  A
    result with |d| > 1e-10*max(1, |x|) raises NoConvergenceError.  Extrema of lam(x) flag folds.
    """
    ds = {}  # every (lam, d) evaluated

    def d_and_slope(lam):
        biased = replace(p, lam=lam)
        traj = advance(biased, 0.0, x, TWO_PI)
        d = ds[lam] = traj.final_state - x
        return d, _bias_derivative(biased, traj)

    d0 = d_and_slope(0.0)[0]
    if abs(d0) < 1e-10:
        return 0.0
    if not math.isfinite(d0):
        raise BracketFailedError(f"displacement at x={x!r}, lam=0 is {d0!r}")
    gains = (linear_zone_flow(ZoneCoeffs(s, 1.0), 0.0, 0.0, 0.0, TWO_PI) for s in (p.a_eff, p.b_eff))
    lo, hi = sorted(-d0 / g for g in gains)  # d(lo) < 0
    lam = _newton_bracket(d_and_slope, lo - 1e-9 * abs(lo), hi + 1e-9 * abs(hi), False, ROOT_XTOL)
    if not abs(d := ds.get(lam, math.nan)) <= 1e-10 * max(1.0, abs(x)):
        raise NoConvergenceError(f"lambda_of_x at x={x!r}: |d| = {abs(d):.3e} at lam={lam!r}")
    return lam
