"""Three-zonal crossing-time system and the implicit bias function lam(x).

A periodic solution of x' = eps*f(x) + mu*sin(t) + lam that crosses both
x = 1 and x = -1 does so at four times t1 < t2 < t3 < t4 < t1 + 2*pi per
period: down through 1 at t1, down through -1 at t2, back up through -1 at
t3 and up through 1 at t4.  Two equivalent residual formulations are
provided: the direct transition system built from the per-zone closed-form
flow (the solver target) and the rearranged exponential form used as a
cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import BracketFailedError, NoConvergenceError, OrderViolatedError
from .exactflow import INNER, LOWER, TWO_PI, UPPER, advance, linear_zone_flow, transitions, zone_coeffs
from .gridscan import _newton_bracket
from .model import Params
from .poincare import ROOT_XTOL, _bias_derivative, _bias_gain

__all__ = [
    "CrossingSequence",
    "g_aux",
    "residual_3z",
    "residual_direct",
    "solve_crossing_system",
    "extract_crossings",
    "lambda_of_x",
]

# Newton on the direct system: iteration cap, residual target (infinity
# norm) and the step of the central-difference Jacobian.
NEWTON_MAX_ITER = 100
RESIDUAL_TOL = 1e-10
FD_STEP = 1e-7


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


def _residual_direct_raw(p: Params, t1, t2, t3, t4) -> np.ndarray:
    z_in = zone_coeffs(p, INNER)
    z_lo = zone_coeffs(p, LOWER)
    z_up = zone_coeffs(p, UPPER)
    return np.array(
        [
            linear_zone_flow(z_in, p.mu, t1, 1.0, t2) + 1.0,
            linear_zone_flow(z_lo, p.mu, t2, -1.0, t3) + 1.0,
            linear_zone_flow(z_in, p.mu, t3, -1.0, t4) - 1.0,
            linear_zone_flow(z_up, p.mu, t4, 1.0, t1 + TWO_PI) - 1.0,
        ]
    )


def residual_direct(p: Params, cs: CrossingSequence) -> np.ndarray:
    """Direct transition residuals [u(t2,t1,1)+1, u(t3,t2,-1)+1,
    u(t4,t3,-1)-1, u(t1+2*pi,t4,1)-1] with per-leg zone coefficients."""
    return _residual_direct_raw(p, cs.t1, cs.t2, cs.t3, cs.t4)


def _ordered(t: np.ndarray) -> bool:
    return t[0] < t[1] < t[2] < t[3] < t[0] + TWO_PI


def solve_crossing_system(p: Params, guess: CrossingSequence) -> CrossingSequence:
    """Damped Newton on the direct transition system, to RESIDUAL_TOL.

    The Jacobian is central-difference numeric; a step is accepted only if
    it preserves the strict ordering of the times and reduces the residual
    infinity norm (falling back to the largest ordering-preserving step
    when no factor reduces it).  Raises NoConvergenceError after
    NEWTON_MAX_ITER iterations and OrderViolatedError when even arbitrarily
    damped steps break the ordering.
    """
    t = guess.as_array().astype(float)

    def fvec(tv):
        return _residual_direct_raw(p, *tv)

    for _ in range(NEWTON_MAX_ITER):
        r = fvec(t)
        norm = float(np.max(np.abs(r)))
        if norm < RESIDUAL_TOL:
            # Shift the whole sequence by a period if Newton drifted t1 out
            # of [0, 2*pi); the system is invariant under that shift.
            shift = TWO_PI * math.floor(t[0] / TWO_PI)
            t1, t2, t3, t4 = (t - shift).tolist()
            return CrossingSequence(t1, t2, t3, t4, lam=p.lam)
        jac = np.empty((4, 4))
        for j in range(4):
            e = np.zeros(4)
            e[j] = FD_STEP
            jac[:, j] = (fvec(t + e) - fvec(t - e)) / (2.0 * FD_STEP)
        try:
            step = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError as exc:
            raise NoConvergenceError(f"singular Jacobian at residual {norm:.3e}") from exc
        accepted = None
        fallback = None
        factor = 1.0
        for _ in range(60):
            cand = t + factor * step
            if _ordered(cand):
                if fallback is None:
                    fallback = cand
                if float(np.max(np.abs(fvec(cand)))) < norm:
                    accepted = cand
                    break
            factor *= 0.5
        if accepted is None:
            if fallback is None:
                raise OrderViolatedError(
                    "no damping factor keeps t1 < t2 < t3 < t4 < t1 + 2*pi"
                )
            accepted = fallback  # exploratory step; the iteration cap bounds this
        t = accepted
    raise NoConvergenceError(
        f"no convergence after {NEWTON_MAX_ITER} iterations, residual {norm:.3e}"
    )


_PATTERN = [
    (1.0, UPPER, INNER),
    (-1.0, INNER, LOWER),
    (-1.0, LOWER, INNER),
    (1.0, INNER, UPPER),
]


def extract_crossings(p: Params, x0: float):
    """Crossing times of the three-zonal cycle through x0, or None.

    Integrates over two periods, finds the first down-through-1 event and
    checks that the next three events complete the three-zonal pattern
    within one period.
    """
    traj = advance(p, 0.0, x0, 2.0 * TWO_PI)
    events = transitions(traj)
    for k, (time, level, z_from, z_to) in enumerate(events):
        if (level, z_from, z_to) != _PATTERN[0]:
            continue
        if k + 3 >= len(events):
            return None
        window = events[k : k + 4]
        if any(
            (ev[1], ev[2], ev[3]) != pat for ev, pat in zip(window, _PATTERN)
        ):
            return None
        times = [ev[0] for ev in window]
        if not times[3] < times[0] + TWO_PI:
            return None
        shift = TWO_PI * math.floor(times[0] / TWO_PI)
        t1, t2, t3, t4 = (tv - shift for tv in times)
        return CrossingSequence(t1, t2, t3, t4, lam=p.lam)
    return None


def lambda_of_x(p: Params, x: float) -> float:
    """The unique bias lam with d(x; lam) = 0, by Newton on the exact slope.

    dd/dlam lies in [S(min), S(max)], S = ``_bias_gain(., 2*pi)`` of the slopes a_eff and
    b_eff, so d(0) brackets the root: -d(0)/S(max) to -d(0)/S(min), widened by 1e-9.  A
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
    lo, hi = sorted(-d0 / _bias_gain(s, TWO_PI) for s in (p.a_eff, p.b_eff))  # d(lo) < 0
    lam = _newton_bracket(d_and_slope, lo - 1e-9 * abs(lo), hi + 1e-9 * abs(hi), False, ROOT_XTOL)
    if not abs(d := ds.get(lam, math.nan)) <= 1e-10 * max(1.0, abs(x)):
        raise NoConvergenceError(f"lambda_of_x at x={x!r}: |d| = {abs(d):.3e} at lam={lam!r}")
    return lam
