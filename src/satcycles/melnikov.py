"""Closed-form first-order averaging (Melnikov) function and its zero set.

For the weakly forced field x' = eps*f(x) + mu*sin(t), simple zeros of

    M_orig(x, mu) = integral over one period of f(mu*(1 - cos t) + x)

seed limit cycles for small eps.  The shifted variant
M_shift(x, mu) = M_orig(x - mu, mu) is odd in x and even in mu, which makes
its zero set symmetric; it evaluates in closed form because f is piecewise
linear and the inner/outer time sets are unions of arccos intervals.
The bifurcation constants c, mu1, mu2, x1 and the branch mu = phi(x) give
the complete zero-set geometry for a*b < 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AtBifurcationError,
    BadRegimeError,
    BracketFailedError,
    InvariantViolatedError,
)
from .exactflow import TWO_PI
from .gridscan import _newton_bracket, scan_roots
from .model import Params

__all__ = [
    "ZonePartition",
    "BifValues",
    "ZeroSetBranch",
    "partition",
    "M_shift",
    "M_orig",
    "Mx",
    "Mmu",
    "consistency_identity",
    "bif_values",
    "phi",
    "phi_branch",
    "count_simple_zeros",
    "zero_set",
]


@dataclass(frozen=True)
class ZonePartition:
    """Subsets of [0, 2*pi] where v(t) = x - mu*cos(t) sits in each zone."""

    inner_intervals: tuple
    upper_intervals: tuple
    lower_intervals: tuple

    @property
    def inner_measure(self) -> float:
        return _measure(self.inner_intervals)

    @property
    def upper_measure(self) -> float:
        return _measure(self.upper_intervals)

    @property
    def lower_measure(self) -> float:
        return _measure(self.lower_intervals)


@dataclass(frozen=True)
class BifValues:
    """Bifurcation constants for a*b < 0: c in (0, pi), mu2 < mu1, and the
    branch maximum location x1."""

    c: float
    mu1: float
    mu2: float
    x1: float


@dataclass(frozen=True)
class ZeroSetBranch:
    """Sampled graph of mu = phi(x) on [0, 1 - b/a] plus its constants."""

    samples: tuple
    bif: BifValues


def _measure(intervals) -> float:
    return sum(hi - lo for lo, hi in intervals)


def _set_cos_le(c: float):
    """{t in [0, 2*pi] : cos t <= c} as closed intervals."""
    if c >= 1.0:
        return ((0.0, TWO_PI),)
    if c <= -1.0:
        return ()
    t = math.acos(c)
    return ((t, TWO_PI - t),)


def _set_cos_ge(c: float):
    """{t in [0, 2*pi] : cos t >= c} as closed intervals."""
    if c <= -1.0:
        return ((0.0, TWO_PI),)
    if c >= 1.0:
        return ()
    t = math.acos(c)
    return ((0.0, t), (TWO_PI - t, TWO_PI))


def _complement(intervals):
    """[0, 2*pi] minus a union of disjoint sorted intervals."""
    out = []
    cursor = 0.0
    for lo, hi in sorted(intervals):
        if lo > cursor:
            out.append((cursor, lo))
        cursor = max(cursor, hi)
    if cursor < TWO_PI:
        out.append((cursor, TWO_PI))
    return tuple((lo, hi) for lo, hi in out if hi - lo > 0.0)


def partition(x: float, mu: float) -> ZonePartition:
    """Zone partition of v(t) = x - mu*cos(t) over one period.

    mu = 0 yields a single full-interval zone determined by x (with the
    |x| = 1 boundary assigned to the inner zone).
    """
    if mu == 0.0:
        whole = ((0.0, TWO_PI),)
        if x > 1.0:
            return ZonePartition((), whole, ())
        if x < -1.0:
            return ZonePartition((), (), whole)
        return ZonePartition(whole, (), ())
    cu = (x - 1.0) / mu
    cl = (x + 1.0) / mu
    if mu > 0.0:
        upper = _set_cos_le(cu)   # v >= 1  <=>  cos t <= (x-1)/mu
        lower = _set_cos_ge(cl)
    else:
        upper = _set_cos_ge(cu)
        lower = _set_cos_le(cl)
    inner = _complement(list(upper) + list(lower))
    return ZonePartition(inner, upper, lower)


def M_shift(x: float, mu: float, p: Params) -> float:
    """Shifted averaging function, integrated exactly over the partition.

    Each interval contributes slope*(x*len - mu*dsin) + offset*len with the
    (slope, offset) of its zone; odd in x and even in mu.
    """
    part = partition(x, mu)
    a, b = p.a, p.b
    total = 0.0
    for slope, offset, intervals in (
        (b, 0.0, part.inner_intervals),
        (a, b - a, part.upper_intervals),
        (a, a - b, part.lower_intervals),
    ):
        for lo, hi in intervals:
            total += slope * (x * (hi - lo) - mu * (math.sin(hi) - math.sin(lo)))
            total += offset * (hi - lo)
    return total


def M_orig(x: float, mu: float, p: Params) -> float:
    """Unshifted averaging function; its zeros sit at the cycles' t=0 states."""
    return M_shift(x + mu, mu, p)


def Mx(x: float, mu: float, p: Params) -> float:
    """Partial derivative of M_shift in x: 2*pi*a - (a - b)*m(inner set)."""
    part = partition(x, mu)
    return TWO_PI * p.a - (p.a - p.b) * part.inner_measure


def Mmu(x: float, mu: float, p: Params) -> float:
    """Partial derivative of M_shift in mu: (a - b) * integral of cos over
    the inner set."""
    part = partition(x, mu)
    dsin = sum(math.sin(hi) - math.sin(lo) for lo, hi in part.inner_intervals)
    return (p.a - p.b) * dsin


def consistency_identity(x: float, mu: float, p: Params) -> float:
    """Residual of M = x*Mx + mu*Mmu - (a - b)*(m(upper) - m(lower)).

    Must vanish to rounding; a nonzero value flags an interval-algebra bug.
    """
    part = partition(x, mu)
    rhs = (
        x * Mx(x, mu, p)
        + mu * Mmu(x, mu, p)
        - (p.a - p.b) * (part.upper_measure - part.lower_measure)
    )
    return M_shift(x, mu, p) - rhs


def bif_values(p: Params) -> BifValues:
    """The constants c = pi*b/(b - a), mu1 = c/sin c, mu2 = 1/cos(c/2),
    x1 = 1 - mu1*cos c.  Requires a*b < 0."""
    if p.a * p.b >= 0.0:
        raise BadRegimeError("bifurcation constants require a*b < 0")
    c = math.pi * p.b / (p.b - p.a)
    mu1 = c / math.sin(c)
    mu2 = 1.0 / math.cos(0.5 * c)
    x1 = 1.0 - mu1 * math.cos(c)
    # These hold exactly for every a*b < 0.  In doubles they fail when |b/a|
    # or |a/b| is so small that c rounds onto 0 or pi.
    if not (0.0 < c < math.pi and mu2 < mu1 and mu1 * math.cos(c) > p.b / p.a):
        raise InvariantViolatedError(
            f"bifurcation constants unresolved in double precision at a={p.a!r}, "
            f"b={p.b!r}: c={c!r}, mu1={mu1!r}, mu2={mu2!r}")
    return BifValues(c=c, mu1=mu1, mu2=mu2, x1=x1)


def phi(x: float, p: Params) -> float:
    """The unique mu > 0 with M_shift(x, mu) = 0 for x in [0, 1 - b/a].

    Endpoints are returned analytically (phi(0) = mu2, phi(1 - b/a) = -b/a);
    interior values come from Newton on the exact slope Mmu, safeguarded on
    (0, 2*mu1], which is total because the root in mu is unique.
    """
    bv = bif_values(p)
    width = 1.0 - p.b / p.a
    if not 0.0 <= x <= width:
        raise ValueError(f"x must lie in [0, {width}]")
    if x == 0.0:
        return bv.mu2
    if x == width:
        return -p.b / p.a
    hi = 2.0 * bv.mu1
    f_lo = M_shift(x, 0.0, p)  # equals 2*pi*f(x), nonzero inside the interval
    f_hi = M_shift(x, hi, p)
    if f_lo == 0.0 or f_hi == 0.0 or (f_lo > 0.0) == (f_hi > 0.0):
        raise BracketFailedError(f"no sign change in mu on (0, {hi:.3g}] at x={x}")
    return _newton_bracket(lambda mu: (M_shift(x, mu, p), Mmu(x, mu, p)),
                           0.0, hi, f_lo > 0.0, 1e-14)


def phi_branch(p: Params, n_samples: int = 400) -> ZeroSetBranch:
    """Sampled branch {(x, phi(x))} on [0, 1 - b/a]."""
    bv = bif_values(p)
    width = 1.0 - p.b / p.a
    xs = [width * i / (n_samples - 1) for i in range(n_samples)]
    xs[-1] = width
    samples = tuple((x, phi(x, p)) for x in xs)
    return ZeroSetBranch(samples=samples, bif=bv)


def count_simple_zeros(mu: float, p: Params) -> int:
    """Number of simple zeros of x -> M_shift(x, mu); 3, 5 or 1 by regime.

    Refuses forcing amplitudes within 1e-9 of the bifurcation values, where
    zeros are not simple and the count is undefined.
    """
    bv = bif_values(p)
    am = abs(mu)
    if abs(am - bv.mu1) < 1e-9 or abs(am - bv.mu2) < 1e-9:
        raise AtBifurcationError(
            f"|mu|={am!r} sits on a bifurcation value (mu1={bv.mu1!r}, mu2={bv.mu2!r})"
        )
    width = 1.0 - p.b / p.a
    bound = width + 1.0
    exact, brackets = scan_roots(
        lambda xs: np.array([M_shift(x, mu, p) for x in xs.tolist()]), -bound, bound, 4096)
    return len(exact) + len(brackets)


def zero_set(p: Params, n_samples: int = 400):
    """Zero set of M_shift as labelled polylines.

    Emits the mu-axis {x = 0}, the vertical edges {x = +-(1 - b/a),
    0 <= +-mu <= -b/a}, and the four symmetric copies of the phi branch
    under (x, mu) -> (-x, mu) and (x, mu) -> (x, -mu).
    """
    branch = phi_branch(p, n_samples)
    bv = branch.bif
    width = 1.0 - p.b / p.a
    edge_top = -p.b / p.a
    n_edge = max(2, n_samples // 8)
    n_axis = max(2, n_samples // 4)
    mu_span = bv.mu1 + 1.0

    axis = [(0.0, -mu_span + 2.0 * mu_span * i / (n_axis - 1)) for i in range(n_axis)]
    edge = [(width, edge_top * i / (n_edge - 1)) for i in range(n_edge)]
    base = list(branch.samples)

    def s1(points):
        return [(-x, m) for x, m in points]

    def s2(points):
        return [(x, -m) for x, m in points]

    return [
        ("axis", axis),
        ("branch_pp", base),
        ("branch_np", s1(base)),
        ("branch_pn", s2(base)),
        ("branch_nn", s2(s1(base))),
        ("edge_pp", edge),
        ("edge_np", s1(edge)),
        ("edge_pn", s2(edge)),
        ("edge_nn", s2(s1(edge))),
    ]
