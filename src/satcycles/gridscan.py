"""Sign-change bracketing on adaptively refined grids.

Shared by the cycle finder and the Melnikov zero counter.  A uniform base
grid is refined around local minima of |f| (where close root pairs hide)
and around existing sign changes until two consecutive refinement levels
agree on the root count; persistent disagreement is reported, never
silently resolved.  ``_newton_bracket`` refines one bracket on an exact
slope; it is private, so wrappers of the public names (perfbench's tracer)
do not see it, and it is the package's one refiner: cycle roots, the
symmetric root, phi, lambda_of_x, and contact and extremum times (which
``exactflow._contact_times`` repeats row-wise for the batched map).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CountUnstableError

__all__ = ["scan_roots"]

# Refinement levels after the base grid before the count is declared
# unstable, and points inserted into each suspicious cell per level.
MAX_REFINE = 5
REFINE_INSERT = 8


def _newton_bracket(fun, lo, hi, lo_pos, xtol):
    """Root of ``fun`` in [lo, hi] (positive at lo iff ``lo_pos``), where
    ``fun(x)`` returns (value, slope).  From the midpoint, it takes a Newton
    step when the slope is finite and nonzero and the step lands in the
    closed bracket at most half as long as the step before the previous one
    (as rtsafe does), and bisects otherwise.  It stops at an exact zero, at a
    step that rounds to the current point, after evaluating the end of a step
    shorter than ``xtol``, or at a bracket ``xtol`` or one ulp wide, and
    returns the evaluated point with the smallest |value|."""
    x, last, before = 0.5 * (lo + hi), hi - lo, hi - lo
    best, best_f = x, math.inf
    while True:
        f, slope = fun(x)
        if abs(f) < best_f:
            best, best_f = x, abs(f)
        if (f > 0.0) == lo_pos:
            lo = x
        else:
            hi = x
        mid = 0.5 * (lo + hi)
        if f == 0.0 or last < xtol or hi - lo <= xtol or not lo < mid < hi:
            return best
        step = f / slope if 0.0 != abs(slope) < math.inf else math.inf
        nxt = x - step
        if nxt == x:
            return best
        if not (lo <= nxt <= hi and 2.0 * abs(step) <= before):
            nxt = mid
        before, last = last, abs(nxt - x)
        x = nxt


def _sign_changes(xs, fs):
    """Exact zeros and (x_lo, x_hi, f_lo_positive) sign-change brackets of a
    sampled function; zero samples are skipped when pairing neighbours."""
    exact = [x for x, f in zip(xs, fs) if f == 0.0]
    brackets = []
    prev_i = None
    for i, f in enumerate(fs):
        if f == 0.0:
            continue
        if prev_i is not None and (f > 0.0) != (fs[prev_i] > 0.0):
            brackets.append((xs[prev_i], xs[i], fs[prev_i] > 0.0))
        prev_i = i
    return exact, brackets


def _suspicious_cells(xs, fs):
    cells = set()
    n = len(xs)
    for i in range(n - 1):
        a, b = fs[i], fs[i + 1]
        if a == 0.0 or b == 0.0 or (a > 0.0) != (b > 0.0):
            cells.add(i)
    # A local minimum of |f| may hide a close root pair; a run of saturated
    # (infinite) values hides none.
    for i in range(1, n - 1):
        m = abs(fs[i])
        if m <= abs(fs[i - 1]) and m <= abs(fs[i + 1]) and m != math.inf:
            cells.add(i - 1)
            cells.add(i)
    return cells


def _refine(fun, xs, fs):
    """Insert REFINE_INSERT points into every suspicious cell; the new points
    go to ``fun`` as one array, in grid order."""
    cells = sorted(_suspicious_cells(xs, fs))
    if not cells:
        return xs, fs
    fresh = [[float(x) for x in np.linspace(xs[i], xs[i + 1], REFINE_INSERT + 2)[1:-1]]
             for i in cells]
    values = iter(fun(np.array([x for pts in fresh for x in pts])).tolist())
    inserted = dict(zip(cells, fresh))
    new_xs, new_fs = [], []
    for i in range(len(xs) - 1):
        new_xs.append(xs[i])
        new_fs.append(fs[i])
        for x in inserted.get(i, ()):
            new_xs.append(x)
            new_fs.append(next(values))
    new_xs.append(xs[-1])
    new_fs.append(fs[-1])
    return new_xs, new_fs


def scan_roots(fun, lo, hi, n):
    """Bracket every sign change of ``fun`` on [lo, hi].

    ``fun`` maps a 1-D ndarray of points to the ndarray of its values.  It
    is called once on the base grid and once per refinement level, on that
    level's new points in ascending order.  Returns (exact_roots, brackets)
    where brackets are (x_lo, x_hi, f_lo_positive) triples.  Raises
    CountUnstableError when the count still changes after MAX_REFINE
    refinement levels.
    """
    grid = np.linspace(lo, hi, n)
    xs, fs = grid.tolist(), fun(grid).tolist()
    exact, brackets = _sign_changes(xs, fs)
    counts = [len(exact) + len(brackets)]
    while True:
        xs, fs = _refine(fun, xs, fs)
        exact, brackets = _sign_changes(xs, fs)
        counts.append(len(exact) + len(brackets))
        if counts[-1] == counts[-2]:
            return exact, brackets
        if len(counts) > MAX_REFINE:
            raise CountUnstableError(
                f"root count did not stabilize across refinements: {counts}"
            )
