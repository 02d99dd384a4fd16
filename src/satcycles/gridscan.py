"""Root isolation on a slope bound, and bracketed Newton refinement.

Shared by the cycle finder and the Melnikov zero counter.  ``scan_roots``
brackets every sign change of a scalar function from a bound on its slope:
a cell whose ends have the same sign is dropped only when the bound keeps
the function away from zero across it, so a cell is never dropped for
looking smooth at some sampling density.  Cells the bound cannot clear are
bisected; one that stays undecided is reported, never silently resolved.
``_newton_bracket`` refines one bracket on an exact slope; it is private,
so wrappers of the public names (perfbench's tracer) do not see it, and it
is the package's one refiner: cycle roots, the symmetric root, phi,
lambda_of_x, and contact and extremum times.
"""

from __future__ import annotations

import math

from .errors import CountUnstableError

__all__ = ["scan_roots"]

# Equal cells [lo, hi] starts from.
START_CELLS = 64
# A cell near a root is bisected down to (hi - lo) / RESOLUTION_CELLS, the
# distance at which two roots are told apart.
RESOLUTION_CELLS = 4095
# |f| at or below this may be rounding: a cell is dropped by its slope bound
# only when the bound keeps |f| above it.
SCAN_MARGIN = 1e-9


def _newton_bracket(fun, lo, hi, lo_pos, xtol):
    """Root of ``fun`` in [lo, hi] (positive at lo iff ``lo_pos``), where
    ``fun(x)`` returns (value, slope).  From the midpoint, it takes a Newton
    step when the slope is finite and nonzero and the step lands in the
    closed bracket at most half as long as the step before the previous one
    (as rtsafe does), and bisects otherwise.  It stops at an exact zero, at a
    step that rounds to the current point, after evaluating the end of a step
    shorter than ``xtol``, or at a bracket ``xtol`` or one ulp wide, and
    returns the end of the final bracket with the smaller |value| among the
    ends it evaluated."""
    x, last, before = 0.5 * (lo + hi), hi - lo, hi - lo
    f_lo = f_hi = math.inf  # |value| at each end; inf until evaluated
    while True:
        f, slope = fun(x)
        if (f > 0.0) == lo_pos:
            lo, f_lo = x, abs(f)
        else:
            hi, f_hi = x, abs(f)
        mid = 0.5 * (lo + hi)
        if f == 0.0 or last < xtol or hi - lo <= xtol or not lo < mid < hi:
            break
        step = f / slope if 0.0 != abs(slope) < math.inf else math.inf
        nxt = x - step
        if nxt == x:
            break
        if not (lo <= nxt <= hi and 2.0 * abs(step) <= before):
            nxt = mid
        before, last = last, abs(nxt - x)
        x = nxt
    return lo if f_lo < f_hi else hi


def _least_envelope(f_l, f_r, h, s_lo, s_hi):
    """Least value on a cell of width ``h`` of the lower envelope
    max(f_l + s_lo*(x - x_l), f_r - s_hi*(x_r - x)) of a function with
    slope in [s_lo, s_hi] and values f_l, f_r > 0 at the ends.  An infinite
    bound leaves the one-sided form of the other."""
    if s_hi == math.inf:
        return -math.inf if s_lo == -math.inf else f_l + min(s_lo, 0.0) * h
    if s_lo == -math.inf:
        return f_r - max(s_hi, 0.0) * h
    # The envelope is convex: its least value is at an end or where the
    # two lines cross.
    least = min(max(f_l, f_r - s_hi * h), max(f_l + s_lo * h, f_r))
    if s_lo < s_hi:
        t = (f_r - f_l - s_hi * h) / (s_lo - s_hi)
        if 0.0 < t < h:
            least = min(least, f_l + s_lo * t)
    return least


def scan_roots(fun, lo, hi, slopes):
    """Bracket every sign change of the scalar function ``fun`` on [lo, hi].

    ``slopes`` = (s_lo, s_hi) bounds the derivative, s_lo <= fun' <= s_hi;
    either bound may be infinite.  [lo, hi] starts as START_CELLS equal
    cells, handled from the left:

    - a cell whose end values have the same sign is dropped when the slope
      bound keeps |fun| above SCAN_MARGIN across it (``_least_envelope``);
    - a cell with a sign change, or with an end where |fun| is at most
      min(1, max|s|) * r + SCAN_MARGIN, r = (hi - lo) / RESOLUTION_CELLS,
      is halved down to width r; there a sign change is a bracket and any
      other cell is dropped;
    - any other cell is halved.

    Returns (exact_roots, brackets): the evaluated points where ``fun`` is
    exactly 0, and (x_lo, x_hi, f_lo_positive) triples, both ascending.
    Raises CountUnstableError for a cell still undecided when its midpoint
    is one of its ends (a nan value, say).
    """
    s_lo, s_hi = slopes
    r = (hi - lo) / RESOLUTION_CELLS
    near = min(1.0, max(abs(s_lo), abs(s_hi))) * r + SCAN_MARGIN
    exact, brackets = [], []

    def value(x):
        f = fun(x)
        if f == 0.0:
            exact.append(x)
        return f

    xs = [lo + (hi - lo) * i / START_CELLS for i in range(START_CELLS)] + [hi]
    fs = [value(x) for x in xs]
    stack = [(xs[i], fs[i], xs[i + 1], fs[i + 1]) for i in reversed(range(START_CELLS))]
    while stack:
        x_l, f_l, x_r, f_r = stack.pop()
        h = x_r - x_l
        if math.isnan(f_l) or math.isnan(f_r):
            pass  # no bound clears a nan end
        elif (f_l > 0.0 and f_r < 0.0) or (f_l < 0.0 and f_r > 0.0):
            if h <= r:
                brackets.append((x_l, x_r, f_l > 0.0))
                continue
        elif f_l > 0.0 and f_r > 0.0 and _least_envelope(
                f_l, f_r, h, s_lo, s_hi) > SCAN_MARGIN:
            continue
        elif f_l < 0.0 and f_r < 0.0 and _least_envelope(
                -f_l, -f_r, h, -s_hi, -s_lo) > SCAN_MARGIN:
            continue
        elif abs(f_l) <= near or abs(f_r) <= near:
            if h <= r:
                continue
        mid = 0.5 * (x_l + x_r)
        if not x_l < mid < x_r:
            raise CountUnstableError(
                f"cannot decide whether [{x_l!r}, {x_r!r}] holds a root "
                f"(values {f_l!r}, {f_r!r})")
        f_m = value(mid)
        stack.append((mid, f_m, x_r, f_r))
        stack.append((x_l, f_l, mid, f_m))
    return sorted(exact), brackets
