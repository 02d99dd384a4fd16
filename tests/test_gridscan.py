import math

import numpy as np
import pytest

from satcycles.gridscan import _newton_bracket, scan_roots


class _EvalLimit(Exception):
    pass


def counted(fun, limit):
    calls = [0]

    def wrapper(x):
        calls[0] += 1
        if calls[0] > limit:
            raise _EvalLimit(f"more than {limit} evaluations")
        return fun(x)

    return wrapper, calls


def halvings(width, xtol):
    """Evaluations plain bisection makes to shrink a bracket ``width`` wide
    to at most ``xtol``."""
    return math.ceil(math.log2(width / xtol))


def _with_slope(value, slope):
    return lambda x: (value(x), slope(x) if callable(slope) else slope)


class TestNewtonBracket:
    def test_converges_in_fewer_steps_than_bisection(self):
        fun, calls = counted(_with_slope(lambda x: math.exp(x) - 2.0, math.exp), 100)
        root = _newton_bracket(fun, 0.0, 3.0, False, 1e-12)
        assert root == pytest.approx(math.log(2.0), abs=1e-15)
        assert calls[0] < halvings(3.0, 1e-12) / 4

    @pytest.mark.parametrize("slope", [0.0, math.inf, -math.inf, math.nan],
                             ids=["fold", "inf", "-inf", "nan"])
    def test_unusable_slope_bisects_to_xtol(self, slope):
        # every step is a bisection: at most one evaluation more than plain
        # bisection (the end of its last step), and a root within xtol
        fun, calls = counted(_with_slope(lambda x: 0.3 - x, slope), 100)
        root = _newton_bracket(fun, 0.0, 1.0, True, 1e-12)
        assert root == pytest.approx(0.3, abs=1e-12)
        assert calls[0] <= halvings(1.0, 1e-12) + 1

    @pytest.mark.parametrize("saturated", [-math.inf, math.nan], ids=["inf", "nan"])
    def test_saturated_value_bisects_then_newton_resumes(self, saturated):
        # the first point (0.5) saturates; a nan counts as non-positive, so
        # both move the upper end of the bracket
        fun, calls = counted(_with_slope(lambda x: 0.3 - x if x < 0.5 else saturated, -1.0), 100)
        assert _newton_bracket(fun, 0.0, 1.0, True, 1e-12) == pytest.approx(0.3, abs=1e-15)
        assert 2 < calls[0] < 6

    def test_root_within_an_ulp_of_the_bracket_end(self):
        # every Newton step lands on lo = 1.4 - 1 ulp, the double nearest the
        # root; rejecting steps onto the bracket ends bisects 25 times
        fun, calls = counted(_with_slope(lambda x: -((x - 1.4) + 1.5e-16), -1.0), 100)
        lo = 1.3999999999999997
        assert _newton_bracket(fun, lo, 1.4000325600325598, True, 1e-12) == lo
        assert calls[0] <= 3

    def test_step_that_rounds_to_the_point_stops_there(self):
        fun, calls = counted(_with_slope(lambda x: 0.3 - x, -1e300), 100)
        assert _newton_bracket(fun, 0.0, 1.0, True, 0.0) == 0.5
        assert calls[0] == 1

    def test_stops_when_the_bracket_is_one_ulp_wide(self):
        # xtol = 0 is never met; with a zero slope the bracket is halved
        # down to adjacent doubles
        fun, calls = counted(_with_slope(lambda x: (x - 10000.3) + 1e-13, 0.0), 500)
        root = _newton_bracket(fun, 9000.0, 11000.0, False, 0.0)
        assert root == pytest.approx(10000.3, abs=4e-12)
        assert calls[0] < 100

    def test_returns_the_evaluated_point_with_the_smallest_value(self):
        # within 1e-10 of the root the values are noise: the end of the last
        # (shorter than xtol) step reads -8e-15, worse than the 5e-15 before
        def noisy(x):
            return x - 0.3 if abs(x - 0.3) > 1e-10 else (5e-15 if x >= 0.3 else -8e-15)

        fun, calls = counted(_with_slope(noisy, 1.0), 100)
        assert _newton_bracket(fun, 0.0, 1.0, False, 1e-12) == 0.5 - 0.2
        assert calls[0] == 3


def test_saturated_plateaus_are_not_refined():
    # a run of infinite values (a flow that left the doubles) hides no root
    # pair; only the cells around the sign change and the minimum of |f|
    # get new points
    sizes = []

    def fun(xs):
        sizes.append(xs.size)
        return np.where(xs > 0.5, np.inf, xs - 0.23)

    exact, brackets = scan_roots(fun, -1.0, 1.0, 41)
    assert exact == [] and [(lo < 0.23 < hi) for lo, hi, _ in brackets] == [True]
    assert sizes[0] == 41 and max(sizes[1:]) <= 3 * 8


def _scan_roots_pointwise(fun, lo, hi, n, max_refine=5, insert=8):
    """The scan as it was before the array contract: one call per point.
    Reference for the order of the points and for the result."""
    from satcycles.gridscan import _sign_changes, _suspicious_cells

    xs = [float(v) for v in np.linspace(lo, hi, n)]
    fs = [fun(x) for x in xs]
    counts = [sum(map(len, _sign_changes(xs, fs)))]
    while True:
        cells = _suspicious_cells(xs, fs)
        new_xs, new_fs = [], []
        for i in range(len(xs) - 1):
            new_xs.append(xs[i])
            new_fs.append(fs[i])
            if i in cells:
                for x in np.linspace(xs[i], xs[i + 1], insert + 2)[1:-1]:
                    new_xs.append(float(x))
                    new_fs.append(fun(float(x)))
        xs, fs = new_xs + [xs[-1]], new_fs + [fs[-1]]
        exact, brackets = _sign_changes(xs, fs)
        counts.append(len(exact) + len(brackets))
        if counts[-1] == counts[-2] or len(counts) > max_refine:
            return exact, brackets


class TestScanRootsArrayContract:
    @pytest.mark.parametrize("fun", [
        lambda x: np.sin(7.0 * x) + 0.999 * np.cos(3.0 * x),
        lambda x: (x - 0.3) * (x - 0.30001) * (x + 0.7),
    ])
    def test_one_call_per_level_on_the_same_points(self, fun):
        calls = []

        def batched(xs):
            assert type(xs) is np.ndarray and xs.ndim == 1
            calls.append(xs.tolist())
            return fun(xs)

        pointwise = []

        def scalar(x):
            pointwise.append(x)
            return float(fun(np.float64(x)))

        result = scan_roots(batched, -2.0, 2.0, 64)
        assert result == _scan_roots_pointwise(scalar, -2.0, 2.0, 64)
        assert calls[0] == np.linspace(-2.0, 2.0, 64).tolist()
        assert [x for level in calls for x in level] == pointwise
        assert len(calls) >= 2
        assert all(level == sorted(level) and level for level in calls)
