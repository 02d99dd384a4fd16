import math

import numpy as np
import pytest

from satcycles import Params, analytic_one_zone_cycles, dP, displacement_d
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


    def test_returns_an_end_of_the_final_bracket(self):
        # a = 200: d reads -inf below the one_lower cycle and about 0.50
        # above it, so no |value| is small; the first point, 4.7e-4 above
        # the cycle, has the smallest one and lies outside the final bracket
        p = Params(a=200, b=-1, mu=1)
        root = _newton_bracket(lambda x: (displacement_d(p, x), dP(p, x) - 1.0),
                               -1.00529296875, -1.0038232421875, False, 1e-12)
        assert root == pytest.approx(analytic_one_zone_cycles(p)[0].x0, abs=1e-12)

def test_saturated_plateaus_are_not_refined():
    # a run of infinite values (a flow that left the doubles) hides no root:
    # its cells are dropped as they come, and only the cell of the sign
    # change is halved, six times from width 2/64 down to 2/4095
    xs = []

    def fun(x):
        xs.append(x)
        return math.inf if x > 0.5 else x - 0.23

    exact, brackets = scan_roots(fun, -1.0, 1.0, (1.0, math.inf))
    assert exact == [] and [(lo < 0.23 < hi) for lo, hi, _ in brackets] == [True]
    assert len(xs) == 65 + 6


class TestScanRootsContract:
    @pytest.mark.parametrize("fun, slopes", [
        (lambda x: math.sin(7.0 * x) + 0.5 * math.cos(3.0 * x), (-8.5, 8.5)),
        # roots -0.7, 0.3 and 0.303: the close pair is three widths apart
        (lambda x: (x - 0.3) * (x - 0.303) * (x + 0.7), (-0.34, 12.1)),
    ], ids=["trigonometric", "close-pair"])
    def test_brackets_every_sign_change_once(self, fun, slopes):
        calls = []

        def scalar(x):
            assert type(x) is float
            calls.append(x)
            return fun(x)

        exact, brackets = scan_roots(scalar, -2.0, 2.0, slopes)
        grid = np.linspace(-2.0, 2.0, 400_000)  # no point on a root
        values = np.array([fun(float(x)) for x in grid])
        roots = grid[:-1][np.sign(values[:-1]) != np.sign(values[1:])]
        assert exact == [] and len(brackets) == len(roots)
        for (lo, hi, lo_pos), root in zip(brackets, roots.tolist()):
            assert lo <= root < hi and hi - lo <= 4.0 / 4095 and lo_pos == (fun(lo) > 0.0)
        assert [b[0] for b in brackets] == sorted(b[0] for b in brackets)
        # each point once, and a small fraction of a 4096-point grid
        assert len(set(calls)) == len(calls) < 200

    def test_exact_zero_on_a_start_point(self):
        # x = 0 is the 33rd of the 65 start points
        assert scan_roots(lambda x: x, -1.0, 1.0, (1.0, 1.0)) == ([0.0], [])
