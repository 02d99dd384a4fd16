import numpy as np
import pytest

from satcycles.gridscan import bisect_root, scan_roots


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


class TestBisectRoot:
    def test_stops_when_the_bracket_is_one_ulp_wide(self):
        # near 1e4 one ulp (1.8e-12) exceeds xtol = 1e-12
        fun, calls = counted(lambda x: (x - 10000.3) + 1e-13, 500)
        root = bisect_root(fun, 9000.0, 11000.0, False)
        assert root == pytest.approx(10000.3, abs=4e-12)
        assert calls[0] < 100



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
