import pytest

from satcycles.gridscan import bisect_root


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

