import math
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from satcycles import Params, advance, displacement_d, f_eval, sat

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


def test_sat_values():
    assert sat(0.5) == 0.5
    assert sat(3.0) == 1.0
    assert sat(-2.0) == -1.0
    assert sat(1.0) == 1.0
    assert sat(-1.0) == -1.0


@given(finite, finite)
def test_sat_is_one_lipschitz(x, y):
    assert abs(sat(x) - sat(y)) <= abs(x - y) + 1e-15


def test_f_eval_branches():
    p = Params(a=-1, b=1, mu=0)
    assert f_eval(p, 0.5) == 0.5
    assert f_eval(p, 2.0) == 0.0
    # both branch formulas agree at the breakpoint
    assert f_eval(p, 1.0) == 1.0
    assert p.a * 1.0 + (p.b - p.a) == p.b * 1.0


@given(st.floats(-3, 3), st.floats(-3, 3), finite)
def test_f_eval_odd(a, b, x):
    p = Params(a=a, b=b, mu=0)
    assert f_eval(p, -x) == -f_eval(p, x)


def test_params_validation():
    with pytest.raises(ValueError):
        Params(a=math.inf, b=0, mu=0)
    with pytest.raises(ValueError):
        Params(a=0, b=math.nan, mu=0)


def test_effective_slopes():
    p = Params(a=-1, b=2, mu=0, eps=0.5)
    assert p.a_eff == -0.5
    assert p.b_eff == 1.0


def test_reduction_maps_cycles_onto_cycles():
    # the shift t -> t + pi maps the mu-equation onto the (-mu)-equation:
    # cycles of the reduced (mu >= 0) equation, pushed through u(pi, 0, .),
    # are cycles of the original equation with matching multipliers
    from satcycles import find_all_cycles

    original = Params(a=-1, b=1, mu=-1.2)
    reduced = replace(original, mu=-original.mu)
    recs_red = find_all_cycles(reduced)
    recs_orig = find_all_cycles(original)
    assert len(recs_red) == len(recs_orig) == 3
    for rec in recs_red:
        mapped = advance(reduced, 0.0, rec.x0, math.pi).final_state
        assert abs(displacement_d(original, mapped)) < 1e-8
        partner = min(recs_orig, key=lambda r: abs(r.x0 - mapped))
        assert abs(partner.x0 - mapped) < 1e-7
        assert abs(partner.multiplier - rec.multiplier) < 1e-6 * rec.multiplier
