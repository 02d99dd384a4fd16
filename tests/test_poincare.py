import dataclasses
import math
import re

import numpy as np
import pytest

from satcycles import (
    CenterRegimeError,
    CountUnstableError,
    InvariantViolatedError,
    Params,
    ZoneCoeffs,
    advance,
    analytic_one_zone_cycles,
    classify_regime,
    displacement_d,
    dP,
    find_all_cycles,
    half_Q,
    linear_zone_flow,
    poincare_P,
)
from satcycles import poincare
from satcycles.gridscan import scan_roots

TWO_PI = 2.0 * math.pi


class TestMaps:
    def test_global_center_is_identity(self):
        p = Params(a=0, b=0, mu=1)
        for x in np.linspace(-4, 4, 9):
            assert poincare_P(p, float(x)) == pytest.approx(x, abs=1e-10)

    def test_periodic_point_of_mixed_regime(self):
        p = Params(a=-1, b=1, mu=1.2)
        assert poincare_P(p, 1.4) == pytest.approx(1.4, abs=1e-8)
        assert displacement_d(p, 1.4) == pytest.approx(0.0, abs=1e-8)

    def test_linear_case_matches_closed_form(self):
        # a = b collapses to one linear zone; P(0) from the closed form
        p = Params(a=-1, b=-1, mu=1)
        expected = linear_zone_flow(ZoneCoeffs(-1.0, 0.0), 1.0, 0.0, 0.0, TWO_PI)
        assert poincare_P(p, 0.0) == pytest.approx(expected, abs=1e-10)

    def test_half_map_values(self):
        assert half_Q(Params(a=0, b=0, mu=1), 0.0) == pytest.approx(-2.0, abs=1e-12)
        p = Params(a=-1, b=1, mu=1.2)
        assert half_Q(p, -0.6) == pytest.approx(-0.6, abs=1e-8)

    def test_half_map_strictly_decreasing(self):
        p = Params(a=-1, b=1, mu=1.5)
        xs = np.linspace(-5, 5, 101)
        qs = [half_Q(p, float(x)) for x in xs]
        assert all(q0 > q1 for q0, q1 in zip(qs, qs[1:]))

    def test_far_field_displacement_sign(self):
        # a = 0, b = -1: trajectories confined below -1 drift up by 2*pi*(a-b)
        p = Params(a=0, b=-1, mu=0.5)
        assert displacement_d(p, -10.0) == pytest.approx(TWO_PI, abs=1e-10)
        assert displacement_d(p, 10.0) == pytest.approx(-TWO_PI, abs=1e-10)


class TestDerivative:
    def test_outer_and_inner_extremes(self):
        p = Params(a=-1, b=1, mu=1.2)
        assert dP(p, 1.4) == pytest.approx(math.exp(-TWO_PI), rel=1e-10)
        assert dP(p, -0.6) == pytest.approx(math.exp(TWO_PI), rel=1e-10)
        assert advance(p, 0.0, -0.6, TWO_PI).a_in_measure == pytest.approx(TWO_PI, abs=1e-10)

    def test_matches_finite_differences(self):
        p = Params(a=-1, b=1, mu=1.5)
        rng = np.random.default_rng(7)
        h = 1e-5
        for x in rng.uniform(-3, 3, 20):
            fd = (poincare_P(p, x + h) - poincare_P(p, x - h)) / (2 * h)
            assert dP(p, x) == pytest.approx(fd, rel=1e-4)

    @pytest.mark.parametrize("a, b, mu, lam, x, zonal_type", [
        (-1, 1, 1.2, 0.1, -2.6, "one_lower"),
        (1, -0.5, 0.3, 0.05, 0.0, "one_inner"),
        (-1, 1, 1.2, 0.1, 0.5, "two_zonal"),
        (2, -1, 1.5, 0.3, -0.2, "two_zonal"),
        (-1, 1, 2.5, 0.1, 0.0, "three_zonal"),
        (-1, 0, 1.5, 0.1, 0.2, "three_zonal"),  # degenerate inner slope
    ])
    def test_bias_derivative_matches_central_differences(self, a, b, mu, lam, x, zonal_type):
        p = Params(a=a, b=b, mu=mu, lam=lam)
        traj = advance(p, 0.0, x, TWO_PI)
        assert poincare._zonal_type(traj) == zonal_type
        h = 1e-6
        fd = (poincare_P(dataclasses.replace(p, lam=lam + h), x)
              - poincare_P(dataclasses.replace(p, lam=lam - h), x)) / (2 * h)
        assert poincare._bias_derivative(p, traj) == pytest.approx(fd, rel=1e-8)


class TestRegime:
    def test_tags(self):
        assert classify_regime(Params(a=0, b=0, mu=7)).tag == "global_center"
        assert classify_regime(Params(a=2, b=0, mu=0.5)).tag == "center_no_cycles"
        assert classify_regime(Params(a=2, b=0, mu=1.5)).tag == "unique_cycle"
        assert classify_regime(Params(a=-1, b=-2, mu=3)).tag == "unique_cycle"
        assert classify_regime(Params(a=-1, b=1, mu=1.2)).tag == "mixed_sign"

    def test_eps_zero_degenerates_to_center(self):
        assert classify_regime(Params(a=-1, b=1, mu=1, eps=0)).tag == "global_center"


class TestAnalyticCycles:
    def test_three_one_zonal_cycles(self):
        p = Params(a=-1, b=1, mu=1.2)
        recs = analytic_one_zone_cycles(p)
        assert [r.zonal_type for r in recs] == ["one_lower", "one_inner", "one_upper"]
        assert [r.x0 for r in recs] == pytest.approx([-2.6, -0.6, 1.4], abs=1e-12)
        assert [r.stability for r in recs] == ["attracting", "repelling", "attracting"]
        assert [r.symmetric for r in recs] == [False, True, False]
        for r in recs:
            assert abs(displacement_d(p, r.x0)) < 1e-8

    def test_above_both_bounds_is_empty(self):
        assert analytic_one_zone_cycles(Params(a=-1, b=1, mu=1.5)) == []

    def test_boundary_amplitude_keeps_all_three(self):
        recs = analytic_one_zone_cycles(Params(a=-1, b=1, mu=math.sqrt(2)))
        assert len(recs) == 3


class TestFindAllCycles:
    def test_matches_analytic_records(self):
        p = Params(a=-1, b=1, mu=1.2)
        recs = find_all_cycles(p)
        analytic = analytic_one_zone_cycles(p)
        assert len(recs) == 3
        for found, known in zip(recs, analytic):
            assert found.x0 == pytest.approx(known.x0, abs=1e-9)
            assert found.zonal_type == known.zonal_type
            assert found.stability == known.stability
            assert found.multiplier == pytest.approx(known.multiplier, rel=1e-8)

    def test_single_attracting_cycle(self):
        recs = find_all_cycles(Params(a=-1, b=-2, mu=5))
        assert len(recs) == 1
        assert recs[0].stability == "attracting"
        assert recs[0].symmetric

    def test_five_cycles_in_the_window(self):
        recs = find_all_cycles(Params(a=-0.05, b=0.05, mu=1.5))
        assert len(recs) == 5

    def test_count_at_zero_bias_is_never_even(self):
        # next to the pitchfork at eps 0.05 the three three-zonal cycles
        # (-1.418641, -1.41397, -1.409298) lie within one scan cell; at
        # lam = 0 Q pairs the non-symmetric cycles, so 4 is refused
        try:
            recs = find_all_cycles(Params(a=-1, b=1, mu=1.41512, eps=0.05))
        except CountUnstableError as exc:
            assert re.match(r"4 cycles at lam = 0.*x_s=-1\.4139.*roots \[", str(exc))
        else:
            assert len(recs) == 5

    def test_center_regimes_refuse(self):
        with pytest.raises(CenterRegimeError):
            find_all_cycles(Params(a=0, b=0, mu=1))
        with pytest.raises(CenterRegimeError):
            find_all_cycles(Params(a=2, b=0, mu=0.5))

    def test_nonneg_product_yields_unique_symmetric_cycle(self):
        for params in (Params(a=-1, b=-2, mu=5), Params(a=1, b=2, mu=0.7),
                       Params(a=0, b=-1, mu=0.5), Params(a=2, b=0, mu=1.5)):
            recs = find_all_cycles(params)
            assert len(recs) == 1
            assert recs[0].symmetric

    def test_every_cycle_closes_over_two_periods(self):
        p = Params(a=-1, b=1, mu=1.2)
        for rec in find_all_cycles(p):
            assert abs(displacement_d(p, rec.x0)) < 1e-9
            back = advance(p, 0.0, rec.x0, 2 * TWO_PI).final_state
            assert back == pytest.approx(rec.x0, abs=1e-7)

    def test_stability_bands_are_consistent(self):
        for rec in find_all_cycles(Params(a=-1, b=1, mu=1.2)):
            if rec.stability == "attracting":
                assert rec.multiplier < 1 - 1e-7
            elif rec.stability == "repelling":
                assert rec.multiplier > 1 + 1e-7
            assert rec.symmetric == (abs(half_Q(Params(a=-1, b=1, mu=1.2), rec.x0) - rec.x0) < 1e-9)


    def test_each_cycle_is_integrated_once_after_refinement(self, monkeypatch):
        # the scan integrates each of its points once, then the refinement
        # runs; a refined root that the Newton refinement evaluated keeps its
        # trajectory for the record, so no x is integrated over a period twice
        scan, runs = [], []

        def counting(p, tau, x, t_end):
            if t_end == TWO_PI:
                runs.append(x)
            return advance(p, tau, x, t_end)

        def scanned(p, x):
            scan.append(x)
            return displacement_d(p, x)

        monkeypatch.setattr(poincare, "advance", counting)
        monkeypatch.setattr(poincare, "displacement_d", scanned)
        assert len(find_all_cycles(Params(a=-1, b=1, mu=1.2))) == 3
        assert runs[:len(scan)] == scan and len(set(scan)) == len(scan)
        # the slope bound drops most cells at once: far fewer points than
        # a 4096-point grid
        assert len(scan) < 200
        refinement = runs[len(scan):]
        assert refinement and len(refinement) == len(set(refinement))
        # Newton on the exact slope: two or three periods per cycle here;
        # bisection took ~25
        assert len(refinement) <= 9

    def test_root_with_a_huge_multiplier_is_confirmed(self):
        # the one_inner multiplier 8.8e7 moves d by about 2.4e-9 from one
        # double to the next, so no double brings |d| below 1e-9
        p = Params(a=-2.5821594565750727, b=2.9116330230623007, mu=2.334657412326527)
        found = find_all_cycles(p)
        expected = analytic_one_zone_cycles(p)
        assert [r.zonal_type for r in found] == ["one_lower", "one_inner", "one_upper"]
        assert [r.zonal_type for r in expected] == [r.zonal_type for r in found]
        assert [r.x0 for r in found] == pytest.approx([r.x0 for r in expected], abs=1e-12)
        assert found[1].multiplier == pytest.approx(8.813e7, rel=1e-3)

    def test_symmetric_root_outside_the_band_is_an_invariant_violation(self):
        # the symmetric cycle of (-1, 1, 1.2) sits at x0 = -0.6
        with pytest.raises(InvariantViolatedError):
            poincare._symmetric_root(Params(a=-1, b=1, mu=1.2), 0.1)
        assert poincare._symmetric_root(Params(a=-1, b=1, mu=1.2), 3.0) == pytest.approx(
            -0.6, abs=1e-12)


class TestSaturation:
    # a = 200 puts exp(2*pi*a) and the outer-zone flows beyond the doubles
    def test_multipliers_saturate_to_inf(self):
        p = Params(a=200, b=-1, mu=1)
        assert dP(p, 3.0) == math.inf
        records = analytic_one_zone_cycles(p)
        assert [r.zonal_type for r in records] == ["one_lower", "one_inner", "one_upper"]
        assert records[0].multiplier == records[2].multiplier == math.inf

    def test_diverging_rows_add_no_cycle(self):
        # a*b > 0: exactly one cycle, the inner one; the rows that diverge
        # to +inf and -inf must not bracket a second one
        records = find_all_cycles(Params(a=120, b=1, mu=1))
        assert [(r.zonal_type, r.symmetric) for r in records] == [("one_inner", True)]


def test_scan_instability_is_reported():
    # no slope bound clears a cell with a nan end: the cell next to the nan
    # region is halved down to adjacent doubles and named
    with pytest.raises(CountUnstableError, match=r"\[0\.4, 0\.4000000000000001\]"):
        scan_roots(lambda x: math.nan if 0.4 < x < 0.6 else x - 0.2, 0.0, 1.0, (1.0, 1.0))
