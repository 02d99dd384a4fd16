import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from satcycles import (
    INNER,
    BracketFailedError,
    CrossingSequence,
    NoConvergenceError,
    Params,
    advance,
    displacement_d,
    dP,
    extract_crossings,
    find_all_cycles,
    g_aux,
    lambda_of_x,
    residual_3z,
    residual_direct,
    sample,
    solve_crossing_system,
)
from satcycles import crossings
from satcycles.crossings import _bias_derivative, _residual_direct_raw
from satcycles.exactflow import ZoneCoeffs, linear_zone_flow

TWO_PI = 2.0 * math.pi


@pytest.fixture(scope="module")
def three_zonal_case():
    p = Params(a=-0.05, b=0.05, mu=1.5)
    recs = [r for r in find_all_cycles(p) if r.zonal_type == "three_zonal"]
    assert recs, "expected at least one three-zonal cycle"
    cs = extract_crossings(p, recs[0].x0)
    assert cs is not None
    return p, recs[0], cs


class TestGAux:
    def test_zero_slope_collapses_to_offset(self):
        # the forcing term carries a factor s, so s = 0 leaves only b
        p = Params(a=-1, b=1, mu=2)
        for t in (0.0, 0.7, 2.5):
            assert g_aux(t, 0.0, p) == pytest.approx(p.b, abs=1e-14)

    def test_worked_value(self):
        p = Params(a=-1, b=1, mu=2)
        assert g_aux(0.0, 1.0, p) == pytest.approx(2.0, abs=1e-14)

    def test_periodic_in_t(self):
        p = Params(a=-0.3, b=0.8, mu=1.7)
        rng = np.random.default_rng(5)
        for t, s in rng.uniform(-3, 3, (20, 2)):
            assert g_aux(t + TWO_PI, s, p) == pytest.approx(g_aux(t, s, p), abs=1e-12)


class TestCrossingSequence:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            CrossingSequence(1.0, 0.5, 2.0, 3.0)
        with pytest.raises(ValueError):
            CrossingSequence(1.0, 2.0, 3.0, 1.0 + TWO_PI)
        with pytest.raises(ValueError):
            CrossingSequence(-0.1, 0.5, 2.0, 3.0)


class TestResiduals:
    def test_direct_residual_vanishes_on_extracted_cycle(self, three_zonal_case):
        p, _, cs = three_zonal_case
        assert np.max(np.abs(residual_direct(p, cs))) < 1e-8

    def test_rearranged_residual_vanishes_on_direct_solutions(self, three_zonal_case):
        # audit of the exponential form: each component is a nonzero multiple
        # of the corresponding direct transition equation, so it must vanish
        # wherever the direct system does
        p, _, cs = three_zonal_case
        assert np.max(np.abs(residual_3z(p, cs))) < 1e-6

    def test_solution_times_touch_the_boundaries(self, three_zonal_case):
        from satcycles import advance, sample

        p, rec, cs = three_zonal_case
        traj = advance(p, 0.0, rec.x0, 2 * TWO_PI)
        for t, level in ((cs.t1, 1.0), (cs.t2, -1.0), (cs.t3, -1.0), (cs.t4, 1.0)):
            assert sample(p, traj, [t])[0] == pytest.approx(level, abs=1e-8)

    def test_symmetric_solution_has_antiperiodic_times(self, three_zonal_case):
        p, rec, cs = three_zonal_case
        assert rec.symmetric
        assert cs.t3 - cs.t1 == pytest.approx(math.pi, abs=1e-8)
        assert cs.t4 - cs.t2 == pytest.approx(math.pi, abs=1e-8)

    def test_symmetric_times_pair_residual_magnitudes(self):
        # with t3 = t1 + pi and t4 = t2 + pi (and lam = 0), the inner legs are
        # mirror images: |r1| = |r3| and |r2| = |r4| even off a solution
        p = Params(a=-0.05, b=0.05, mu=1.5)
        t1, t2 = 0.9, 2.4
        r = _residual_direct_raw(p, t1, t2, t1 + math.pi, t2 + math.pi)
        assert abs(r[0]) == pytest.approx(abs(r[2]), abs=1e-12)
        assert abs(r[1]) == pytest.approx(abs(r[3]), abs=1e-12)

    def test_invalid_zone_pattern_gives_large_finite_residual(self):
        p = Params(a=-0.05, b=0.05, mu=0.3)
        r = residual_direct(p, CrossingSequence(0.5, 2.0, 3.5, 5.0))
        assert np.all(np.isfinite(r))
        assert np.max(np.abs(r)) > 1e-3

    def test_residuals_periodic_under_full_shift(self):
        p = Params(a=-0.05, b=0.05, mu=1.5)
        t = (0.9, 2.4, 4.1, 5.6)
        shifted = tuple(v + TWO_PI for v in t)
        assert _residual_direct_raw(p, *t) == pytest.approx(
            _residual_direct_raw(p, *shifted), abs=1e-10
        )

    def test_perturbing_one_time_moves_a_residual(self, three_zonal_case):
        p, _, cs = three_zonal_case
        bumped = CrossingSequence(cs.t1, cs.t2 + 1e-3, cs.t3, cs.t4, lam=cs.lam)
        assert np.max(np.abs(residual_direct(p, bumped))) > 1e-6


class TestSolver:
    def test_converges_quickly_from_extracted_seed(self, three_zonal_case, monkeypatch):
        p, _, cs = three_zonal_case
        monkeypatch.setattr(crossings, "NEWTON_MAX_ITER", 5)
        sol = solve_crossing_system(p, cs)
        assert np.max(np.abs(residual_direct(p, sol))) < 1e-10

    def test_idempotent_on_its_own_output(self, three_zonal_case):
        p, _, cs = three_zonal_case
        sol = solve_crossing_system(p, cs)
        again = solve_crossing_system(p, sol)
        assert np.max(np.abs(sol.as_array() - again.as_array())) <= 1e-12

    def test_local_basin(self, three_zonal_case):
        p, _, cs = three_zonal_case
        sol = solve_crossing_system(p, cs)
        bumped = CrossingSequence(cs.t1 + 1e-2, cs.t2 - 1e-2, cs.t3 + 1e-2, cs.t4 - 1e-2)
        sol2 = solve_crossing_system(p, bumped)
        assert np.max(np.abs(sol.as_array() - sol2.as_array())) < 1e-9

    @pytest.mark.parametrize("a, mu, x", [(-0.05, 1.5, -1.5), (-1.0, 2.5, -1.5),
                                          (-0.02, 2.3, -3.5), (-0.02, 2.3, -1.0)])
    def test_closed_form_step_and_multiplier(self, a, mu, x):
        # at biased three-zonal cycles: prod(A)/prod(B) is the multiplier, and
        # at kicked sequences the closed-form step solves a central-difference
        # Jacobian (step 1e-5: the lower leg's fields are about 0.01 there, so
        # the Jacobian's condition number reaches 1e5 and rounding at a 1e-7
        # step costs 1e-4)
        p = Params(a=a, b=-a, mu=mu)
        q = dataclasses.replace(p, lam=lambda_of_x(p, x))
        t = extract_crossings(q, x).as_array()
        A, B = crossings._leg_fields(q, t.tolist(), _residual_direct_raw(q, *t).tolist())
        assert math.prod(A) / math.prod(B) == pytest.approx(dP(q, x), rel=1e-12)
        rng = np.random.default_rng(11)
        h = 1e-5
        for _ in range(3):
            kicked = t + rng.uniform(-1e-3, 1e-3, 4)
            r = _residual_direct_raw(q, *kicked)
            jac = np.column_stack([(_residual_direct_raw(q, *(kicked + e))
                                    - _residual_direct_raw(q, *(kicked - e))) / (2.0 * h)
                                   for e in h * np.eye(4)])
            step = crossings._newton_step(q, kicked.tolist(), r.tolist())
            assert step == pytest.approx(np.linalg.solve(jac, -r), rel=1e-4)

    def test_zero_end_field_is_a_singular_jacobian(self):
        # b = mu = lam = 0: the inner field vanishes, so the first leg's end
        # field B_1 is an exact zero pivot
        with pytest.raises(NoConvergenceError, match="singular Jacobian"):
            solve_crossing_system(Params(a=-1, b=0, mu=0), CrossingSequence(0.5, 2.0, 3.5, 5.0))

    def test_infeasible_parameters_do_not_converge(self):
        p = Params(a=-0.05, b=0.05, mu=0.1)
        with pytest.raises(NoConvergenceError):
            solve_crossing_system(p, CrossingSequence(0.5, 2.0, 3.5, 5.0))


class TestLambdaOfX:
    def test_zero_on_existing_cycles(self):
        p = Params(a=-1, b=1, mu=1.2)
        for x0 in (-2.6, -0.6, 1.4):
            assert abs(lambda_of_x(p, x0)) < 1e-9

    def test_defining_property_in_the_linear_case(self):
        p = Params(a=-1, b=-1, mu=1)
        for x in (-1.5, 0.2, 2.0):
            lam = lambda_of_x(p, x)
            biased = dataclasses.replace(p, lam=lam)
            assert abs(displacement_d(biased, x)) < 1e-10

    def test_newton_on_the_exact_bias_slope(self, monkeypatch):
        # d(0), then Newton on (d, dd/dlam) inside the bracket the slope
        # bounds give from d(0) alone: 4 or 5 period integrations here
        calls = []

        def counting(p, tau, x, t_end):
            calls.append(p.lam)
            return advance(p, tau, x, t_end)

        monkeypatch.setattr(crossings, "advance", counting)
        p = Params(a=-0.05, b=0.05, mu=1.5)
        for x in (-3.0, -2.2, -1.5, -0.6, 0.0):
            calls.clear()
            lam = lambda_of_x(p, x)
            assert len(calls) <= 6
            assert abs(displacement_d(dataclasses.replace(p, lam=lam), x)) < 1e-13

    @pytest.mark.parametrize("x", [60.0, -60.0, 1000.0, -1000.0])
    def test_roots_far_from_zero_bias(self, x):
        # |lam| here is about |x|, beyond any fixed probe bound: at x = 60
        # the root is 58.6
        p = Params(a=-1, b=1, mu=1.2)
        lam = lambda_of_x(p, x)
        assert abs(displacement_d(dataclasses.replace(p, lam=lam), x)) <= 1e-10 * abs(x)

    @pytest.mark.parametrize("p", [Params(a=0, b=0, mu=1.3), Params(a=-1, b=1, mu=1.3, eps=0)])
    def test_degenerate_slopes_give_zero_bias(self, p):
        # x' = mu*sin(t) + lam: d = 2*pi*lam, so the bracket is one point
        for x in (-2.0, 0.3, 4.0):
            assert lambda_of_x(p, x) == 0.0

    @pytest.mark.parametrize("x", [0.3, 0.9])
    def test_unresolvable_slope_is_refused(self, x):
        # dd/dlam ~ exp(2*pi*200) rounds every Newton step to nothing; the
        # lam it stops at is no root (|d| of 0.56 and 1.23)
        with pytest.raises(NoConvergenceError, match=r"x=0\.[39].*\|d\| = "):
            lambda_of_x(Params(a=200, b=-1, mu=1), x)

    def test_saturated_displacement_is_refused(self):
        # the outer flow from x = 3 leaves the doubles: d(0) is inf
        with pytest.raises(BracketFailedError):
            lambda_of_x(Params(a=200, b=-1, mu=1), 3.0)

    @settings(deadline=None)
    @given(st.floats(-2, 2), st.floats(-2, 2), st.floats(0, 3), st.floats(0, 1.5),
           st.floats(-2, 2), st.floats(-4, 4).filter(lambda v: abs(v) != 1.0))
    def test_bias_slope_bounds_and_bracket(self, a, b, mu, eps, lam, x):
        # y' = p(t)*y + 1 from 0 with p(t) in {a_eff, b_eff} keeps y >= 0, so
        # S(min) <= dd/dlam <= S(max); the bracket lambda_of_x takes from
        # d(0) then holds the root, up to the rounding of d (a few ulps of
        # the flow's largest term).  Below |d(0)| = 1e-10 it takes none.
        # The draws leave out starts on +-1, a known flow defect pinned by
        # an xfail test in test_exactflow.py.
        p = Params(a=a, b=b, mu=mu, eps=eps, lam=lam)
        s_lo, s_hi = (linear_zone_flow(ZoneCoeffs(s, 1.0), 0.0, 0.0, 0.0, TWO_PI)
                      for s in sorted((p.a_eff, p.b_eff)))
        slope = _bias_derivative(p, advance(p, 0.0, x, TWO_PI))
        assert s_lo * (1.0 - 1e-12) <= slope <= s_hi * (1.0 + 1e-12)
        d0 = displacement_d(dataclasses.replace(p, lam=0.0), x)
        if not abs(d0) >= 1e-10:
            return
        lo, hi = sorted((-d0 / s_hi, -d0 / s_lo))
        d_lo = displacement_d(dataclasses.replace(p, lam=lo - 1e-9 * abs(lo)), x)
        d_hi = displacement_d(dataclasses.replace(p, lam=hi + 1e-9 * abs(hi)), x)
        growth = math.exp(TWO_PI * max(p.a_eff, p.b_eff, 0.0))
        size = (1.0 + abs(x) + mu + abs(lo) + abs(hi)) * growth
        if math.isfinite(d_lo) and math.isfinite(d_hi):
            assert d_lo <= 1e-13 * size and d_hi >= -1e-13 * size

    def test_continuity_on_a_scan_grid(self):
        p = Params(a=-1, b=1, mu=1.3)
        for x in (-0.3, 0.4, 1.1):
            assert abs(lambda_of_x(p, x + 1e-6) - lambda_of_x(p, x)) < 1e-3

    @pytest.mark.parametrize("a, mu, x", [
        (-0.07207379903571451, 2.0917195669534383, -3.1792970002221335),
        (-0.09894471965899698, 1.5227224043008563, -2.0396266857983134),
    ])
    def test_cycle_stays_inside_its_inner_segments(self, a, mu, x):
        # these cycles graze x = 1 with excursions of 4e-6 and 1e-5 that fit
        # between two contact-scan samples; missing them leaves the inner
        # slope on where the outer one applies
        p = Params(a=a, b=-a, mu=mu)
        biased = dataclasses.replace(p, lam=lambda_of_x(p, x))
        traj = advance(biased, 0.0, x, TWO_PI)
        for seg in traj.segments:
            if seg.zone != INNER:
                continue
            ts = np.linspace(seg.t_start, seg.t_end, 4001)
            assert np.max(np.abs(sample(biased, traj, ts))) <= 1.0 + 1e-12

    def test_extremum_flags_a_fold(self):
        # ternary search for the interior minimum of lam(x); the biased
        # equation there must carry a nonhyperbolic cycle
        p = Params(a=-1, b=1, mu=1.3)
        lo, hi = -0.4, 0.4
        for _ in range(35):
            m1 = lo + (hi - lo) / 3.0
            m2 = hi - (hi - lo) / 3.0
            if lambda_of_x(p, m1) <= lambda_of_x(p, m2):
                hi = m2
            else:
                lo = m1
        x_star = 0.5 * (lo + hi)
        lam_star = lambda_of_x(p, x_star)
        biased = dataclasses.replace(p, lam=lam_star)
        assert abs(displacement_d(biased, x_star)) < 1e-9
        assert abs(dP(biased, x_star) - 1.0) < 1e-4
