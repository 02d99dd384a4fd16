import math

import numpy as np
import pytest

from satcycles import (
    INNER,
    Params,
    ZoneCoeffs,
    ZoneSwitchLimitError,
    advance,
    f_eval,
    linear_zone_flow,
    sample,
    transitions,
    zone_coeffs,
)
from satcycles.exactflow import _next_contact

from oracles import rk4_oracle

TWO_PI = 2.0 * math.pi


class TestLinearZoneFlow:
    def test_pure_forcing_integral(self):
        z = ZoneCoeffs(0.0, 0.0)
        assert linear_zone_flow(z, 1.0, 0.0, 0.0, math.pi) == pytest.approx(2.0, abs=1e-14)

    def test_periodic_solution_of_contracting_zone(self):
        # v(t) = -(cos t - sin t)/2 is 2*pi-periodic for p=-1, q=0, mu=1
        z = ZoneCoeffs(-1.0, 0.0)
        out = linear_zone_flow(z, 1.0, 0.0, -0.5, TWO_PI)
        assert out == pytest.approx(-0.5, abs=1e-12)
        p = Params(a=-1, b=-1, mu=1)
        assert rk4_oracle(p, 0.0, -0.5, TWO_PI, 1e-4) == pytest.approx(out, abs=1e-9)

    def test_homogeneous_decay(self):
        z = ZoneCoeffs(-1.0, 0.0)
        assert linear_zone_flow(z, 0.0, 0.0, 1.0, 1.0) == pytest.approx(math.exp(-1), rel=1e-14)

    def test_degenerate_exponent_form(self):
        # p below the threshold must agree with a slightly larger p
        z0 = ZoneCoeffs(0.0, 0.3)
        z1 = ZoneCoeffs(1e-9, 0.3)
        a = linear_zone_flow(z0, 1.1, 0.2, 0.4, 5.0)
        b = linear_zone_flow(z1, 1.1, 0.2, 0.4, 5.0)
        assert a == pytest.approx(b, abs=1e-8)


class TestFirstCrossing:
    def test_tangential_touch_is_reported(self):
        z = ZoneCoeffs(0.0, 0.0)
        s, _ = _next_contact(z, 1.0, 0.0, 0.0, (2.0,), TWO_PI)
        assert s == pytest.approx(math.pi, abs=1e-9)

    def test_unreachable_level_is_absent(self):
        z = ZoneCoeffs(0.0, 0.0)
        assert _next_contact(z, 1.0, 0.0, 0.0, (3.0,), TWO_PI) is None

    def test_orbit_above_level_never_crosses(self):
        # trajectory through 1.5 is the periodic orbit of the upper zone of
        # (a=-1, b=1, mu=1); its minimum stays above 1
        z = ZoneCoeffs(-1.0, 2.0)
        assert _next_contact(z, 1.0, 0.0, 1.5, (1.0,), TWO_PI) is None
        ts = np.linspace(0.0, TWO_PI, 20001)
        vals = [linear_zone_flow(z, 1.0, 0.0, 1.5, float(t)) for t in ts]
        assert min(vals) > 1.0

    def test_transversal_crossing_time(self):
        z = ZoneCoeffs(0.0, 0.0)
        # 1 - cos t = 1 first at t = pi/2
        s, _ = _next_contact(z, 1.0, 0.0, 0.0, (1.0,), TWO_PI)
        assert s == pytest.approx(math.pi / 2.0, abs=1e-11)


class TestAdvance:
    def test_periodic_upper_orbit_returns(self):
        p = Params(a=-1, b=1, mu=1.2)
        traj = advance(p, 0.0, 1.4, TWO_PI)
        assert traj.final_state == pytest.approx(1.4, abs=1e-8)
        assert [s.zone for s in traj.segments] == ["upper"]
        assert rk4_oracle(p, 0.0, 1.4, TWO_PI, 1e-4) == pytest.approx(1.4, abs=1e-6)

    def test_zero_span_is_identity(self):
        p = Params(a=0.3, b=-0.7, mu=2.0)
        traj = advance(p, 1.0, 0.25, 1.0)
        assert traj.final_state == 0.25
        assert len(traj.segments) == 1
        assert traj.segments[0].t_start == traj.segments[0].t_end == 1.0

    def test_zero_field_grazing_orbit_stays_inner(self):
        # u = -cos t touches both boundaries tangentially and never leaves
        p = Params(a=0, b=0, mu=1)
        traj = advance(p, 0.0, -1.0, TWO_PI)
        assert [s.zone for s in traj.segments] == [INNER]
        assert traj.a_in_measure == pytest.approx(TWO_PI, abs=1e-10)
        assert traj.final_state == pytest.approx(-1.0, abs=1e-10)

    def test_zero_field_three_segment_excursion(self):
        # u = 1 - cos t reaches 2, so it spends cos t < 0 above the inner zone
        p = Params(a=0, b=0, mu=1)
        traj = advance(p, 0.0, 0.0, TWO_PI)
        assert [s.zone for s in traj.segments] == ["inner", "upper", "inner"]
        assert traj.final_state == pytest.approx(0.0, abs=1e-10)
        assert traj.a_in_measure == pytest.approx(math.pi, abs=1e-9)
        assert traj.a_in_half_measure == pytest.approx(math.pi / 2.0, abs=1e-9)

    def test_boundary_start_moves_with_the_field(self):
        # x0 = 1 with positive drift belongs to the upper zone immediately
        p = Params(a=-1, b=1, mu=2)
        traj = advance(p, 0.0, 1.0, 0.5)
        assert traj.segments[0].zone == "upper"
        p_down = Params(a=-1, b=-1, mu=0)
        traj = advance(p_down, 0.0, 1.0, 0.5)
        assert traj.segments[0].zone == INNER

    def test_trajectory_invariants(self):
        p = Params(a=-0.4, b=0.9, mu=2.3)
        tau, t_end = 0.3, 0.3 + 2 * TWO_PI
        traj = advance(p, tau, -0.2, t_end)
        segs = traj.segments
        assert segs[0].t_start == tau and segs[-1].t_end == t_end
        for s0, s1 in zip(segs, segs[1:]):
            assert s0.t_end == s1.t_start
            assert s0.zone != s1.zone
        inner_total = sum(s.t_end - s.t_start for s in segs if s.zone == INNER)
        assert abs(inner_total - traj.a_in_measure) <= 1e-10
        assert traj.a_in_half_measure <= traj.a_in_measure + 1e-15
        last = segs[-1]
        z = zone_coeffs(p, last.zone)
        assert traj.final_state == linear_zone_flow(z, p.mu, last.t_start, last.entry_state, t_end)
        # continuity at every joint
        for s0, s1 in zip(segs, segs[1:]):
            z0 = zone_coeffs(p, s0.zone)
            end_val = linear_zone_flow(z0, p.mu, s0.t_start, s0.entry_state, s0.t_end)
            assert abs(end_val - s1.entry_state) < 1e-10

    def test_switch_cap_raises(self):
        p = Params(a=0, b=0, mu=1)
        with pytest.raises(ZoneSwitchLimitError):
            advance(p, 0.0, 0.0, TWO_PI, max_switches=1)

    def test_sample_matches_endpoints_and_events(self):
        p = Params(a=-1, b=1, mu=1.5)
        traj = advance(p, 0.0, 0.3, TWO_PI)
        ts = np.linspace(0.0, TWO_PI, 7)
        vals = sample(p, traj, ts)
        assert vals[0] == pytest.approx(0.3, abs=1e-12)
        assert vals[-1] == pytest.approx(traj.final_state, abs=1e-12)
        for time, level, _, _ in transitions(traj):
            assert sample(p, traj, [time - 1e-13])[0] == pytest.approx(level, abs=1e-9)

    def test_a_in_measure_invariant_under_mu_phase_flip(self):
        # the symmetric cycle of mu maps to the one of -mu with equal measure
        p = Params(a=-1, b=1, mu=1.2)
        x_sym = -0.6
        mapped = advance(p, 0.0, x_sym, math.pi).final_state
        p_flip = Params(a=-1, b=1, mu=-1.2)
        m1 = advance(p, 0.0, x_sym, TWO_PI).a_in_measure
        m2 = advance(p_flip, 0.0, mapped, TWO_PI).a_in_measure
        assert m1 == pytest.approx(m2, abs=1e-10)


class TestContactSearchEdges:
    def test_excursion_between_scan_samples_switches_zones(self):
        # u = 1e-6 - cos t rises above 1 only for about 2.8e-3 around t = pi,
        # well inside one scan cell; the excursion must still switch zones
        p = Params(a=0, b=0, mu=1)
        tau = 0.01
        traj = advance(p, tau, 1e-6 - math.cos(tau), tau + TWO_PI)
        assert [s.zone for s in traj.segments] == [INNER, "upper", INNER]
        (t_up, level, _, _), (t_down, _, _, _) = transitions(traj)
        assert level == 1.0
        assert 0.5 * (t_up + t_down) == pytest.approx(math.pi, abs=1e-9)
        assert t_down - t_up == pytest.approx(2.0 * math.acos(1.0 - 1e-6), abs=1e-9)

    def test_far_start_time_terminates(self):
        # at |t| >= 8192 one ulp of time exceeds the 1e-12 bisection width
        p = Params(a=-1, b=1, mu=1.2)
        far = advance(p, 9000.0, 0.3, 9000.0 + TWO_PI)
        tau = 9000.0 - 1432 * TWO_PI
        near = advance(p, tau, 0.3, tau + TWO_PI)
        assert far.final_state == pytest.approx(near.final_state, abs=1e-12)
        assert far.a_in_measure == pytest.approx(near.a_in_measure, abs=1e-8)


class TestZoneCoeffs:
    def test_consistency_with_field(self):
        p = Params(a=-0.8, b=1.7, mu=0.4, eps=0.3, lam=0.05)
        for zone, x in (("lower", -2.5), (INNER, 0.3), ("upper", 4.0)):
            z = zone_coeffs(p, zone)
            assert z.p * x + z.q == pytest.approx(p.eps * f_eval(p, x) + p.lam, abs=1e-14)


class TestRk4Oracle:
    def test_zero_field_returns_start(self):
        p = Params(a=0, b=0, mu=1)
        assert rk4_oracle(p, 0.0, 0.0, TWO_PI, 1e-4) == pytest.approx(0.0, abs=1e-9)

    def test_linear_cycle_closes(self):
        p = Params(a=-1, b=-1, mu=1)
        assert rk4_oracle(p, 0.0, -0.5, TWO_PI, 1e-4) == pytest.approx(-0.5, abs=1e-6)

    def test_vector_input(self):
        p = Params(a=-1, b=1, mu=1.2)
        xs = np.array([1.4, -2.6])
        out = rk4_oracle(p, 0.0, xs, TWO_PI, 1e-3)
        assert out == pytest.approx(xs, abs=1e-4)

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            rk4_oracle(Params(a=0, b=0, mu=0), 0.0, 0.0, 1.0, 0.0)
