import math

import numpy as np
import pytest

from satcycles import (
    INNER,
    LOWER,
    UPPER,
    Params,
    ZoneCoeffs,
    ZoneSwitchLimitError,
    advance,
    analytic_one_zone_cycles,
    f_eval,
    linear_zone_flow,
    poincare_P,
    sample,
    transitions,
    zone_coeffs,
)
from satcycles import exactflow
from satcycles.exactflow import (
    _ZONE_EXITS,
    GRAZE_PROBE_DT,
    P_DEGENERATE,
    TOUCH_VALUE_TOL,
    _clear_window,
    _next_contact,
)

from oracles import reference_next_contact, rk4_oracle

TWO_PI = 2.0 * math.pi


def _assert_matches_rk4(p, xs, tol=1e-6):
    """poincare_P against the RK4 oracle (step 1e-3, all starts in one run)."""
    xs = np.asarray(xs, dtype=float)
    want = rk4_oracle(p, 0.0, xs, TWO_PI, 1e-3)
    assert [poincare_P(p, x) for x in xs.tolist()] == pytest.approx(want.tolist(), abs=tol)


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
        # the exact p = 0 form and the exponential form at p = 1e-9, each
        # against its value at 50 mpmath digits (they differ by 1.18e-8)
        a = linear_zone_flow(ZoneCoeffs(0.0, 0.3), 1.1, 0.2, 0.4, 5.0)
        b = linear_zone_flow(ZoneCoeffs(1e-9, 0.3), 1.1, 0.2, 0.4, 5.0)
        assert a == pytest.approx(2.6060448316158169, abs=1e-14)
        assert b == pytest.approx(2.6060448434399214, abs=1e-14)


    def test_saturates_to_the_side_of_the_periodic_solution(self):
        # upper zone of a=200, b=-1: v(0) is about 1.005, and the exponent
        # p*t passes its saturation point at t = 3.545
        z = zone_coeffs(Params(a=200, b=-1, mu=1), UPPER)
        assert linear_zone_flow(z, 1.0, 0.0, 3.0, 4.0) == math.inf
        assert linear_zone_flow(z, 1.0, 0.0, -3.0, 4.0) == -math.inf
        with np.errstate(over="ignore", invalid="ignore"):
            out = linear_zone_flow(z, 1.0, 0.0, np.array([3.0, -3.0, 3.0]),
                                   np.array([4.0, 4.0, 1.0]))
        assert out[0] == math.inf and out[1] == -math.inf and math.isfinite(out[2])


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
        last = segs[-1]
        z = zone_coeffs(p, last.zone)
        assert traj.final_state == linear_zone_flow(z, p.mu, last.t_start, last.entry_state, t_end)
        # continuity at every joint
        for s0, s1 in zip(segs, segs[1:]):
            z0 = zone_coeffs(p, s0.zone)
            end_val = linear_zone_flow(z0, p.mu, s0.t_start, s0.entry_state, s0.t_end)
            assert abs(end_val - s1.entry_state) < 1e-10

    def test_switch_cap_raises(self, monkeypatch):
        monkeypatch.setattr(exactflow, "MAX_SWITCHES", 1)
        p = Params(a=0, b=0, mu=1)
        with pytest.raises(ZoneSwitchLimitError):
            advance(p, 0.0, 0.0, TWO_PI)

    def test_saturated_flow_diverges_without_a_false_switch(self):
        # the outer-zone solutions leave the doubles at t ~ 3.545; the
        # saturated values are a divergence, not a crossing of a level
        p = Params(a=200, b=-1, mu=1)
        for x, final, zone in ((3.0, math.inf, UPPER), (-3.0, -math.inf, "lower")):
            traj = advance(p, 0.0, x, TWO_PI)
            assert traj.final_state == final
            assert [s.zone for s in traj.segments] == [zone]

    def test_starts_on_the_breakpoints(self):
        for p in (Params(a=-1, b=1, mu=2), Params(a=-1, b=-1, mu=0), Params(a=-1, b=1, mu=1.2)):
            _assert_matches_rk4(p, [-1.0, 1.0, 0.0])
            for x in (-1.0, 1.0):
                below, on, above = (poincare_P(p, x + dx) for dx in (-1e-9, 0.0, 1e-9))
                assert below <= on <= above and above - below < 1e-6

    def test_grazing_one_zonal_cycle_on_its_existence_boundary(self):
        # amplitude mu/sqrt(b^2+1) = 1: the inner cycle touches both levels
        p = Params(a=-1, b=1, mu=math.sqrt(2.0))
        (x0,) = [r.x0 for r in analytic_one_zone_cycles(p) if r.zonal_type == "one_inner"]
        assert poincare_P(p, x0) == pytest.approx(x0, abs=1e-12)
        assert poincare_P(p, x0 - 1e-9) < poincare_P(p, x0) < poincare_P(p, x0 + 1e-9)
        _assert_matches_rk4(p, [x0, x0 + 1e-9, x0 - 1e-9, 0.0])

    def test_zero_field_excursion(self):
        # u = x + 1 - cos t: starts on and just inside a level graze it, and
        # 1e-6 - 1 makes an excursion below -1 around t = 0 and 2*pi
        p = Params(a=0, b=0, mu=1)
        xs = [0.0, 1e-6 - 1.0, -1.0, 0.5, -2.0]
        assert [poincare_P(p, x) for x in xs] == pytest.approx(xs, abs=1e-10)
        _assert_matches_rk4(p, xs)

    def test_wide_cells_where_the_reach_bound_is_off(self):
        # |p|*h >= 1/2 for |p| >= 20.4
        for p in (Params(a=-30, b=1, mu=2), Params(a=-1, b=25, mu=3), Params(a=-22, b=3, mu=2)):
            _assert_matches_rk4(p, np.linspace(-3, 3, 7))

    def test_fast_forcing(self):
        _assert_matches_rk4(Params(a=-1, b=1, mu=1000), np.linspace(-30, 30, 7), tol=2e-5)

    def test_degenerate_outer_slope(self):
        p = Params(a=1e-12, b=-1, mu=1.5)
        assert abs(p.a_eff) < exactflow.P_DEGENERATE
        _assert_matches_rk4(p, np.linspace(-4, 4, 9))

    def test_saturated_exponential(self):
        # b = 5000: p*h is about 122 in the inner zone, so the exponential
        # saturates a few cells into each inner-zone search.  The inner
        # solution e**(5000 t)*(x - v(0)) + v(t) leaves |u| <= 1 at about
        # t = log(1/|x - v(0)|)/5000, and no outer solution comes back.
        p = Params(a=-1, b=5000, mu=1)
        v0 = -1.0 / (5000.0**2 + 1.0)
        finals = []
        for x in np.linspace(-3, 3, 13).tolist():
            traj = advance(p, 0.0, x, TWO_PI)
            finals.append(traj.final_state)
            if abs(x) < 1.0:
                ((t_exit, level, _, zone),) = transitions(traj)
                assert (level, zone) == ((1.0, UPPER) if x > v0 else (-1.0, "lower"))
                assert t_exit == pytest.approx(math.log(1.0 / abs(x - v0)) / 5000.0, rel=1e-3)
            else:
                assert len(traj.segments) == 1
        assert all(math.isfinite(f) for f in finals) and finals == sorted(finals)

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

    @pytest.mark.xfail(strict=True, reason="known defect: the departure side of a start on "
                       "a level comes from the sign of x' while the contact search reads "
                       "the side from its probes")
    def test_start_on_a_level_with_an_unresolvable_dip(self):
        # x' = lam < 0 at t = 0 sends the start to the lower zone, but the
        # flow dips below -1 by only 1e-15 and is back above it at t = 6.4e-8;
        # the probe at 1e-9 rounds to -1 and the next one reads the inner side
        p = Params(a=1e-7, b=0, mu=2, lam=-6.366198730332827e-08)
        traj = advance(p, 0.0, -1.0, TWO_PI)
        bands = {"lower": (-math.inf, -1.0), INNER: (-1.0, 1.0), UPPER: (1.0, math.inf)}
        for seg in traj.segments:
            lo, hi = bands[seg.zone]
            us = sample(p, traj, np.linspace(seg.t_start, seg.t_end, 101)[1:-1])
            assert np.all((lo - 1e-12 <= us) & (us <= hi + 1e-12))

    def test_tiny_nondegenerate_slope(self):
        # p = 1e-9 is above P_DEGENERATE: exp(p*dt) - 1 would round to a
        # multiple of 2.2e-16 and |q/p| = 1e9 scale that to 1e-7, enough for
        # contact and probe values to disagree and the contacts to repeat up
        # to MAX_SWITCHES; expm1 keeps the flow exact there
        traj = advance(Params(a=1, b=1, mu=1, eps=1e-9, lam=-1), 0.0, 0.0, TWO_PI)
        assert traj.final_state == pytest.approx(-TWO_PI, abs=1e-6)

    def test_far_start_time_terminates(self):
        # at |t| >= 8192 one ulp of time exceeds CROSSING_TIME_TOL = 1e-12
        p = Params(a=-1, b=1, mu=1.2)
        far = advance(p, 9000.0, 0.3, 9000.0 + TWO_PI)
        tau = 9000.0 - 1432 * TWO_PI
        near = advance(p, tau, 0.3, tau + TWO_PI)
        assert far.final_state == pytest.approx(near.final_state, abs=1e-12)
        assert far.a_in_measure == pytest.approx(near.a_in_measure, abs=1e-8)


class TestReachTest:
    """The reach test only skips extremum cells that hold no contact: with
    it switched off (every extremum refined), advance is bitwise the same."""

    @staticmethod
    def _cases():
        cases = [
            (Params(a=0, b=0, mu=1), 0.0, -1.0, TWO_PI),  # touches both levels
            (Params(a=0, b=0, mu=1), 0.01, 1e-6 - math.cos(0.01), 0.01 + TWO_PI),
            (Params(a=-1, b=1, mu=math.sqrt(2.0)), 0.0, -math.sqrt(2.0) / 2.0, TWO_PI),
        ]
        rng = np.random.default_rng(7)
        for k in range(3, 14):
            # inner-zone cycles whose extrema sit 10**-k inside or outside the levels
            for sign in (-1.0, 1.0):
                b = rng.uniform(-2.0, 2.0)
                amp = 1.0 + sign * 10.0**-k
                p = Params(a=-rng.uniform(0.2, 3.0), b=b, mu=amp * math.sqrt(b * b + 1.0))
                x0 = -p.mu / (b * b + 1.0)
                cases.append((p, 0.0, x0, TWO_PI))
                cases.append((p, 0.0, x0 + rng.uniform(-1e-3, 1e-3), 2.0 * TWO_PI))
        return cases

    def test_skipping_drops_no_touch_or_excursion(self, monkeypatch):
        cases = self._cases()
        with_reach = [repr(advance(p, tau, x, t)) for p, tau, x, t in cases]
        bounds = []
        reach = exactflow._reach

        def spy(*args):
            bounds.append(reach(*args))
            return bounds[-1]

        monkeypatch.setattr(exactflow, "_reach", spy)
        assert [repr(advance(p, tau, x, t)) for p, tau, x, t in cases] == with_reach
        assert any(math.isfinite(b) for b in bounds)
        monkeypatch.setattr(exactflow, "_reach", lambda *args: math.inf)
        assert [repr(advance(p, tau, x, t)) for p, tau, x, t in cases] == with_reach

    def test_bound_is_off_for_wide_cells_and_strong_growth(self):
        args = [(-1.0, 0.0, 1.2, 0.3, TWO_PI, TWO_PI / 256), (1.0, 2.0, 2.0, -1.5, 3.0, 0.01),
                (25.0, 0.0, 1.0, 0.0, 1.0, 0.03), (1e-12, 0.5, 1.0, 2.0, TWO_PI, 0.02),
                (3.0, 0.0, 1.0, 0.0, 50.0, 0.02)]
        bounds = [exactflow._reach(*a) for a in args]
        assert all(math.isfinite(b) for b in (bounds[0], bounds[1], bounds[3]))
        assert bounds[2] == math.inf  # |p|*h >= 1/2
        assert bounds[4] == math.inf  # growth beyond REACH_MAX_GROWTH
        # M2*h^2 with M2 = |mu|/(1 - |p|*h), plus the touch tolerance twice
        h = TWO_PI / 256
        assert bounds[0] == pytest.approx(1.2 * h * h / (1 - h), rel=1e-6)


def _contact_draws():
    """Seeded (z, mu, tau, x, levels, t_max) searches over all three zones:
    random parameters, every seventh start on a level, every eleventh window
    shorter than GRAZE_PROBE_DT, and the saturating upper zone of a = 200."""
    rng = np.random.default_rng(21)
    bands = {LOWER: (-4.0, -1.0), INNER: (-1.0, 1.0), UPPER: (1.0, 4.0)}
    for k in range(1800):
        a, b = rng.uniform(-3.0, 3.0, 2)
        lam = 0.0 if k % 2 else rng.uniform(-1.0, 1.0)
        p = Params(a=a, b=b, mu=rng.uniform(0.0, 3.0), eps=(1.0, 0.3, 0.05)[k % 3], lam=lam)
        zone = (LOWER, INNER, UPPER)[rng.integers(3)]
        levels = _ZONE_EXITS[zone]
        x = levels[rng.integers(len(levels))] if k % 7 == 0 else rng.uniform(*bands[zone])
        tau = rng.uniform(0.0, TWO_PI)
        span = rng.uniform(0.0, GRAZE_PROBE_DT) if k % 11 == 0 else rng.uniform(0.0, 2.0 * TWO_PI)
        yield zone_coeffs(p, zone), p.mu, tau, x, levels, tau + span
    p = Params(a=200, b=-1, mu=1)
    for x in np.linspace(1.0, 4.0, 40).tolist():
        yield zone_coeffs(p, UPPER), p.mu, 0.0, x, (1.0,), TWO_PI
        yield zone_coeffs(p, UPPER), p.mu, 1.0, x, (1.0,), 1.0 + rng.uniform(0.0, TWO_PI)


class TestFlaggedCells:
    """The window test and the flagged-cell walk return what the walk over
    every scan cell returns (``oracles.reference_next_contact``)."""

    def test_same_contact_as_the_walk_over_every_cell(self, monkeypatch):
        draws = list(_contact_draws())
        # and every search advance makes on the near-touch inner cycles
        search = exactflow._next_contact

        def spy(*args):
            draws.append(args)
            return search(*args)

        monkeypatch.setattr(exactflow, "_next_contact", spy)
        for p, tau, x, t in TestReachTest._cases():
            advance(p, tau, x, t)
        monkeypatch.undo()
        assert len(draws) >= 2000
        for args in draws:
            assert _next_contact(*args) == reference_next_contact(*args), args

    def test_a_cleared_window_stays_off_every_level(self):
        cleared = 0
        for z, mu, tau, x, levels, t_max in _contact_draws():
            if x in levels or abs(z.p) < P_DEGENERATE:
                continue
            if _clear_window(z.p, z.q, mu, tau, x, levels, t_max):
                cleared += 1
                us = linear_zone_flow(z, mu, tau, x, np.linspace(tau, t_max, 20001))
                for lv in levels:
                    assert (us - lv > TOUCH_VALUE_TOL).all() or (lv - us > TOUCH_VALUE_TOL).all()
        assert cleared >= 100

    def test_a_cleared_window_builds_no_scan(self, monkeypatch):
        # x = 5 decays onto the upper periodic orbit 2 - 0.6*(cos t - sin t)
        p = Params(-1, 1, 1.2)
        times = []
        flow = exactflow.linear_zone_flow

        def spy(z, mu, tau, x, t):
            times.append(t)
            return flow(z, mu, tau, x, t)

        monkeypatch.setattr(exactflow, "linear_zone_flow", spy)
        assert advance(p, 0.0, 5.0, TWO_PI).segments[0].zone == UPPER
        assert times and not any(isinstance(t, np.ndarray) for t in times)

    def test_a_start_on_a_level_is_never_cleared(self, monkeypatch):
        asked = []
        monkeypatch.setattr(exactflow, "_clear_window", lambda *args: asked.append(args) or True)
        on_level = [d for d in _contact_draws() if d[3] in d[4]]
        assert len(on_level) > 200
        for args in on_level:
            assert _next_contact(*args) == reference_next_contact(*args), args
        assert asked == []

    def test_a_scan_value_on_a_level_is_the_contact(self):
        # u = x + t/2 from tau = 0 lands exactly on 1 at the k-th scan time
        step = TWO_PI / exactflow.SCAN_PER_PERIOD
        for t in (step * np.arange(1, 8)).tolist():
            args = (ZoneCoeffs(0.0, 0.5), 0.0, 0.0, 1.0 - 0.5 * t, (1.0, -1.0), 1.0)
            assert _next_contact(*args) == reference_next_contact(*args) == (t, 1.0)

    def test_zero_width_cell_after_a_clipped_probe(self, monkeypatch):
        # t_max - tau < GRAZE_PROBE_DT: the probe lands on t_max, so the one
        # scan cell starts and ends there
        assert _next_contact(ZoneCoeffs(0.0, 0.0), 1.0, 0.0, 1.0, (1.0,), 5e-10) is None
        assert _next_contact(ZoneCoeffs(-1.0, 0.0), 1.0, 0.0, 1.0, (1.0, -1.0), 5e-10) is None
        # the cell is skipped even where the array flow ends it on the level
        # while the scalar probe at the same time does not
        flow = exactflow.linear_zone_flow

        def on_level_in_arrays(z, mu, tau, x, t):
            return np.ones_like(t) if isinstance(t, np.ndarray) else flow(z, mu, tau, x, t)

        monkeypatch.setattr(exactflow, "linear_zone_flow", on_level_in_arrays)
        assert _next_contact(ZoneCoeffs(-1.0, 0.0), 1.0, 0.0, 1.0, (1.0, -1.0), 5e-10) is None


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
