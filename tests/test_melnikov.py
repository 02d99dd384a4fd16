import math

import numpy as np
import pytest

from satcycles import (
    AtBifurcationError,
    BadRegimeError,
    InvariantViolatedError,
    M_orig,
    M_shift,
    Mmu,
    Mx,
    Params,
    bif_values,
    consistency_identity,
    count_simple_zeros,
    f_eval,
    partition,
    phi,
    phi_branch,
    zero_set,
)
from oracles import melnikov_trapezoid

TWO_PI = 2.0 * math.pi
P = Params(a=-1, b=1, mu=0)


def _nondegenerate_draw(rng):
    # keep the zone boundaries of x - mu*cos(t) away from tangency so that
    # finite differences of the closed form are well conditioned
    while True:
        x = rng.uniform(-4, 4)
        mu = rng.uniform(-4, 4)
        if abs(mu) < 0.1:
            continue
        if min(abs(abs((x - 1) / mu) - 1), abs(abs((x + 1) / mu) - 1)) > 1e-2:
            return x, mu


class TestPartition:
    def test_symmetric_inner_intervals(self):
        part = partition(0.0, 2.0)
        flat = [t for iv in part.inner_intervals for t in iv]
        expected = [math.pi / 3, 2 * math.pi / 3, 4 * math.pi / 3, 5 * math.pi / 3]
        assert flat == pytest.approx(expected, abs=1e-12)
        assert part.inner_measure == pytest.approx(2 * math.pi / 3, abs=1e-12)

    def test_one_zonal_far_point(self):
        part = partition(3.0, 1.0)
        assert part.upper_intervals == ((0.0, TWO_PI),)
        assert part.inner_intervals == () and part.lower_intervals == ()

    def test_two_zone_split_at_x_equal_one(self):
        part = partition(1.0, 2.0)
        assert part.inner_measure == pytest.approx(math.pi, abs=1e-12)
        assert len(part.upper_intervals) == 1
        assert list(part.upper_intervals[0]) == pytest.approx(
            [math.pi / 2, 3 * math.pi / 2], abs=1e-12
        )
        assert part.lower_intervals == ()

    def test_mu_zero_single_zone(self):
        assert partition(0.3, 0.0).inner_intervals == ((0.0, TWO_PI),)
        assert partition(5.0, 0.0).upper_intervals == ((0.0, TWO_PI),)
        assert partition(-5.0, 0.0).lower_intervals == ((0.0, TWO_PI),)

    def test_tiling_and_boundary_equations(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            x, mu = rng.uniform(-4, 4, 2)
            part = partition(float(x), float(mu))
            total = part.inner_measure + part.upper_measure + part.lower_measure
            assert total == pytest.approx(TWO_PI, abs=1e-10)
            for intervals in (part.inner_intervals, part.upper_intervals, part.lower_intervals):
                for lo, hi in intervals:
                    for t in (lo, hi):
                        if t in (0.0, TWO_PI):
                            continue
                        assert abs(abs(x - mu * math.cos(t)) - 1.0) < 1e-12

    def test_negative_mu_mirrors_by_half_period(self):
        part_pos = partition(0.7, 1.9)
        part_neg = partition(0.7, -1.9)
        assert part_neg.inner_measure == pytest.approx(part_pos.inner_measure, abs=1e-12)
        assert part_neg.upper_measure == pytest.approx(part_pos.upper_measure, abs=1e-12)


class TestMShift:
    def test_two_zonal_line(self):
        # at x = 1 the integral is linear in mu while the lower zone is unreached
        for mu in (0.5, 1.0, math.pi / 2, 1.9):
            assert M_shift(1.0, mu, P) == pytest.approx(TWO_PI - 4 * mu, abs=1e-12)
        assert abs(M_shift(1.0, math.pi / 2, P)) < 1e-12

    def test_worked_three_piece_value(self):
        assert M_shift(1.0, 2.0, P) == pytest.approx(TWO_PI - 8.0, abs=1e-12)
        assert melnikov_trapezoid(1.0, 2.0, P) == pytest.approx(TWO_PI - 8.0, abs=1e-8)

    def test_odd_axis(self):
        for mu in np.linspace(-3, 3, 7):
            assert M_shift(0.0, float(mu), P) == pytest.approx(0.0, abs=1e-14)

    def test_symmetries(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            x, mu = rng.uniform(-4, 4, 2)
            assert M_shift(-x, mu, P) == pytest.approx(-M_shift(x, mu, P), abs=1e-12)
            assert M_shift(x, -mu, P) == pytest.approx(M_shift(x, mu, P), abs=1e-12)

    def test_quadrature_oracle_sweep(self):
        rng = np.random.default_rng(99)
        worst = 0.0
        for _ in range(300):
            x, mu = rng.uniform(-4, 4, 2)
            worst = max(worst, abs(M_shift(x, mu, P) - melnikov_trapezoid(x, mu, P)))
        assert worst < 1e-8


class TestMOrig:
    def test_zero_amplitude_reduces_to_field(self):
        assert M_orig(3.0, 0.0, P) == pytest.approx(-TWO_PI, abs=1e-12)
        for x in (-2.5, -0.3, 0.8, 4.0):
            assert M_orig(x, 0.0, P) == pytest.approx(TWO_PI * f_eval(P, x), abs=1e-12)

    def test_shift_identity(self):
        for mu in (0.3, 1.1, 2.7):
            assert M_orig(-mu, mu, P) == pytest.approx(0.0, abs=1e-13)

    def test_quadrature_agreement(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            x, mu = rng.uniform(-3, 3, 2)
            assert M_orig(x, mu, P) == pytest.approx(
                melnikov_trapezoid(x + mu, mu, P), abs=1e-8
            )


class TestDerivatives:
    def test_mx_values(self):
        assert Mx(0.0, 2.0, P) == pytest.approx(-2 * math.pi / 3, abs=1e-12)
        assert Mx(0.0, math.sqrt(2.0), P) == pytest.approx(0.0, abs=1e-12)
        for mu in (0.0, 0.5, 1.0):
            assert Mx(0.0, mu, P) == pytest.approx(TWO_PI * P.b, abs=1e-12)

    def test_mmu_vanishes_on_axis_and_one_zonal(self):
        for mu in (0.0, 0.7, 1.9, 3.4):
            assert Mmu(0.0, mu, P) == pytest.approx(0.0, abs=1e-12)
        assert Mmu(3.0, 1.0, P) == 0.0

    def test_finite_difference_consistency(self):
        rng = np.random.default_rng(31)
        h = 1e-6
        for _ in range(100):
            x, mu = _nondegenerate_draw(rng)
            fx = (M_shift(x + h, mu, P) - M_shift(x - h, mu, P)) / (2 * h)
            fm = (M_shift(x, mu + h, P) - M_shift(x, mu - h, P)) / (2 * h)
            assert Mx(x, mu, P) == pytest.approx(fx, rel=1e-5, abs=1e-6)
            assert Mmu(x, mu, P) == pytest.approx(fm, rel=1e-5, abs=1e-6)


class TestIdentity:
    def test_worked_point(self):
        assert abs(consistency_identity(1.0, 2.0, P)) < 1e-10

    def test_axis_points(self):
        for mu in (0.0, 1.0, 2.5):
            assert abs(consistency_identity(0.0, mu, P)) < 1e-13

    def test_random_sweep(self):
        rng = np.random.default_rng(41)
        worst = max(
            abs(consistency_identity(float(x), float(mu), P))
            for x, mu in rng.uniform(-4, 4, (1000, 2))
        )
        assert worst < 1e-9


class TestBifValues:
    def test_reference_parameters(self):
        bv = bif_values(P)
        assert bv.c == pytest.approx(math.pi / 2, abs=1e-15)
        assert bv.mu1 == pytest.approx(math.pi / 2, abs=1e-15)
        assert bv.mu2 == pytest.approx(math.sqrt(2.0), abs=1e-15)
        assert bv.x1 == pytest.approx(1.0, abs=1e-15)

    def test_scale_invariance(self):
        small = bif_values(Params(a=-0.05, b=0.05, mu=0))
        big = bif_values(P)
        assert small.c == pytest.approx(big.c, abs=1e-14)
        assert small.mu1 == pytest.approx(big.mu1, abs=1e-14)
        assert small.mu2 == pytest.approx(big.mu2, abs=1e-14)

    def test_ordering_holds_across_slope_ratios(self):
        # mu1/mu2 = c / (2 sin(c/2)) > 1 on the whole admissible c range
        for b in np.linspace(0.05, 4.0, 40):
            bv = bif_values(Params(a=-1.0, b=float(b), mu=0))
            assert bv.mu2 < bv.mu1
            ratio = bv.c / (2.0 * math.sin(bv.c / 2.0))
            assert bv.mu1 / bv.mu2 == pytest.approx(ratio, rel=1e-12)
            assert ratio > 1.0

    def test_requires_mixed_signs(self):
        with pytest.raises(BadRegimeError):
            bif_values(Params(a=1, b=2, mu=0))
        with pytest.raises(BadRegimeError):
            bif_values(Params(a=0, b=1, mu=0))

    @pytest.mark.parametrize("a, b", [(-1.0, 1e-17), (-1e-17, 1.0), (1e-17, -1.0)])
    def test_unresolvable_slope_ratio_is_a_typed_error(self, a, b):
        # c rounds onto 0 or pi, so mu1 and mu2 collapse onto each other
        with pytest.raises(InvariantViolatedError, match="double precision"):
            bif_values(Params(a=a, b=b, mu=0))


class TestPhi:
    def test_interior_value_from_two_zonal_line(self):
        assert phi(1.0, P) == pytest.approx(math.pi / 2, abs=1e-12)

    def test_endpoints(self):
        assert phi(0.0, P) == pytest.approx(math.sqrt(2.0), abs=1e-12)
        assert phi(2.0, P) == 1.0

    def test_branch_samples_are_zeros_and_unimodal(self):
        branch = phi_branch(P, 160)
        mus = [m for _, m in branch.samples]
        xs = [x for x, _ in branch.samples]
        for x, m in branch.samples:
            assert abs(M_shift(x, m, P)) < 1e-9
        peak = max(range(len(mus)), key=mus.__getitem__)
        assert xs[peak] == pytest.approx(branch.bif.x1, abs=2.0 / 159 + 1e-12)
        assert all(m1 > m0 - 1e-12 for m0, m1 in zip(mus[: peak], mus[1 : peak + 1]))
        assert all(m1 < m0 + 1e-12 for m0, m1 in zip(mus[peak:], mus[peak + 1 :]))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            phi(-0.1, P)
        with pytest.raises(ValueError):
            phi(2.1, P)


class TestZeroCounting:
    def test_regime_counts(self):
        assert count_simple_zeros(1.0, P) == 3
        assert count_simple_zeros(1.5, P) == 5
        assert count_simple_zeros(2.0, P) == 1

    def test_even_in_mu(self):
        for mu in (0.8, 1.5, 2.2):
            assert count_simple_zeros(-mu, P) == count_simple_zeros(mu, P)

    def test_bifurcation_values_rejected(self):
        with pytest.raises(AtBifurcationError):
            count_simple_zeros(math.sqrt(2.0), P)
        with pytest.raises(AtBifurcationError):
            count_simple_zeros(-math.pi / 2, P)


class TestZeroSet:
    def test_every_point_is_a_zero(self):
        for _, points in zero_set(P, 80):
            for x, mu in points:
                assert abs(M_shift(x, mu, P)) < 1e-8

    def test_branch_peak_location(self):
        polys = dict(zero_set(P, 200))
        xs, mus = zip(*polys["branch_pp"])
        k = max(range(len(mus)), key=mus.__getitem__)
        assert xs[k] == pytest.approx(1.0, abs=2.0 / 199 + 1e-12)
        assert mus[k] == pytest.approx(math.pi / 2, abs=1e-4)

    def test_symmetry_copies(self):
        polys = dict(zero_set(P, 60))
        base = polys["branch_pp"]
        assert polys["branch_np"] == [(-x, m) for x, m in base]
        assert polys["branch_pn"] == [(x, -m) for x, m in base]
        assert polys["branch_nn"] == [(-x, -m) for x, m in base]
        assert any(branch == "axis" for branch in polys)


class TestFoldAndPitchfork:
    def test_fold_signature(self):
        assert abs(M_shift(1.0, math.pi / 2, P)) < 1e-9
        assert abs(Mx(1.0, math.pi / 2, P)) < 1e-9

    def test_pitchfork_signature(self):
        assert abs(Mx(0.0, math.sqrt(2.0), P)) < 1e-9
