"""Closed-form bound evaluators and their dispatch rules."""

import math
import random

import pytest

import kmrot.bounds
from kmrot import (
    Angle,
    InvalidAlphaError,
    NonFiniteError,
    NormKind,
    OutOfRangeError,
    Schedule,
    UnstableError,
    UnsupportedAlphaError,
    Vec2,
    beta_l,
    l2_bound,
    linf_bound,
    mu,
    noise_bound,
    optimal_alpha_l2,
    pseudo_period,
    run_km,
    search_beta_u,
    sin_cos_pi,
)

from _support import sample_angle


class TestMu:
    def test_known_values(self):
        assert mu(0.5, Angle(1, 1)) == 0.0
        assert mu(0.5, Angle(1, 2)) == 0.5
        assert mu(0.5, Angle(1, 4)) == pytest.approx(0.5 + math.sqrt(0.5) / 2, rel=1e-15)

    def test_two_spellings_agree(self):
        rng = random.Random(3)
        for _ in range(1000):
            theta = sample_angle(rng)
            alpha = rng.uniform(0.01, 0.99)
            _, c = sin_cos_pi(theta.fraction)
            other = (alpha - 1) ** 2 + 2 * alpha * (1 - alpha) * c + alpha**2
            assert abs(mu(alpha, theta) - other) <= 1e-14

    def test_below_one(self):
        rng = random.Random(4)
        for _ in range(500):
            assert mu(rng.uniform(0.01, 0.99), sample_angle(rng)) < 1.0

    def test_alpha_validation(self):
        with pytest.raises(InvalidAlphaError):
            mu(0.0, Angle(1, 4))
        with pytest.raises(InvalidAlphaError):
            mu(1.0, Angle(1, 4))


class TestL2Bound:
    def test_half_turn_collapse(self):
        curve = l2_bound(Angle(1, 1), 0.5, 1.0, 4)
        assert curve.values == (1.0, 0.0, 0.0, 0.0)

    def test_quarter_turn_third_step(self):
        curve = l2_bound(Angle(1, 2), 0.5, 1.0, 3)
        assert curve.values[2] == 0.5

    def test_half_turn_general_alpha_matches_linear_rate(self):
        d = 31.0
        for alpha in (0.1, 0.3, 0.7, 0.9):
            curve = l2_bound(Angle(1, 1), alpha, d, 30)
            base = abs(1 - 2 * alpha)
            for i, value in enumerate(curve.values):
                assert value == pytest.approx(base**i * d, rel=1e-12)

    def test_matches_trajectory_exactly(self):
        theta, alpha = Angle(1, 6), 0.35
        traj = run_km(theta, NormKind.L2, Schedule.constant(alpha), Vec2(10.0, 30.0), 120)
        curve = l2_bound(theta, alpha, traj.norms[0], 120)
        for got, expected in zip(traj.norms, curve.values):
            assert got == pytest.approx(expected, rel=1e-10)

    def test_first_value_is_initial_distance(self):
        rng = random.Random(9)
        for _ in range(50):
            d = rng.uniform(0.0, 100.0)
            curve = l2_bound(sample_angle(rng), rng.uniform(0.01, 0.99), d, 3)
            assert curve.values[0] == d


class TestOptimalAlpha:
    def test_known_values(self):
        assert optimal_alpha_l2(Angle(1, 1)) == (0.5, 0.0)
        assert optimal_alpha_l2(Angle(1, 2)) == (0.5, 0.5)
        assert optimal_alpha_l2(Angle(1, 3)) == (0.5, 0.75)

    def test_is_the_minimizer(self):
        rng = random.Random(14)
        for _ in range(10):
            theta = sample_angle(rng)
            alpha_star, g_star = optimal_alpha_l2(theta)
            assert g_star == pytest.approx(mu(alpha_star, theta), abs=1e-14)
            for i in range(1, 1000):
                assert g_star <= mu(i / 1000, theta)


class TestPseudoPeriod:
    @pytest.mark.parametrize("p,q,period", [(1, 3, 3), (1, 2, 2), (1, 12, 12), (2, 5, 3), (3, 7, 3)])
    def test_values(self, p, q, period):
        assert pseudo_period(Angle(p, q)) == period

    def test_rejects_large_angles(self):
        with pytest.raises(OutOfRangeError):
            pseudo_period(Angle(2, 3))
        with pytest.raises(OutOfRangeError):
            pseudo_period(Angle(1, 1))


class TestBetaL:
    def test_quarter_period_is_half(self):
        assert beta_l(Angle(1, 2)) == 0.5

    def test_known_values(self):
        assert beta_l(Angle(1, 4)) == pytest.approx((1 + math.tan(math.pi / 8)) / 2, rel=1e-14)
        assert beta_l(Angle(1, 6)) == pytest.approx((1 + math.tan(math.pi / 6)) / 2, rel=1e-14)

    def test_rejects_large_angles(self):
        with pytest.raises(OutOfRangeError):
            beta_l(Angle(3, 4))


class TestLinfBound:
    def test_quarter_turn_floor_powers(self):
        curve = linf_bound(Angle(1, 2), 0.5, 30.0, 5)
        assert curve.values == (30.0, 30.0, 15.0, 15.0, 7.5)

    def test_half_turn_any_alpha(self):
        curve = linf_bound(Angle(1, 1), 0.3, 2.0, 4)
        for i, value in enumerate(curve.values):
            assert value == pytest.approx(0.4**i * 2.0, rel=1e-12)

    def test_period_bound_uses_floor_exponent(self):
        curve = linf_bound(Angle(1, 4), 0.5, 1.0, 9, beta_u=0.7504)
        assert curve.values[:4] == (1.0, 1.0, 1.0, 1.0)
        assert curve.values[8] == 0.7504**2 == 0.56310016

    def test_three_quarter_turn_halves_per_step(self):
        curve = linf_bound(Angle(3, 4), 0.5, 1.0, 6)
        assert curve.values == tuple(0.5**i for i in range(6))

    def test_two_thirds_turn_per_step_factor(self):
        curve = linf_bound(Angle(2, 3), 0.5, 1.0, 3)
        factor = (1 + (2 - math.sqrt(3.0))) / 2
        assert curve.values[1] == pytest.approx(factor, rel=1e-14)
        assert curve.values[2] == pytest.approx(factor**2, rel=1e-14)

    def test_mirror_symmetry(self):
        assert linf_bound(Angle(7, 4), 0.5, 3.0, 20, beta_u=0.7504).values == \
            linf_bound(Angle(1, 4), 0.5, 3.0, 20, beta_u=0.7504).values
        assert linf_bound(Angle(3, 2), 0.5, 3.0, 20).values == \
            linf_bound(Angle(1, 2), 0.5, 3.0, 20).values
        assert linf_bound(Angle(5, 4), 0.5, 3.0, 20).values == \
            linf_bound(Angle(3, 4), 0.5, 3.0, 20).values

    def test_alpha_other_than_half_rejected_off_the_theta_set(self):
        with pytest.raises(UnsupportedAlphaError):
            linf_bound(Angle(1, 4), 0.3, 1.0, 5, beta_u=0.7504)
        with pytest.raises(UnsupportedAlphaError):
            linf_bound(Angle(2, 3), 0.7, 1.0, 5)
        # the floor-power rate at a quarter turn is also derived only for 0.5
        with pytest.raises(UnsupportedAlphaError):
            linf_bound(Angle(1, 2), 0.9, 1.0, 5)

    @pytest.mark.parametrize("theta", [Angle(1, 5), Angle(9, 5)])
    def test_missing_contraction_factor_is_searched(self, theta):
        searched = search_beta_u(Angle(1, 5)).beta_u
        assert linf_bound(theta, 0.5, 1.0, 40).values == \
            linf_bound(theta, 0.5, 1.0, 40, beta_u=searched).values

    @pytest.mark.parametrize("alpha, d, error", [(0.3, 1.0, UnsupportedAlphaError),
                                                 (0.5, math.inf, NonFiniteError),
                                                 (0.5, math.nan, NonFiniteError)])
    def test_rejected_before_any_search(self, alpha, d, error, monkeypatch):
        def no_search(*args):
            raise AssertionError("search_beta_u ran")

        monkeypatch.setattr(kmrot.bounds, "search_beta_u", no_search)
        with pytest.raises(error):
            linf_bound(Angle(1, 5), alpha, d, 5)

    def test_bad_contraction_factor_rejected(self):
        with pytest.raises(ValueError):
            linf_bound(Angle(1, 4), 0.5, 1.0, 5, beta_u=1.2)

    def test_non_increasing_values(self):
        for curve in (
            linf_bound(Angle(1, 4), 0.5, 5.0, 40, beta_u=0.7504),
            linf_bound(Angle(5, 6), 0.5, 5.0, 40),
            linf_bound(Angle(1, 2), 0.5, 5.0, 40),
        ):
            for a, b in zip(curve.values, curve.values[1:]):
                assert b <= a


class TestNoiseBound:
    def test_first_value_is_squared_distance(self):
        rng = random.Random(21)
        for _ in range(50):
            d_sq = rng.uniform(0.0, 50.0)
            curve = noise_bound(sample_angle(rng), rng.uniform(0.05, 0.95), d_sq, 2.0, 0.0, 4)
            assert curve.values[0] == d_sq

    def test_stability_threshold(self):
        # at a quarter of a half turn with alpha 0.5 the threshold is about 0.5858
        noise_bound(Angle(1, 4), 0.5, 10.0, 0.1, 0.58, 10)
        with pytest.raises(UnstableError):
            noise_bound(Angle(1, 4), 0.5, 10.0, 0.1, 0.59, 10)
        with pytest.raises(UnstableError):
            noise_bound(Angle(1, 4), 0.5, 10.0, 2.0, 0.6, 10)

    def test_geometric_series_limit(self):
        curve = noise_bound(Angle(1, 4), 0.5, 10.0, 2.0, 0.0, 2000)
        limit = 2.0 * 0.25 / (1.0 - mu(0.5, Angle(1, 4)))
        assert curve.values[-1] == pytest.approx(limit, rel=1e-12)
        assert limit == pytest.approx(3.414213562373095, rel=1e-14)

    def test_satisfies_one_step_recursion(self):
        theta, alpha, a, b = Angle(1, 3), 0.4, 1.5, 0.7
        rho = mu(alpha, theta) + alpha**2 * b
        assert rho < 1
        curve = noise_bound(theta, alpha, 7.0, a, b, 50)
        for before, after in zip(curve.values, curve.values[1:]):
            assert after == pytest.approx(rho * before + a * alpha**2, rel=1e-12)

    def test_zero_noise_degenerates_to_squared_rate(self):
        curve = noise_bound(Angle(1, 4), 0.5, 10.0, 0.0, 0.0, 20)
        g = mu(0.5, Angle(1, 4))
        for i, value in enumerate(curve.values):
            assert value == pytest.approx(g**i * 10.0, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            noise_bound(Angle(1, 4), 0.5, 10.0, -1.0, 0.0, 5)
        with pytest.raises(ValueError):
            noise_bound(Angle(1, 4), 0.5, 10.0, 1.0, -0.1, 5)
        with pytest.raises(ValueError):
            noise_bound(Angle(1, 4), 0.5, -1.0, 1.0, 0.0, 5)


@pytest.mark.parametrize("d", [math.inf, math.nan])
def test_non_finite_initial_distance_rejected(d):
    with pytest.raises(NonFiniteError):
        l2_bound(Angle(1, 6), 0.5, d, 3)
    with pytest.raises(NonFiniteError):
        linf_bound(Angle(1, 2), 0.5, d, 3)
    with pytest.raises(NonFiniteError):
        noise_bound(Angle(1, 6), 0.5, d, 1.0, 0.0, 3)


class TestDominanceSmoke:
    @pytest.mark.parametrize("p,q,beta_u", [(1, 4, 0.7504), (2, 3, None), (1, 1, None), (7, 4, 0.7504)])
    def test_bound_sits_above_trajectory(self, p, q, beta_u):
        theta = Angle(p, q)
        rng = random.Random(100 * p + q)
        for _ in range(10):
            x1 = Vec2(rng.uniform(-5, 5), rng.uniform(-5, 5))
            traj = run_km(theta, NormKind.LINF, Schedule.constant(0.5), x1, 80)
            curve = linf_bound(theta, 0.5, traj.norms[0], 80, beta_u=beta_u)
            for got, cap in zip(traj.norms, curve.values):
                assert got <= cap + 1e-9
