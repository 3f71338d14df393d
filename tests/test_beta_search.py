"""Contraction-factor sweep, checked against scalar oracles.

The randomized two-sided period check is the test helper
scalar_period_check in _support.
"""

import random

import numpy as np
import pytest

import kmrot.beta_search as beta_search
from kmrot import (
    Angle,
    NormKind,
    OutOfRangeError,
    Vec2,
    beta_l,
    norm,
    pseudo_period,
    search_beta_u,
)
from kmrot.beta_search import MIN_GRID_STEP
from kmrot.rotation import averaged_step, km_step, sin_cos_pi

from _support import PUBLISHED_BETA_U, scalar_period_check


def period_ratio_step_by_step(theta: Angle, start: Vec2) -> float:
    s, c = sin_cos_pi(theta.fraction)
    x = start
    for _ in range(pseudo_period(theta)):
        x = Vec2(*averaged_step(c, s, 0.5, x.x1, x.x2, True))
    return norm(x, NormKind.LINF) / norm(start, NormKind.LINF)


def scalar_search(theta: Angle, grid_step: float) -> tuple[float, float]:
    """Oracle for search_beta_u: one start at a time, ties to the smaller t."""
    n = round(2.0 / grid_step)
    candidates = [-1.0 + (2.0 * i) / n for i in range(n + 1)]
    best, best_t = -1.0, 0.0
    for t in candidates:
        r = period_ratio_step_by_step(theta, Vec2(t, 1.0))
        if r > best:
            best, best_t = r, t
    fine = [best_t + (2.0 / n) * j / 10 for j in range(-10, 11)]
    for t in fine:
        if -1.0 <= t <= 1.0:
            r = period_ratio_step_by_step(theta, Vec2(t, 1.0))
            if r > best or (r == best and t < best_t):
                best, best_t = r, t
    return best, best_t


class TestSearch:
    def test_quarter_period_is_exactly_half(self):
        res = search_beta_u(Angle(1, 2), grid_step=1e-3)
        assert res.beta_u == 0.5
        assert res.period == 2
        assert res.argmax_start == Vec2(-1.0, 1.0)
        assert res._fields == ("period", "beta_u", "argmax_start")

    def test_coarse_grid_lands_near_reference(self):
        for (p, q), reference in PUBLISHED_BETA_U.items():
            theta = Angle(p, q)
            res = search_beta_u(theta, grid_step=1e-3)
            assert res.beta_u == pytest.approx(reference, abs=1e-3)
            assert beta_l(theta) - 1e-6 <= res.beta_u < 1.0
            assert -1.0 <= res.argmax_start.x1 <= 1.0
            assert res.argmax_start.x2 == 1.0

    def test_rejects_large_angles_and_bad_grids(self):
        with pytest.raises(OutOfRangeError):
            search_beta_u(Angle(2, 3))
        with pytest.raises(ValueError):
            search_beta_u(Angle(1, 3), grid_step=2e-3)
        with pytest.raises(ValueError):
            search_beta_u(Angle(1, 3), grid_step=0.0)
        with pytest.raises(ValueError):
            search_beta_u(Angle(1, 3), grid_step=float("nan"))

    def test_grid_step_lower_bound(self):
        search_beta_u(Angle(1, 2), grid_step=MIN_GRID_STEP)
        for tiny in (MIN_GRID_STEP / 2, 5e-324):
            with pytest.raises(ValueError):
                search_beta_u(Angle(1, 4), grid_step=tiny)

    def test_work_budget_counts_both_passes(self, monkeypatch):
        # period 12 times 2001 coarse and 21 fine starts
        monkeypatch.setattr(beta_search, "MAX_SEARCH_STEPS", 12 * 2022)
        search_beta_u(Angle(1, 12), grid_step=1e-3)
        monkeypatch.setattr(beta_search, "MAX_SEARCH_STEPS", 12 * 2022 - 1)
        with pytest.raises(OutOfRangeError, match="24264 averaged steps"):
            search_beta_u(Angle(1, 12), grid_step=1e-3)

    @pytest.mark.parametrize("q", [2, 3, 4, 7, 12])
    def test_matches_scalar_oracle(self, q):
        res = search_beta_u(Angle(1, q), grid_step=1e-3)
        assert (res.beta_u, res.argmax_start.x1) == scalar_search(Angle(1, q), 1e-3)

    @pytest.mark.parametrize("q", [2, 3])
    def test_chunk_size_does_not_change_the_result(self, monkeypatch, q):
        # at pi/2 every start ties at exactly 0.5, so this also pins the
        # tie-break across chunks to the smallest t
        baseline = search_beta_u(Angle(1, q), grid_step=1e-3)
        for chunk in (1, 7, 1000, 2001):
            monkeypatch.setattr(beta_search, "_CHUNK", chunk)
            res = search_beta_u(Angle(1, q), grid_step=1e-3)
            assert res.beta_u == baseline.beta_u
            assert res.argmax_start == baseline.argmax_start

    def test_grid_refinement_is_monotone_and_stable(self):
        values = [search_beta_u(Angle(1, 4), grid_step=g).beta_u for g in (1e-3, 5e-4, 2.5e-4)]
        for coarse, fine in zip(values, values[1:]):
            assert fine >= coarse - 1e-6
        assert round(values[1], 4) == round(values[2], 4)

    def test_ratio_is_scale_invariant(self):
        rng = random.Random(2)
        theta = Angle(1, 4)
        for _ in range(25):
            t = rng.uniform(-1.0, 1.0)
            base = period_ratio_step_by_step(theta, Vec2(t, 1.0))
            for c in (1e-3, 0.7, 3.0, 1e4):
                scaled = period_ratio_step_by_step(theta, Vec2(c * t, c))
                assert scaled == pytest.approx(base, rel=1e-12)

    def test_array_step_matches_scalar_step(self):
        rng = random.Random(44)
        s, c = sin_cos_pi(Angle(2, 7).fraction)
        points = [Vec2(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(200)]
        x1 = np.array([x.x1 for x in points])
        x2 = np.array([x.x2 for x in points])
        y1, y2 = km_step(c, s, 0.5, x1, x2, True)
        for x, got1, got2 in zip(points, y1.tolist(), y2.tolist()):
            assert (got1, got2) == averaged_step(c, s, 0.5, x.x1, x.x2, True)


class TestPeriodChecker:
    def test_clean_report_with_searched_factor(self):
        theta = Angle(1, 3)
        searched = search_beta_u(theta)
        report = scalar_period_check(theta, searched.beta_u, trials=2000, seed=5)
        assert report.passed
        assert report.upper_violations == 0 and report.lower_violations == 0
        assert report.trials == 2000
        assert report.period == 3
        # the sweep is exhaustive up to grid resolution, so no random ratio beats it
        assert report.max_ratio <= searched.beta_u + 1e-6
        assert report.min_ratio >= beta_l(theta) - 1e-6

    def test_violations_are_counted_not_raised(self):
        # an absurdly small factor must produce violations, not exceptions
        report = scalar_period_check(Angle(1, 3), 0.1, trials=200, seed=5)
        assert not report.passed
        assert report.upper_violations > 0
