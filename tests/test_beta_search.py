"""Contraction-factor sweep and the randomized period checker."""

import math
import random

import numpy as np
import pytest

import kmrot.beta_search as beta_search
from kmrot import (
    REFERENCE_BETA_U,
    Angle,
    NormKind,
    OutOfRangeError,
    RotationOp,
    Vec2,
    apply_averaged,
    beta_l,
    norm,
    pseudo_period,
    search_beta_u,
    verify_period_contraction,
)
from kmrot.beta_search import MIN_GRID_STEP, PeriodCheckReport
from kmrot.rotation import km_step


def period_ratio_via_public_api(theta: Angle, start: Vec2) -> float:
    op = RotationOp(theta)
    x = start
    for _ in range(pseudo_period(theta)):
        x = apply_averaged(op, NormKind.LINF, 0.5, x)
    return norm(x, NormKind.LINF) / norm(start, NormKind.LINF)


def scalar_search(theta: Angle, grid_step: float) -> tuple[float, float]:
    """Oracle for search_beta_u: one start at a time, ties to the smaller t."""
    n = round(2.0 / grid_step)
    candidates = [-1.0 + (2.0 * i) / n for i in range(n + 1)]
    best, best_t = -1.0, 0.0
    for t in candidates:
        r = period_ratio_via_public_api(theta, Vec2(t, 1.0))
        if r > best:
            best, best_t = r, t
    fine = [best_t + (2.0 / n) * j / 10 for j in range(-10, 11)]
    for t in fine:
        if -1.0 <= t <= 1.0:
            r = period_ratio_via_public_api(theta, Vec2(t, 1.0))
            if r > best or (r == best and t < best_t):
                best, best_t = r, t
    return best, best_t


def scalar_period_check(theta: Angle, beta_u: float, trials: int, seed: int, tol: float) -> PeriodCheckReport:
    """Oracle for verify_period_contraction: one trial at a time."""
    op = RotationOp(theta)
    period = pseudo_period(theta)
    lower_factor = beta_l(theta)
    rng = random.Random(seed)
    upper = lower = 0
    ratios = []
    for _ in range(trials):
        phi = rng.uniform(0.0, 2.0 * math.pi)
        c, s = math.cos(phi), math.sin(phi)
        m = max(abs(c), abs(s))
        x = Vec2(c / m, s / m)
        for _ in range(rng.randrange(1, 2 * period + 1) - 1):
            x = apply_averaged(op, NormKind.LINF, 0.5, x)
        n_i = norm(x, NormKind.LINF)
        for _ in range(period):
            x = apply_averaged(op, NormKind.LINF, 0.5, x)
        n_f = norm(x, NormKind.LINF)
        ratios.append(n_f / n_i)
        upper += n_f > beta_u * n_i + tol
        lower += n_f < lower_factor * n_i - tol
    return PeriodCheckReport(theta, period, trials, upper, lower, min(ratios), max(ratios))


class TestSearch:
    def test_quarter_period_is_exactly_half(self):
        res = search_beta_u(Angle(1, 2), grid_step=1e-3)
        assert res.beta_u == 0.5
        assert res.period == 2
        assert res.argmax_start == Vec2(-1.0, 1.0)
        assert res.grid_step == 1e-3

    def test_coarse_grid_lands_near_reference(self):
        for theta, reference in REFERENCE_BETA_U.items():
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
            base = period_ratio_via_public_api(theta, Vec2(t, 1.0))
            for c in (1e-3, 0.7, 3.0, 1e4):
                scaled = period_ratio_via_public_api(theta, Vec2(c * t, c))
                assert scaled == pytest.approx(base, rel=1e-12)

    def test_internal_step_matches_public_op(self):
        rng = random.Random(44)
        op = RotationOp(Angle(2, 7))
        points = [Vec2(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(200)]
        x1 = np.array([x.x1 for x in points])
        x2 = np.array([x.x2 for x in points])
        y1, y2 = km_step(op.cos_theta, op.sin_theta, 0.5, x1, x2, True)
        for x, got1, got2 in zip(points, y1.tolist(), y2.tolist()):
            expected = apply_averaged(op, NormKind.LINF, 0.5, x)
            assert (got1, got2) == (expected.x1, expected.x2)

    def test_reference_table_shape(self):
        assert set(REFERENCE_BETA_U) == {Angle(1, 12), Angle(1, 6), Angle(1, 4), Angle(1, 3), Angle(1, 2)}
        assert all(0.0 < v < 1.0 for v in REFERENCE_BETA_U.values())


class TestPeriodChecker:
    def test_clean_report_with_searched_factor(self):
        theta = Angle(1, 3)
        searched = search_beta_u(theta)
        report = verify_period_contraction(theta, searched.beta_u, trials=2000, seed=5)
        assert report.passed
        assert report.upper_violations == 0 and report.lower_violations == 0
        assert report.trials == 2000
        assert report.period == 3
        # the sweep is exhaustive up to grid resolution, so no random ratio beats it
        assert report.max_ratio <= searched.beta_u + 1e-6
        assert report.min_ratio >= beta_l(theta) - 1e-6

    def test_violations_are_counted_not_raised(self):
        # an absurdly small factor must produce violations, not exceptions
        report = verify_period_contraction(Angle(1, 3), 0.1, trials=200, seed=5)
        assert not report.passed
        assert report.upper_violations > 0

    def test_trials_validation(self):
        with pytest.raises(ValueError):
            verify_period_contraction(Angle(1, 3), 0.68, trials=0)

    @pytest.mark.parametrize("q,beta_u,tol", [(3, 0.683, 1e-6), (4, 0.7504, 0.0), (7, 0.84, 1e-9)])
    def test_matches_scalar_oracle(self, q, beta_u, tol):
        got = verify_period_contraction(Angle(1, q), beta_u, trials=300, seed=21, tol=tol)
        assert got == scalar_period_check(Angle(1, q), beta_u, 300, 21, tol)

    def test_chunk_size_does_not_change_the_report(self, monkeypatch):
        baseline = verify_period_contraction(Angle(1, 6), 0.8211, trials=500, seed=4)
        for chunk in (1, 7, 499):
            monkeypatch.setattr(beta_search, "_CHUNK", chunk)
            assert verify_period_contraction(Angle(1, 6), 0.8211, trials=500, seed=4) == baseline

    def test_deterministic_given_seed(self):
        a = verify_period_contraction(Angle(1, 4), 0.7505, trials=500, seed=9)
        b = verify_period_contraction(Angle(1, 4), 0.7505, trials=500, seed=9)
        assert a == b
