"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own pass/fail report.
"""

import math
import random
import time

import pytest

import kmrot.stochastic as stochastic
from kmrot import (
    Angle,
    McConfig,
    NoiseParams,
    NormKind,
    RotationOp,
    Schedule,
    ScheduleKind,
    UnstableError,
    Vec2,
    apply_averaged,
    linf_bound,
    mu,
    noise_bound,
    norm,
    normalized_rotate,
    optimal_alpha_l2,
    run_km,
    run_stochastic_km,
    search_beta_u,
    verify_period_contraction,
)

from _support import run_cli, sample_angle

# Published per-period contraction factors the search must reproduce.
PUBLISHED_BETA_U = {
    (1, 12): 0.8974,
    (1, 6): 0.8211,
    (1, 4): 0.7504,
    (1, 3): 0.6830,
    (1, 2): 0.5,
}

MC_SEED = 20250811


def _report(number: int, message: str) -> None:
    print(f"[acceptance] criterion {number:02d} PASS - {message}")


@pytest.fixture(scope="module")
def searched():
    """Full-resolution searches, shared by criteria 1 and 7."""
    results = {}
    for p, q in PUBLISHED_BETA_U:
        start = time.perf_counter()
        res = search_beta_u(Angle(p, q), grid_step=1e-4)
        results[(p, q)] = (res, time.perf_counter() - start)
    return results


def test_c01_contraction_table_reproduction(searched):
    worst = 0.0
    for (p, q), reference in PUBLISHED_BETA_U.items():
        res, elapsed = searched[(p, q)]
        diff = abs(res.beta_u - reference)
        worst = max(worst, diff)
        assert diff <= 5e-4, f"theta={p}/{q}: got {res.beta_u}, reference {reference}"
        assert elapsed < 60.0
    _report(1, f"search at 1e-4 matches all published factors (worst diff {worst:.2e})")


def test_c02_l2_exactness():
    thetas = [Angle(1, 6), Angle(1, 4), Angle(1, 2), Angle(3, 4), Angle(1, 1)]
    alphas = [0.1, 0.3, 0.5, 0.7, 0.9]
    x1 = Vec2(10.0, 30.0)
    for theta in thetas:
        for alpha in alphas:
            traj = run_km(theta, NormKind.L2, Schedule.constant(alpha), x1, 200)
            g = mu(alpha, theta)
            d = traj.norms[0]
            for i, value in enumerate(traj.norms):
                expected = g ** (i / 2) * d
                assert math.isclose(value, expected, rel_tol=1e-10, abs_tol=0.0), (
                    f"theta={theta}, alpha={alpha}, k={i + 1}: {value} vs {expected}"
                )
    _report(2, "trajectory norms equal the closed-form rate at every step (rel 1e-10)")


def test_c03_optimal_step_size():
    rng = random.Random(20250301)
    for _ in range(20):
        theta = sample_angle(rng, max_q=48)
        alpha_star, g_star = optimal_alpha_l2(theta)
        assert alpha_star == 0.5
        assert abs(g_star - mu(0.5, theta)) <= 1e-14
        for i in range(1, 1000):
            assert g_star <= mu(i / 1000, theta)
    _report(3, "alpha = 0.5 minimizes the per-step factor on a 1e-3 grid for 20 angles")


def test_c04_linf_bound_dominance():
    start = time.perf_counter()
    angles = [(1, 12), (1, 6), (1, 4), (1, 3), (1, 2), (2, 3), (3, 4), (5, 6), (1, 1)]
    rng = random.Random(424242)
    for p, q in angles:
        theta = Angle(p, q)
        beta_u = PUBLISHED_BETA_U.get((p, q))
        for _ in range(100):
            phi = rng.uniform(0.0, 2.0 * math.pi)
            x1 = Vec2(math.cos(phi), math.sin(phi))
            traj = run_km(theta, NormKind.LINF, Schedule.constant(0.5), x1, 200)
            curve = linf_bound(theta, 0.5, traj.norms[0], 200, beta_u=beta_u)
            for got, cap in zip(traj.norms, curve.values):
                assert cap >= got - 1e-9, f"theta={theta}: {got} above bound {cap}"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(4, f"bounds dominate 100 random trajectories for 9 angles ({elapsed:.1f}s)")


def test_c05_quasi_nonexpansiveness():
    start = time.perf_counter()
    rng = random.Random(5150)
    for _ in range(100_000):
        theta = sample_angle(rng)
        alpha = rng.uniform(1e-6, 1.0 - 1e-6)
        x = Vec2(rng.uniform(-100, 100), rng.uniform(-100, 100))
        out = apply_averaged(RotationOp(theta), NormKind.LINF, alpha, x)
        assert norm(out, NormKind.LINF) <= norm(x, NormKind.LINF) + 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(5, f"1e5 random averaged steps never grow the max norm ({elapsed:.1f}s)")


def test_c06_expansion_dichotomy():
    op = RotationOp(Angle(1, 4))
    ix = normalized_rotate(op, Vec2(1.0, 0.0))
    iy = normalized_rotate(op, Vec2(0.0, 1.0))
    expansion = max(abs(ix.x1 - iy.x1), abs(ix.x2 - iy.x2))
    assert expansion == 2.0
    assert expansion > 1.0 == max(abs(1.0 - 0.0), abs(0.0 - 1.0))

    rng = random.Random(606)
    for p, q in [(1, 2), (1, 1)]:
        op = RotationOp(Angle(p, q))
        for _ in range(10_000):
            x = Vec2(rng.uniform(-10, 10), rng.uniform(-10, 10))
            y = Vec2(rng.uniform(-10, 10), rng.uniform(-10, 10))
            if x.is_zero() or y.is_zero():
                continue
            ix, iy = normalized_rotate(op, x), normalized_rotate(op, y)
            lhs = max(abs(ix.x1 - iy.x1), abs(ix.x2 - iy.x2))
            rhs = max(abs(x.x1 - y.x1), abs(x.x2 - y.x2))
            assert lhs <= rhs + 1e-12
    _report(6, "expansion is exactly 2 at the eighth turn; none on the quarter/half turns")


def test_c07_per_period_two_sided_bound(searched):
    start = time.perf_counter()
    for p, q in [(1, 12), (1, 6), (1, 4), (1, 3)]:
        res, _ = searched[(p, q)]
        report = verify_period_contraction(Angle(p, q), res.beta_u, trials=10_000, seed=7000 + q)
        assert report.upper_violations == 0, f"theta={p}/{q}: {report}"
        assert report.lower_violations == 0, f"theta={p}/{q}: {report}"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(7, f"1e4 random periods per angle stay inside [beta_l, beta_u] ({elapsed:.1f}s)")


def test_c08_monte_carlo_additive_noise():
    start = time.perf_counter()
    cfg = McConfig(
        theta=Angle(1, 4), alpha=0.5, x1=Vec2(1.0, 3.0),
        noise=NoiseParams(2.0, 0.0), replicas=10_000, steps=100, seed=MC_SEED,
    )
    res = run_stochastic_km(cfg)
    assert res.bound is not None and not res.unstable
    for m, se, cap in zip(res.mean_sq_norm, res.std_err, res.bound.values):
        assert m <= cap + 3 * se
    limit = 2.0 * 0.25 / (1.0 - (0.5 + math.sqrt(0.5) / 2))
    assert abs(res.mean_sq_norm[-1] - limit) <= 0.10 * limit
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(8, f"mean square stays under the bound and ends within 10% of {limit:.4f} ({elapsed:.1f}s)")


def test_c09_monte_carlo_proportional_noise():
    start = time.perf_counter()
    cfg = McConfig(
        theta=Angle(1, 4), alpha=0.5, x1=Vec2(1.0, 3.0),
        noise=NoiseParams(0.1, 0.5), replicas=10_000, steps=1000, seed=MC_SEED,
    )
    res = run_stochastic_km(cfg)
    assert res.bound is not None and not res.unstable
    for m, se, cap in zip(res.mean_sq_norm, res.std_err, res.bound.values):
        assert m <= cap + 3 * se
    with pytest.raises(UnstableError):
        noise_bound(Angle(1, 4), 0.5, 10.0, 0.1, 0.6, 10)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report(9, f"dominance holds at b = 0.5 and b = 0.6 is rejected as unstable ({elapsed:.1f}s)")


def test_c10_schedule_ordering():
    finals = {}
    for schedule in (Schedule.inv_log(), Schedule.inv_sqrt(), Schedule.inv_k()):
        traj = run_km(Angle(1, 4), NormKind.L2, schedule, Vec2(10.0, 30.0), 10_000)
        finals[schedule.kind] = traj.norms[-1]
    assert finals[ScheduleKind.INV_LOG] < finals[ScheduleKind.INV_SQRT] < finals[ScheduleKind.INV_K]
    assert finals[ScheduleKind.INV_K] > 10.0 * finals[ScheduleKind.INV_SQRT]
    _report(10, "after 1e4 steps: 1/log fastest, then 1/sqrt(k), then 1/k (over 10x slower)")


def test_c11_determinism(tmp_path, capsys, monkeypatch):
    argv = ["mc", "--theta", "1/4", "--alpha", "0.5", "--x1", "1,3", "--A", "2", "--B", "0",
            "--replicas", "10000", "--steps", "100", "--seed", str(MC_SEED)]
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(argv + ["--out", str(first)], capsys)[0] == 0
    assert run_cli(argv + ["--out", str(second)], capsys)[0] == 0
    assert first.read_bytes() == second.read_bytes()

    cfg = McConfig(
        theta=Angle(1, 4), alpha=0.5, x1=Vec2(1.0, 3.0),
        noise=NoiseParams(2.0, 0.0), replicas=10_000, steps=100, seed=MC_SEED,
    )
    baseline = run_stochastic_km(cfg)
    for chunk in (1000, 4999):
        monkeypatch.setattr(stochastic, "_CHUNK", chunk)
        res = run_stochastic_km(cfg)
        assert res.mean_sq_norm == baseline.mean_sq_norm
        assert res.std_err == baseline.std_err
    _report(11, "same seed gives byte-identical CSV; chunk sizes agree bit for bit")
