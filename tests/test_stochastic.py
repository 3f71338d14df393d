"""Noise model and the Monte Carlo harness: moments, determinism, bounds."""

import math

import numpy as np
import pytest

import kmrot.stochastic as stochastic
from kmrot import (
    Angle,
    McConfig,
    NoiseParams,
    NormKind,
    Vec2,
    mu,
    replica_rng,
    run_stochastic_km,
)


def make_config(**overrides):
    base = dict(
        theta=Angle(1, 4),
        alpha=0.5,
        x1=Vec2(1.0, 3.0),
        noise=NoiseParams(2.0, 0.0),
        replicas=200,
        steps=40,
        seed=11,
    )
    base.update(overrides)
    return McConfig(**base)


class TestValidation:
    def test_noise_params(self):
        NoiseParams(0.0, 0.0)  # degenerate noiseless case is allowed
        with pytest.raises(ValueError):
            NoiseParams(-0.1, 0.0)
        with pytest.raises(ValueError):
            NoiseParams(1.0, -0.5)
        with pytest.raises(ValueError):
            NoiseParams(float("inf"), 0.0)

    def test_config(self):
        with pytest.raises(ValueError):
            make_config(alpha=1.0)
        with pytest.raises(ValueError):
            make_config(replicas=0)
        with pytest.raises(ValueError):
            make_config(steps=0)
        with pytest.raises(ValueError):
            make_config(seed=-1)
        with pytest.raises(ValueError):
            make_config(seed=2**64)


class TestDrawNoise:
    def test_second_moment_bulk(self):
        # million-draw check of the harness's per-component scaling
        noise = NoiseParams(2.0, 0.0)
        x = Vec2(0.0, 0.0)
        sigma = math.sqrt(noise.a / 2)
        z = replica_rng(77, 0).standard_normal((1_000_000, 2)) * sigma
        assert float(np.mean(np.sum(z * z, axis=1))) == pytest.approx(2.0, rel=0.01)


class TestRunStochastic:
    def test_noiseless_single_replica_follows_exact_rate(self):
        cfg = make_config(noise=NoiseParams(0.0, 0.0), replicas=1, steps=100)
        res = run_stochastic_km(cfg)
        g = mu(cfg.alpha, cfg.theta)
        for i, value in enumerate(res.mean_sq_norm):
            assert value == pytest.approx(g**i * 10.0, rel=1e-12)
        assert all(se == 0.0 for se in res.std_err)

    def test_identical_config_identical_result(self):
        a = run_stochastic_km(make_config())
        b = run_stochastic_km(make_config())
        assert a.mean_sq_norm == b.mean_sq_norm
        assert a.std_err == b.std_err

    def test_chunk_count_does_not_change_result(self, monkeypatch):
        # the replicas of both norms split into 400, 58, 3 and 2 chunks
        configs = [make_config(replicas=400, norm_kind=kind) for kind in NormKind]
        baselines = [run_stochastic_km(cfg) for cfg in configs]
        for chunk in (1, 7, 149, 399):
            monkeypatch.setattr(stochastic, "_CHUNK", chunk)
            for cfg, baseline in zip(configs, baselines):
                chunked = run_stochastic_km(cfg)
                assert chunked.mean_sq_norm == baseline.mean_sq_norm
                assert chunked.std_err == baseline.std_err

    def test_chunk_size_does_not_change_result(self, monkeypatch):
        baseline = run_stochastic_km(make_config(replicas=100))
        monkeypatch.setattr(stochastic, "_CHUNK", 7)
        chunked = run_stochastic_km(make_config(replicas=100))
        assert chunked.mean_sq_norm == baseline.mean_sq_norm
        assert chunked.std_err == baseline.std_err

    def test_matches_scalar_reference(self):
        cfg = make_config(alpha=0.35, noise=NoiseParams(0.7, 0.3), replicas=3, steps=25, seed=99)
        res = run_stochastic_km(cfg)
        op_c, op_s = math.sqrt(0.5), math.sqrt(0.5)
        per_replica = []
        for r in range(cfg.replicas):
            z = replica_rng(cfg.seed, r).standard_normal((cfg.steps - 1, 2))
            x1, x2 = cfg.x1.x1, cfg.x1.x2
            path = [x1 * x1 + x2 * x2]
            for j in range(cfg.steps - 1):
                sq = x1 * x1 + x2 * x2
                rx1 = op_c * x1 - op_s * x2
                rx2 = op_s * x1 + op_c * x2
                scale = math.sqrt((cfg.noise.a + cfg.noise.b * sq) * 0.5)
                x1 = (1.0 - cfg.alpha) * x1 + cfg.alpha * (rx1 + scale * z[j, 0])
                x2 = (1.0 - cfg.alpha) * x2 + cfg.alpha * (rx2 + scale * z[j, 1])
                path.append(x1 * x1 + x2 * x2)
            per_replica.append(path)
        for k in range(cfg.steps):
            expected = math.fsum(path[k] for path in per_replica) / cfg.replicas
            assert res.mean_sq_norm[k] == expected

    def test_mean_stays_under_bound(self):
        cfg = make_config(replicas=3000, steps=120, seed=424242)
        res = run_stochastic_km(cfg)
        assert res.bound is not None and not res.unstable
        for m, se, cap in zip(res.mean_sq_norm, res.std_err, res.bound.values):
            assert m <= cap + 3 * se

    def test_reaches_steady_state(self):
        cfg = make_config(replicas=3000, steps=120, seed=424242)
        res = run_stochastic_km(cfg)
        limit = cfg.noise.a * cfg.alpha**2 / (1.0 - mu(cfg.alpha, cfg.theta))
        assert res.mean_sq_norm[-1] == pytest.approx(limit, rel=0.1)

    def test_unstable_noise_is_flagged_not_raised(self):
        cfg = make_config(noise=NoiseParams(2.0, 0.6), replicas=50, steps=60)
        res = run_stochastic_km(cfg)
        assert res.unstable
        assert res.bound is None
        assert all(math.isfinite(v) for v in res.mean_sq_norm)

    def test_max_norm_mode_is_simulation_only(self):
        cfg = make_config(norm_kind=NormKind.LINF, replicas=60, steps=30)
        res = run_stochastic_km(cfg)
        assert res.bound is None
        assert not res.unstable
        assert res.mean_sq_norm[0] == 9.0  # max-norm of (1, 3), squared
        again = run_stochastic_km(cfg)
        assert res.mean_sq_norm == again.mean_sq_norm

    def test_first_entry_is_exact_squared_start(self):
        res = run_stochastic_km(make_config(replicas=25, steps=5))
        assert res.mean_sq_norm[0] == 10.0
        assert res.std_err[0] == 0.0
