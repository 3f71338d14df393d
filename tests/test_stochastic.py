"""Noise model and the Monte Carlo harness: moments, determinism, bounds."""

import contextlib
import math
import os
import signal
import sys
import time
from collections import Counter, deque
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import kmrot.stochastic as stochastic
from kmrot import (
    Angle,
    InvalidAlphaError,
    KmrotError,
    McConfig,
    NoiseParams,
    NonFiniteError,
    NormKind,
    Vec2,
    l2_bound,
    linf_bound,
    mu,
    noise_bound,
    run_km,
    run_stochastic_km,
)
from kmrot.rotation import km_step, sin_cos_pi
from kmrot.stochastic import replica_rng

from _support import Z_MC, assert_no_child_left, mc_columns, mc_z_scores


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


def scalar_paths(cfg, replicas):
    """Each listed replica's squared l2 norms, stepped one float at a time from its noise block's draws.

    Block b's generator is default_rng([seed, b]); before each step it draws
    one (n_b, 2) array, n_b = min(2048, R - 2048 b), and replica r takes
    row r - 2048 b.
    """
    op_c, op_s = math.sqrt(0.5), math.sqrt(0.5)
    draws = {}
    for block in {r // 2048 for r in replicas}:
        g = np.random.default_rng([cfg.seed, block])
        n = min(2048, cfg.replicas - 2048 * block)
        draws[block] = [g.standard_normal((n, 2)) for _ in range(cfg.steps - 1)]
    paths = []
    for r in replicas:
        z = [step[r % 2048] for step in draws[r // 2048]]
        x1, x2 = cfg.x1.x1, cfg.x1.x2
        path = [x1 * x1 + x2 * x2]
        for j in range(cfg.steps - 1):
            sq = x1 * x1 + x2 * x2
            rx1 = op_c * x1 - op_s * x2
            rx2 = op_s * x1 + op_c * x2
            scale = math.sqrt((cfg.noise.a + cfg.noise.b * sq) * 0.5)
            x1 = (1.0 - cfg.alpha) * x1 + cfg.alpha * (rx1 + scale * z[j][0])
            x2 = (1.0 - cfg.alpha) * x2 + cfg.alpha * (rx2 + scale * z[j][1])
            path.append(x1 * x1 + x2 * x2)
        paths.append(path)
    return paths


# every entry point that takes a step size, called with alpha = a and every count 0:
# alpha is checked before counts
ALPHA_ENTRIES = {
    "McConfig": lambda a: make_config(alpha=a, replicas=0, steps=0),
    "mu": lambda a: mu(a, Angle(1, 4)),
    "l2_bound": lambda a: l2_bound(Angle(1, 4), a, 1.0, 0),
    "linf_bound": lambda a: linf_bound(Angle(1, 4), a, 1.0, 0),
    "noise_bound": lambda a: noise_bound(Angle(1, 4), a, 1.0, 2.0, 0.0, 0),
    "run_km": lambda a: run_km(Angle(1, 4), NormKind.L2, a, Vec2(1.0, 1.0), 0),
}


class TestValidation:
    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.2, math.nan])
    @pytest.mark.parametrize("entry", sorted(ALPHA_ENTRIES))
    def test_bad_alpha_is_one_error_type(self, entry, alpha):
        with pytest.raises(InvalidAlphaError, match="alpha in|alpha must lie in") as info:
            ALPHA_ENTRIES[entry](alpha)
        assert isinstance(info.value, KmrotError) and isinstance(info.value, ValueError)

    @pytest.mark.parametrize("a, b", [(math.nan, 0.0), (math.inf, 0.0), (1.0, math.nan), (1.0, -math.inf)])
    def test_non_finite_noise_is_one_error_type(self, a, b):
        with pytest.raises(NonFiniteError, match="noise parameter [ab] must be finite") as info:
            NoiseParams(a, b)
        assert isinstance(info.value, KmrotError) and isinstance(info.value, ValueError)

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


def block_paths(cfg, block):
    """Squared norms of noise block `block`'s replicas, one row per step, as a process adds them to its sums."""
    added = []

    class Recorder(stochastic.ExactSums):
        def add(self, sq):
            added.append(sq.copy())

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(stochastic, "ExactSums", Recorder)
        deque(stochastic._simulate_share(cfg, range(block, block + 1)), maxlen=0)
    return np.concatenate(added)


class TestNoiseBlocks:
    """Block b of a run draws from default_rng([seed, b]); a path depends on R only in the last, partial block."""

    # both ends of the seed range, and seeds of one and two 32-bit words
    SEEDS = [0, 7, 2**32 - 1, 2**32, 2**40 + 3, 2**64 - 1]
    # replica numbers around block bounds (2048, 4096), mc_long's worker
    # bound (10 240 of 20 000, a block bound) and 10 000, where it lay while
    # shares were cut by replica count, one and two 32-bit words, and the
    # last one
    REPLICAS = [(0, 3), (2046, 2051), (4095, 4098), (9998, 10003), (10238, 10242), (2**32 - 2, 2**32 + 2),
                (2**64 - 2, 2**64)]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_replica_rng_is_its_blocks_generator(self, seed):
        for start, stop in self.REPLICAS:
            draws = {}
            for r in range(start, stop):
                draws[r] = replica_rng(seed, r).standard_normal(300).tolist()
                assert draws[r] == np.random.default_rng([seed, r // 2048]).standard_normal(300).tolist()
            # one stream per block: neighbours share it, and a block bound splits them
            for r in range(start, stop - 1):
                assert (draws[r] == draws[r + 1]) is ((r + 1) % 2048 != 0)

    @pytest.mark.parametrize("kind", NormKind)
    def test_full_block_paths_do_not_depend_on_the_replica_count(self, kind):
        def paths(replicas, block):
            cfg = make_config(replicas=replicas, steps=6, noise=NoiseParams(2.0, 0.1), norm_kind=kind)
            return block_paths(cfg, block).tolist()

        # block 0 is full at any R >= 2048
        assert len({repr(paths(r, 0)) for r in (2048, 2050, 4096, 4100)}) == 1
        # block 1 is full at R = 4096 and at 4100, which adds a block of 4
        assert paths(4096, 1) == paths(4100, 1)

    @pytest.mark.parametrize("kind", NormKind)
    def test_a_partial_blocks_paths_depend_on_its_size(self, kind):
        # block 1 holds 2 replicas at R = 2050 and 3 at R = 2051: the first
        # step's pair of replica 2048 is the stream's first two numbers at
        # both, the second step's is numbers 4-5 at one and 6-7 at the other
        def paths(replicas):
            cfg = make_config(replicas=replicas, steps=3, noise=NoiseParams(2.0, 0.1), norm_kind=kind)
            return block_paths(cfg, 1)[:, 0].tolist()

        two, three = paths(2050), paths(2051)
        assert two[:2] == three[:2]
        assert two[2] != three[2]


class TestRunStochastic:
    def test_noiseless_single_replica_follows_exact_rate(self):
        cfg = make_config(noise=NoiseParams(0.0, 0.0), replicas=1, steps=100)
        res = mc_columns(cfg)
        g = mu(cfg.alpha, cfg.theta)
        for i, value in enumerate(res.mean_sq_norm):
            assert value == pytest.approx(g**i * 10.0, rel=1e-12)
        assert all(se == 0.0 for se in res.std_err)

    def test_identical_config_identical_result(self):
        a = mc_columns(make_config())
        b = mc_columns(make_config())
        assert a.mean_sq_norm == b.mean_sq_norm
        assert a.std_err == b.std_err

    def test_step_block_does_not_change_result(self, monkeypatch):
        # a horizon one step past a whole number of slabs ends in a slab of
        # one step, after which nothing is drawn or stepped: 65 steps at 64,
        # 129 at 128
        configs = [make_config(replicas=30, steps=steps, norm_kind=kind)
                   for steps in (1, 2, 64, 65, 129) for kind in NormKind]
        baselines = [mc_columns(cfg) for cfg in configs]
        for block in (1, 3, 7, 64, 200):
            monkeypatch.setattr(stochastic, "_BLOCK", block * 30)  # slabs of `block` steps
            monkeypatch.setattr(stochastic, "_PASS", block * 30)  # summed in passes of a slab
            for cfg, baseline in zip(configs, baselines):
                blocked = mc_columns(cfg)
                assert blocked.mean_sq_norm == baseline.mean_sq_norm
                assert blocked.std_err == baseline.std_err

    def test_matches_scalar_reference(self):
        cfg = make_config(alpha=0.35, noise=NoiseParams(0.7, 0.3), replicas=3, steps=25, seed=99)
        res = mc_columns(cfg)
        per_replica = scalar_paths(cfg, range(cfg.replicas))
        for k in range(cfg.steps):
            expected = float(sum(Fraction(path[k]) for path in per_replica) / cfg.replicas)
            assert res.mean_sq_norm[k] == expected

    def test_matches_scalar_reference_across_a_noise_block_bound(self):
        # replicas 2046 and 2047 take the last rows of block 0's draws, 2048
        # and 2049 the only rows of block 1's, which holds 2 replicas
        cfg = make_config(alpha=0.35, noise=NoiseParams(0.7, 0.3), replicas=2050, steps=25, seed=99)
        paths = np.concatenate([block_paths(cfg, 0)[:, 2046:], block_paths(cfg, 1)], axis=1)
        assert paths.T.tolist() == scalar_paths(cfg, range(2046, 2050))

    @pytest.mark.parametrize("kind", NormKind)
    def test_one_step_run_draws_nothing(self, kind, monkeypatch):
        def fail(*args):
            raise AssertionError("a 1-step run built a generator")

        monkeypatch.setattr(stochastic, "replica_rng", fail)
        res = mc_columns(make_config(noise=NoiseParams(2.0, 0.1), steps=1, norm_kind=kind))
        assert (res.mean_sq_norm, res.std_err) == ((10.0 if kind is NormKind.L2 else 9.0,), (0.0,))

    def test_mean_stays_under_bound(self):
        cfg = make_config(replicas=3000, steps=120, seed=424242)
        res = mc_columns(cfg)
        assert res.bound is not None and not res.unstable
        assert max(map(abs, mc_z_scores(cfg, res.mean_sq_norm))) <= Z_MC

    def test_reaches_steady_state(self):
        cfg = make_config(replicas=3000, steps=120, seed=424242)
        res = mc_columns(cfg)
        limit = cfg.noise.a * cfg.alpha**2 / (1.0 - mu(cfg.alpha, cfg.theta))
        assert res.mean_sq_norm[-1] == pytest.approx(limit, rel=0.1)

    def test_unstable_noise_is_flagged_not_raised(self):
        cfg = make_config(noise=NoiseParams(2.0, 0.6), replicas=50, steps=60)
        res = mc_columns(cfg)
        assert res.unstable
        assert res.bound is None
        assert all(math.isfinite(v) for v in res.mean_sq_norm)

    def test_max_norm_mode_is_simulation_only(self):
        cfg = make_config(norm_kind=NormKind.LINF, replicas=60, steps=30)
        res = mc_columns(cfg)
        assert res.bound is None
        assert not res.unstable
        assert res.mean_sq_norm[0] == 9.0  # max-norm of (1, 3), squared
        again = mc_columns(cfg)
        assert res.mean_sq_norm == again.mean_sq_norm

    def test_reader_keeps_its_own_numpy_error_state_between_rows(self):
        # numpy keeps errstate in a context variable, so one held across a
        # yield would hold in the reader's code too
        with np.errstate(all="raise"):
            mine = np.geterr()
            for _ in run_stochastic_km(make_config(steps=300, noise=NoiseParams(2.0, 0.1))).rows:
                assert np.geterr() == mine

    def test_first_entry_is_exact_squared_start(self):
        res = mc_columns(make_config(replicas=25, steps=5))
        assert res.mean_sq_norm[0] == 10.0
        assert res.std_err[0] == 0.0

    @pytest.mark.filterwarnings("error")
    def test_noiseless_run_has_zero_std_err(self):
        # all replicas share one path; at 1e100 the old dev * dev overflowed
        for kind in NormKind:
            for x1 in (Vec2(1.0, 3.0), Vec2(1e100, -3e99)):
                cfg = make_config(theta=Angle(1, 7), x1=x1, noise=NoiseParams(0.0, 0.0),
                                  replicas=100, steps=50, norm_kind=kind)
                res = mc_columns(cfg)
                assert all(se == 0.0 for se in res.std_err)

    def test_fold_and_block_sizes_do_not_change_result(self, monkeypatch):
        cfg = make_config(replicas=100, norm_kind=NormKind.LINF)
        baseline = mc_columns(cfg)
        monkeypatch.setattr(stochastic, "_BLOCK", 5)
        monkeypatch.setattr(stochastic, "_PASS", 5)
        folded = mc_columns(cfg)
        assert folded.mean_sq_norm == baseline.mean_sq_norm
        assert folded.std_err == baseline.std_err

    def test_non_finite_replicas_raise(self):
        cfg = make_config(x1=Vec2(1e200, 1e200), norm_kind=NormKind.LINF, replicas=10, steps=2)
        with pytest.raises(NonFiniteError, match="k = 1: 10 of 10 replicas"):
            mc_columns(cfg)

    def test_mean_is_exact_where_only_the_rounded_sum_overflows(self):
        # each squared norm is about 2e306, so their sum is not a finite double
        cfg = make_config(theta=Angle(1, 6), x1=Vec2(1e153, 1e153), replicas=100, steps=2)
        res = mc_columns(cfg)
        sq = block_paths(cfg, 0)
        with pytest.raises(OverflowError):
            math.fsum(sq[0].tolist())
        for k in range(cfg.steps):
            assert res.mean_sq_norm[k] == float(sum(map(Fraction, sq[k].tolist())) / cfg.replicas)
        assert res.std_err[0] == 0.0

    @pytest.mark.parametrize("kind", NormKind)
    def test_noiseless_mean_is_the_common_value(self, kind):
        # every replica follows one path, so each mean is that path's value;
        # the sum rounded before the division missed it in 27 of 200 steps
        # at 5000 replicas, which ExactSums gets as a run would add them
        configs = [make_config(theta=Angle(1, 6), x1=Vec2(-6.1, 2.2), noise=NoiseParams(0.0, 0.0),
                               replicas=replicas, steps=200, norm_kind=kind)
                   for replicas in (1, 3)]
        one, *many = [mc_columns(cfg).mean_sq_norm for cfg in configs]
        many.append(sums_as_a_run_adds(np.repeat(np.array([one]).T, 5000, axis=1)).moments()[0])
        for means in many:
            assert means == one

    @pytest.mark.parametrize("kind", NormKind)
    def test_noiseless_run_matches_the_array_step(self, kind):
        # the one path gives the bytes of stepping every replica with
        # km_step and adding their squares exactly
        cfg = make_config(theta=Angle(2, 3), alpha=0.3, x1=Vec2(3.0, -7.0), noise=NoiseParams(0.0, 0.0),
                          replicas=3, steps=50, norm_kind=kind)
        s, c = sin_cos_pi(cfg.theta.fraction)
        linf = kind is NormKind.LINF
        x1, x2 = np.full(cfg.replicas, cfg.x1.x1), np.full(cfg.replicas, cfg.x1.x2)
        sq = []
        for _ in range(cfg.steps):
            mx = np.maximum(np.abs(x1), np.abs(x2))
            sq.append(mx * mx if linf else x1 * x1 + x2 * x2)
            x1, x2 = km_step(c, s, cfg.alpha, x1, x2, linf)
        res = mc_columns(cfg)
        assert (res.mean_sq_norm, res.std_err) == sums_as_a_run_adds(np.array(sq)).moments()

    @pytest.mark.parametrize("x1", [Vec2(1e200, 1e200), Vec2(1.5e308, 1.5e308)], ids=["1e200", "1.5e308"])
    def test_noiseless_non_finite_square_raises_before_the_next_step(self, x1):
        # from 1.5e308 the next step would overflow a coordinate instead
        cfg = make_config(theta=Angle(1, 6), x1=x1, noise=NoiseParams(0.0, 0.0), replicas=7, steps=3,
                          norm_kind=NormKind.LINF)
        with pytest.raises(NonFiniteError, match=r"^squared norm not finite at k = 1: 7 of 7 replicas$"):
            mc_columns(cfg)

    @pytest.mark.parametrize("kind", NormKind)
    def test_noiseless_run_draws_nothing(self, kind, monkeypatch):
        def fail(*args):
            raise AssertionError("a noiseless run drew, stepped arrays, summed or forked")

        # 5000 replicas are three noise blocks: forked wherever there are two CPUs
        cfg = make_config(noise=NoiseParams(0.0, 0.0), replicas=5000, norm_kind=kind)
        monkeypatch.setattr(stochastic, "replica_rng", fail)
        monkeypatch.setattr(stochastic, "_simulate_share", fail)
        monkeypatch.setattr(stochastic, "ExactSums", fail)
        monkeypatch.setattr(os, "fork", fail)
        res = mc_columns(cfg)
        assert res.std_err == (0.0,) * cfg.steps

    @pytest.mark.filterwarnings("error")
    def test_constant_noise_scale_where_the_euclidean_square_overflows(self):
        # b = 0: b * ||x||_2^2 would be 0 * inf = nan at this start
        cfg = make_config(theta=Angle(1, 6), x1=Vec2(1e154, 1e154), noise=NoiseParams(2.0, 0.0),
                          replicas=10, steps=3, norm_kind=NormKind.LINF)
        res = mc_columns(cfg)
        assert res.mean_sq_norm[0] == 1e154 * 1e154
        assert all(map(math.isfinite, res.mean_sq_norm + res.std_err))

    def test_memory_does_not_grow_with_replicas(self, monkeypatch):
        # the whole replicas x steps matrix would take 25 MiB; one process,
        # since tracemalloc sees only the allocations of this one
        monkeypatch.setattr(stochastic, "_workers", lambda blocks: 1)
        replicas, steps = 16384, 200
        cfg = make_config(replicas=replicas, steps=steps, noise=NoiseParams(2.0, 0.1))
        tracemalloc.start()
        try:
            mc_columns(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < replicas * steps * 8 / 2

    def test_memory_does_not_grow_with_steps(self, monkeypatch):
        # one noise block's noise and squared norms for the whole horizon would
        # take about 70 MiB; one process, as above
        monkeypatch.setattr(stochastic, "_workers", lambda blocks: 1)
        cfg = make_config(replicas=2048, steps=1500, noise=NoiseParams(2.0, 0.0))
        tracemalloc.start()
        try:
            mc_columns(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_memory_of_a_decaying_run_stays_small(self):
        # the squared norm halves each step and reaches 0 near step 1080; one
        # exponent window shared by all steps would span ~1100 bins per step
        cfg = make_config(theta=Angle(1, 2), noise=NoiseParams(0.0, 0.0), replicas=1, steps=2000)
        sq = np.repeat(np.array([mc_columns(cfg).mean_sq_norm]).T, 10, axis=1)
        tracemalloc.start()
        try:
            sums_as_a_run_adds(sq).moments()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


def force_workers(monkeypatch, workers):
    monkeypatch.setattr(stochastic, "_workers", lambda blocks: workers)


def untrace_children(monkeypatch):
    """Stop tracemalloc in forked workers, which inherit it: only this process's peak is measured."""
    parent, real = os.getpid(), stochastic._simulate_share

    def share(cfg, blocks):
        if os.getpid() != parent:
            tracemalloc.stop()
        return real(cfg, blocks)

    monkeypatch.setattr(stochastic, "_simulate_share", share)


class TestWorkers:
    # 30 replicas in noise blocks of 7: five blocks, shared out over up to
    # three processes
    CONFIGS = {
        "l2": dict(noise=NoiseParams(2.0, 0.1)),
        "linf": dict(norm_kind=NormKind.LINF),
        "additive": dict(noise=NoiseParams(2.0, 0.0)),
        "unstable": dict(noise=NoiseParams(2.0, 0.6)),
    }

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_worker_count_does_not_change_a_bit(self, monkeypatch, name):
        monkeypatch.setattr(stochastic, "_NOISE_BLOCK", 7)
        cfg = make_config(replicas=30, **self.CONFIGS[name])
        results = []
        for workers in (1, 2, 3):
            force_workers(monkeypatch, workers)
            results.append(mc_columns(cfg))
            assert_no_child_left()
        assert results[0].unstable == (name == "unstable")
        assert (results[0].bound is None) == (name in ("linf", "unstable"))
        # repr tells -0.0 from 0.0 and prints each float exactly
        assert len({repr(res) for res in results}) == 1

    @pytest.mark.parametrize("steps", [1, 2, 64, 128])
    def test_step_block_length_does_not_change_a_bit(self, monkeypatch, steps):
        # step blocks of 1, 2, 64 and 128 steps over 130 steps; 30 replicas
        # in noise blocks of 7, over 1 and 3 processes, which send their totals
        # once per block
        monkeypatch.setattr(stochastic, "_NOISE_BLOCK", 7)
        cfg = make_config(replicas=30, steps=130, noise=NoiseParams(2.0, 0.1))
        baseline = repr(mc_columns(cfg))
        monkeypatch.setattr(stochastic, "_BLOCK", 7 * steps)
        monkeypatch.setattr(stochastic, "_PASS", 7 * steps)
        for workers in (1, 3):
            force_workers(monkeypatch, workers)
            assert repr(mc_columns(cfg)) == baseline
            assert_no_child_left()

    def test_non_finite_counts_add_up_over_the_workers(self, monkeypatch):
        monkeypatch.setattr(stochastic, "_NOISE_BLOCK", 7)
        cfg = make_config(x1=Vec2(1e200, 1e200), norm_kind=NormKind.LINF, replicas=30, steps=2)
        for workers in (1, 2, 3):
            force_workers(monkeypatch, workers)
            with pytest.raises(NonFiniteError, match=r"^squared norm not finite at k = 1: 30 of 30 replicas$"):
                mc_columns(cfg)
            assert_no_child_left()

    @pytest.mark.parametrize("kind", NormKind)
    def test_windows_do_not_change_a_bit(self, monkeypatch, kind):
        # 43 replicas are seven noise blocks of 7, the last of 1; in windows
        # of two blocks each share spans several windows, and the last one
        # holds that single replica at 1 and 3 processes ([0, 2), [2, 4),
        # [4, 7)); 16-step blocks over 40 steps
        monkeypatch.setattr(stochastic, "_NOISE_BLOCK", 7)
        monkeypatch.setattr(stochastic, "_BLOCK", 7 * 16)
        cfg = make_config(replicas=43, noise=NoiseParams(2.0, 0.1), norm_kind=kind)
        force_workers(monkeypatch, 1)
        baseline = repr(mc_columns(cfg))
        monkeypatch.setattr(stochastic, "_WINDOW", 2)
        for workers in (1, 2, 3):
            force_workers(monkeypatch, workers)
            assert repr(mc_columns(cfg)) == baseline
            assert_no_child_left()

    def test_memory_grows_by_the_coordinates_only(self, monkeypatch):
        # a process's scratch is sized to one window, so from 4 windows of
        # replicas to 8 its peak grows by the two coordinates, 16 bytes a
        # replica, and a generator per noise block; scratch sized to the
        # share would add about 100 bytes a replica
        force_workers(monkeypatch, 1)
        window = stochastic._WINDOW * stochastic._NOISE_BLOCK

        def peak(replicas):
            tracemalloc.start()
            try:
                mc_columns(make_config(replicas=replicas, steps=3, noise=NoiseParams(2.0, 0.1)))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(window)  # loads what a first run loads
        grown = peak(8 * window) - peak(4 * window)
        assert 16 * 4 * window <= grown < 17 * 4 * window

    def test_failed_parent_share_kills_and_reaps_the_children(self, monkeypatch):
        # each child would sleep for a minute; the run ends well before
        monkeypatch.setattr(stochastic, "_NOISE_BLOCK", 7)
        force_workers(monkeypatch, 3)
        parent = os.getpid()

        def share(cfg, blocks):
            if os.getpid() == parent:
                raise ValueError("the parent's share failed")
            time.sleep(60)
            return iter(())

        monkeypatch.setattr(stochastic, "_simulate_share", share)
        t0 = time.monotonic()
        with pytest.raises(ValueError, match="the parent's share failed"):
            mc_columns(make_config(replicas=30))
        assert time.monotonic() - t0 < 30
        assert_no_child_left()

    def test_child_that_sends_nothing_fails_the_run(self, monkeypatch):
        monkeypatch.setattr(stochastic, "_NOISE_BLOCK", 7)
        force_workers(monkeypatch, 3)
        parent, real = os.getpid(), stochastic._simulate_share

        def share(cfg, blocks):
            if os.getpid() != parent:
                os._exit(1)
            return real(cfg, blocks)

        monkeypatch.setattr(stochastic, "_simulate_share", share)
        with pytest.raises(RuntimeError, match="ended without sending its totals"):
            mc_columns(make_config(replicas=30))
        assert_no_child_left()

    def test_failed_child_ends_the_run_without_waiting_for_a_slower_one(self, monkeypatch):
        # blocks 1 and 2 run in the first child, which fails at once; the
        # second child would sleep for a minute per block
        monkeypatch.setattr(stochastic, "_NOISE_BLOCK", 7)
        force_workers(monkeypatch, 3)
        parent, real = os.getpid(), stochastic._simulate_share

        def share(cfg, blocks):
            if os.getpid() != parent:
                if blocks.start < 3:
                    os._exit(1)
                time.sleep(60)
            return real(cfg, blocks)

        monkeypatch.setattr(stochastic, "_simulate_share", share)
        t0 = time.monotonic()
        with pytest.raises(RuntimeError, match="ended without sending its totals"):
            mc_columns(make_config(replicas=30))
        assert time.monotonic() - t0 < 30
        assert_no_child_left()

    def test_child_killed_by_a_signal_fails_the_run(self, monkeypatch):
        # its wait status is a signal, not an exit code
        monkeypatch.setattr(stochastic, "_NOISE_BLOCK", 7)
        force_workers(monkeypatch, 3)
        parent, real = os.getpid(), stochastic._simulate_share

        def share(cfg, blocks):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return real(cfg, blocks)

        monkeypatch.setattr(stochastic, "_simulate_share", share)
        with pytest.raises(RuntimeError, match="ended without sending its totals"):
            mc_columns(make_config(replicas=30))
        assert_no_child_left()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    @pytest.mark.parametrize("fails, error", [(None, None), ("child", RuntimeError), ("parent", ValueError)])
    def test_run_leaves_no_descriptor_open(self, monkeypatch, fails, error):
        monkeypatch.setattr(stochastic, "_NOISE_BLOCK", 7)
        force_workers(monkeypatch, 3)
        parent, real = os.getpid(), stochastic._simulate_share

        def share(cfg, blocks):
            if fails == ("parent" if os.getpid() == parent else "child"):
                raise ValueError("this share failed")
            return real(cfg, blocks)

        monkeypatch.setattr(stochastic, "_simulate_share", share)
        before = len(os.listdir("/proc/self/fd"))
        with pytest.raises(error) if error else contextlib.nullcontext():
            mc_columns(make_config(replicas=30))
        assert len(os.listdir("/proc/self/fd")) == before
        assert_no_child_left()

    def test_parent_memory_is_flat_in_steps_and_workers(self, monkeypatch):
        # this process holds one step block's totals, its own and one
        # worker's at a time; the rows are read and dropped.  Blocks of 128
        # steps make 512 and 4096 steps 4 and 32 blocks, as 4096 and 32768
        # are at 1024 steps a block, in an eighth of the time; the totals of
        # every step would grow by about 1.6 MB.  35 replicas are five
        # noise blocks of 7, enough for each of five workers
        monkeypatch.setattr(stochastic, "_NOISE_BLOCK", 7)
        monkeypatch.setattr(stochastic, "_BLOCK", 7 * 128)
        untrace_children(monkeypatch)

        def peak(workers, steps):
            force_workers(monkeypatch, workers)
            tracemalloc.start()
            try:
                deque(run_stochastic_km(make_config(replicas=35, steps=steps)).rows, maxlen=0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
                assert_no_child_left()

        peak(2, 2)  # loads what a first run loads
        two = peak(2, 512)
        assert peak(2, 4096) <= two + 2**16
        assert peak(5, 512) <= two + 2**16

    def test_child_error_prints_its_traceback(self, monkeypatch, capfd):
        monkeypatch.setattr(stochastic, "_NOISE_BLOCK", 7)
        force_workers(monkeypatch, 2)
        parent, real = os.getpid(), stochastic._simulate_share

        def share(cfg, blocks):
            if os.getpid() != parent:
                raise ValueError("a child's share failed")
            return real(cfg, blocks)

        monkeypatch.setattr(stochastic, "_simulate_share", share)
        with pytest.raises(RuntimeError, match="ended without sending its totals"):
            mc_columns(make_config(replicas=30))
        assert_no_child_left()
        err = capfd.readouterr().err
        assert "Traceback" in err and "ValueError: a child's share failed" in err

    def test_each_process_runs_one_contiguous_range_of_replicas(self, monkeypatch, tmp_path):
        # 30 replicas are five noise blocks of 7, the last of 2; over three
        # processes, each logs the blocks it steps
        monkeypatch.setattr(stochastic, "_NOISE_BLOCK", 7)
        force_workers(monkeypatch, 3)
        real, log = stochastic._simulate_share, tmp_path / "blocks"

        def share(cfg, blocks):
            with open(log, "a") as handle:
                handle.writelines(f"{os.getpid()} {block}\n" for block in blocks)
            return real(cfg, blocks)

        monkeypatch.setattr(stochastic, "_simulate_share", share)
        mc_columns(make_config(replicas=30))
        assert_no_child_left()
        shares = {}
        for line in log.read_text().splitlines():
            pid, block = line.split()
            shares.setdefault(pid, []).append(int(block))
        assert shares.pop(str(os.getpid())) == [0]
        assert sorted(shares.values()) == [[1, 2], [3, 4]]

    def test_worker_count_rule(self, monkeypatch):
        # the helper alone: no process starts
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
        assert [stochastic._workers(n) for n in (1, 2, 63, 64, 65, 10_000)] == [1, 2, 63, 64, 64, 64]
        monkeypatch.delattr(os, "fork", raising=False)
        assert stochastic._workers(10) == 1
        monkeypatch.undo()
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert stochastic._workers(10) == 1

    def test_default_run_leaves_no_process(self):
        # 4097 replicas are three noise blocks: forked wherever there are two CPUs
        mc_columns(make_config(replicas=4097, steps=3))
        assert_no_child_left()


def exact_sums(samples, splits=()):
    """ExactSums of a (series, n) array, added in column blocks cut at `splits`."""
    sums = stochastic.ExactSums(*samples.shape)
    cuts = [0, *sorted(splits), samples.shape[1]]
    for lo, hi in zip(cuts, cuts[1:]):
        sums.add(samples[:, lo:hi])
    return sums


def sums_as_a_run_adds(sq):
    """ExactSums of a (steps, replicas) array, added one noise block of replicas at a time."""
    steps, replicas = sq.shape
    sums = stochastic.ExactSums(steps, replicas)
    for start in range(0, replicas, stochastic._NOISE_BLOCK):
        sums.add(sq[:, start:start + stochastic._NOISE_BLOCK])
    return sums


def outcome(sums):
    """Moments, or the message of the NonFiniteError they raise."""
    try:
        return sums.moments()
    except NonFiniteError as exc:
        return str(exc)


def check_exact(sums, rows):
    """The exact sums of x and x^2 of each row, and its mean rounded once."""
    unit = 2**stochastic._UNIT
    mean = sums.moments()[0]
    for k, row in enumerate(rows):
        counts = Counter(row).items()
        s1 = sum(c * Fraction(v) for v, c in counts)
        s2 = sum(c * Fraction(v) ** 2 for v, c in counts)
        assert Fraction(sums._sx[k], unit) == s1
        assert Fraction(sums._sxx[k], unit * unit) == s2
        assert mean[k] == float(s1 / len(row))


any_double = st.floats(allow_nan=False, allow_infinity=False)


class TestExactSums:
    @given(hnp.arrays(np.float64, st.integers(1, 3000), elements=any_double))
    # the rounded sum divided by n is off by one ulp; the rounded sum overflows
    @example(np.full(3, 0.1))
    @example(np.full(3, sys.float_info.max))
    @example(np.array([sys.float_info.max, 2.0**1023, -5e-324]))
    def test_mean_is_the_exact_mean_rounded_once(self, x):
        mean = exact_sums(x[None, :]).moments()[0][0]
        assert mean == float(sum(map(Fraction, x.tolist())) / len(x))

    @given(
        hnp.arrays(np.float64, st.tuples(st.integers(1, 3), st.integers(1, 300)), elements=any_double),
        st.randoms(use_true_random=False),
        st.lists(st.integers(0, 300), max_size=6),
    )
    def test_order_and_blocks_do_not_matter(self, x, rnd, splits):
        order = list(range(x.shape[1]))
        rnd.shuffle(order)
        assert outcome(exact_sums(x[:, order], splits)) == outcome(exact_sums(x))

    @given(hnp.arrays(np.float64, st.integers(2, 300),
                      elements=st.floats(0.0, 1e150) | st.floats(0.0, 1e-150)))
    def test_std_err_is_the_exact_variance_rounded_once(self, x):
        n = len(x)
        s1 = sum(map(Fraction, x.tolist()))
        s2 = sum(Fraction(v) ** 2 for v in x.tolist())
        exact_var = (n * s2 - s1 * s1) / (n * (n - 1))
        var = float(exact_var)
        assume(exact_var == 0 or var >= sys.float_info.min)
        mean, serr = exact_sums(x[None, :]).moments()
        assert mean[0] == float(s1 / n)
        assert serr[0] == math.sqrt(var) / math.sqrt(n)

    @given(hnp.arrays(np.float64, st.integers(2, 300), elements=st.floats(1.0, 2.0**20)),
           st.integers(-1000, 900))
    def test_power_of_two_scaling_is_exact(self, x, e):
        # at e = -1000 or 900 the variance itself is far outside the double range
        mean, serr = exact_sums(x[None, :]).moments()
        assume(serr[0] == 0.0 or abs(math.ldexp(serr[0], e)) >= sys.float_info.min)
        scaled_mean, scaled_serr = exact_sums(np.ldexp(x, e)[None, :]).moments()
        assert scaled_mean[0] == math.ldexp(mean[0], e)
        assert scaled_serr[0] == math.ldexp(serr[0], e)

    @given(
        hnp.arrays(np.float64, st.tuples(st.integers(1, 3), st.integers(2, 200)), elements=st.floats()),
        st.data(),
    )
    def test_merged_parts_match_one_add(self, x, data):
        cut = data.draw(st.integers(1, x.shape[1] - 1))
        head, tail = (stochastic.ExactSums(*x.shape) for _ in range(2))
        head.add(x[:, :cut])
        tail.add(x[:, cut:])
        head.merge(tail)
        whole = exact_sums(x)
        assert (head._sx, head._sxx, head._bad) == (whole._sx, whole._sxx, whole._bad)
        assert outcome(head) == outcome(whole)

    def test_non_finite_sample_in_a_slice_names_its_series(self):
        x = np.ones((6, 4))
        x[4, 2] = np.inf
        x[5, 1:] = np.nan
        # the last three series, as the step block from step 3 adds them
        sums = stochastic.ExactSums(3, 4)
        sums.add(x[3:])
        with pytest.raises(NonFiniteError, match="k = 5: 1 of 4 replicas"):
            sums.moments(3)
        assert sums._bad == [0, 1, 3]

    def test_a_block_of_zeros_after_samples_adds_nothing(self):
        # series 0 gets only a zero in the second block while series 1 does not
        x = np.array([[62.0, 0.0], [0.0, 12.0]])
        sums = exact_sums(x, [1])
        assert sums.moments()[0] == (31.0, 6.0)
        assert sums.moments() == exact_sums(x).moments()

    def test_one_full_add_is_exact(self):
        # every sample has the largest mantissa of its binade, so a bin that
        # takes a whole row gets (2^16 - 1) pieces of nearly 2^37: almost its
        # 2^53.  Row r of a group keeps one sample at its lowest exponent and
        # the rest r binades higher, so those bins fall at every position of
        # a limb; the last row of a group spreads over all seven binades.
        n = stochastic._ADD_SAMPLES
        normal = [math.ldexp(2.0 - 2.0**-52, e) for e in range(7)]
        subnormal = [math.ldexp(2.0**(46 + j) - 1.0, -1074) for j in range(7)]
        huge = [math.ldexp(v, 900) for v in normal]
        rows = []
        for binades in (normal, subnormal, huge):
            rows += [[binades[0]] + [binades[r]] * (n - 1) for r in range(7)]
            rows.append([binades[i % 7] for i in range(n)])
        rows += [[-v for v in row] for row in rows]
        sums = stochastic.ExactSums(len(rows), n)
        sums.add(np.array(rows))
        check_exact(sums, rows)

    def test_both_ends_of_the_double_range_in_one_add(self):
        # a row spanning 5e-324 to the largest double needs every bin of its
        # layout: the x^2 piece shifted by _SPAN lands in its last bins
        top = sys.float_info.max
        values = [top, -top, 2.0**1023, -(2.0**1023), 2.0**-1022, -(2.0**-1022), 5e-324, -5e-324, 0.0]
        rnd = np.random.default_rng(3)
        rows = [values, [top] * 9, [-top, top, top] * 3, [2.0**-1022, 5e-324, 0.0] * 3,
                [5e-324] * 9, [top, 5e-324, 0.0] * 3, [0.0] * 9]
        rows += [rnd.choice(values, len(values)).tolist() for _ in range(9)]
        rows += [[-v for v in row] for row in rows]
        sums = stochastic.ExactSums(len(rows), len(values))
        sums.add(np.array(rows))
        check_exact(sums, rows)

    def test_zeros_do_not_widen_a_row(self):
        # a zero's frexp exponent is 0, so each row here spans about 1000
        # bins; one pass over all 8192 rows would take about 65 MiB, and
        # halving the pass until it holds at most _BLOCK bins keeps it small
        x = np.tile([1e-300, 0.0], (8192, 1))
        tracemalloc.start()
        try:
            sums = exact_sums(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert sums.moments()[0] == (1e-300 / 2,) * 8192

    def test_wide_rows_keep_a_pass_small(self):
        # each row spans about 1000 binades; a pass sized from the sample
        # count alone would bin all 8192 rows at once, about 158 MiB
        x = np.tile([1e-300, 1.0], (8192, 1))
        tracemalloc.start()
        try:
            sums = exact_sums(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2**20
        assert sums.moments() == exact_sums(x, [1]).moments()

    def test_add_rejects_more_samples_than_the_bins_hold(self, monkeypatch):
        monkeypatch.setattr(stochastic, "_ADD_SAMPLES", 4)
        with pytest.raises(ValueError):
            stochastic.ExactSums(1, 5).add(np.ones((1, 5)))
