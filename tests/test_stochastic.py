"""Noise model and the Monte Carlo harness: moments, determinism, bounds."""

import math
import sys
from collections import Counter
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import kmrot.stochastic as stochastic
from kmrot import (
    Angle,
    McConfig,
    NoiseParams,
    NonFiniteError,
    NormKind,
    RotationOp,
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

    def test_step_block_does_not_change_result(self, monkeypatch):
        # a horizon one step past a whole number of blocks ends in a block
        # of one step, which draws no noise: 65 steps at 64, 129 at 128
        configs = [make_config(replicas=30, steps=steps, norm_kind=kind)
                   for steps in (1, 2, 64, 65, 129) for kind in NormKind]
        baselines = [run_stochastic_km(cfg) for cfg in configs]
        for block in (1, 3, 7, 64, 200):
            monkeypatch.setattr(stochastic, "_STEPS", block)
            for cfg, baseline in zip(configs, baselines):
                blocked = run_stochastic_km(cfg)
                assert blocked.mean_sq_norm == baseline.mean_sq_norm
                assert blocked.std_err == baseline.std_err

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

    @pytest.mark.filterwarnings("error")
    def test_noiseless_run_has_zero_std_err(self):
        # all replicas share one path; at 1e100 the old dev * dev overflowed
        for kind in NormKind:
            for x1 in (Vec2(1.0, 3.0), Vec2(1e100, -3e99)):
                cfg = make_config(theta=Angle(1, 7), x1=x1, noise=NoiseParams(0.0, 0.0),
                                  replicas=100, steps=50, norm_kind=kind)
                res = run_stochastic_km(cfg)
                assert all(se == 0.0 for se in res.std_err)

    def test_fold_and_block_sizes_do_not_change_result(self, monkeypatch):
        cfg = make_config(replicas=100, norm_kind=NormKind.LINF)
        baseline = run_stochastic_km(cfg)
        monkeypatch.setattr(stochastic, "_CHUNK", 7)
        monkeypatch.setattr(stochastic, "_BLOCK", 5)
        folded = run_stochastic_km(cfg)
        assert folded.mean_sq_norm == baseline.mean_sq_norm
        assert folded.std_err == baseline.std_err

    def test_non_finite_replicas_raise(self):
        cfg = make_config(x1=Vec2(1e200, 1e200), norm_kind=NormKind.LINF, replicas=10, steps=2)
        with pytest.raises(NonFiniteError, match="k = 1: 10 of 10 replicas"):
            run_stochastic_km(cfg)

    def test_overflowing_sum_raises(self):
        sums = stochastic.ExactSums(1)
        sums.add(np.full((1, 100), 2e306))
        with pytest.raises(NonFiniteError, match="k = 1 does not round to a finite double"):
            sums.totals()

    def test_mean_is_exact_where_only_the_rounded_sum_overflows(self):
        # each squared norm is about 2e306, so their sum is not a finite double
        cfg = make_config(theta=Angle(1, 6), x1=Vec2(1e153, 1e153), replicas=100, steps=2)
        res = run_stochastic_km(cfg)
        sq = np.concatenate([block for _, block in
                             stochastic._simulate_chunk(cfg, RotationOp(cfg.theta), 0, cfg.replicas)])
        with pytest.raises(OverflowError):
            math.fsum(sq[0].tolist())
        for k in range(cfg.steps):
            assert res.mean_sq_norm[k] == float(sum(map(Fraction, sq[k].tolist())) / cfg.replicas)
        assert res.std_err[0] == 0.0

    def test_memory_does_not_grow_with_replicas(self):
        # the whole replicas x steps matrix would take 25 MiB
        replicas, steps = 16384, 200
        cfg = make_config(replicas=replicas, steps=steps, noise=NoiseParams(2.0, 0.1))
        tracemalloc.start()
        try:
            run_stochastic_km(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < replicas * steps * 8 / 2

    def test_memory_does_not_grow_with_steps(self):
        # one chunk's noise and squared norms for the whole horizon would
        # take about 70 MiB
        cfg = make_config(replicas=2048, steps=1500, noise=NoiseParams(2.0, 0.0))
        tracemalloc.start()
        try:
            run_stochastic_km(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_memory_of_a_decaying_run_stays_small(self):
        # the squared norm halves each step and reaches 0 near step 1080; one
        # exponent window shared by all steps would span ~1100 bins per step
        cfg = make_config(theta=Angle(1, 2), noise=NoiseParams(0.0, 0.0), replicas=10, steps=2000)
        tracemalloc.start()
        try:
            run_stochastic_km(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


def exact_sums(samples, splits=()):
    """ExactSums of a (series, n) array, added in column blocks cut at `splits`."""
    sums = stochastic.ExactSums(samples.shape[0])
    cuts = [0, *sorted(splits), samples.shape[1]]
    for lo, hi in zip(cuts, cuts[1:]):
        sums.add(samples[:, lo:hi])
    return sums


def fsum_or_none(values):
    try:
        total = math.fsum(values)
    except OverflowError:
        return None
    return total if math.isfinite(total) else None


def outcome(sums):
    """Totals and moments, or the message of the NonFiniteError they raise."""
    try:
        return sums.totals(), sums.moments()
    except NonFiniteError as exc:
        return str(exc)


any_double = st.floats(allow_nan=False, allow_infinity=False)


class TestExactSums:
    @given(hnp.arrays(np.float64, st.integers(1, 3000), elements=any_double))
    def test_total_is_fsum(self, x):
        expected = fsum_or_none(x.tolist())
        assume(expected is not None)
        total = exact_sums(x[None, :]).totals()[0]
        assert total == expected

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
        assert mean[0] == math.fsum(x.tolist()) / n
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
        # nan and inf too: the error must name the same series either way
        hnp.arrays(np.float64, st.tuples(st.integers(2, 8), st.integers(1, 50)), elements=st.floats()),
        st.lists(st.integers(1, 7), min_size=1, max_size=4),
        st.randoms(use_true_random=False),
    )
    def test_row_slices_at_their_offsets_match_one_add(self, x, cuts, rnd):
        bounds = sorted({0, x.shape[0], *(min(c, x.shape[0] - 1) for c in cuts)})
        slices = list(zip(bounds, bounds[1:]))
        rnd.shuffle(slices)
        sliced = stochastic.ExactSums(x.shape[0])
        for lo, hi in slices:
            sliced.add(x[lo:hi], lo)
        whole = stochastic.ExactSums(x.shape[0])
        whole.add(x)
        assert sliced.n == whole.n == x.shape[1]
        assert outcome(sliced) == outcome(whole)

    def test_non_finite_sample_in_a_slice_names_its_series(self):
        x = np.ones((6, 4))
        x[4, 2] = np.inf
        x[5, 1:] = np.nan
        sums = stochastic.ExactSums(6)
        sums.add(x[:3])
        sums.add(x[3:], 3)
        with pytest.raises(NonFiniteError, match="k = 5: 1 of 4 replicas"):
            sums.moments()
        assert sums._bad.tolist() == [0, 0, 0, 0, 1, 3]

    def test_a_block_of_zeros_after_samples_adds_nothing(self):
        # series 0 gets only a zero in the second block while series 1 does not
        x = np.array([[62.0, 0.0], [0.0, 12.0]])
        sums = exact_sums(x, [1])
        assert sums.totals() == (62.0, 12.0)
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
        sums = stochastic.ExactSums(len(rows))
        sums.add(np.array(rows))
        totals = sums.totals()
        unit = 2**stochastic._UNIT
        for k, row in enumerate(rows):
            counts = Counter(row).items()
            s1 = sum(c * Fraction(v) for v, c in counts)
            s2 = sum(c * Fraction(v) ** 2 for v, c in counts)
            assert Fraction(sums._sx[k], unit) == s1
            assert Fraction(sums._sxx[k], unit * unit) == s2
            assert totals[k] == float(s1)

    def test_zeros_do_not_widen_a_row(self):
        # a zero's frexp exponent is 0; counted as such, each row here would
        # span about 1000 bins, and one pass over 8192 rows about 65 MiB
        x = np.tile([1e-300, 0.0], (8192, 1))
        tracemalloc.start()
        try:
            sums = exact_sums(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert sums.totals() == (1e-300,) * 8192

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
        by_column = exact_sums(x, [1])
        assert sums.totals() == by_column.totals()
        assert sums.moments() == by_column.moments()

    def test_add_rejects_more_samples_than_the_bins_hold(self, monkeypatch):
        monkeypatch.setattr(stochastic, "_ADD_SAMPLES", 4)
        with pytest.raises(ValueError):
            stochastic.ExactSums(1).add(np.ones((1, 5)))
