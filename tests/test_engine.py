"""Step-size rules and trajectory recording."""

import math
import random
import struct

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from kmrot import (
    Angle,
    InvalidAlphaError,
    NonFiniteError,
    NormKind,
    Vec2,
    beta_l,
    mu,
    norm,
    pseudo_period,
    run_km,
    search_beta_u,
)
from kmrot.engine import CLIP_MAX, DECAYING
from kmrot.rotation import averaged_step, sin_cos_pi

from _support import sample_angle, trajectory

angles = st.integers(1, 64).flatmap(lambda q: st.integers(1, 2 * q - 1).map(lambda p: Angle(p, q)))
alphas = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)


def _bits(v: float) -> bytes:
    return struct.pack("<d", v)


class TestStepSize:
    def test_constant(self):
        # a number is the step size of every step: the same bits as the rule k -> 0.5
        args = (Angle(1, 7), NormKind.LINF)
        const = trajectory(*args, 0.5, Vec2(3.0, -2.0), 20)
        rule = trajectory(*args, lambda k: 0.5, Vec2(3.0, -2.0), 20)
        assert [_bits(v) for v in const.x1 + const.x2] == [_bits(v) for v in rule.x1 + rule.x2]

    def test_inv_sqrt(self):
        assert DECAYING["invsqrt"](4) == 0.5

    def test_inv_log_clips_at_start(self):
        # 1/log(2) is about 1.44, above the clip
        assert DECAYING["invlog"](1) == 0.99

    def test_inv_k(self):
        assert DECAYING["invk"](1) == 0.99
        assert DECAYING["invk"](4) == 0.25

    @pytest.mark.parametrize("name", sorted(DECAYING))
    def test_emitted_values_in_range(self, name):
        for k in range(1, 2001):
            a = DECAYING[name](k)
            assert 0.0 < a <= CLIP_MAX

    def test_k_is_one_based(self):
        # the first step is k = 1, where invk and invlog clip; one k per step after the start
        seen = []
        trajectory(Angle(1, 4), NormKind.L2, lambda k: seen.append(k) or 0.5, Vec2(1.0, 1.0), 5)
        assert seen == [1, 2, 3, 4]

    @pytest.mark.parametrize("alpha", [1.0, None])
    def test_schedule_validation(self, alpha):
        with pytest.raises(InvalidAlphaError):
            run_km(Angle(1, 4), NormKind.L2, alpha, Vec2(1.0, 1.0), 3)


class TestRunKm:
    def test_half_turn_collapses(self):
        traj = trajectory(Angle(1, 1), NormKind.L2, 0.5, Vec2(10.0, 30.0), 3)
        assert (traj.x1, traj.x2) == ((10.0, 0.0, 0.0), (30.0, 0.0, 0.0))
        assert traj.norms[1:] == (0.0, 0.0)

    def test_quarter_turn_max_norm_steps(self):
        traj = trajectory(Angle(1, 2), NormKind.LINF, 0.5, Vec2(1.0, 0.0), 3)
        assert (traj.x1, traj.x2) == ((1.0, 0.5, 0.0), (0.0, 0.5, 0.5))

    def test_l2_one_step_contraction(self):
        traj = trajectory(Angle(1, 4), NormKind.L2, 0.5, Vec2(10.0, 30.0), 2)
        assert traj.norms[1] ** 2 == pytest.approx(mu(0.5, Angle(1, 4)) * traj.norms[0] ** 2, rel=1e-12)

    def test_length_and_recorded_norms(self):
        traj = trajectory(Angle(2, 3), NormKind.LINF, DECAYING["invsqrt"], Vec2(4.0, -1.0), 50)
        assert len(traj.x1) == len(traj.x2) == len(traj.norms) == 50
        for a, b, value in zip(traj.x1, traj.x2, traj.norms):
            assert value == norm(Vec2(a, b), NormKind.LINF)
        assert traj.norms[0] == 4.0

    @given(angles, alphas, st.sampled_from(NormKind), st.sampled_from(["const", *DECAYING]),
           st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))
    @example(Angle(1, 6), 0.5, NormKind.L2, "const", 0.0, 0.0)
    @example(Angle(1, 6), 0.5, NormKind.LINF, "const", -0.0, -0.0)
    @example(Angle(1, 64), 0.5, NormKind.LINF, "invsqrt", 5e-324, -0.0)
    @example(Angle(1, 64), 0.5, NormKind.L2, "invlog", -0.0, 5e-324)
    def test_columns_match_averaged_step_bitwise(self, a, alpha, kind, schedule, x1, x2):
        rule = DECAYING.get(schedule)
        traj = trajectory(a, kind, rule or alpha, Vec2(x1, x2), 12)
        s, c = sin_cos_pi(a.fraction)
        x = Vec2(x1, x2)
        expected = [x]
        for k in range(1, 12):
            x = Vec2(*averaged_step(c, s, rule(k) if rule else alpha, x.x1, x.x2, kind is NormKind.LINF))
            expected.append(x)
        assert [_bits(v) for v in traj.x1] == [_bits(p.x1) for p in expected]
        assert [_bits(v) for v in traj.x2] == [_bits(p.x2) for p in expected]
        assert [_bits(v) for v in traj.norms] == [_bits(norm(p, kind)) for p in expected]

    def test_later_non_finite_iterate_names_its_coordinates(self):
        # Rx itself overflows: s * x1 + c * x2 is inf, so g = 0 and inf * g is nan
        with pytest.raises(NonFiniteError, match=r"^coordinates must be finite: \(7\.5e\+307, nan\)$"):
            list(run_km(Angle(1, 6), NormKind.LINF, 0.5, Vec2(1.5e308, 1.5e308), 3))

    @pytest.mark.parametrize("kind", list(NormKind))
    def test_scaled_start_gives_the_scaled_trajectory(self, kind):
        # 2^600 scales the start to about 4e180, past where ||x||_inf^2 overflows
        traj = trajectory(Angle(1, 6), kind, 0.5, Vec2(3.0, -7.0), 40)
        big = trajectory(Angle(1, 6), kind, 0.5, Vec2(math.ldexp(3.0, 600), math.ldexp(-7.0, 600)), 40)
        for col, big_col in zip((traj.x1, traj.x2, traj.norms), (big.x1, big.x2, big.norms)):
            assert [_bits(v) for v in big_col] == [_bits(math.ldexp(v, 600)) for v in col]

    def test_iterates_are_stepped_as_they_are_read(self):
        iterates = run_km(Angle(1, 6), NormKind.LINF, 0.5, Vec2(3.0, -7.0), 10**15)
        short = trajectory(Angle(1, 6), NormKind.LINF, 0.5, Vec2(3.0, -7.0), 2)
        assert [next(iterates), next(iterates)] == list(zip(*short))
        assert short.x1[0] == 3.0 and short.norms[0] == 7.0

    @pytest.mark.parametrize("steps", [0, 10**15])
    def test_start_checks_run_before_the_first_read(self, steps):
        error = ValueError if steps < 1 else NonFiniteError
        with pytest.raises(error):
            run_km(Angle(1, 6), NormKind.L2, 0.5, Vec2(1.5e308, 1.5e308), steps)

    def test_steps_must_be_positive(self):
        with pytest.raises(ValueError):
            run_km(Angle(1, 4), NormKind.L2, 0.5, Vec2(1.0, 1.0), 0)

    def test_max_norm_trajectories_non_increasing(self):
        rng = random.Random(31)
        for _ in range(25):
            theta = sample_angle(rng)
            alpha = random.Random(rng.random()).choice(
                [rng.uniform(0.05, 0.95), DECAYING["invsqrt"], DECAYING["invlog"]]
            )
            x1 = Vec2(rng.uniform(-50, 50), rng.uniform(-50, 50))
            traj = trajectory(theta, NormKind.LINF, alpha, x1, 60)
            for a, b in zip(traj.norms, traj.norms[1:]):
                assert b <= a + 1e-12


class TestTrajectoryLaws:
    def test_l2_norms_follow_closed_form(self):
        for alpha in (0.3, 0.5, 0.8):
            theta = Angle(1, 4)
            traj = trajectory(theta, NormKind.L2, alpha, Vec2(10.0, 30.0), 200)
            g = mu(alpha, theta)
            d = traj.norms[0]
            for i, value in enumerate(traj.norms):
                assert value == pytest.approx(g ** (i / 2) * d, rel=1e-10)

    def test_three_quarter_turn_halves_every_step(self):
        rng = random.Random(8)
        for _ in range(50):
            x1 = Vec2(rng.uniform(-20, 20), rng.uniform(-20, 20))
            traj = trajectory(Angle(3, 4), NormKind.LINF, 0.5, x1, 30)
            for a, b in zip(traj.norms, traj.norms[1:]):
                assert b <= 0.5 * a + 1e-12

    def test_per_period_band(self):
        # norms taken one pseudo-period apart stay inside [beta_l, beta_u]
        theta = Angle(1, 3)
        period = pseudo_period(theta)
        upper = search_beta_u(theta).beta_u
        lower = beta_l(theta)
        rng = random.Random(12)
        for _ in range(20):
            x1 = Vec2(rng.uniform(-10, 10), rng.uniform(-10, 10))
            if norm(x1, NormKind.LINF) < 1e-3:
                continue
            traj = trajectory(theta, NormKind.LINF, 0.5, x1, 5 * period + 1)
            for i in range(len(traj.norms) - period):
                before, after = traj.norms[i], traj.norms[i + period]
                assert after <= upper * before + 1e-9
                assert after >= lower * before - 1e-9

    def test_decaying_schedule_ordering(self):
        # after 1000 steps the log schedule is fastest, then sqrt, then 1/k
        finals = {}
        for name, rule in DECAYING.items():
            finals[name] = trajectory(Angle(1, 4), NormKind.L2, rule, Vec2(10.0, 30.0), 1000).norms[-1]
        assert finals["invlog"] < finals["invsqrt"] < finals["invk"]
