"""Step-size schedules and trajectory recording."""

import math
import random
import struct

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from kmrot import (
    Angle,
    NonFiniteError,
    NormKind,
    RotationOp,
    Schedule,
    ScheduleKind,
    Vec2,
    apply_averaged,
    beta_l,
    mu,
    norm,
    pseudo_period,
    run_km,
    search_beta_u,
    step_size,
)
from kmrot.engine import CLIP_MAX

from _support import sample_angle

angles = st.integers(1, 64).flatmap(lambda q: st.integers(1, 2 * q - 1).map(lambda p: Angle(p, q)))
alphas = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)


def _bits(v: float) -> bytes:
    return struct.pack("<d", v)


class TestStepSize:
    def test_constant(self):
        assert step_size(Schedule.constant(0.5), 7) == 0.5

    def test_inv_sqrt(self):
        assert step_size(Schedule.inv_sqrt(), 4) == 0.5

    def test_inv_log_clips_at_start(self):
        # 1/log(2) is about 1.44, above the clip
        assert step_size(Schedule.inv_log(), 1) == 0.99

    def test_inv_k(self):
        assert step_size(Schedule.inv_k(), 1) == 0.99
        assert step_size(Schedule.inv_k(), 4) == 0.25

    @pytest.mark.parametrize(
        "schedule",
        [Schedule.constant(0.5), Schedule.inv_log(), Schedule.inv_sqrt(), Schedule.inv_k()],
    )
    def test_emitted_values_in_range(self, schedule):
        for k in range(1, 2001):
            a = step_size(schedule, k)
            assert 0.0 < a <= CLIP_MAX

    def test_k_is_one_based(self):
        with pytest.raises(ValueError):
            step_size(Schedule.inv_k(), 0)

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            Schedule.constant(1.0)
        with pytest.raises(ValueError):
            Schedule(ScheduleKind.CONSTANT)
        with pytest.raises(ValueError):
            Schedule(ScheduleKind.INV_LOG, alpha=0.5)


class TestRunKm:
    def test_half_turn_collapses(self):
        traj = run_km(Angle(1, 1), NormKind.L2, Schedule.constant(0.5), Vec2(10.0, 30.0), 3)
        assert (traj.x1, traj.x2) == ((10.0, 0.0, 0.0), (30.0, 0.0, 0.0))
        assert traj.norms[1:] == (0.0, 0.0)

    def test_quarter_turn_max_norm_steps(self):
        traj = run_km(Angle(1, 2), NormKind.LINF, Schedule.constant(0.5), Vec2(1.0, 0.0), 3)
        assert (traj.x1, traj.x2) == ((1.0, 0.5, 0.0), (0.0, 0.5, 0.5))

    def test_l2_one_step_contraction(self):
        traj = run_km(Angle(1, 4), NormKind.L2, Schedule.constant(0.5), Vec2(10.0, 30.0), 2)
        assert traj.norms[1] ** 2 == pytest.approx(mu(0.5, Angle(1, 4)) * traj.norms[0] ** 2, rel=1e-12)

    def test_length_and_recorded_norms(self):
        traj = run_km(Angle(2, 3), NormKind.LINF, Schedule.inv_sqrt(), Vec2(4.0, -1.0), 50)
        assert len(traj.x1) == len(traj.x2) == len(traj.norms) == 50
        for a, b, value in zip(traj.x1, traj.x2, traj.norms):
            assert value == norm(Vec2(a, b), NormKind.LINF)
        assert traj.norms[0] == 4.0

    @given(angles, alphas, st.sampled_from(NormKind), st.sampled_from(list(ScheduleKind)),
           st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))
    @example(Angle(1, 6), 0.5, NormKind.L2, ScheduleKind.CONSTANT, 0.0, 0.0)
    @example(Angle(1, 6), 0.5, NormKind.LINF, ScheduleKind.CONSTANT, -0.0, -0.0)
    @example(Angle(1, 64), 0.5, NormKind.LINF, ScheduleKind.INV_SQRT, 5e-324, -0.0)
    @example(Angle(1, 64), 0.5, NormKind.L2, ScheduleKind.INV_LOG, -0.0, 5e-324)
    def test_columns_match_apply_averaged_bitwise(self, a, alpha, kind, schedule_kind, x1, x2):
        schedule = Schedule(schedule_kind, alpha if schedule_kind is ScheduleKind.CONSTANT else None)
        traj = run_km(a, kind, schedule, Vec2(x1, x2), 12)
        op, x = RotationOp(a), Vec2(x1, x2)
        expected = [x]
        for k in range(1, 12):
            x = apply_averaged(op, kind, step_size(schedule, k), x)
            expected.append(x)
        assert [_bits(v) for v in traj.x1] == [_bits(p.x1) for p in expected]
        assert [_bits(v) for v in traj.x2] == [_bits(p.x2) for p in expected]
        assert [_bits(v) for v in traj.norms] == [_bits(norm(p, kind)) for p in expected]

    def test_later_non_finite_iterate_names_its_coordinates(self):
        # m * t overflows in the max-norm rescaling at this scale
        with pytest.raises(NonFiniteError, match=r"^coordinates must be finite: \(inf, inf\)$"):
            run_km(Angle(1, 6), NormKind.LINF, Schedule.constant(0.5), Vec2(1e155, 1e155), 3)

    def test_steps_must_be_positive(self):
        with pytest.raises(ValueError):
            run_km(Angle(1, 4), NormKind.L2, Schedule.constant(0.5), Vec2(1.0, 1.0), 0)

    def test_max_norm_trajectories_non_increasing(self):
        rng = random.Random(31)
        for _ in range(25):
            theta = sample_angle(rng)
            schedule = random.Random(rng.random()).choice(
                [Schedule.constant(rng.uniform(0.05, 0.95)), Schedule.inv_sqrt(), Schedule.inv_log()]
            )
            x1 = Vec2(rng.uniform(-50, 50), rng.uniform(-50, 50))
            traj = run_km(theta, NormKind.LINF, schedule, x1, 60)
            for a, b in zip(traj.norms, traj.norms[1:]):
                assert b <= a + 1e-12


class TestTrajectoryLaws:
    def test_l2_norms_follow_closed_form(self):
        for alpha in (0.3, 0.5, 0.8):
            theta = Angle(1, 4)
            traj = run_km(theta, NormKind.L2, Schedule.constant(alpha), Vec2(10.0, 30.0), 200)
            g = mu(alpha, theta)
            d = traj.norms[0]
            for i, value in enumerate(traj.norms):
                assert value == pytest.approx(g ** (i / 2) * d, rel=1e-10)

    def test_three_quarter_turn_halves_every_step(self):
        rng = random.Random(8)
        for _ in range(50):
            x1 = Vec2(rng.uniform(-20, 20), rng.uniform(-20, 20))
            traj = run_km(Angle(3, 4), NormKind.LINF, Schedule.constant(0.5), x1, 30)
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
            traj = run_km(theta, NormKind.LINF, Schedule.constant(0.5), x1, 5 * period + 1)
            for i in range(len(traj.norms) - period):
                before, after = traj.norms[i], traj.norms[i + period]
                assert after <= upper * before + 1e-9
                assert after >= lower * before - 1e-9

    def test_decaying_schedule_ordering(self):
        # after 1000 steps the log schedule is fastest, then sqrt, then 1/k
        finals = {}
        for schedule in (Schedule.inv_log(), Schedule.inv_sqrt(), Schedule.inv_k()):
            traj = run_km(Angle(1, 4), NormKind.L2, schedule, Vec2(10.0, 30.0), 1000)
            finals[schedule.kind] = traj.norms[-1]
        assert finals[ScheduleKind.INV_LOG] < finals[ScheduleKind.INV_SQRT] < finals[ScheduleKind.INV_K]
