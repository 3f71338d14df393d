"""Angles, vectors, norms, the rescaled rotation, and the averaged step."""

import math
import random
import struct
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from kmrot import (
    Angle,
    InvalidAlphaError,
    NonFiniteError,
    NormKind,
    RotationOp,
    Vec2,
    ZeroVectorError,
    apply_averaged,
    gamma,
    norm,
    normalized_rotate,
    rotate,
    sin_cos_pi,
)
from kmrot.bounds import mu
from kmrot.rotation import km_step

angles = st.integers(1, 64).flatmap(lambda q: st.integers(1, 2 * q - 1).map(lambda p: Angle(p, q)))
coords = st.floats(min_value=-1e6, max_value=1e6)
vectors = st.builds(Vec2, coords, coords)
# the averaged step is positively homogeneous, so absolute-tolerance
# properties are checked at moderate scale without loss of generality
unit_scale_vectors = st.builds(Vec2, st.floats(-100, 100), st.floats(-100, 100))
alphas = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)
signed_coords = st.one_of(st.sampled_from([0.0, -0.0]), coords)
point_lists = st.lists(st.tuples(signed_coords, signed_coords), min_size=1, max_size=16)
normal_coords = st.floats(min_value=-1e6, max_value=1e6, allow_subnormal=False)

SQRT2 = math.sqrt(2.0)


def _rotation_stays_normal(op, x):
    """True when no product or sum in rotate(op, x) rounds to a subnormal."""
    c, s = op.cos_theta, op.sin_theta
    rx = rotate(op, x)
    steps = (c * x.x1, s * x.x2, s * x.x1, c * x.x2, rx.x1, rx.x2)
    return all(v == 0.0 or abs(v) >= sys.float_info.min for v in steps)


class TestAngle:
    def test_canonical_form(self):
        a = Angle(2, 4)
        assert (a.p, a.q) == (1, 2)
        assert a == Angle(1, 2)
        assert Angle(9, 6) == Angle(3, 2)

    @pytest.mark.parametrize("p,q", [(0, 1), (-1, 2), (1, 0), (1, -3), (2, 1), (4, 2), (5, 2)])
    def test_rejects_out_of_domain(self, p, q):
        with pytest.raises(ValueError):
            Angle(p, q)

    def test_parse(self):
        assert Angle.parse("3/4") == Angle(3, 4)
        assert Angle.parse(" 1/2 ") == Angle(1, 2)
        assert Angle.parse("1") == Angle(1, 1)
        for bad in ["abc", "0.5", "1/0", "", "1/2/3"]:
            with pytest.raises(ValueError):
                Angle.parse(bad)

    def test_mirrored(self):
        assert Angle(7, 4).mirrored() == Angle(1, 4)
        assert Angle(1, 1).mirrored() == Angle(1, 1)
        assert Angle(3, 2).mirrored() == Angle(1, 2)

    def test_folded(self):
        assert Angle(7, 4).folded() == Angle(1, 4)
        assert Angle(1, 4).folded() == Angle(1, 4)
        assert Angle(1, 1).folded() == Angle(1, 1)
        assert Angle(5, 4).folded() == Angle(3, 4)


class TestTrig:
    def test_exact_special_points(self):
        assert sin_cos_pi(Fraction(1, 2)) == (1.0, 0.0)
        assert sin_cos_pi(Fraction(1, 1)) == (0.0, -1.0)
        assert sin_cos_pi(Fraction(3, 2)) == (-1.0, 0.0)
        s, c = sin_cos_pi(Fraction(1, 4))
        assert s == c == math.sqrt(0.5)
        assert sin_cos_pi(Fraction(1, 6)) == (0.5, math.sqrt(3.0) / 2.0)
        assert sin_cos_pi(Fraction(1, 3)) == (math.sqrt(3.0) / 2.0, 0.5)

    def test_matches_libm_everywhere(self):
        # the libm reference loses accuracy for large arguments (no rational
        # reduction), so the cross-check tolerance is looser than an ulp
        for q in range(1, 37):
            for p in range(1, 2 * q):
                s, c = sin_cos_pi(Fraction(p, q))
                x = math.pi * p / q
                assert s == pytest.approx(math.sin(x), abs=2e-15)
                assert c == pytest.approx(math.cos(x), abs=2e-15)

    @given(angles)
    def test_on_unit_circle(self, a):
        op = RotationOp(a)
        assert op.cos_theta**2 + op.sin_theta**2 == pytest.approx(1.0, abs=1e-12)


class TestRotate:
    def test_quarter_turn(self):
        assert rotate(RotationOp(Angle(1, 2)), Vec2(1.0, 0.0)) == Vec2(0.0, 1.0)

    def test_half_turn_negates(self):
        assert rotate(RotationOp(Angle(1, 1)), Vec2(10.0, 30.0)) == Vec2(-10.0, -30.0)

    def test_eighth_turn(self):
        out = rotate(RotationOp(Angle(1, 4)), Vec2(1.0, 0.0))
        assert out == Vec2(math.sqrt(0.5), math.sqrt(0.5))

    @given(angles, vectors)
    def test_preserves_l2_norm(self, a, x):
        out = rotate(RotationOp(a), x)
        assert norm(out, NormKind.L2) == pytest.approx(norm(x, NormKind.L2), rel=1e-12, abs=1e-12)

    @given(angles, vectors, vectors)
    @example(Angle(1, 4), Vec2(281700.0, 0.0), Vec2(281701.0, 0.0))
    def test_l2_nonexpansive(self, a, x, y):
        # Forward error, u = 2^-53 (Higham 2002, ch. 3).  The cached c and s
        # are within 6u of cos and sin: under 3.4u from rounding pi * t to
        # an argument in [0, pi/4], and 2u for a libm result within one ulp
        # (assumed).  So the computed matrix has norm <= 1 + 6u.  Each
        # component of fl(Rx) is a length-2 inner product, off by at most
        # gamma_2 (|c x1| + |s x2|), so ||fl(Rx) - Rx|| <= 2.9u ||x||.  The
        # differences and hypot add 3u relative on each side.  Together
        # lhs <= rhs + 15u (||x|| + ||y||); c = 16 also covers the rounding
        # of the right-hand side below.
        op = RotationOp(a)
        rx, ry = rotate(op, x), rotate(op, y)
        lhs = math.hypot(rx.x1 - ry.x1, rx.x2 - ry.x2)
        rhs = math.hypot(x.x1 - y.x1, x.x2 - y.x2)
        u = 2.0**-53
        assert lhs <= rhs + 16 * u * (norm(x, NormKind.L2) + norm(y, NormKind.L2))


class TestNorm:
    def test_pythagorean(self):
        assert norm(Vec2(3.0, 4.0), NormKind.L2) == 5.0

    def test_max_norm(self):
        assert norm(Vec2(1.0, -3.0), NormKind.LINF) == 3.0

    def test_zero(self):
        assert norm(Vec2(0.0, 0.0), NormKind.L2) == 0.0
        assert norm(Vec2(0.0, 0.0), NormKind.LINF) == 0.0

    def test_vec2_rejects_non_finite(self):
        with pytest.raises(NonFiniteError):
            Vec2(float("nan"), 0.0)
        with pytest.raises(NonFiniteError):
            Vec2(0.0, float("inf"))
        # the CLI maps ValueError from --x1 to a usage error
        assert issubclass(NonFiniteError, ValueError)


class TestGamma:
    def test_eighth_turn_from_axis(self):
        g = gamma(RotationOp(Angle(1, 4)), Vec2(1.0, 0.0))
        assert g == pytest.approx(SQRT2, rel=1e-12)

    def test_quarter_turn_is_identity_factor(self):
        op = RotationOp(Angle(1, 2))
        rng = random.Random(5)
        for _ in range(50):
            x = Vec2(rng.uniform(-9, 9), rng.uniform(-9, 9))
            if x.is_zero():
                continue
            assert gamma(op, x) == 1.0

    def test_third_turn_hand_value(self):
        g = gamma(RotationOp(Angle(1, 3)), Vec2(1.0, 2.0))
        assert g == pytest.approx(2.0 / (math.sqrt(3.0) / 2.0 + 1.0), rel=1e-15)

    def test_zero_vector_raises(self):
        with pytest.raises(ZeroVectorError):
            gamma(RotationOp(Angle(1, 4)), Vec2(0.0, 0.0))

    @given(angles, vectors)
    @example(Angle(1, 4), Vec2(5e-324, 5e-324))
    @example(Angle(1, 4), Vec2(1.5e-323, 0.0))
    def test_range(self, a, x):
        if x.is_zero():
            return
        g = gamma(RotationOp(a), x)
        assert SQRT2 / 2 - 1e-12 <= g <= SQRT2 + 1e-12

    @given(angles, st.builds(Vec2, normal_coords, normal_coords))
    @example(Angle(1, 4), Vec2(1e6, 3.0))
    @example(Angle(1, 3), Vec2(3e-300, -1e-300))
    def test_prescaling_keeps_normal_results(self, a, x):
        # exact power-of-two scaling changes no bit unless a product or sum of
        # the rotation rounds to a subnormal, with or without the scaling; near
        # the subnormal range (e.g. x = (-4.04e-308, 3.66e-308) at 57pi/41) the
        # two formulas differ in the last bit
        if x.is_zero():
            return
        op = RotationOp(a)
        e = -math.frexp(max(abs(x.x1), abs(x.x2)))[1]
        scaled = Vec2(math.ldexp(x.x1, e), math.ldexp(x.x2, e))
        if not (_rotation_stays_normal(op, x) and _rotation_stays_normal(op, scaled)):
            return
        rx = rotate(op, x)
        assert gamma(op, x) == max(abs(x.x1), abs(x.x2)) / max(abs(rx.x1), abs(rx.x2))

    @pytest.mark.parametrize("p, q, x", [(1, 4, Vec2(1e6, 3e-308)), (1, 2, Vec2(-2.5e-308, 7.0))])
    def test_prescaling_mixed_scales(self, p, q, x):
        # a tiny coordinate next to a large one: its products are subnormal in
        # one formula or both, but far below the last bit of the larger one
        op = RotationOp(Angle(p, q))
        rx = rotate(op, x)
        assert gamma(op, x) == max(abs(x.x1), abs(x.x2)) / max(abs(rx.x1), abs(rx.x2))

    def test_range_bulk_sweep(self):
        # module invariant: 1e5 random (theta, x) pairs stay inside [sqrt2/2, sqrt2]
        rng = random.Random(91)
        lo, hi = SQRT2 / 2 - 1e-12, SQRT2 + 1e-12
        for _ in range(100_000):
            q = rng.randint(1, 64)
            p = rng.randint(1, 2 * q - 1)
            x = Vec2(rng.uniform(-100, 100), rng.uniform(-100, 100))
            if x.is_zero():
                continue
            assert lo <= gamma(RotationOp(Angle(p, q)), x) <= hi


class TestNormalizedRotate:
    def test_expansion_counterexample_is_exact(self):
        # at an eighth turn the rescaled rotation expands the max-norm gap
        # between the two unit axis points from 1 to exactly 2
        op = RotationOp(Angle(1, 4))
        ix = normalized_rotate(op, Vec2(1.0, 0.0))
        iy = normalized_rotate(op, Vec2(0.0, 1.0))
        assert ix == Vec2(1.0, 1.0)
        assert iy == Vec2(-1.0, 1.0)
        gap = max(abs(ix.x1 - iy.x1), abs(ix.x2 - iy.x2))
        assert gap == 2.0
        assert gap > max(abs(1.0 - 0.0), abs(0.0 - 1.0)) == 1.0

    def test_no_expansion_on_theta_set(self):
        rng = random.Random(17)
        for p, q in [(1, 2), (1, 1)]:
            op = RotationOp(Angle(p, q))
            for _ in range(2000):
                x = Vec2(rng.uniform(-5, 5), rng.uniform(-5, 5))
                y = Vec2(rng.uniform(-5, 5), rng.uniform(-5, 5))
                if x.is_zero() or y.is_zero():
                    continue
                ix, iy = normalized_rotate(op, x), normalized_rotate(op, y)
                lhs = max(abs(ix.x1 - iy.x1), abs(ix.x2 - iy.x2))
                rhs = max(abs(x.x1 - y.x1), abs(x.x2 - y.x2))
                assert lhs <= rhs + 1e-12

    @given(angles, vectors)
    def test_matches_gamma_scaling(self, a, x):
        if x.is_zero():
            return
        op = RotationOp(a)
        g = gamma(op, x)
        rx = rotate(op, x)
        out = normalized_rotate(op, x)
        assert out.x1 == pytest.approx(g * rx.x1, rel=1e-12, abs=1e-12)
        assert out.x2 == pytest.approx(g * rx.x2, rel=1e-12, abs=1e-12)

    @given(angles, vectors)
    def test_preserves_max_norm(self, a, x):
        if x.is_zero():
            return
        out = normalized_rotate(RotationOp(a), x)
        assert norm(out, NormKind.LINF) == pytest.approx(norm(x, NormKind.LINF), rel=1e-12)

    def test_zero_vector_raises(self):
        with pytest.raises(ZeroVectorError):
            normalized_rotate(RotationOp(Angle(1, 3)), Vec2(0.0, 0.0))


class TestApplyAveraged:
    def test_half_turn_collapses_in_one_step(self):
        out = apply_averaged(RotationOp(Angle(1, 1)), NormKind.L2, 0.5, Vec2(10.0, 30.0))
        assert out == Vec2(0.0, 0.0)

    def test_quarter_turn_max_norm_step(self):
        out = apply_averaged(RotationOp(Angle(1, 2)), NormKind.LINF, 0.5, Vec2(1.0, 0.0))
        assert out == Vec2(0.5, 0.5)

    @given(angles, alphas)
    def test_origin_is_absorbing(self, a, alpha):
        op = RotationOp(a)
        assert apply_averaged(op, NormKind.LINF, alpha, Vec2(0.0, 0.0)) == Vec2(0.0, 0.0)
        assert apply_averaged(op, NormKind.L2, alpha, Vec2(0.0, 0.0)) == Vec2(0.0, 0.0)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.2, 1.5])
    def test_alpha_must_be_interior(self, alpha):
        op = RotationOp(Angle(1, 4))
        with pytest.raises(InvalidAlphaError):
            apply_averaged(op, NormKind.L2, alpha, Vec2(1.0, 1.0))

    @given(angles, alphas, unit_scale_vectors)
    def test_max_norm_never_grows(self, a, alpha, x):
        out = apply_averaged(RotationOp(a), NormKind.LINF, alpha, x)
        assert norm(out, NormKind.LINF) <= norm(x, NormKind.LINF) + 1e-12

    @given(angles, alphas, vectors)
    @example(Angle(1, 1), 0.4948021730295811, Vec2(0.0, 1.0))  # mu cancelled near theta = pi
    def test_l2_squared_norm_recursion_is_exact(self, a, alpha, x):
        out = apply_averaged(RotationOp(a), NormKind.L2, alpha, x)
        lhs = out.x1 * out.x1 + out.x2 * out.x2
        rhs = mu(alpha, a) * (x.x1 * x.x1 + x.x2 * x.x2)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-280)


def _bits(v: float) -> bytes:
    return struct.pack("<d", v)


class TestKmStep:
    @given(angles, alphas, point_lists, st.sampled_from(NormKind))
    @example(Angle(1, 4), 0.5, [(-0.0, -0.0), (0.0, -0.0), (-0.0, 0.0), (0.0, 0.0)], NormKind.L2)
    @example(Angle(1, 4), 0.5, [(-0.0, -0.0), (0.0, -0.0), (-0.0, 0.0), (0.0, 0.0)], NormKind.LINF)
    @example(Angle(1, 1), 0.5, [(-0.0, 3.0), (-0.0, -3.0), (2.0, -0.0)], NormKind.L2)
    @example(Angle(1, 64), 0.5, [(-0.0, 5e-324), (5e-324, -0.0)], NormKind.LINF)
    def test_matches_apply_averaged_bitwise(self, a, alpha, points, kind):
        op = RotationOp(a)
        x1 = np.array([p[0] for p in points])
        x2 = np.array([p[1] for p in points])
        y1, y2 = km_step(op.cos_theta, op.sin_theta, alpha, x1, x2, kind is NormKind.LINF)
        for p, got1, got2 in zip(points, y1.tolist(), y2.tolist()):
            expected = apply_averaged(op, kind, alpha, Vec2(*p))
            assert (_bits(got1), _bits(got2)) == (_bits(expected.x1), _bits(expected.x2))

    @pytest.mark.parametrize("kind", list(NormKind))
    def test_noise_moves_the_origin(self, kind):
        op = RotationOp(Angle(1, 3))
        zero = np.zeros(2)
        w1, w2 = np.array([0.5, -0.0]), np.array([-2.0, 0.0])
        y1, y2 = km_step(op.cos_theta, op.sin_theta, 0.25, zero, zero, kind is NormKind.LINF, w1, w2)
        assert y1.tolist() == [0.125, 0.0] and y2.tolist() == [-0.5, 0.0]
