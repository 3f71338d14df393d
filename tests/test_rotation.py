"""Angles, vectors, norms, the rescaled rotation, and the averaged step."""

import math
import random
import struct
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

import kmrot.rotation as rotation
from kmrot import (
    Angle,
    NonFiniteError,
    NormKind,
    Vec2,
    norm,
)
from kmrot.bounds import mu
from kmrot.rotation import averaged_step, km_step, sin_cos_pi, turn

angles = st.integers(1, 64).flatmap(lambda q: st.integers(1, 2 * q - 1).map(lambda p: Angle(p, q)))
coords = st.floats(min_value=-1e6, max_value=1e6)
vectors = st.builds(Vec2, coords, coords)
# the averaged step is positively homogeneous, so absolute-tolerance
# properties are checked at moderate scale without loss of generality
unit_scale_vectors = st.builds(Vec2, st.floats(-100, 100), st.floats(-100, 100))
alphas = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)
signed_coords = st.one_of(st.sampled_from([0.0, -0.0]), coords)
point_lists = st.lists(st.tuples(signed_coords, signed_coords), min_size=1, max_size=16)
# (x1, x2, w1, w2): a point and the noise added to its image
noisy_point_lists = st.lists(st.tuples(signed_coords, signed_coords, signed_coords, signed_coords),
                             min_size=1, max_size=16)
normal_coords = st.floats(min_value=-1e6, max_value=1e6, allow_subnormal=False)

SQRT2 = math.sqrt(2.0)


def _cs(a: Angle) -> tuple[float, float]:
    """(cos(theta), sin(theta)), in the order turn takes them."""
    s, c = sin_cos_pi(a.fraction)
    return c, s


def _factor(c, s, x1, x2):
    """The max-norm rescale factor ||x||_inf / ||Rx||_inf of turn."""
    t1, t2 = turn(c, s, x1, x2, False)
    return max(abs(x1), abs(x2)) / max(abs(t1), abs(t2))


def _rotation_stays_normal(c, s, x1, x2):
    """True when no product or sum in turn(c, s, x1, x2, False) rounds to a subnormal."""
    steps = (c * x1, s * x2, s * x1, c * x2, *turn(c, s, x1, x2, False))
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
        s, c = sin_cos_pi(a.fraction)
        assert c**2 + s**2 == pytest.approx(1.0, abs=1e-12)


class TestRotate:
    def test_quarter_turn(self):
        assert turn(*_cs(Angle(1, 2)), 1.0, 0.0, False) == (0.0, 1.0)

    def test_half_turn_negates(self):
        assert turn(*_cs(Angle(1, 1)), 10.0, 30.0, False) == (-10.0, -30.0)

    def test_eighth_turn(self):
        out = turn(*_cs(Angle(1, 4)), 1.0, 0.0, False)
        assert out == (math.sqrt(0.5), math.sqrt(0.5))

    @given(angles, vectors)
    def test_preserves_l2_norm(self, a, x):
        out = Vec2(*turn(*_cs(a), x.x1, x.x2, False))
        assert norm(out, NormKind.L2) == pytest.approx(norm(x, NormKind.L2), rel=1e-12, abs=1e-12)

    @given(angles, vectors, vectors)
    @example(Angle(1, 4), Vec2(281700.0, 0.0), Vec2(281701.0, 0.0))
    def test_l2_nonexpansive(self, a, x, y):
        # Forward error, u = 2^-53 (Higham 2002, ch. 3).  The values c and s
        # are within 6u of cos and sin: under 3.4u from rounding pi * t to
        # an argument in [0, pi/4], and 2u for a libm result within one ulp
        # (assumed).  So the computed matrix has norm <= 1 + 6u.  Each
        # component of fl(Rx) is a length-2 inner product, off by at most
        # gamma_2 (|c x1| + |s x2|), so ||fl(Rx) - Rx|| <= 2.9u ||x||.  The
        # differences and hypot add 3u relative on each side.  Together
        # lhs <= rhs + 15u (||x|| + ||y||); c = 16 also covers the rounding
        # of the right-hand side below.
        c, s = _cs(a)
        rx, ry = turn(c, s, x.x1, x.x2, False), turn(c, s, y.x1, y.x2, False)
        lhs = math.hypot(rx[0] - ry[0], rx[1] - ry[1])
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


class TestRescaleFactor:
    """turn's max-norm factor ||x||_inf / ||Rx||_inf, read from the unscaled rotation."""

    def test_eighth_turn_from_axis(self):
        g = _factor(*_cs(Angle(1, 4)), 1.0, 0.0)
        assert g == pytest.approx(SQRT2, rel=1e-12)

    def test_quarter_turn_is_identity_factor(self):
        c, s = _cs(Angle(1, 2))
        rng = random.Random(5)
        for _ in range(50):
            x = Vec2(rng.uniform(-9, 9), rng.uniform(-9, 9))
            if x.x1 == x.x2 == 0.0:
                continue
            assert _factor(c, s, x.x1, x.x2) == 1.0

    def test_third_turn_hand_value(self):
        g = _factor(*_cs(Angle(1, 3)), 1.0, 2.0)
        assert g == pytest.approx(2.0 / (math.sqrt(3.0) / 2.0 + 1.0), rel=1e-15)

    @given(angles, st.builds(Vec2, normal_coords, normal_coords))
    @example(Angle(1, 4), Vec2(1e6, 3.0))
    def test_range(self, a, x):
        # the factor is scale-invariant only while the rotation stays normal
        c, s = _cs(a)
        if x.x1 == x.x2 == 0.0 or not _rotation_stays_normal(c, s, x.x1, x.x2):
            return
        g = _factor(c, s, x.x1, x.x2)
        assert SQRT2 / 2 - 1e-12 <= g <= SQRT2 + 1e-12

    def test_range_bulk_sweep(self):
        # module invariant: 1e5 random (theta, x) pairs stay inside [sqrt2/2, sqrt2]
        rng = random.Random(91)
        lo, hi = SQRT2 / 2 - 1e-12, SQRT2 + 1e-12
        for _ in range(100_000):
            q = rng.randint(1, 64)
            p = rng.randint(1, 2 * q - 1)
            x = Vec2(rng.uniform(-100, 100), rng.uniform(-100, 100))
            if x.x1 == x.x2 == 0.0:
                continue
            assert lo <= _factor(*_cs(Angle(p, q)), x.x1, x.x2) <= hi


class TestNormalizedRotate:
    """turn with the max-norm rescale: T(x) = g * Rx, g = ||x||_inf / ||Rx||_inf."""

    def test_expansion_counterexample_is_exact(self):
        # at an eighth turn the rescaled rotation expands the max-norm gap
        # between the two unit axis points from 1 to exactly 2
        c, s = _cs(Angle(1, 4))
        ix = turn(c, s, 1.0, 0.0, True)
        iy = turn(c, s, 0.0, 1.0, True)
        assert ix == (1.0, 1.0)
        assert iy == (-1.0, 1.0)
        gap = max(abs(ix[0] - iy[0]), abs(ix[1] - iy[1]))
        assert gap == 2.0
        assert gap > max(abs(1.0 - 0.0), abs(0.0 - 1.0)) == 1.0

    def test_no_expansion_on_theta_set(self):
        rng = random.Random(17)
        for p, q in [(1, 2), (1, 1)]:
            c, s = _cs(Angle(p, q))
            for _ in range(2000):
                x = Vec2(rng.uniform(-5, 5), rng.uniform(-5, 5))
                y = Vec2(rng.uniform(-5, 5), rng.uniform(-5, 5))
                if x.x1 == x.x2 == 0.0 or y.x1 == y.x2 == 0.0:
                    continue
                ix, iy = turn(c, s, x.x1, x.x2, True), turn(c, s, y.x1, y.x2, True)
                lhs = max(abs(ix[0] - iy[0]), abs(ix[1] - iy[1]))
                rhs = max(abs(x.x1 - y.x1), abs(x.x2 - y.x2))
                assert lhs <= rhs + 1e-12

    @given(angles, vectors)
    def test_matches_factor_scaling(self, a, x):
        if x.x1 == x.x2 == 0.0:
            return
        c, s = _cs(a)
        g = _factor(c, s, x.x1, x.x2)
        rx = turn(c, s, x.x1, x.x2, False)
        assert turn(c, s, x.x1, x.x2, True) == (g * rx[0], g * rx[1])

    @given(angles, vectors)
    def test_preserves_max_norm(self, a, x):
        if x.x1 == x.x2 == 0.0:
            return
        out = Vec2(*turn(*_cs(a), x.x1, x.x2, True))
        assert norm(out, NormKind.LINF) == pytest.approx(norm(x, NormKind.LINF), rel=1e-12)

    def test_zero_vector_raises(self):
        # the rescale is 0/0 at the origin; the averaged steps map it to itself
        with pytest.raises(ZeroDivisionError):
            turn(*_cs(Angle(1, 3)), 0.0, 0.0, True)


class TestAveragedStep:
    def test_half_turn_collapses_in_one_step(self):
        out = averaged_step(*_cs(Angle(1, 1)), 0.5, 10.0, 30.0, False)
        assert out == (0.0, 0.0)

    def test_quarter_turn_max_norm_step(self):
        out = averaged_step(*_cs(Angle(1, 2)), 0.5, 1.0, 0.0, True)
        assert out == (0.5, 0.5)

    @given(angles, alphas)
    def test_origin_is_absorbing(self, a, alpha):
        c, s = _cs(a)
        assert averaged_step(c, s, alpha, 0.0, 0.0, True) == (0.0, 0.0)
        assert averaged_step(c, s, alpha, 0.0, 0.0, False) == (0.0, 0.0)

    @given(angles, alphas, unit_scale_vectors)
    def test_max_norm_never_grows(self, a, alpha, x):
        out = Vec2(*averaged_step(*_cs(a), alpha, x.x1, x.x2, True))
        assert norm(out, NormKind.LINF) <= norm(x, NormKind.LINF) + 1e-12

    @given(angles, alphas, vectors)
    @example(Angle(1, 1), 0.4948021730295811, Vec2(0.0, 1.0))  # mu cancelled near theta = pi
    def test_l2_squared_norm_recursion_is_exact(self, a, alpha, x):
        out = Vec2(*averaged_step(*_cs(a), alpha, x.x1, x.x2, False))
        lhs = out.x1 * out.x1 + out.x2 * out.x2
        rhs = mu(alpha, a) * (x.x1 * x.x1 + x.x2 * x.x2)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-280)


def _bits(v: float) -> bytes:
    return struct.pack("<d", v)


class TestKernelProbeAdapter:
    """The two names the benchmark's kernel probe calls return averaged_step's bits."""

    @pytest.mark.parametrize("kind", list(NormKind))
    @pytest.mark.parametrize("x", [(0.0, -0.0), (-0.0, 0.0), (5e-324, -0.0), (0.6, -0.8),
                                   (math.ldexp(0.6, 997), math.ldexp(-0.8, 997))])
    def test_adapter_is_averaged_step(self, kind, x):
        a = Angle(1, 12)
        got = rotation.apply_averaged(rotation.RotationOp(a), kind, 0.5, Vec2(*x))
        expected = averaged_step(*_cs(a), 0.5, *x, kind is NormKind.LINF)
        assert tuple(map(_bits, got)) == tuple(map(_bits, expected))


class TestKmStep:
    @given(angles, alphas, point_lists, st.sampled_from(NormKind))
    @example(Angle(1, 4), 0.5, [(-0.0, -0.0), (0.0, -0.0), (-0.0, 0.0), (0.0, 0.0)], NormKind.L2)
    @example(Angle(1, 4), 0.5, [(-0.0, -0.0), (0.0, -0.0), (-0.0, 0.0), (0.0, 0.0)], NormKind.LINF)
    @example(Angle(1, 1), 0.5, [(-0.0, 3.0), (-0.0, -3.0), (2.0, -0.0)], NormKind.L2)
    @example(Angle(1, 64), 0.5, [(-0.0, 5e-324), (5e-324, -0.0)], NormKind.LINF)
    def test_matches_averaged_step_bitwise(self, a, alpha, points, kind):
        c, s, linf = *_cs(a), kind is NormKind.LINF
        x1 = np.array([p[0] for p in points])
        x2 = np.array([p[1] for p in points])
        y1, y2 = km_step(c, s, alpha, x1, x2, linf)
        for p, got1, got2 in zip(points, y1.tolist(), y2.tolist()):
            expected = averaged_step(c, s, alpha, *p, linf)
            assert (_bits(got1), _bits(got2)) == tuple(map(_bits, expected))

    _zero_origins = [(x1, x2, w1, w2) for x1 in (0.0, -0.0) for x2 in (0.0, -0.0)
                     for w1 in (0.0, -0.0) for w2 in (0.0, -0.0)]
    _subnormal_starts = [(5e-324, -0.0, -0.0, 0.0), (-0.0, 5e-324, 1.0, -2.0), (1.5e-323, -5e-324, -0.0, -0.0)]

    @given(angles, alphas, noisy_point_lists, st.sampled_from(NormKind))
    @example(Angle(1, 3), 0.25, _zero_origins, NormKind.L2)
    @example(Angle(1, 3), 0.25, _zero_origins, NormKind.LINF)
    @example(Angle(1, 64), 0.5, _subnormal_starts, NormKind.L2)
    @example(Angle(1, 64), 0.5, _subnormal_starts, NormKind.LINF)
    def test_with_noise_matches_scalar_oracle_bitwise(self, a, alpha, points, kind):
        c, s, linf = *_cs(a), kind is NormKind.LINF
        x1, x2, w1, w2 = (np.array(col) for col in zip(*points))
        y1, y2 = km_step(c, s, alpha, x1, x2, linf, w1, w2)
        for (p1, p2, n1, n2), got1, got2 in zip(points, y1.tolist(), y2.tolist()):
            t1, t2 = (0.0, 0.0) if p1 == 0.0 and p2 == 0.0 else turn(c, s, p1, p2, linf)
            expected = ((1.0 - alpha) * p1 + alpha * (t1 + n1), (1.0 - alpha) * p2 + alpha * (t2 + n2))
            assert (_bits(got1), _bits(got2)) == tuple(map(_bits, expected))

    @pytest.mark.parametrize("kind", list(NormKind))
    def test_noise_moves_the_origin(self, kind):
        zero = np.zeros(2)
        w1, w2 = np.array([0.5, -0.0]), np.array([-2.0, 0.0])
        y1, y2 = km_step(*_cs(Angle(1, 3)), 0.25, zero, zero, kind is NormKind.LINF, w1, w2)
        assert y1.tolist() == [0.125, 0.0] and y2.tolist() == [-0.5, 0.0]


class TestScaleFree:
    """T and the averaged step commute with scaling by 2^e, bit for bit.

    Rounding is scale-free wherever no product, sum or ratio leaves the
    normal range, which numpy reports as an underflow or overflow of
    km_step under np.errstate(all="raise"); the scalar averaged_step takes
    the same operations.
    """

    @given(angles, alphas, st.sampled_from(NormKind), normal_coords, normal_coords, st.integers(-1000, 1000))
    def test_step_is_homogeneous(self, a, alpha, kind, x1, x2, e):
        assume(x1 != 0.0 or x2 != 0.0)
        s, c = sin_cos_pi(a.fraction)
        linf = kind is NormKind.LINF
        scale = 2.0**e
        try:
            with np.errstate(all="raise"):
                xs1, xs2 = np.array([x1, x1 * scale]), np.array([x2, x2 * scale])
                y1, y2 = km_step(c, s, alpha, xs1, xs2, linf)
                want = y1[0] * scale, y2[0] * scale
        except FloatingPointError:
            assume(False)  # a value left the normal range
        assert (_bits(y1[1]), _bits(y2[1])) == tuple(map(_bits, want))
        got = averaged_step(c, s, alpha, x1 * scale, x2 * scale, linf)
        assert tuple(map(_bits, got)) == tuple(map(_bits, want))

    @pytest.mark.parametrize("e", [515, 997, -565, -1000])  # about 1e155, 1e300, 1e-170 and 1e-301
    @pytest.mark.parametrize("p, q", [(1, 6), (1, 12), (2, 3), (5, 3)])
    def test_max_norm_step_at_the_ends_of_the_range(self, p, q, e):
        # the rescale multiplies by g in [sqrt(2)/2, sqrt(2)], so no product
        # leaves the range where the start and its image are normal
        s, c = sin_cos_pi(Fraction(p, q))
        y1, y2 = averaged_step(c, s, 0.5, 1.0, -0.75, True)
        got = averaged_step(c, s, 0.5, math.ldexp(1.0, e), math.ldexp(-0.75, e), True)
        assert tuple(map(_bits, got)) == (_bits(math.ldexp(y1, e)), _bits(math.ldexp(y2, e)))
