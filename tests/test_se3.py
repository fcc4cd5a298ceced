import itertools
import math
import platform
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graspsim.errors import InvalidArgumentError
from graspsim.se3 import (
    Pose6,
    Twist,
    _euler9,
    _mul9,
    _rot9,
    _t9,
    _wrap1,
    compose,
    euler_to_matrix,
    grasp_to_world,
    inverse,
    matrix_to_euler,
    relative_pose,
    vec6_decode,
    vec6_encode,
    wrap_angle,
)

from conftest import assert_valid_pose, child_env, setting_env

angles = st.floats(-np.pi, np.pi, allow_nan=False, allow_infinity=False)
coords = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


def random_pose(rng):
    return Pose6(rng.uniform(-2, 2, 3), rng.uniform(-np.pi, np.pi, 3))


pose_st = st.builds(
    lambda p, o: Pose6(np.array(p), np.array(o)),
    st.tuples(coords, coords, coords),
    st.tuples(angles, angles, angles),
)


def test_wrap_angle_ties_and_range():
    assert wrap_angle(np.pi) == pytest.approx(np.pi)
    assert wrap_angle(-np.pi) == pytest.approx(np.pi)
    assert wrap_angle(3 * np.pi) == pytest.approx(np.pi)
    xs = np.linspace(-20, 20, 2001)
    w = wrap_angle(xs)
    assert np.all(w > -np.pi) and np.all(w <= np.pi)


def test_wrap_angle_bits_match_round_formula(rng):
    # wrap_angle rounds each float with round() and restores the sign of a
    # zero quotient; the wrapped bits equal the all-numpy np.round formula's,
    # signed zeros, ties at +-pi, multiples of 2 pi and huge magnitudes included
    def reference(x):
        w = x - 2.0 * np.pi * np.round(x / (2.0 * np.pi))
        w = np.where(w <= -np.pi, w + 2.0 * np.pi, w)
        return np.where(w > np.pi, w - 2.0 * np.pi, w)

    k = np.arange(-10.0, 11.0)
    xs = np.concatenate([
        [0.0, -0.0, np.pi, -np.pi, np.nextafter(np.pi, 4.0), np.nextafter(-np.pi, -4.0)],
        2.0 * np.pi * k, np.pi * (2.0 * k + 1.0),
        [1e6, -1e6, 1e15, -1e15, 1e300, -1e300, 2.0**53, -(2.0**53)],
        rng.uniform(-50.0, 50.0, 200),
    ])
    got = wrap_angle(xs)
    assert np.array_equal(got.view(np.uint64), reference(xs).view(np.uint64))
    for x in xs:
        assert (np.float64(wrap_angle(float(x))).view(np.uint64)
                == reference(np.array(x)).view(np.uint64))
    # a non-finite angle wraps to nan, scalar and array alike
    for x in (np.inf, -np.inf, np.nan):
        assert math.isnan(wrap_angle(x))
        assert np.isnan(wrap_angle(np.array([x, 1.0, x]))[[0, 2]]).all()


def test_wrap_angle_returns_its_outputs_unchanged(rng):
    # a wrapped angle wraps to the same bits, so a value built from wrapped
    # angles (a pose, a command target) needs no second wrap
    xs = np.concatenate([
        [0.0, -0.0, np.pi, -np.pi, np.nextafter(np.pi, 0.0), np.nextafter(-np.pi, 0.0),
         1e-300, -1e-300, 1e15, -1e15],
        rng.uniform(-50.0, 50.0, 20_000),
    ])
    once = wrap_angle(xs)
    assert not np.any(np.signbit(once) & (once == 0.0))
    assert np.array_equal(wrap_angle(once).view(np.uint64), once.view(np.uint64))


def test_angle_too_large_to_wrap_rejected():
    # past about 1e16 rad the wrap formula is not exact: this angle wraps to
    # -9.7168, outside (-pi, pi], so a checked pose refuses it
    huge = -1.15707963267948966e17
    assert not -np.pi < wrap_angle(huge) <= np.pi
    with pytest.raises(InvalidArgumentError, match="too large to wrap"):
        Pose6(np.zeros(3), np.array([0.0, 0.0, huge]))
    with pytest.raises(InvalidArgumentError, match="too large to wrap"):
        vec6_decode(np.array([0.0, 0.0, 0.0, 0.0, 0.0, huge]))
    # the largest angles the wrap does bring into range are still taken
    assert -np.pi < Pose6(np.zeros(3), np.array([1e15, -1e15, 0.0])).orientation[0] <= np.pi


def rot_z(c):
    """A yaw rotation built in numpy, with the exact zeros of a base pose."""
    cc, sc = np.cos(c), np.sin(c)
    return np.array([[cc, -sc, 0.0], [sc, cc, 0.0], [0.0, 0.0, 1.0]])


def _matrix_to_euler_oracle(rotation):
    """The all-numpy form of matrix_to_euler: np.clip, both np.where branches
    (four arctan2 calls), np.stack and the np.rint wrap."""
    r = np.asarray(rotation, dtype=float)
    sb = np.clip(r[..., 0, 2], -1.0, 1.0)
    b = np.arcsin(sb)
    regular = np.abs(sb) < 1.0 - 1e-12
    a = np.where(regular, np.arctan2(-r[..., 1, 2], r[..., 2, 2]),
                 np.arctan2(np.sign(sb) * r[..., 1, 0], r[..., 1, 1]))
    c = np.where(regular, np.arctan2(-r[..., 0, 1], r[..., 0, 0]), 0.0)
    w = np.stack([a, b, c], axis=-1)
    w = w - 2.0 * np.pi * np.rint(w / (2.0 * np.pi))
    w = np.where(w <= -np.pi, w + 2.0 * np.pi, w)
    return np.where(w > np.pi, w - 2.0 * np.pi, w)


def _same_bits(x, y):
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return x.shape == y.shape and np.array_equal(x.view(np.uint64), y.view(np.uint64))


def test_matrix_to_euler_bits_match_numpy_oracle(rng):
    def angles(n=3):
        return rng.uniform(-np.pi, np.pi, n)

    mats = []
    for _ in range(150):
        # random rotations and products of them
        mats.append(euler_to_matrix(angles()))
        mats.append(euler_to_matrix(angles()) @ euler_to_matrix(angles()))
        # base-style yaw rotations, composed and re-expressed as the robot
        # does (r.T @ r2): their exact zeros become -0.0 in arctan2(-r12, r22)
        yaw, yaw2 = angles(2)
        mats.append(rot_z(yaw))
        mats.append(rot_z(yaw) @ euler_to_matrix(angles()))
        mats.append(rot_z(yaw).T @ rot_z(yaw2))
        mats.append(rot_z(yaw).T @ euler_to_matrix(np.array([0.0, 0.0, yaw2])))
        # gimbal lock, b = +-pi/2 (r[0, 2] = +-1 exactly)
        a, c = angles(2)
        mats.append(euler_to_matrix(np.array([a, np.pi / 2, c])))
        mats.append(euler_to_matrix(np.array([a, -np.pi / 2, c])))
    # every zero of a yaw rotation and of the identity, as +0.0 and as -0.0
    for base in (rot_z(0.7), rot_z(-2.1), np.eye(3), rot_z(np.pi)):
        for sign in (1.0, -1.0):
            m = base.copy()
            m[m == 0.0] = sign * 0.0
            mats.append(m)
    # gimbal rows built exactly, r[0, 2] = +-1 with signed-zero neighbours
    for s02 in (1.0, -1.0):
        for z in (0.0, -0.0):
            mats.append(np.array([[z, z, s02], [0.6, 0.8, z], [-0.8 * s02, 0.6 * s02, z]]))
    assert sum(abs(m[0, 2]) == 1.0 for m in mats) >= 300
    negative_zero = [np.any((m == 0.0) & np.signbit(m)) for m in mats]
    assert sum(negative_zero) >= 6
    for m in mats:
        assert _same_bits(matrix_to_euler(m), _matrix_to_euler_oracle(m))



def _raw_euler(stack):
    """matrix_to_euler's arctan2/arcsin outputs for each of (K, 3, 3), unwrapped."""
    sb = np.clip(stack[:, 0, 2], -1.0, 1.0)
    lock = np.abs(sb) >= 1.0 - 1e-12
    a = np.where(lock, np.arctan2(np.sign(sb) * stack[:, 1, 0], stack[:, 1, 1]),
                 np.arctan2(-stack[:, 1, 2], stack[:, 2, 2]))
    c = np.where(lock, 0.0, np.arctan2(-stack[:, 0, 1], stack[:, 0, 0]))
    return np.stack([a, np.arcsin(sb), c], axis=-1)


def test_matrix_to_euler_wrap_bits_match_per_element_wrap(rng):
    # matrix_to_euler wraps each arctan2/arcsin output as _wrap1 does.
    # Half-turn and gimbal matrices with every sign of their zero entries
    # drive arctan2 and arcsin to exactly -pi, -0.0 and +-pi/2.
    bases = [np.diag([-1.0, -1.0, 1.0]), np.diag([1.0, -1.0, -1.0]),
             np.diag([-1.0, 1.0, -1.0]), np.eye(3),
             np.array([[0.0, 0.0, 1.0], [0.0, -1.0, 0.0], [-1.0, 0.0, 0.0]]),
             np.array([[0.0, 0.0, -1.0], [0.0, -1.0, 0.0], [1.0, 0.0, 0.0]])]
    mats = []
    for base in bases:
        zeros = np.flatnonzero(base == 0.0)
        for signs in itertools.product((0.0, -0.0), repeat=len(zeros)):
            m = base.ravel().copy()
            m[zeros] = signs
            mats.append(m.reshape(3, 3))
    mats += [euler_to_matrix(o) for o in rng.uniform(-np.pi, np.pi, (200, 3))]
    raw = _raw_euler(np.array(mats)).ravel()
    assert np.any(raw == -np.pi)
    assert np.any((raw == 0.0) & np.signbit(raw))
    assert np.any(raw == np.pi / 2) and np.any(raw == -np.pi / 2)
    got = np.array([matrix_to_euler(m) for m in mats])
    assert _same_bits(got.ravel(), [_wrap1(x) for x in raw.tolist()])


def test_wrap1_in_range_return_bits_match_round_formula():
    # _wrap1 returns x + 0.0 on (-pi, pi]: the round formula's bits at
    # signed zeros, on both sides of +-pi and at subnormals
    def reference(x):
        w = x - 2.0 * np.pi * np.round(x / (2.0 * np.pi))
        w = np.where(w <= -np.pi, w + 2.0 * np.pi, w)
        return np.where(w > np.pi, w - 2.0 * np.pi, w)

    tiny = np.finfo(float).tiny
    xs = [0.0, -0.0, 5e-324, -5e-324, np.nextafter(tiny, 0.0), -np.nextafter(tiny, 0.0),
          tiny, -tiny]
    for edge in (np.pi, -np.pi):
        xs += [edge, np.nextafter(edge, 0.0), np.nextafter(edge, 2.0 * edge)]
    for x in xs:
        assert _same_bits(_wrap1(float(x)), reference(np.float64(x))), x


def _rxryrz_oracle(a, b, c):
    """Rx(a) Ry(b) Rz(c) as nested lists of Python floats: two generic 3x3
    products, each entry accumulated from k = 0 up (signed zeros included)."""
    ca, sa, cb, sb, cc, sc = (math.cos(a), math.sin(a), math.cos(b),
                              math.sin(b), math.cos(c), math.sin(c))
    rx = [[1.0, 0.0, 0.0], [0.0, ca, -sa], [0.0, sa, ca]]
    ry = [[cb, 0.0, sb], [0.0, 1.0, 0.0], [-sb, 0.0, cb]]
    rz = [[cc, -sc, 0.0], [sc, cc, 0.0], [0.0, 0.0, 1.0]]

    def matmul(m, n):
        out = [[0.0] * 3 for _ in range(3)]
        for i in range(3):
            for j in range(3):
                acc = m[i][0] * n[0][j]
                for k in (1, 2):
                    acc = acc + m[i][k] * n[k][j]
                out[i][j] = acc
        return out

    return matmul(matmul(rx, ry), rz)


def test_euler_to_matrix_bits_match_python_float_product(rng):
    # one arithmetic for every rotation product: Rx Ry Rz summed left to right
    # on Python floats, signed zeros and exact gimbal entries included
    special = (0.0, -0.0, np.pi, -np.pi)
    orns = list(itertools.product(special, special + (np.pi / 2, -np.pi / 2), special))
    orns += [tuple(o) for o in rng.uniform(-np.pi, np.pi, (20_000, 3))]
    for a, b, c in rng.uniform(-np.pi, np.pi, (200, 3)):
        orns += [(s, b, c) for s in special] + [(a, s, c) for s in special]
        orns += [(a, b, s) for s in special] + [(a, np.pi / 2, c), (a, -np.pi / 2, c)]
    zeros = 0
    for orn in orns:
        got = euler_to_matrix(np.array(orn))
        assert _same_bits(got, np.array(_rxryrz_oracle(*orn)))
        zeros += int(np.sum(got == 0.0))
    assert zeros >= 1000      # the exact zeros, whose sign the sums decide


def _nested_rot9(a, b, c):
    """Rx(a) Ry(b) Rz(c) as the two nested ``_mul9`` products that ``_rot9``
    writes out in closed form."""
    ca, sa, cb, sb, cc, sc = (math.cos(a), math.sin(a), math.cos(b),
                              math.sin(b), math.cos(c), math.sin(c))
    return _mul9(_mul9((1.0, 0.0, 0.0, 0.0, ca, -sa, 0.0, sa, ca),
                       (cb, 0.0, sb, 0.0, 1.0, 0.0, -sb, 0.0, cb)),
                 (cc, -sc, 0.0, sc, cc, 0.0, 0.0, 0.0, 1.0))


# signed zeros, subnormal and tiny angles (whose sine products underflow to a
# signed zero), gimbal angles and their neighbours, half turns
_SPECIAL_ANGLES = [s * x for x in (
    0.0, 5e-324, 1e-310, np.finfo(float).tiny, 1e-300, 1e-160, 1e-20, 1.0,
    np.pi / 2, np.nextafter(np.pi / 2, 0.0), np.nextafter(np.pi / 2, 4.0),
    np.nextafter(np.pi, 0.0), np.pi) for s in (1.0, -1.0)]


def test_rot9_closed_form_bits_match_nested_product(rng):
    # the closed form folds the product's zero terms to + 0.0; every sign of
    # zero and every rounding of the product is kept
    orns = list(itertools.product(_SPECIAL_ANGLES, repeat=3))
    orns += [tuple(o) for o in rng.uniform(-np.pi, np.pi, (50_000, 3)).tolist()]
    zeros = 0
    for orn in orns:
        got = _rot9(orn)
        assert _same_bits(got, _nested_rot9(*orn)), orn
        zeros += got.count(0.0)
    assert zeros >= 7_000     # the zero entries, whose sign the folding decides


def _euler9_two_calls(m):
    """``_euler9`` with one np.arctan2 call per angle."""
    r00, r01, r02, r10, r11, r12, _, _, r22 = m
    sb = min(max(r02, -1.0), 1.0)
    if abs(sb) < 1.0 - 1e-12:
        a, c = float(np.arctan2(-r12, r22)), float(np.arctan2(-r01, r00))
    else:
        a, c = float(np.arctan2(r10 if sb > 0.0 else -r10, r11)), 0.0
    return _wrap1(a), _wrap1(float(np.arcsin(sb))), _wrap1(c)


def test_euler9_paired_arctan2_bits_match_two_calls(rng):
    # one np.arctan2 call on the (a, c) pair gives each angle the bits of its
    # own call: rotations, relative rotations as the robot forms them, and
    # every sign of zero in the four inputs (arctan2(+-0.0, -x) is +-pi)
    mats = [_rot9(o) for o in itertools.product(_SPECIAL_ANGLES[::3], repeat=3)]
    mats += [_rot9(o) for o in rng.uniform(-np.pi, np.pi, (20_000, 3)).tolist()]
    mats += [_mul9(_t9(_rot9((0.0, 0.0, o[0]))), _rot9(o))
             for o in rng.uniform(-np.pi, np.pi, (5_000, 3)).tolist()]
    values = (0.0, -0.0, 0.5, -0.5, 1e-300, -1e-300)
    for r00, r01, r12, r22 in itertools.product(values, repeat=4):
        mats.append((r00, r01, 0.3, 0.0, 0.0, r12, 0.0, 0.0, r22))
    for m in mats:
        assert _same_bits(_euler9(m), _euler9_two_calls(m)), m


def test_zero_pose_is_identity_transform():
    p = Pose6.identity()
    assert np.allclose(euler_to_matrix(p.orientation), np.eye(3))
    assert np.allclose(p.position, 0.0)


def test_yaw_quarter_turn_maps_x_to_y():
    # oracle: plain Rz(pi/2) applied to x-hat
    r = euler_to_matrix(Pose6(np.zeros(3), np.array([0, 0, np.pi / 2])).orientation)
    assert np.allclose(r @ np.array([1.0, 0, 0]), [0, 1, 0], atol=1e-12)


def test_euler_matrix_convention_is_intrinsic_xyz(rng):
    for _ in range(50):
        a, b, c = rng.uniform(-np.pi, np.pi, 3)
        ca, sa = np.cos(a), np.sin(a)
        cb, sb = np.cos(b), np.sin(b)
        cc, sc = np.cos(c), np.sin(c)
        rx = np.array([[1, 0, 0], [0, ca, -sa], [0, sa, ca]])
        ry = np.array([[cb, 0, sb], [0, 1, 0], [-sb, 0, cb]])
        rz = np.array([[cc, -sc, 0], [sc, cc, 0], [0, 0, 1]])
        assert np.allclose(euler_to_matrix([a, b, c]), rx @ ry @ rz, atol=1e-12)


def test_transform_euler_roundtrip(rng):
    for _ in range(200):
        r = euler_to_matrix(random_pose(rng).orientation)
        orn = matrix_to_euler(r)
        assert np.all((orn > -np.pi) & (orn <= np.pi))
        assert np.allclose(euler_to_matrix(orn), r, atol=1e-9)


def test_roundtrip_near_gimbal_lock():
    r = euler_to_matrix(np.array([0.3, np.pi / 2, 0.0]))
    assert np.allclose(euler_to_matrix(matrix_to_euler(r)), r, atol=1e-7)
    # the conversion keeps the numpy oracle's bits at the lock (b = +-pi/2
    # gives r[0, 2] = +-1 exactly) and on both sides of the 1e-12 threshold
    # (1 - |r[0, 2]| is 5e-13, then 2e-12)
    rng = np.random.Generator(np.random.PCG64(7))
    orns = rng.uniform(-np.pi, np.pi, (64, 3))
    orns[::4, 1] = np.pi / 2
    orns[1::4, 1] = -np.pi / 2
    orns[2::4, 1] = np.pi / 2 - 1e-6
    orns[3::4, 1] = -np.pi / 2 + 2e-6
    mats = np.array([euler_to_matrix(o) for o in orns])
    assert np.sum(np.abs(mats[:, 0, 2]) == 1.0) == 32
    assert np.sum(np.abs(mats[:, 0, 2]) < 1.0 - 1e-12) == 16
    single = np.array([matrix_to_euler(m) for m in mats])
    assert _same_bits(single, _matrix_to_euler_oracle(mats))
    assert np.all(single[0::4, 2] == 0.0) and np.all(single[2::4, 2] == 0.0)
    assert np.allclose([euler_to_matrix(o) for o in single], mats, atol=1e-5)


def test_compose_identity_and_inverse(rng):
    for _ in range(50):
        p = random_pose(rng)
        # rotations compare as matrices: two Euler triples can encode one
        same = compose(Pose6.identity(), p)
        assert np.allclose(same.position, p.position, rtol=0, atol=1e-12)
        assert np.allclose(euler_to_matrix(same.orientation),
                           euler_to_matrix(p.orientation), rtol=0, atol=1e-12)
        q = compose(p, inverse(p))
        for built in (q, inverse(p), compose(p, p), compose(inverse(p), p)):
            assert_valid_pose(built)
        assert np.allclose(q.position, 0.0, atol=1e-9)
        assert np.allclose(euler_to_matrix(q.orientation), np.eye(3), atol=1e-9)


def test_relative_pose_is_compose_of_inverse(rng):
    for _ in range(50):
        frame, p = random_pose(rng), random_pose(rng)
        rel = relative_pose(frame, p)
        assert_valid_pose(rel)
        ref = compose(inverse(frame), p)
        assert np.allclose(rel.position, ref.position, rtol=0, atol=1e-12)
        assert np.allclose(euler_to_matrix(rel.orientation),
                           euler_to_matrix(ref.orientation), rtol=0, atol=1e-12)
        back = compose(frame, rel)
        assert np.allclose(back.position, p.position, rtol=0, atol=1e-12)
        assert np.allclose(euler_to_matrix(back.orientation),
                           euler_to_matrix(p.orientation), rtol=0, atol=1e-12)


def test_compose_yaw_then_translation():
    a = Pose6(np.zeros(3), np.array([0, 0, np.pi / 2]))
    b = Pose6(np.array([1.0, 0, 0]), np.zeros(3))
    c = compose(a, b)
    assert np.allclose(c.position, [0, 1, 0], atol=1e-12)


def test_grasp_to_world_cases():
    rel = Pose6(np.array([0.1, 0, 0]), np.array([0.0, 0.2, 0.3]))
    same = grasp_to_world(rel, Pose6.identity())
    assert np.allclose(same.position, rel.position, rtol=0, atol=1e-12)
    assert np.allclose(euler_to_matrix(same.orientation),
                       euler_to_matrix(rel.orientation), rtol=0, atol=1e-12)

    shift = Pose6(np.array([1.0, 2.0, 3.0]), np.zeros(3))
    moved = grasp_to_world(rel, shift)
    assert np.allclose(moved.position, rel.position + shift.position)
    assert np.allclose(moved.orientation, rel.orientation)

    obj = Pose6(np.array([5.0, 0, 0]), np.array([0, 0, np.pi / 2]))
    world = grasp_to_world(Pose6(np.array([0.1, 0, 0]), np.zeros(3)), obj)
    assert np.allclose(world.position, [5.0, 0.1, 0.0], atol=1e-12)


def test_vec6_encode_decode():
    assert np.allclose(vec6_encode(Pose6.identity()), np.zeros(6))
    p = Pose6(np.array([1.0, 2, 3]), np.array([0.1, -0.2, 0.3]))
    back = vec6_decode(vec6_encode(p))
    assert np.allclose(back.position, p.position, rtol=0, atol=1e-15)
    assert np.allclose(euler_to_matrix(back.orientation),
                       euler_to_matrix(p.orientation), rtol=0, atol=1e-15)
    q = vec6_decode(np.array([1.0, 2, 3, 3 * np.pi, 0, 0]))
    assert q.orientation[0] == pytest.approx(np.pi)


def test_non_finite_rejected():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(InvalidArgumentError):
            Pose6(np.array([bad, 0, 0]), np.zeros(3))
        with pytest.raises(InvalidArgumentError):
            Pose6(np.zeros(3), np.array([0, bad, 0]))
        with pytest.raises(InvalidArgumentError):
            vec6_decode(np.array([0, 0, 0, bad, 0, 0]))
        with pytest.raises(InvalidArgumentError):
            vec6_decode(np.array([0, bad, 0, 0, 0, 0]))


HUGE_ANGLE = -1.15707963267948966e17   # the wrap brings it to -9.7168


@pytest.mark.parametrize("make, message", [
    (lambda: Pose6(np.array([np.nan, 0.0, 0.0]), np.zeros(3)), r"Pose6\.position must be finite"),
    (lambda: Pose6(np.zeros(3), [0.0, -np.inf, 1e300]), r"Pose6\.orientation must be finite"),
    (lambda: Twist([0.0, 0.0, np.inf], np.zeros(3)), r"Twist\.linear must be finite"),
    (lambda: Twist(np.zeros(3), [np.nan, 1.0, 2.0]), r"Twist\.angular must be finite"),
    (lambda: vec6_decode([0.0, 0.0, 0.0, 0.0, np.nan, 0.0]), r"Pose6\.orientation must be finite"),
    (lambda: Pose6(np.zeros(2), np.zeros(3)), r"Pose6 needs two 3-vectors, got \(2,\) / \(3,\)"),
    (lambda: Pose6(np.zeros(3), np.zeros((1, 3))), r"got \(3,\) / \(1, 3\)"),
    (lambda: Twist(np.zeros(4), 0.0), r"Twist needs two 3-vectors, got \(4,\) / \(\)"),
    (lambda: vec6_decode(np.zeros(7)), r"vec6_decode expects shape \(6,\), got \(7,\)"),
    (lambda: Pose6(np.zeros(3), [HUGE_ANGLE, 0.0, 0.0]), "orientation too large to wrap"),
], ids=["nan-position", "inf-orientation", "inf-linear", "nan-angular", "nan-decode",
        "short-position", "2d-orientation", "scalar-angular", "long-decode", "huge-angle"])
def test_checked_values_reject_with_their_messages(make, message):
    with pytest.raises(InvalidArgumentError, match=message):
        make()


def test_checked_pose_keeps_read_only_copies_and_wrap_bits(rng):
    # a checked pose wraps each angle as wrap_angle does, bit for bit, and owns
    # read-only copies of its inputs
    pi, nxt = np.pi, np.nextafter(np.pi, 0.0)
    angles = np.concatenate([[0.0, -0.0, pi, -pi, nxt, -nxt, 2 * pi, -2 * pi, 3 * pi, -3 * pi,
                              1e15, -1e15],
                             rng.uniform(-50.0, 50.0, 600)]).reshape(-1, 3)
    for orn in angles:
        p = Pose6(orn, orn)
        assert p.orientation.tobytes() == wrap_angle(orn).tobytes()
        assert p.position.tobytes() == orn.tobytes()
    pos, orn = np.array([1.0, 2.0, 3.0]), np.array([0.1, 4.0, -0.2])
    for value in (Pose6(pos, orn), Twist(pos, orn)):
        first, second = vars(value).values()
        assert not first.flags.writeable and not second.flags.writeable
        assert not np.shares_memory(first, pos) and not np.shares_memory(second, orn)
    pos[0] = 9.0
    assert Pose6(pos, orn).position[0] == 9.0 and value.linear[0] == 1.0


@settings(max_examples=80, deadline=None)
@given(pose_st, pose_st, pose_st)
def test_composition_associativity(a, b, c):
    # pose equality within 1e-9 = positions and rotation matrices within 1e-9
    # (geodesic angle is sqrt-amplified near zero, so matrices are compared)
    lhs = compose(compose(a, b), c)
    rhs = compose(a, compose(b, c))
    assert np.allclose(lhs.position, rhs.position, atol=1e-9)
    assert np.allclose(euler_to_matrix(lhs.orientation),
                       euler_to_matrix(rhs.orientation), atol=1e-9)


@settings(max_examples=80, deadline=None)
@given(pose_st, pose_st, pose_st)
def test_grasp_to_world_frame_equivariance(rel, obj, d):
    lhs = grasp_to_world(rel, compose(d, obj))
    rhs = compose(d, grasp_to_world(rel, obj))
    assert np.allclose(lhs.position, rhs.position, atol=1e-9)
    assert np.allclose(euler_to_matrix(lhs.orientation),
                       euler_to_matrix(rhs.orientation), atol=1e-9)


@settings(max_examples=100, deadline=None)
@given(st.tuples(angles, angles, angles))
def test_rotations_always_orthonormal(orn):
    r = euler_to_matrix(np.array(orn))
    assert np.max(np.abs(r @ r.T - np.eye(3))) < 1e-9
    assert abs(np.linalg.det(r) - 1.0) < 1e-9


# The digest of the pose algebra on seeded inputs.
_POSE_ALGEBRA_SCRIPT = """
import hashlib
import numpy as np
from graspsim import gfm, robot, se3
from graspsim.scene import ObjectSpec

rng = np.random.Generator(np.random.PCG64(11))
poses = [se3.Pose6(rng.uniform(-2, 2, 3), rng.uniform(-np.pi, np.pi, 3))
         for _ in range(200)]
out = hashlib.sha256()
for a, b in zip(poses, poses[1:]):
    out.update(se3.euler_to_matrix(a.orientation).tobytes())
    for p in (se3.compose(a, b), se3.inverse(a),
              robot.ee_pose_in_base(robot.RobotState(a, se3.Twist.zero(), b, b))):
        out.update(se3.vec6_encode(p).tobytes())
box = ObjectSpec("bx", "box", (0.05, 0.07, 0.12), 0.3, "seen", "long_box")
bank = gfm.build_memory(gfm.generate_candidates(box, 40, 3), 30)
for p in poses[:50]:
    out.update(gfm._world_vec6(bank, p).tobytes())
print(out.hexdigest())
"""


def _pose_algebra_digest(env) -> str:
    proc = subprocess.run([sys.executable, "-c", _POSE_ALGEBRA_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"),
                    reason="the setting names an x86-64 BLAS kernel")
def test_pose_algebra_bits_hold_across_blas_kernels():
    # every rotation product is summed left to right on floats, so a BLAS
    # kernel without FMA leaves euler_to_matrix, compose, inverse, the base
    # frame ee pose and gfm's bank re-projection bit for bit as they are
    env = setting_env({"OPENBLAS_CORETYPE": "Sandybridge"}, control=True)
    assert _pose_algebra_digest(env) == _pose_algebra_digest(child_env())
