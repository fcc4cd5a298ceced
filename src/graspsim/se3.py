"""Rigid-body pose algebra on 6-DoF poses (position + intrinsic XYZ Euler).

One Euler convention is used everywhere in this package: intrinsic XYZ,
i.e. R = Rx(a) Ry(b) Rz(c).  Angles are kept normalized to (-pi, pi],
with the tie at -pi mapping to +pi, so pose equality is meaningful.

Where values are checked: a value is checked once, where it enters.
``Pose6(...)``, ``Twist(...)`` and ``vec6_decode`` check shape and
finiteness for anything that comes from user input, a file or a policy
output; a pose also wraps its angles and rejects one that the wrap cannot
bring into (-pi, pi] (some past about 1e16 rad).  A value computed from checked
values and a checked dt is finite (and, for a pose, wrapped) by
construction, so it is built with ``_trusted``, which skips the check:
``compose``, ``inverse``, ``relative_pose`` (and so ``grasp_to_world``), and
every pose and twist that the robot and scene integrators advance each step.

The float rule: where a 0-d or (3,) numpy call costs more than the math, it
runs on Python floats (``_wrap1``, ``matrix_to_euler``, the integrators, the
teacher, the action checks).  ``math.sin``/``cos``/``sqrt`` give numpy's bits;
``np.arctan2``/``arcsin``/``exp`` and BLAS dots and norms stay numpy
(``math.asin``/``atan2`` differ in 33,758/400k, 15,472/200k inputs).  These
ufuncs follow numpy's SIMD dispatch: without AVX512, ``_euler9`` of 21,353 in 100k
composed rotations gave other bits, each angle at most 1 ulp off.

The product rule: every rotation product multiplies row-major nine-tuples
(``_mul9``) or a nine-tuple and a 3-vector (``_mulv``) on Python floats, each
entry summed left to right; ``_rot9`` (Rx Ry Rz) is that nested product's
closed form, bit for bit.  Only ``Transform``'s orthonormality check
multiplies in numpy, so no product's bits depend on the BLAS kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError

TWO_PI = 2.0 * np.pi


def _wrap1(x: float) -> float:
    """The wrap rule on one float (on (-pi, pi] it subtracts a signed zero);
    ``copysign`` keeps np.rint's signed zero: -0.0 must wrap to +0.0."""
    if -math.pi < x <= math.pi:
        return x + 0.0
    if not math.isfinite(x):
        return math.nan
    q = x / TWO_PI
    w = x - TWO_PI * math.copysign(float(round(q)), q)
    if w <= -math.pi:
        w += TWO_PI
    if w > math.pi:
        w -= TWO_PI
    return w


def wrap_angle(x):
    """Normalize angle(s) to (-pi, pi]; exactly -pi maps to +pi.  Per element:
    on the 3-vectors it is given, ``_wrap1`` costs less than numpy ufuncs."""
    if isinstance(x, float) or np.ndim(x) == 0:
        return _wrap1(float(x))
    w = np.asarray(x, dtype=float)
    return np.array([_wrap1(v) for v in w.ravel().tolist()]).reshape(w.shape)


def _ro(a):
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


def _checked_pair(value):
    """The two fields of a Pose6 or Twist as read-only float copies, checked
    on Python floats to be finite 3-vectors."""
    kind, names = type(value).__name__, value.__dataclass_fields__
    first, second = [_ro(getattr(value, name)) for name in names]
    if first.shape != (3,) or second.shape != (3,):
        raise InvalidArgumentError(
            f"{kind} needs two 3-vectors, got {first.shape} / {second.shape}"
        )
    for name, a in zip(names, (first, second)):
        if not all(map(math.isfinite, a.tolist())):
            raise InvalidArgumentError(f"{kind}.{name} must be finite, got {a!r}")
    return first, second


@dataclass(frozen=True)
class Pose6:
    """6-DoF rigid pose: position in meters, intrinsic-XYZ Euler in radians."""

    position: np.ndarray
    orientation: np.ndarray

    def __post_init__(self):
        pos, orn = _checked_pair(self)
        wrapped = [_wrap1(a) for a in orn.tolist()]
        if not all(-math.pi < a <= math.pi for a in wrapped):
            raise InvalidArgumentError(
                f"Pose6.orientation too large to wrap into (-pi, pi], got {orn!r}")
        object.__setattr__(self, "position", pos)
        object.__setattr__(self, "orientation", _ro(wrapped))

    @staticmethod
    def identity() -> "Pose6":
        return Pose6(np.zeros(3), np.zeros(3))


@dataclass(frozen=True)
class Twist:
    """Spatial velocity: linear m/s, angular rad/s."""

    linear: np.ndarray
    angular: np.ndarray

    def __post_init__(self):
        lin, ang = _checked_pair(self)
        object.__setattr__(self, "linear", lin)
        object.__setattr__(self, "angular", ang)

    @staticmethod
    def zero() -> "Twist":
        return Twist(np.zeros(3), np.zeros(3))


def _trusted(cls, first: np.ndarray, second: np.ndarray):
    """A Pose6 or Twist from float (3,) arrays that are finite (and, for a
    pose, wrapped) by construction.  It skips ``__post_init__``, takes
    ownership of both arrays and marks them read-only."""
    first.setflags(write=False)
    second.setflags(write=False)
    value = object.__new__(cls)
    first_name, second_name = cls.__dataclass_fields__
    value.__dict__[first_name], value.__dict__[second_name] = first, second
    return value


@dataclass(frozen=True)
class Transform:
    """Matrix form of a pose (3x3 rotation + translation); no module builds one."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        rot = _ro(self.rotation)
        tra = _ro(self.translation)
        if rot.shape != (3, 3) or tra.shape != (3,):
            raise InvalidArgumentError(
                f"Transform needs 3x3 + 3, got {rot.shape} / {tra.shape}"
            )
        err = np.max(np.abs(rot @ rot.T - np.eye(3)))
        det = np.linalg.det(rot)
        if err > 1e-9 or abs(det - 1.0) > 1e-9:
            raise InvalidArgumentError(
                f"rotation not orthonormal (orth err {err:.2e}, det {det:.12f})"
            )
        object.__setattr__(self, "rotation", rot)
        object.__setattr__(self, "translation", tra)


def _mul9(m, n) -> tuple:
    """Row-major 3x3 product m n, each entry summed left to right."""
    m0, m1, m2, m3, m4, m5, m6, m7, m8 = m
    n0, n1, n2, n3, n4, n5, n6, n7, n8 = n
    return (m0 * n0 + m1 * n3 + m2 * n6, m0 * n1 + m1 * n4 + m2 * n7,
            m0 * n2 + m1 * n5 + m2 * n8, m3 * n0 + m4 * n3 + m5 * n6,
            m3 * n1 + m4 * n4 + m5 * n7, m3 * n2 + m4 * n5 + m5 * n8,
            m6 * n0 + m7 * n3 + m8 * n6, m6 * n1 + m7 * n4 + m8 * n7,
            m6 * n2 + m7 * n5 + m8 * n8)


def _mulv(m, v) -> tuple:
    """Row-major 3x3 times a 3-vector, each entry summed left to right."""
    m0, m1, m2, m3, m4, m5, m6, m7, m8 = m
    v0, v1, v2 = v
    return (m0 * v0 + m1 * v1 + m2 * v2, m3 * v0 + m4 * v1 + m5 * v2,
            m6 * v0 + m7 * v1 + m8 * v2)


def _t9(m) -> tuple:
    return m[0::3] + m[1::3] + m[2::3]


def _rot9(angles) -> tuple:
    """Rx(a) Ry(b) Rz(c): the nested ``_mul9`` product's bits for finite angles.
    Its zero terms fold to ``+ 0.0``: they set only a zero entry's sign, and
    an entry is zero only by cancellation or at a tiny angle, whose cosine is
    positive, so the product made it +0.0."""
    a, b, c = angles
    ca, sa = math.cos(a), math.sin(a)
    cb, sb = math.cos(b), math.sin(b)
    cc, sc = math.cos(c), math.sin(c)
    sab, cab = sa * sb, ca * -sb
    return (cb * cc, cb * -sc + 0.0, sb + 0.0,
            sab * cc + ca * sc + 0.0, sab * -sc + ca * cc, -sa * cb + 0.0,
            cab * cc + sa * sc + 0.0, cab * -sc + sa * cc + 0.0, ca * cb)


def _euler9(m) -> tuple:
    """matrix_to_euler of one nine-float rotation, on Python floats."""
    r00, r01, r02, r10, r11, r12, _, _, r22 = m
    sb = min(max(r02, -1.0), 1.0)
    if abs(sb) < 1.0 - 1e-12:
        a, c = np.arctan2((-r12, -r01), (r22, r00)).tolist()   # bits of two calls
    else:
        a, c = float(np.arctan2(r10 if sb > 0.0 else -r10, r11)), 0.0
    return _wrap1(a), _wrap1(float(np.arcsin(sb))), _wrap1(c)


def euler_to_matrix(orientation) -> np.ndarray:
    """Rotation matrix for intrinsic-XYZ Euler angles (Rx Ry Rz)."""
    return np.array(_rot9(np.asarray(orientation, dtype=float).tolist())).reshape(3, 3)


def matrix_to_euler(rotation) -> np.ndarray:
    """Invert euler_to_matrix on one 3x3; gimbal lock (|cos b| ~ 0) gives c = 0."""
    r = np.asarray(rotation, dtype=float)
    return np.array(_euler9(r.ravel().tolist()))


def _compose6(a_pos, ra, b_pos, b_orn) -> tuple:
    """compose on floats: b through the frame at a_pos with rotation nine-tuple ra."""
    x, y, z = _mulv(ra, b_pos)
    return (x + a_pos[0], y + a_pos[1], z + a_pos[2]), _euler9(_mul9(ra, _rot9(b_orn)))


def _relative6(f_pos, rf, p_pos, p_orn) -> tuple:
    """relative_pose on floats: p in the frame at f_pos with rotation nine-tuple rf."""
    rt = _t9(rf)
    d = (p_pos[0] - f_pos[0], p_pos[1] - f_pos[1], p_pos[2] - f_pos[2])
    return _mulv(rt, d), _euler9(_mul9(rt, _rot9(p_orn)))


def compose(a: Pose6, b: Pose6) -> Pose6:
    """Pose of frame b expressed through frame a (matrix composition internally)."""
    pos, orn = _compose6(a.position.tolist(), _rot9(a.orientation.tolist()),
                         b.position.tolist(), b.orientation.tolist())
    return _trusted(Pose6, np.array(pos), np.array(orn))


def inverse(p: Pose6) -> Pose6:
    rt = _t9(_rot9(p.orientation.tolist()))
    return _trusted(Pose6, np.negative(_mulv(rt, p.position.tolist())),
                    np.array(_euler9(rt)))


def relative_pose(frame: Pose6, p: Pose6) -> Pose6:
    """Pose p expressed in ``frame``: compose(inverse(frame), p) in one step."""
    pos, orn = _relative6(frame.position.tolist(), _rot9(frame.orientation.tolist()),
                          p.position.tolist(), p.orientation.tolist())
    return _trusted(Pose6, np.array(pos), np.array(orn))


def grasp_to_world(rel: Pose6, obj: Pose6) -> Pose6:
    """Re-project an object-local grasp pose into the world frame."""
    return compose(obj, rel)


def vec6_encode(p: Pose6) -> np.ndarray:
    """Flatten a pose to [px, py, pz, rx, ry, rz]."""
    return np.concatenate([p.position, p.orientation])


def vec6_decode(v) -> Pose6:
    """Rebuild a pose from a 6-vector; angles are normalized on the way in."""
    v = np.asarray(v, dtype=float)
    if v.shape != (6,):
        raise InvalidArgumentError(f"vec6_decode expects shape (6,), got {v.shape}")
    return Pose6(v[:3], v[3:])


def rotation_angle_between(orn_a, orn_b) -> float:
    """Geodesic angle in radians between two Euler orientations."""
    rr = _mul9(_t9(_rot9(np.asarray(orn_a, dtype=float).tolist())),
               _rot9(np.asarray(orn_b, dtype=float).tolist()))
    tr = rr[0] + rr[4] + rr[8]
    return float(np.arccos(min(max((tr - 1.0) / 2.0, -1.0), 1.0)))
