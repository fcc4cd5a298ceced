"""Rigid-body pose algebra on 6-DoF poses (position + intrinsic XYZ Euler).

One Euler convention is used everywhere in this package: intrinsic XYZ,
i.e. R = Rx(a) @ Ry(b) @ Rz(c).  Angles are kept normalized to (-pi, pi],
with the tie at -pi mapping to +pi, so pose equality is meaningful.

Where values are checked: a value is checked once, where it enters.
``Pose6(...)``, ``Twist(...)`` and ``vec6_decode`` check shape and
finiteness for anything that comes from user input, a file or a policy
output; a pose also wraps its angles and rejects one that the wrap cannot
bring into (-pi, pi] (some past about 1e16 rad).  A value computed from checked
values and a checked dt is finite (and, for a pose, wrapped) by
construction, so it is built with ``_trusted``, which skips the check:
``compose``, ``inverse`` (and so ``grasp_to_world``), and every pose and
twist that the robot and scene integrators advance each physics step.

The angle wrap (``_wrap1``) and the branch logic of ``matrix_to_euler`` run on
Python floats, where a 0-d numpy call costs more than the math.  Every
transcendental call and every ``@`` stays numpy: ``math.asin``/``atan2``/``exp``
differ from numpy in 33,758/400k, 15,472/200k and 18,626/400k random inputs,
and a 3x3 ``@`` (BLAS FMA) differs from left-to-right sums in 19,567/20,000.

``euler_to_matrix`` of zero roll and pitch (every base and unrotated pose) is
``rot_z(c)`` alone, with the bits of the product: each product entry is one
``rot_z`` entry plus signed zeros.  Only yaw == +-0.0 differs (rot_z's -0.0
sums to +0.0 in the product), so it takes the full form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError

TWO_PI = 2.0 * np.pi


def _wrap1(x: float) -> float:
    """The wrap rule on one float; ``copysign`` keeps the signed zero of
    ``np.rint``, which ``round`` (an int) drops: -0.0 must wrap to +0.0."""
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
    """Normalize angle(s) to (-pi, pi]; exactly -pi maps to +pi."""
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
    to be finite 3-vectors."""
    kind, names = type(value).__name__, value.__dataclass_fields__
    first, second = (_ro(getattr(value, name)) for name in names)
    if first.shape != (3,) or second.shape != (3,):
        raise InvalidArgumentError(
            f"{kind} needs two 3-vectors, got {first.shape} / {second.shape}"
        )
    for name, a in zip(names, (first, second)):
        if not np.isfinite(a).all():
            raise InvalidArgumentError(f"{kind}.{name} must be finite, got {a!r}")
    return first, second


@dataclass(frozen=True)
class Pose6:
    """6-DoF rigid pose: position in meters, intrinsic-XYZ Euler in radians."""

    position: np.ndarray
    orientation: np.ndarray

    def __post_init__(self):
        pos, orn = _checked_pair(self)
        wrapped = wrap_angle(orn)
        if not all(-math.pi < a <= math.pi for a in wrapped.tolist()):
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


def rot_x(a: float) -> np.ndarray:
    c, s = np.cos(a), np.sin(a)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rot_y(a: float) -> np.ndarray:
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rot_z(a: float) -> np.ndarray:
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def euler_to_matrix(orientation) -> np.ndarray:
    """Rotation matrix for intrinsic-XYZ Euler angles (Rx @ Ry @ Rz)."""
    a, b, c = np.asarray(orientation, dtype=float).tolist()
    if a == 0.0 and b == 0.0 and c != 0.0:
        return rot_z(c)
    return rot_x(a) @ rot_y(b) @ rot_z(c)


def matrix_to_euler(rotation) -> np.ndarray:
    """Invert euler_to_matrix on (..., 3, 3); returns (..., 3) angles.

    Gimbal lock (|cos b| ~ 0) resolves with c = 0.
    """
    r = np.asarray(rotation, dtype=float)
    sb = np.minimum(np.maximum(r[..., 0, 2], -1.0), 1.0)
    b = np.arcsin(sb)
    a = np.arctan2(-r[..., 1, 2], r[..., 2, 2])
    c = np.arctan2(-r[..., 0, 1], r[..., 0, 0])
    regular = np.abs(sb) < 1.0 - 1e-12
    if not regular.all():
        a = np.where(regular, a, np.arctan2(np.sign(sb) * r[..., 1, 0], r[..., 1, 1]))
        c = np.where(regular, c, 0.0)
    abc = np.array([a, b, c]).reshape(3, -1).T.ravel().tolist()
    return np.array([_wrap1(v) for v in abc]).reshape(sb.shape + (3,))


def compose(a: Pose6, b: Pose6) -> Pose6:
    """Pose of frame b expressed through frame a (matrix composition internally)."""
    ra = euler_to_matrix(a.orientation)
    rb = euler_to_matrix(b.orientation)
    return _trusted(Pose6, ra @ b.position + a.position, matrix_to_euler(ra @ rb))


def inverse(p: Pose6) -> Pose6:
    r = euler_to_matrix(p.orientation)
    return _trusted(Pose6, -(r.T @ p.position), matrix_to_euler(r.T))


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
    ra = euler_to_matrix(orn_a)
    rb = euler_to_matrix(orn_b)
    tr = np.trace(ra.T @ rb)
    return float(np.arccos(min(max((tr - 1.0) / 2.0, -1.0), 1.0)))
