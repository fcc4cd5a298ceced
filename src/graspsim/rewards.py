"""Reward formulas for the hierarchical controller, as pure functions.

Every term is returned individually (raw value, weight, weighted value) so
each row can be tested on its own; the total is the sum of weighted values.
These functions only score states — no optimizer consumes them here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError
from .scene import LIFT_SUCCESS_HEIGHT
from .se3 import wrap_angle

YAW_PENALTY_THRESHOLD = np.pi / 3.0
SIGMA_TRACK = 0.25      # Gaussian tracking-kernel width (conventional)
SIGMA_CF = 100.0        # swing-phase force kernel, N^2
SIGMA_CV = 0.05         # stance-phase velocity kernel, (m/s)^2

HIGH_LEVEL_WEIGHTS = {
    "approach": 0.5,
    "lift": 0.8,
    "completion": 3.5,
    "acc": -0.001,
    "cmd": 0.05,
    "action": -0.001,
    "ee_orn": 0.01,
    "base_orn": 0.25,
    "base_approach": 0.01,
    "base_h": 0.5,
    "yaw": -0.4,
}

LOW_LEVEL_WEIGHTS = {
    "lin_vel_tracking": 1.0,
    "yaw_vel_tracking": 0.5,
    "ang_vel_penalty": 0.05,
    "joint_torques": 0.00002,
    "action_rate": 0.25,
    "collisions": 0.001,
    "feet_air_time": 2.0,
    "default_joint_pos": 1.0,
    "lin_vel_z": -1.5,
    "base_height": -5.0,
    "swing_phase_force": -0.2,
    "stance_phase_velocity": -0.2,
}


@dataclass(frozen=True)
class RewardBreakdown:
    """Per-term (raw, weight, weighted) map; total = sum of weighted values."""

    terms: dict
    total: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "total",
                           float(sum(w for (_, _, w) in self.terms.values())))

    def raw(self, name: str) -> float:
        return self.terms[name][0]

    def weighted(self, name: str) -> float:
        return self.terms[name][2]


def _breakdown(raw_values: dict, weights: dict) -> RewardBreakdown:
    terms = {}
    for name, raw in raw_values.items():
        w = weights[name]
        terms[name] = (float(raw), float(w), float(raw) * float(w))
    return RewardBreakdown(terms)


def _unit(v, name):
    v = np.asarray(v, dtype=float)
    n = float(np.linalg.norm(v))
    if not np.isfinite(n) or abs(n - 1.0) > 1e-6:
        raise InvalidArgumentError(f"{name} must be unit-norm, |v| = {n}")
    return v


@dataclass(frozen=True)
class HighLevelRewardInput:
    """Inputs for one high-level reward evaluation."""

    phase: str                 # approaching|grasped|lifted|success|failed_*
    dist_ee_obj: float
    lift_height: float
    completed: bool
    q_dot_prev: np.ndarray
    q_dot: np.ndarray
    a_prev: np.ndarray
    a: np.ndarray
    v_x_star: float
    d_obj: np.ndarray          # unit, base -> object
    d_ee: np.ndarray           # unit, ee approach axis
    d_base: np.ndarray         # unit, base heading
    x_obj: float               # scalar forward coordinate of the object
    x_base: float              # scalar forward coordinate of the base
    h_current: float
    h_target: float
    psi_c: float
    psi_0: float


def yaw_penalty(psi_c: float, psi_0: float) -> float:
    """-tanh(|yaw drift|) once the drift exceeds pi/3, else zero."""
    if not (np.isfinite(psi_c) and np.isfinite(psi_0)):
        raise InvalidArgumentError("yaw angles must be finite")
    delta = abs(wrap_angle(psi_c - psi_0))
    if delta > YAW_PENALTY_THRESHOLD:
        return float(-np.tanh(delta))
    return 0.0


def high_level_reward(inp: HighLevelRewardInput) -> RewardBreakdown:
    """Staged task reward plus always-on assistant terms.

    At most one of approach/lift/completion is active: completion when
    ``completed``, else approach while approaching and lift once grasped or
    lifted; a failed step scores no stage.  The stage raw values are artifact
    defaults: approach = exp(-distance to the object), lift = 0.5 + 0.5 *
    progress toward the lift-success height, completion = 1.
    """
    if inp.phase not in ("approaching", "grasped", "lifted", "success") \
            and not inp.phase.startswith("failed_"):
        raise InvalidArgumentError(f"unknown episode phase {inp.phase!r}")
    values = np.concatenate([
        inp.q_dot_prev, inp.q_dot, inp.a_prev, inp.a,
        [inp.dist_ee_obj, inp.lift_height, inp.v_x_star,
         inp.x_obj, inp.x_base, inp.h_current, inp.h_target,
         inp.psi_c, inp.psi_0],
    ])
    if not np.all(np.isfinite(values)):
        raise InvalidArgumentError("high-level reward input contains non-finite values")

    approach = lift = completion = 0.0
    if inp.completed:
        completion = 1.0
    elif inp.phase in ("grasped", "lifted"):
        lift = 0.5 + 0.5 * float(min(max(inp.lift_height / LIFT_SUCCESS_HEIGHT, 0.0), 1.0))
    elif inp.phase == "approaching":
        approach = float(np.exp(-inp.dist_ee_obj))

    d_obj = _unit(inp.d_obj, "d_obj")
    d_ee = _unit(inp.d_ee, "d_ee")
    d_base = _unit(inp.d_base, "d_base")

    raw = {
        "approach": approach,
        "lift": lift,
        "completion": completion,
        "acc": 1.0 - np.exp(-np.linalg.norm(inp.q_dot_prev - inp.q_dot)),
        "cmd": -abs(inp.v_x_star) + 0.25 * np.exp(-abs(inp.v_x_star)),
        "action": 1.0 - np.exp(-np.linalg.norm(inp.a_prev - inp.a)),
        "ee_orn": float(np.dot(d_obj, d_ee)),
        "base_orn": float(np.dot(d_obj, d_base)),
        "base_approach": 1.0 + np.tanh(-10.0 * abs(inp.x_obj - inp.x_base - 0.6)),
        "base_h": np.exp(-abs(inp.h_current - inp.h_target)),
        "yaw": yaw_penalty(inp.psi_c, inp.psi_0),
    }
    return _breakdown(raw, HIGH_LEVEL_WEIGHTS)


@dataclass(frozen=True)
class LowLevelState:
    """Signals consumed by the locomotion reward table."""

    q: np.ndarray
    q_dot: np.ndarray
    q_ddot: np.ndarray
    q_star: np.ndarray
    tau: np.ndarray
    v_b: np.ndarray
    omega_b: np.ndarray
    v_x_star: float
    v_yaw_star: float
    n_collision: int
    f_foot: np.ndarray
    v_z_foot: np.ndarray
    t_air: np.ndarray
    h_b: float
    h_b_target: float
    q_default: np.ndarray
    contact_cmd: np.ndarray

    def __post_init__(self):
        for name, size in (("q", 12), ("q_dot", 12), ("q_ddot", 12), ("q_star", 12),
                           ("tau", 12), ("q_default", 12), ("v_b", 3), ("omega_b", 3),
                           ("f_foot", 4), ("v_z_foot", 4), ("t_air", 4),
                           ("contact_cmd", 4)):
            v = np.asarray(getattr(self, name), dtype=float)
            if v.shape != (size,):
                raise InvalidArgumentError(f"{name} must have shape ({size},)")
            object.__setattr__(self, name, v)
        if np.any(self.t_air < 0):
            raise InvalidArgumentError("t_air must be non-negative")


def tracking_kernel(x, sigma: float) -> float:
    """Gaussian tracking kernel exp(-|x|^2 / sigma)."""
    x = np.asarray(x, dtype=float)
    return float(np.exp(-np.dot(x.ravel(), x.ravel()) / sigma))


def low_level_reward(s: LowLevelState) -> RewardBreakdown:
    """All twelve locomotion reward rows with their listed weights and widths."""
    values = np.concatenate([s.q, s.q_dot, s.tau, s.v_b, s.omega_b,
                             [s.v_x_star, s.v_yaw_star, s.h_b, s.h_b_target]])
    if not np.all(np.isfinite(values)):
        raise InvalidArgumentError("low-level reward input contains non-finite values")

    v_cmd_xy = np.array([s.v_x_star, 0.0])
    swing = np.sum((1.0 - s.contact_cmd)
                   * (1.0 - np.exp(-np.abs(s.f_foot ** 2) / SIGMA_CF)))
    stance = np.sum(s.contact_cmd
                    * (1.0 - np.exp(-np.abs(s.v_z_foot ** 2) / SIGMA_CV)))
    raw = {
        "lin_vel_tracking": tracking_kernel(v_cmd_xy - s.v_b[:2], SIGMA_TRACK),
        "yaw_vel_tracking": tracking_kernel(s.v_yaw_star - s.omega_b[2], SIGMA_TRACK),
        "ang_vel_penalty": -float(np.sum(s.omega_b[:2] ** 2)),
        "joint_torques": -float(np.sum(s.tau ** 2)),
        "action_rate": -float(np.sum(s.q_star ** 2)),
        "collisions": -float(s.n_collision),
        "feet_air_time": float(np.sum(s.t_air - 0.5)),
        "default_joint_pos": float(np.exp(-0.05 * np.linalg.norm(s.q - s.q_default))),
        "lin_vel_z": float(s.v_b[2] ** 2),
        "base_height": float(abs(s.h_b - s.h_b_target)),
        "swing_phase_force": float(swing),
        "stance_phase_velocity": float(stance),
    }
    return _breakdown(raw, LOW_LEVEL_WEIGHTS)
