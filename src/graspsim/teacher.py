"""Scripted privileged controller.

Stands in for a trained high-level policy behind the same information
contract: object pose and velocity, object geometry feature, grasp memory,
and robot proprioception in; an 8-number action plus a gripper bit out (a
learned policy can replace ``teacher_step``).  Vector arithmetic runs on
Python floats (se3's float rule); norms, dots and ``np.arctan2`` stay numpy.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .config import SimConfig
from .gfm import GfmWeights, GraspMemoryBank, gfm_forward, object_feature
from .robot import (
    CARRY_EE_TARGET,
    EE_TAU,
    MAX_V_LIN,
    RobotState,
    HighLevelAction,
    WORKSPACE_CENTER,
    WORKSPACE_RADIUS,
)
from .scene import SceneState, close_target
from .se3 import Pose6, _relative6, _rot9, _wrap1, vec6_encode, wrap_angle

YAW_CAP = np.deg2rad(65.0)     # stay clear of the 70-degree termination
K_YAW = 3.0
K_V = 1.5
REACH_MARGIN = 0.05
FAR_DISTANCE_MARGIN = 0.5      # beyond standoff+this the arm stays tucked
LIFT_TARGET = Pose6(np.array([0.35, 0.0, 0.55]), np.zeros(3))


@lru_cache(maxsize=None)
def cached_object_feature(spec):
    feat = object_feature(spec)
    feat.setflags(write=False)
    return feat


def _steer(dp_world_xy, yaw):
    """Heading command toward a world-frame planar offset, the bearing capped
    to YAW_CAP of yaw 0 (the wrap turns an ``arctan2`` of -pi into +pi)."""
    bearing = float(np.arctan2(dp_world_xy[1], dp_world_xy[0]))
    capped = float(min(max(wrap_angle(bearing), -YAW_CAP), YAW_CAP))
    return wrap_angle(capped - yaw)


def _reach_limited_standoff(standoff: float, grasp_z: float, base_z: float) -> float:
    """Shrink the standoff when the grasp sits too low/high for the arm ball."""
    dz = grasp_z - (base_z + WORKSPACE_CENTER[2])
    reach_sq = (WORKSPACE_RADIUS - REACH_MARGIN) ** 2 - dz * dz
    if reach_sq <= 0.25**2:
        return 0.25
    return min(standoff, math.sqrt(reach_sq))


def teacher_step(scene: SceneState, robot: RobotState, bank: GraspMemoryBank,
                 gfm_weights: GfmWeights, cfg: SimConfig,
                 use_gfm: bool = True) -> HighLevelAction:
    """One privileged control decision.

    Predicts a short intercept of the object's motion, steers the base to a
    standoff point, pulls the end-effector toward the fused grasp (with a
    velocity lead that cancels the arm's first-order tracking lag), and closes
    the gripper when ``scene.close_target`` allows it on the target.
    ``use_gfm=False`` aims at the object centroid, not the fused grasp (the ablation).
    """
    if robot.gripper == "closed":
        dp = LIFT_TARGET.position - robot.ee_target.position
        return HighLevelAction(dp, np.zeros(3), 0.0, 0.0, gripper_close=False)

    ox, oy, _ = scene.object_pose.position.tolist()
    vx, vy, vz = scene.object_twist.linear.tolist()
    bx, by, bz = robot.base_pose.position.tolist()
    yaw = robot.base_pose.orientation.item(2)

    if use_gfm:
        feat = cached_object_feature(scene.object_spec)
        grasp_world, _ = gfm_forward(feat, scene.object_pose, bank, gfm_weights)
    else:
        grasp_world = Pose6(scene.object_pose.position, np.zeros(3))

    dist = float(np.linalg.norm((ox - bx, oy - by)))
    lead_t = min(cfg.teacher_intercept_horizon, dist / MAX_V_LIN)
    to_icpt = ox + vx * lead_t - bx, oy + vy * lead_t - by   # the intercept, base-relative
    standoff = _reach_limited_standoff(cfg.teacher_standoff, grasp_world.position[2], bz)
    icpt_dist = float(np.linalg.norm(to_icpt))
    yaw_err = _steer(to_icpt, yaw)
    v_feedforward = float(np.array((vx, vy)) @ np.array((math.cos(yaw), math.sin(yaw))))
    gate = max(0.0, math.cos(yaw_err))
    v_lin = K_V * (icpt_dist - standoff) * gate + v_feedforward

    if dist > cfg.teacher_standoff + FAR_DISTANCE_MARGIN:
        goal = CARRY_EE_TARGET.position.tolist(), CARRY_EE_TARGET.orientation.tolist()
        close = False
    else:   # the base-frame pose of the grasp led by the object's velocity
        gx, gy, gz = grasp_world.position.tolist()
        goal = _relative6(
            (bx, by, bz), _rot9(robot.base_pose.orientation.tolist()),
            (gx + vx * EE_TAU, gy + vy * EE_TAU, gz + vz * EE_TAU),
            grasp_world.orientation.tolist())
        close = close_target(scene, robot, vec6_encode(grasp_world)[None], cfg) is not None

    target = robot.ee_target
    dp = [g - t for g, t in zip(goal[0], target.position.tolist())]
    dr = [_wrap1(g - t) for g, t in zip(goal[1], target.orientation.tolist())]
    return HighLevelAction(dp, dr, v_lin, K_YAW * yaw_err, gripper_close=close)
