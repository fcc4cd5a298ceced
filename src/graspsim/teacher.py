"""Scripted privileged controller.

Stands in for a trained high-level policy behind the same information
contract: object pose and velocity, object geometry feature, grasp memory,
and robot proprioception in; an 8-number action plus a gripper bit out.
A learned policy can replace ``teacher_step`` without touching the runner.
"""

from __future__ import annotations

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
from .scene import SceneState, relative_close_speed
from .se3 import Pose6, _trusted, relative_pose, rotation_angle_between, wrap_angle

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
    return float(min(standoff, np.sqrt(reach_sq)))


def teacher_step(scene: SceneState, robot: RobotState, bank: GraspMemoryBank,
                 gfm_weights: GfmWeights, cfg: SimConfig,
                 use_gfm: bool = True) -> HighLevelAction:
    """One privileged control decision.

    Predicts a short intercept of the object's motion, steers the base to a
    standoff point, pulls the end-effector toward the fused grasp (with a
    velocity lead that cancels the arm's first-order tracking lag), and
    closes the gripper once the end-effector sits on the target within the
    alignment tolerances at a safe relative speed.  ``use_gfm=False`` aims
    at the object centroid instead of the fused grasp (the ablation).
    """
    obj_p = scene.object_pose.position
    obj_v = scene.object_twist.linear
    base = robot.base_pose
    yaw = base.orientation[2]
    holding = robot.gripper == "closed"

    if holding:
        dp = LIFT_TARGET.position - robot.ee_target.position
        return HighLevelAction(dp, np.zeros(3), 0.0, 0.0, gripper_close=False)

    if use_gfm:
        feat = cached_object_feature(scene.object_spec)
        grasp_world, _ = gfm_forward(feat, scene.object_pose, bank, gfm_weights)
    else:
        grasp_world = Pose6(obj_p, np.zeros(3))

    rel_xy = obj_p[:2] - base.position[:2]
    dist = float(np.linalg.norm(rel_xy))
    lead_t = min(cfg.teacher_intercept_horizon, dist / MAX_V_LIN)
    intercept_xy = obj_p[:2] + obj_v[:2] * lead_t

    standoff = _reach_limited_standoff(cfg.teacher_standoff, grasp_world.position[2],
                                       base.position[2])
    to_icpt = intercept_xy - base.position[:2]
    icpt_dist = float(np.linalg.norm(to_icpt))
    yaw_err = _steer(to_icpt, yaw)
    omega = float(min(max(K_YAW * yaw_err, -1.0), 1.0))
    heading = np.array([np.cos(yaw), np.sin(yaw)])
    v_feedforward = float(obj_v[:2] @ heading)
    gate = max(0.0, np.cos(yaw_err))
    v_lin = float(min(max(K_V * (icpt_dist - standoff) * gate + v_feedforward,
                          -MAX_V_LIN), MAX_V_LIN))

    if dist > cfg.teacher_standoff + FAR_DISTANCE_MARGIN:
        ee_goal_base = CARRY_EE_TARGET
        close = False
    else:
        lead = _trusted(Pose6, grasp_world.position + obj_v * EE_TAU, grasp_world.orientation)
        ee_goal_base = relative_pose(base, lead)
        pos_err = float(np.linalg.norm(robot.ee_pose.position - grasp_world.position))
        ori_err = rotation_angle_between(robot.ee_pose.orientation,
                                         grasp_world.orientation)
        close = (pos_err <= cfg.teacher_align_pos_tol
                 and ori_err <= cfg.teacher_align_ori_tol
                 and relative_close_speed(scene, robot) <= cfg.teacher_max_rel_speed)

    dp = ee_goal_base.position - robot.ee_target.position
    dr = wrap_angle(ee_goal_base.orientation - robot.ee_target.orientation)
    return HighLevelAction(dp, dr, v_lin, omega, gripper_close=close)
