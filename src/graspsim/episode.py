"""Episode loop wiring all modules together.

``decisions`` steps an episode: teacher acts on privileged state -> gripper
close -> command integration -> ``advance``: five physics substeps of robot,
scene and status on Python floats, with the robot and scene states built once
at the end.  ``run_episode`` loops over it, adding the observation (optional:
the latency queue returns the state of four steps ago, rendered in one two-view
batch and normalized once when first fetched) -> the stack of the newest three
renders, and a logged step's task and locomotion reward totals, both over one
``gait_observables`` state.  Fully deterministic per seed.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import asdict, dataclass, replace

import numpy as np

from .camera import HISTORY_LEN, LatencyBuffer, frame_channels, render_views, stack_observation
from .config import SimConfig
from .distill import ACTION_DIM
from .errors import NotReadyError
from .gfm import alignment_gfm_weights, draw_bank
from .robot import (DEFAULT_JOINTS, NOMINAL_HEIGHT, _command_floats, _robot_floats,
                    _robot_state, _robot_substep, accumulate_command, ee_pose_in_base,
                    gait_observables, initial_robot)
from .rewards import HighLevelRewardInput, high_level_reward, low_level_reward
from .scene import (EpisodeConfig, EpisodeStatus, _platform_rng, _scene_floats,
                    _scene_state, _scene_substep, _status_after, apply_gripper_close,
                    check_status, derive_seed, load_catalog, make_trajectory,
                    reset_episode)
from .se3 import euler_to_matrix
from .teacher import teacher_step

CLOSE_COOLDOWN_STEPS = 5


def build_proprio(robot, terrain) -> np.ndarray:
    """24-number proprioception vector fed to the student network."""
    base = robot.base_pose
    h = base.position[2] - terrain.height_at(base.position[0], base.position[1])
    ee_local = ee_pose_in_base(robot)
    return np.concatenate([
        [h],
        base.orientation,
        robot.base_twist.linear,
        robot.base_twist.angular,
        robot.ee_target.position,
        robot.ee_target.orientation,
        ee_local.position,
        ee_local.orientation,
        [1.0 if robot.gripper == "closed" else 0.0],
        [base.orientation[2]],
    ]).astype(np.float32)


@dataclass
class EpisodeLog:
    """The one per-episode result: config echo, close events, outcome, and the
    per-step trace when ``run_episode`` was asked for it (else ``steps`` is None)."""

    level: int
    object_id: str
    category: str
    seed: int
    physics_dt: float
    decision_dt: float
    timeout_steps: int
    steps: list | None
    close_events: list
    outcome: str
    attempt_count: int
    success_step: int | None
    n_steps: int

    def to_json(self) -> str:
        """The log as one JSON line: every field but ``n_steps`` (``steps``
        holds one entry per decision step)."""
        if self.steps is None:
            raise NotReadyError(
                "episode was run without its per-step log; pass log_steps=True "
                "to run_episode (graspsim episode --dump-log does)")
        fields = asdict(self)
        del fields["n_steps"]
        return json.dumps(fields, sort_keys=True, separators=(",", ":"))

    @property
    def first_close_success(self) -> bool:
        return bool(self.close_events) and bool(self.close_events[0][1])


def episode_bank(spec, sim_cfg: SimConfig, seed: int):
    """The grasp memory bank of every episode of ``seed`` on object ``spec``."""
    return draw_bank(spec, sim_cfg.candidate_count, sim_cfg.bank_size,
                     derive_seed(seed, 23), aperture=sim_cfg.gripper_aperture)


def _high_level_input(scene, robot, status, action_vec, prev_action, low, q_dot_prev):
    """The task table's input; joint rates, command and base height come from ``low``."""
    base = robot.base_pose
    obj = scene.object_pose.position
    d_obj = obj - base.position
    n = np.linalg.norm(d_obj)
    d_obj = d_obj / n if n > 1e-9 else np.array([1.0, 0.0, 0.0])
    d_ee = euler_to_matrix(robot.ee_pose.orientation)[:, 0]
    yaw = base.orientation[2]
    d_base = np.array([np.cos(yaw), np.sin(yaw), 0.0])
    lift = max(0.0, scene.object_pose.position[2] - scene.platform_pose.position[2]) \
        if scene.object_attached_to == "gripper" else 0.0
    return HighLevelRewardInput(
        phase=status.phase,
        dist_ee_obj=float(np.linalg.norm(robot.ee_pose.position - obj)),
        lift_height=float(lift),
        completed=status.phase == "success",   # terminal: yielded at its success_step only
        q_dot_prev=q_dot_prev,
        q_dot=low.q_dot,
        a_prev=prev_action,
        a=action_vec,
        v_x_star=float(low.v_x_star),
        d_obj=d_obj,
        d_ee=d_ee / np.linalg.norm(d_ee),
        d_base=d_base,
        x_obj=float(np.linalg.norm(obj[:2] - base.position[:2])),
        x_base=0.0,
        h_current=float(low.h_b),
        h_target=NOMINAL_HEIGHT,
        psi_c=float(yaw),
        psi_0=0.0,
    )


def advance(robot, scene, status, u, traj, rng, config: EpisodeConfig, sim_cfg: SimConfig,
            step: int) -> tuple:
    """(robot, scene, status) after decision ``step``'s physics under ``u``:
    ``sim_cfg.substeps`` substeps, or up to the one where the status turns
    terminal, each the cores of ``execute_command``, ``step_scene`` and
    ``check_status`` on Python floats, drawing from the episode's platform
    generator ``rng`` (None for closed-form motion).  The states are read into
    floats and built, and the generator's state read, once each."""
    dt, terrain = sim_cfg.physics_dt, scene.terrain
    held = scene.object_attached_to == "gripper"
    rf, cmd, sf = _robot_floats(robot), _command_floats(u), _scene_floats(scene)
    for _ in range(sim_cfg.substeps):   # rf[3:5] is the ee pose, rf[1][2] the base yaw
        rf = _robot_substep(rf, cmd, terrain, dt)
        sf = _scene_substep(sf, scene, traj, rng, dt, rf[3:5] if held else None)
        status = _status_after(status, rf[1][2], sf, scene, config, step)
        if status.terminal:
            break
    return _robot_state(rf, u, robot.gripper), _scene_state(scene, sf, rng), status


def decisions(config: EpisodeConfig, sim_cfg: SimConfig, use_gfm: bool = True,
              catalog=None):
    """Step one seeded episode, yielding ``(step, seen, action, close, u,
    robot, scene, status)`` per decision step up to a terminal status or the
    timeout: ``seen`` is the (scene, robot) the decision saw, ``close`` None or
    whether a gripper close held, ``u`` the command, then the states after the
    physics.  ``use_gfm=False`` aims the teacher at the object centroid (the
    ablation); ``catalog`` defaults to the bundled set."""
    catalog = catalog if catalog is not None else load_catalog()
    traj = make_trajectory(config.level, derive_seed(config.seed, 11))
    scene = reset_episode(config, catalog, traj)
    rng = _platform_rng(scene, traj)
    robot = initial_robot(scene.terrain)
    bank = episode_bank(scene.object_spec, sim_cfg, config.seed)
    weights = alignment_gfm_weights()
    status = EpisodeStatus()
    last_close = -CLOSE_COOLDOWN_STEPS

    for step in range(config.timeout_steps):
        seen = scene, robot
        action = teacher_step(scene, robot, bank, weights, sim_cfg, use_gfm)
        close = None
        if (action.gripper_close and robot.gripper == "open"
                and step - last_close >= CLOSE_COOLDOWN_STEPS):
            scene, held = apply_gripper_close(scene, robot, bank, sim_cfg)
            close, last_close = bool(held), step
            if close:
                robot = replace(robot, gripper="closed")
        u = accumulate_command(robot, action)
        robot, scene, status = advance(robot, scene, status, u, traj, rng, config, sim_cfg,
                                       step)
        yield step, seen, action, close, u, robot, scene, status
        if status.terminal:
            return


def run_episode(config: EpisodeConfig, *, sim_cfg: SimConfig | None = None,
                use_gfm: bool = True, catalog=None,
                collect_observations: bool = False, log_steps: bool = False):
    """Run one seeded episode over ``decisions``; returns the log (plus
    observations if asked).  ``sim_cfg`` defaults to ``SimConfig()``, and
    ``config.timeout_steps`` is the timeout (the CLI fills it from
    ``SimConfig.timeout_steps``).

    ``log_steps`` records the per-step trace in ``log.steps`` (and so makes
    ``log.to_json()`` available), with the high-level and locomotion reward
    totals under their table weights and kernel widths.  Without it the
    episode computes only what decides its outcome; the control flow, close
    events, outcome and ``n_steps`` are the same.

    ``collect_observations`` switches the render/latency/stack pipeline on and
    returns (log, records), each record (stacked tensor, proprio, action
    vector, gripper bit, step index); it changes nothing about the control
    flow (the teacher is privileged), so sweeps leave it off for speed.
    """
    sim_cfg = sim_cfg if sim_cfg is not None else SimConfig()
    latency, shown = LatencyBuffer(), None
    history = deque(maxlen=HISTORY_LEN)         # one frame_channels block per render

    steps = [] if log_steps else None
    close_events, observations = [], []
    prev_action = np.zeros(ACTION_DIM)
    q_prev = DEFAULT_JOINTS   # the pose at rest; gait_joint_proxy(0.0) is 4e-17 off it
    q_dot_prev = np.zeros_like(DEFAULT_JOINTS)

    for step, seen, action, close, u, robot, scene, status in decisions(
            config, sim_cfg, use_gfm, catalog):
        if collect_observations or log_steps:
            action_vec = action.as_vector()
        if collect_observations:
            delayed = latency.push_and_fetch((*seen, step))
            if delayed is not shown:                # rendered once, when first fetched
                shown = delayed
                history.append(frame_channels(
                    render_views(*delayed[:2], sim_cfg, config.seed, delayed[2])))
            observations.append((stack_observation(history),
                                 build_proprio(seen[1], seen[0].terrain), action_vec,
                                 1 if action.gripper_close else 0, step))
        if close is not None:
            close_events.append([step, close])

        if log_steps:
            low = gait_observables(robot, q_prev, q_dot_prev, sim_cfg.decision_dt, u,
                                   scene.terrain)
            hl = high_level_reward(_high_level_input(scene, robot, status, action_vec,
                                                     prev_action, low, q_dot_prev))
            ll = low_level_reward(low)
            steps.append({
                "step": step,
                "phase": status.phase,
                "action": [float(x) for x in action_vec],
                "gripper_close": bool(action.gripper_close),
                "object_pos": [float(x) for x in scene.object_pose.position],
                "object_vel": [float(x) for x in scene.object_twist.linear],
                "base_pos": [float(x) for x in robot.base_pose.position],
                "base_yaw": float(robot.base_pose.orientation[2]),
                "ee_pos": [float(x) for x in robot.ee_pose.position],
                "reward_total": hl.total,
                "low_reward_total": ll.total,
            })
            prev_action, q_prev, q_dot_prev = action_vec, low.q, low.q_dot

    if not status.terminal:
        status = check_status(scene, robot, status, config, config.timeout_steps)

    log = EpisodeLog(
        level=config.level,
        object_id=config.object_id,
        category=scene.object_spec.category,
        seed=config.seed,
        physics_dt=sim_cfg.physics_dt,
        decision_dt=sim_cfg.decision_dt,
        timeout_steps=config.timeout_steps,
        steps=steps,
        close_events=close_events,
        outcome=status.phase,
        attempt_count=len(close_events),
        success_step=status.success_step,
        n_steps=step + 1,          # EpisodeConfig keeps timeout_steps >= 1
    )
    if collect_observations:
        return log, observations
    return log
