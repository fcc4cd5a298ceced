"""Idealized whole-body command executor.

The base is a unicycle whose height rides the terrain; the arm is a
first-order tracker that pulls the world end-effector pose toward the
integrated target.  Integrators use exact (exponential / closed-form circle)
discretization so that stepping at different rates stays consistent.  A
synthetic 12-joint gait signal stands in for leg state: ``gait_observables``
builds the locomotion reward table's input from it.  A substep and the
action checks run on Python floats (se3's float rule), a substep's pure-yaw
base rotation built once and reused by the next; ``np.exp`` and the norms
keep numpy's bits.  ``advance`` runs a decision step's substeps,
``execute_command`` one on a RobotState.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidArgumentError, SingularJacobianError
from .rewards import LowLevelState
from .se3 import (Pose6, Twist, _compose6, _relative6, _ro, _rot9, _trusted, _wrap1, compose,
                  relative_pose)
from .scene import GRAVITY, TerrainField

WORKSPACE_RADIUS = 0.8
WORKSPACE_CENTER = np.array([0.0, 0.0, 0.3])   # in the base frame
NOMINAL_HEIGHT = 0.55
BASE_Z_TAU = 0.2
EE_TAU = 0.15
EE_RATE_LIMIT = 1.0       # m/s cap on end-effector travel
MAX_DP = 0.05             # per-action position increment bound (norm)
MAX_DR = 0.2              # per-component orientation increment bound
MAX_V_LIN = 0.8
MAX_OMEGA = 1.0
GAIT_WAVELENGTH = 0.5     # meters of travel per gait cycle
GAIT_AMPLITUDE = 0.35
DEFAULT_JOINTS = np.tile(np.array([0.0, 0.8, -1.5]), 4)
_LEG_PHASES = np.repeat(np.array([0.0, np.pi, np.pi, 0.0]), 3)


def _direction_norm(v: np.ndarray) -> tuple[np.ndarray, float]:
    """``(v, |v|)``, v first divided by its largest absolute entry when finite
    entries square past the float range (an inf norm would scale v to zero)."""
    with np.errstate(over="ignore"):                 # a finite norm keeps its bits
        n = float(np.linalg.norm(v))
    if n == math.inf and np.isfinite(v).all():
        v = v / np.abs(v).max()
        n = float(np.linalg.norm(v))
    return v, n


@dataclass(frozen=True)
class HighLevelAction:
    """Policy output: ee increments plus base velocity commands (clamped)."""

    dp: np.ndarray
    dr: np.ndarray
    v_lin: float
    omega_yaw: float
    gripper_close: bool = False

    def __post_init__(self):
        dp = np.asarray(self.dp, dtype=float)
        dr = np.asarray(self.dr, dtype=float)
        if dp.shape != (3,) or dr.shape != (3,):
            raise InvalidArgumentError("dp and dr must be 3-vectors")
        dr = dr.tolist()
        if not all(map(math.isfinite, dp.tolist() + dr + [self.v_lin, self.omega_yaw])):
            raise InvalidArgumentError("HighLevelAction fields must be finite")
        dp, n = _direction_norm(dp)
        k = MAX_DP / n if n > MAX_DP else 1.0           # x * 1.0 is x, bit for bit
        object.__setattr__(self, "dp", _ro([x * k for x in dp.tolist()]))
        object.__setattr__(self, "dr", _ro([min(max(x, -MAX_DR), MAX_DR) for x in dr]))
        object.__setattr__(self, "v_lin", float(min(max(self.v_lin, -MAX_V_LIN), MAX_V_LIN)))
        object.__setattr__(self, "omega_yaw",
                           float(min(max(self.omega_yaw, -MAX_OMEGA), MAX_OMEGA)))

    @staticmethod
    def zero() -> "HighLevelAction":
        return HighLevelAction(np.zeros(3), np.zeros(3), 0.0, 0.0)

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.dp, self.dr, [self.v_lin, self.omega_yaw]])


@dataclass(frozen=True)
class CommandVector:
    """Low-level command: target ee pose (base frame) + base velocities (R^8).
    ``target`` is a Pose6, checked where it was built."""

    target: Pose6
    v_lin: float
    omega_yaw: float

    def __post_init__(self):
        if not isinstance(self.target, Pose6):
            raise InvalidArgumentError("CommandVector.target must be a Pose6")
        if not (math.isfinite(self.v_lin) and math.isfinite(self.omega_yaw)):
            raise InvalidArgumentError("CommandVector fields must be finite")


@dataclass(frozen=True)
class RobotState:
    """The gait's leg joints are not state: ``gait_joint_proxy(travel)``."""

    base_pose: Pose6
    base_twist: Twist
    ee_target: Pose6          # base frame
    ee_pose: Pose6            # world frame
    gripper: str = "open"     # open | closed
    travel: float = 0.0       # cumulative base path length, drives the gait


CARRY_EE_TARGET = Pose6(np.array([0.35, 0.0, 0.2]), np.zeros(3))


def initial_robot(terrain: TerrainField) -> RobotState:
    """Robot at the origin facing +x, standing at nominal height, arm tucked."""
    z = NOMINAL_HEIGHT + terrain.height_at(0.0, 0.0)
    base = Pose6(np.array([0.0, 0.0, z]), np.zeros(3))
    return RobotState(base_pose=base, base_twist=Twist.zero(), ee_target=CARRY_EE_TARGET,
                      ee_pose=compose(base, CARRY_EE_TARGET), gripper="open")


def clamp_to_workspace(p) -> np.ndarray:
    """Project a base-frame point into the reachable ball."""
    p = np.asarray(p, dtype=float)
    off, n = _direction_norm(p - WORKSPACE_CENTER)
    if n <= WORKSPACE_RADIUS:
        return p
    return WORKSPACE_CENTER + off * (WORKSPACE_RADIUS / n)


def accumulate_command(robot: RobotState, a: HighLevelAction) -> CommandVector:
    """Integrate action increments into an absolute command (target built unchecked)."""
    p_hat = clamp_to_workspace(robot.ee_target.position + a.dp)
    r_hat = [_wrap1(r + d) for r, d in zip(robot.ee_target.orientation.tolist(), a.dr.tolist())]
    return CommandVector(_trusted(Pose6, p_hat, np.array(r_hat)), a.v_lin, a.omega_yaw)


@lru_cache(maxsize=16)
def _decay(dt: float, tau: float) -> float:
    return float(np.exp(-dt / tau))   # np.exp: math.exp rounds differently


def _lag_angle(current, target, alpha: float) -> tuple:
    """Exponential pull of each angle toward the target along the short way."""
    return tuple([_wrap1(c + alpha * _wrap1(t - c)) for c, t in zip(current, target)])


def gait_joint_proxy(travel: float) -> np.ndarray:
    """Synthetic periodic leg-joint signal as a function of distance traveled."""
    phase = 2.0 * np.pi * travel / GAIT_WAVELENGTH
    return DEFAULT_JOINTS + GAIT_AMPLITUDE * np.sin(phase + _LEG_PHASES)


def _robot_floats(robot: RobotState) -> tuple:
    """The Python floats a substep advances: (base position, orientation and
    linear velocity, ee position and orientation, travel, base rotation)."""
    base, ee = robot.base_pose, robot.ee_pose
    orn = base.orientation.tolist()
    return (base.position.tolist(), orn, robot.base_twist.linear.tolist(),
            ee.position.tolist(), ee.orientation.tolist(), robot.travel, _rot9(orn))


def _command_floats(u: CommandVector) -> tuple:
    """(v_lin, omega_yaw, target position, target orientation)."""
    return u.v_lin, u.omega_yaw, u.target.position.tolist(), u.target.orientation.tolist()


def _robot_substep(rf: tuple, cmd: tuple, terrain: TerrainField, dt: float) -> tuple:
    """The floats ``rf`` one substep of dt on, under the command floats ``cmd``."""
    (x0, y0, z0), base_orn, _, ee_pos, ee_orn, travel, frame = rf
    v, omega, (px, py, pz), r_hat = cmd
    yaw0 = base_orn[2]
    yaw1 = yaw0 + omega * dt
    if abs(omega) < 1e-12:   # the closed-form unicycle advance: a line or an arc
        x1, y1 = x0 + v * math.cos(yaw0) * dt, y0 + v * math.sin(yaw0) * dt
    else:
        x1 = x0 + (v / omega) * (math.sin(yaw1) - math.sin(yaw0))
        y1 = y0 - (v / omega) * (math.cos(yaw1) - math.cos(yaw0))
    yaw1 = _wrap1(yaw1)
    z_target = NOMINAL_HEIGHT + terrain.height_at(x1, y1)
    z1 = z_target + (z0 - z_target) * _decay(dt, BASE_Z_TAU)

    # The arm rides the base, so the first-order tracking happens in base
    # coordinates: with constant commands the target is fixed there and the
    # exact exponential pull makes stepping rate-consistent.
    (rx, ry, rz), rel_orn = _relative6((x0, y0, z0), frame, ee_pos, ee_orn)
    pull = 1.0 - _decay(dt, EE_TAU)
    sx, sy, sz = (px - rx) * pull, (py - ry) * pull, (pz - rz) * pull
    step = np.array((sx, sy, sz))
    step_len = math.sqrt(step @ step)   # ddot, as np.linalg.norm; not a float sum
    max_step = EE_RATE_LIMIT * dt
    k = max_step / step_len if step_len > max_step else 1.0
    # the base frame is pure yaw: _rot9((0.0, 0.0, yaw1)), the next substep's frame
    c, s = math.cos(yaw1), math.sin(yaw1)
    frame = (c, -s + 0.0, 0.0, s + 0.0, c, 0.0, 0.0, 0.0, 1.0)
    ee_pos, ee_orn = _compose6((x1, y1, z1), frame, (rx + sx * k, ry + sy * k, rz + sz * k),
                               _lag_angle(rel_orn, r_hat, pull))
    return ((x1, y1, z1), (0.0, 0.0, yaw1), ((x1 - x0) / dt, (y1 - y0) / dt, (z1 - z0) / dt),
            ee_pos, ee_orn, travel + abs(v) * dt, frame)


def _robot_state(rf: tuple, u: CommandVector, gripper: str) -> RobotState:
    """The RobotState of floats stepped under ``u``; with the command and dt
    checked, every pose and twist is built with ``_trusted``."""
    base_pos, base_orn, base_lin, ee_pos, ee_orn, travel, _ = rf
    return RobotState(_trusted(Pose6, np.array(base_pos), np.array(base_orn)),
                      _trusted(Twist, np.array(base_lin), np.array([0.0, 0.0, u.omega_yaw])),
                      u.target, _trusted(Pose6, np.array(ee_pos), np.array(ee_orn)),
                      gripper, travel)


def execute_command(robot: RobotState, u: CommandVector, terrain: TerrainField,
                    dt: float) -> RobotState:
    """Advance the robot by dt under a constant command (checked when built)."""
    if not 0.0 < dt < math.inf:
        raise InvalidArgumentError(f"dt must be positive and finite, got {dt}")
    return _robot_state(_robot_substep(_robot_floats(robot), _command_floats(u), terrain, dt),
                        u, robot.gripper)


def ee_pose_in_base(robot: RobotState) -> Pose6:
    """Current world ee pose expressed in the base frame."""
    return relative_pose(robot.base_pose, robot.ee_pose)


def ik_pseudoinverse_step(jacobian, error) -> np.ndarray:
    """Minimum-norm joint step solving J dq = e via J^T (J J^T)^{-1} e."""
    j = np.asarray(jacobian, dtype=float)
    e = np.asarray(error, dtype=float)
    if j.ndim != 2 or e.shape != (j.shape[0],):
        raise InvalidArgumentError(
            f"need J (m,n) and e (m,), got {j.shape} and {e.shape}"
        )
    jjt = j @ j.T
    if np.linalg.cond(jjt) > 1e12:
        raise SingularJacobianError(
            f"J J^T condition number {np.linalg.cond(jjt):.3e} exceeds 1e12"
        )
    return j.T @ np.linalg.solve(jjt, e)


def gait_observables(robot: RobotState, q_prev: np.ndarray, q_dot_prev: np.ndarray,
                     dt: float, u: CommandVector, terrain) -> LowLevelState:
    """The locomotion reward table's input after a decision step of dt under ``u``:
    the gait joints ``q = gait_joint_proxy(robot.travel)`` (stored nowhere) and
    their rates against the ``q_prev`` and ``q_dot_prev`` of dt ago, the base
    twist, the base height over the terrain, and the command."""
    q = gait_joint_proxy(robot.travel)
    q_dot = (q - q_prev) / dt
    leg_phase = 2.0 * np.pi * robot.travel / GAIT_WAVELENGTH + _LEG_PHASES[::3]
    contact = 0.5 * (1.0 + np.cos(leg_phase))          # 1 = stance command
    weight = GRAVITY * 12.0
    base = robot.base_pose.position
    return LowLevelState(
        q=q, q_dot=q_dot, q_ddot=(q_dot - q_dot_prev) / dt,
        q_star=gait_joint_proxy(robot.travel + abs(u.v_lin) * dt), tau=0.5 * q_dot,
        v_b=robot.base_twist.linear, omega_b=robot.base_twist.angular,
        v_x_star=u.v_lin, v_yaw_star=u.omega_yaw, n_collision=0,
        f_foot=weight * contact / np.maximum(np.sum(contact), 1e-6),
        v_z_foot=-GAIT_AMPLITUDE * np.sin(leg_phase) * abs(u.v_lin),
        t_air=0.5 * (1.0 - contact), h_b=base[2] - terrain.height_at(base[0], base[1]),
        h_b_target=NOMINAL_HEIGHT, q_default=DEFAULT_JOINTS, contact_cmd=contact,
    )
