"""World model: terrain, object catalog, floating-platform motion, episode state.

The platform is kinematic: it follows a prescribed per-level trajectory with
bounded acceleration, and the target object rides on it rigidly until grasped.
Everything is a value; stepping is pure (state in, state out) and the RNG
state travels inside ``SceneState`` so episodes replay bit-for-bit.  A
substep (``_scene_substep``, ``_status_after``) runs on Python floats, but for
the random velocity's noise and norms: ``step_scene`` and ``check_status`` are
one substep on a SceneState, and ``advance`` a decision step's substeps on one
set of floats, drawing from the one generator its episode owns: threads share none.
"""

from __future__ import annotations

import importlib.resources
from array import array
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import CatalogError, InvalidArgumentError, NotFoundError, check_integer
from .gfm import _world_vec6
from .se3 import (TWO_PI, Pose6, Twist, _compose6, _rot9, _trusted, _wrap1, relative_pose,
                  rotation_angle_between)

TERRAIN_MAX_HEIGHT = 0.1
TERRAIN_EXTENT = 8.0            # meters, side of the square height lattice
TERRAIN_CELL = 0.1              # meters between lattice nodes
PLATFORM_THICKNESS = 0.04
PLATFORM_MARGIN = 0.02          # footprint = object footprint + this margin
PLATFORM_Z_RANGE = (0.2, 0.7)   # platform-top height band at reset (and L4 z band)
PLATFORM_AHEAD_RANGE = (1.5, 2.5)
PLATFORM_LATERAL_RANGE = (-0.3, 0.3)
PLATFORM_MAX_ACCEL = 0.5        # m/s^2, kinematic bound for random trajectories
LEVEL_SPEED_RANGES = {          # the benchmark levels and their speed bands
    1: (0.0, 0.15),
    2: (0.15, 0.30),
    3: (0.0, 0.30),
    4: (0.0, 0.30),
}
L4_MAX_VZ = 0.25
OU_THETA = 1.0                  # 1/s mean reversion
OU_SIGMA = 0.12                 # fluctuation around the seeded drift velocity
GRAVITY = 9.81

LIFT_SUCCESS_HEIGHT = 0.15      # meters above the platform top
LIFT_HOLD_STEPS = 10            # consecutive physics steps
TIMEOUT_STEPS = 300             # decision steps per episode
YAW_FAIL_LIMIT = np.deg2rad(70.0)
BUMP_REACH = 0.05               # ee this close to the surface disturbs the object
BUMP_DISTANCE = 0.03            # horizontal shove applied by a failed close

SHAPES = ("sphere", "box", "cylinder")
CATEGORIES = ("ball", "long_box", "square_box", "bottle", "cup", "elongated")
_DIM_COUNT = {"sphere": 1, "box": 3, "cylinder": 2}


# ---------------------------------------------------------------------------
# Terrain
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TerrainField:
    """Height grid on a regular XY lattice, queried with bilinear interpolation."""

    heights: np.ndarray
    cell_size: float
    origin: np.ndarray

    def __post_init__(self):
        h = np.array(self.heights, dtype=float)
        if h.ndim != 2 or h.shape[0] < 2 or h.shape[1] < 2:
            raise InvalidArgumentError("terrain grid must be at least 2x2")
        h.setflags(write=False)
        o = np.array(self.origin, dtype=float)
        if not (o.shape == (2,) and 0.0 <= h.min() <= h.max() <= TERRAIN_MAX_HEIGHT
                and np.isfinite(o).all() and 0.0 < self.cell_size < math.inf):
            raise InvalidArgumentError("terrain heights and (x, y) origin must be finite, "
                                       f"heights in the render band 0..{TERRAIN_MAX_HEIGHT} m, "
                                       f"cell size finite and > 0 (cell size {self.cell_size})")
        o.setflags(write=False)
        object.__setattr__(self, "heights", h)
        object.__setattr__(self, "origin", o)
        # the renderer's float32 terms of cell (i, j): h00, h10 - h00, h01, h11 - h01
        h32 = h.astype(np.float32)
        cells = np.zeros((4,) + h.shape, np.float32)
        cells[:, :-1, :-1] = (h32[:-1, :-1], h32[1:, :-1] - h32[:-1, :-1],
                              h32[:-1, 1:], h32[1:, 1:] - h32[:-1, 1:])
        cells.setflags(write=False)
        object.__setattr__(self, "cells32", cells.reshape(4, -1))
        # height_at reads Python floats (a numpy scalar read costs more than the
        # math) from array rows, a third of a list of floats' memory
        object.__setattr__(self, "_rows", [array("d", row.tobytes()) for row in h])
        object.__setattr__(self, "_origin", o.tolist())

    def height_at(self, x: float, y: float) -> float:
        """Bilinear height; coordinates outside the lattice clamp to the edge."""
        rows, (ox, oy) = self._rows, self._origin
        nx, ny = len(rows), len(rows[0])
        gx = min(max((x - ox) / self.cell_size, 0.0), nx - 1.0)
        gy = min(max((y - oy) / self.cell_size, 0.0), ny - 1.0)
        i, j = min(int(gx), nx - 2), min(int(gy), ny - 2)
        fx, fy = gx - i, gy - j
        r0, r1 = rows[i], rows[i + 1]
        top = r0[j] + fx * (r1[j] - r0[j])
        bot = r0[j + 1] + fx * (r1[j + 1] - r0[j + 1])
        return float(top + fy * (bot - top))


def sample_terrain(seed: int) -> TerrainField:
    """Seeded uneven ground: a TERRAIN_EXTENT-wide square lattice centered on
    the origin, iid uniform [0, 0.1] heights, one 3x3 box smooth."""
    rng = np.random.Generator(np.random.PCG64(seed))
    n = int(round(TERRAIN_EXTENT / TERRAIN_CELL)) + 1
    raw = rng.uniform(0.0, TERRAIN_MAX_HEIGHT, size=(n, n))
    padded = np.pad(raw, 1, mode="edge")
    smooth = np.zeros_like(raw)
    for di in range(3):
        for dj in range(3):
            smooth += padded[di:di + n, dj:dj + n]
    smooth /= 9.0
    return TerrainField(smooth, TERRAIN_CELL, np.full(2, -TERRAIN_EXTENT / 2.0))


# ---------------------------------------------------------------------------
# Object catalog
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ObjectSpec:
    """Primitive proxy for a graspable object."""

    id: str
    shape: str
    dims: tuple
    mass: float
    split: str
    category: str

    def __post_init__(self):
        if self.shape not in SHAPES:
            raise CatalogError(f"{self.id}: unknown shape {self.shape!r}")
        if self.category not in CATEGORIES:
            raise CatalogError(f"{self.id}: unknown category {self.category!r}")
        if self.split not in ("seen", "unseen"):
            raise CatalogError(f"{self.id}: split must be seen/unseen, got {self.split!r}")
        if len(self.dims) != _DIM_COUNT[self.shape]:
            raise CatalogError(
                f"{self.id}: {self.shape} needs {_DIM_COUNT[self.shape]} dims, "
                f"got {len(self.dims)}"
            )
        if not all(0.0 < v < math.inf for v in (*self.dims, self.mass)):
            raise CatalogError(f"{self.id}: dims and mass must be positive and finite")

    @property
    def half_height(self) -> float:
        if self.shape == "sphere":
            return self.dims[0]
        if self.shape == "box":
            return self.dims[2] / 2.0
        return self.dims[1] / 2.0

    @property
    def footprint_half(self) -> tuple:
        """Half extents of the upright object's XY bounding box."""
        if self.shape == "box":
            return (self.dims[0] / 2.0, self.dims[1] / 2.0)
        return (self.dims[0], self.dims[0])           # sphere or cylinder radius

    @property
    def bounding_radius(self) -> float:
        if self.shape == "sphere":
            return self.dims[0]
        if self.shape == "box":
            return float(np.linalg.norm(self.dims) / 2.0)
        r, h = self.dims
        return float(np.hypot(r, h / 2.0))


def parse_catalog(text: str) -> list[ObjectSpec]:
    """Parse catalog text: `id shape dim[,dim..] mass split category` per line."""
    specs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 6:
            raise CatalogError(f"line {lineno}: expected 6 fields, got {len(parts)}")
        oid, shape, dims_s, mass_s, split, category = parts
        try:
            dims = tuple(float(d) for d in dims_s.split(","))
            mass = float(mass_s)
        except ValueError as exc:
            raise CatalogError(f"line {lineno} ({oid}): bad number: {exc}") from exc
        specs.append(ObjectSpec(oid, shape, dims, mass, split, category))
    return specs


def validate_catalog(specs: list[ObjectSpec]) -> list[ObjectSpec]:
    if len(specs) != 43:
        raise CatalogError(f"catalog must hold exactly 43 objects, got {len(specs)}")
    seen = [s for s in specs if s.split == "seen"]
    unseen = [s for s in specs if s.split == "unseen"]
    if len(seen) != 30 or len(unseen) != 13:
        raise CatalogError(
            f"catalog split must be 30 seen / 13 unseen, got {len(seen)}/{len(unseen)}"
        )
    ids = [s.id for s in specs]
    if len(set(ids)) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise CatalogError(f"duplicate object ids: {dupes}")
    for group, name in ((seen, "seen"), (unseen, "unseen")):
        aspect = [s.half_height / max(s.footprint_half) for s in group]
        if not any(a > 1.25 for a in aspect) or not any(a <= 1.0 for a in aspect):
            raise CatalogError(f"{name} split needs both compact and tall/slender objects")
    return specs


def load_catalog(path=None) -> list[ObjectSpec]:
    """Load and validate an object catalog; default is the bundled 43-object set."""
    if path is None:
        bundled = importlib.resources.files("graspsim.data") / "objects.txt"
        return validate_catalog(parse_catalog(bundled.read_text(encoding="utf-8")))
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return validate_catalog(parse_catalog(data.decode("utf-8")))
    except UnicodeDecodeError as exc:
        raise CatalogError(f"{path}: not UTF-8 text: {exc}") from exc
    except CatalogError as exc:
        raise CatalogError(f"{path}: {exc}") from exc


def catalog_by_id(specs: list[ObjectSpec]) -> dict:
    return {s.id: s for s in specs}


# ---------------------------------------------------------------------------
# Platform trajectories
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlatformTrajectory:
    """Per-level motion law for the floating platform."""

    level: int
    mode: str                    # linear | arc | random
    speed_range: tuple
    z_policy: str                # fixed | free
    speed: float = 0.0           # constant speed for linear/arc
    heading: float = 0.0         # initial travel direction, radians
    turn_rate: float = 0.0       # rad/s, nonzero only for arcs
    drift: tuple = (0.0, 0.0)    # seeded OU mean velocity for random modes
    z_amp: float = 0.0           # seeded vertical-velocity oscillation (level 4)
    z_freq: float = 0.0
    z_phase: float = 0.0


def check_level(level: int) -> None:
    """Reject a level that LEVEL_SPEED_RANGES does not define."""
    if level not in LEVEL_SPEED_RANGES:
        raise InvalidArgumentError(
            f"level must be one of {', '.join(map(str, LEVEL_SPEED_RANGES))}, got {level}")


def derive_seed(*parts) -> int:
    """Stable sub-seed from integer parts (order matters), none negative:
    the mask would alias a negative part to another seed."""
    return int(np.random.SeedSequence([check_integer("seed", p, 0) & 0x7FFFFFFF for p in parts])
               .generate_state(1)[0])


def make_trajectory(level: int, seed: int) -> PlatformTrajectory:
    """Seeded trajectory for one of the four benchmark levels."""
    check_level(level)
    rng = np.random.Generator(np.random.PCG64(seed))
    lo, hi = LEVEL_SPEED_RANGES[level]
    if level in (1, 2):
        mode = "linear" if rng.random() < 0.5 else "arc"
        speed = float(rng.uniform(lo, hi))
        heading = float(rng.uniform(-np.pi, np.pi))
        turn_rate = 0.0
        if mode == "arc":
            radius = float(rng.uniform(1.0, 3.0))
            turn_rate = (speed / radius) * (1.0 if rng.random() < 0.5 else -1.0)
        return PlatformTrajectory(level, mode, (lo, hi), "fixed",
                                  speed=speed, heading=heading, turn_rate=turn_rate)
    drift_dir = rng.uniform(-np.pi, np.pi)
    drift_mag = rng.uniform(0.08, 0.25) if level == 3 else rng.uniform(0.18, hi)
    drift = (float(drift_mag * np.cos(drift_dir)), float(drift_mag * np.sin(drift_dir)))
    if level == 3:
        return PlatformTrajectory(level, "random", (lo, hi), "fixed", drift=drift)
    return PlatformTrajectory(
        level, "random", (lo, hi), "free", drift=drift,
        z_amp=float(rng.uniform(0.18, L4_MAX_VZ)),
        z_freq=float(rng.uniform(0.08, 0.25)),
        z_phase=float(rng.uniform(0.0, TWO_PI)),
    )


# ---------------------------------------------------------------------------
# Scene state and stepping
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EpisodeConfig:
    """What varies per episode; the shared tunables live in config.SimConfig."""

    level: int
    object_id: str
    seed: int
    timeout_steps: int = TIMEOUT_STEPS

    def __post_init__(self):
        for name in ("level", "seed", "timeout_steps"):    # kept as ints: logs are JSON
            object.__setattr__(self, name, check_integer(name, getattr(self, name)))
        check_level(self.level)
        check_integer("timeout_steps", self.timeout_steps, 1)
        check_integer("seed", self.seed, 0)


@dataclass(frozen=True)
class EpisodeStatus:
    phase: str = "approaching"   # approaching|grasped|lifted|success|failed_*
    success_step: int | None = None
    hold_steps: int = 0          # consecutive physics steps above lift height

    @property
    def terminal(self) -> bool:
        return self.phase.startswith("failed") or self.phase == "success"


@dataclass(frozen=True)
class SceneState:
    time: float
    platform_pose: Pose6
    platform_twist: Twist
    object_pose: Pose6
    object_twist: Twist
    object_attached_to: str      # platform | gripper | free
    terrain: TerrainField
    rng_state: dict
    object_spec: ObjectSpec
    mount_offset: Pose6          # object pose in the platform frame while riding
    platform_half: tuple         # XY half extents of the platform top
    grip_offset: Pose6 | None = None  # object pose in the ee frame while held


def _platform_rng(state: SceneState, traj: PlatformTrajectory):
    """None for a closed-form trajectory, which draws nothing; else a new
    generator continuing from ``state.rng_state`` (seeded 0, since a bare
    ``PCG64()`` would seed itself from OS entropy only to be overwritten)."""
    if traj.mode != "random":
        return None
    g = np.random.Generator(np.random.PCG64(0))
    g.bit_generator.state = state.rng_state
    return g


def trajectory_velocity(traj: PlatformTrajectory, t: float) -> tuple | None:
    """Closed-form platform velocity (three floats), None for random.  A linear
    path is an arc with turn_rate 0 (heading + 0.0 * t == heading)."""
    if traj.mode == "random":
        return None
    a = traj.heading + traj.turn_rate * t
    return traj.speed * math.cos(a), traj.speed * math.sin(a), 0.0


def _riding_pose(platform_pose: Pose6, mount: Pose6) -> Pose6:
    """Object pose while it rides the platform.  The platform never rotates
    (``reset_episode`` builds it unrotated, ``step_scene`` only translates it,
    ``render_frame`` draws it axis-aligned), so this is the mount translated
    by the platform position, with the mount's orientation."""
    return _trusted(Pose6, platform_pose.position + mount.position, mount.orientation)


def reset_episode(config: EpisodeConfig, catalog,
                  traj: PlatformTrajectory | None = None) -> SceneState:
    """Seeded initial scene: platform ahead of the robot spawn, object riding it.

    Passing the trajectory primes the initial platform twist so prescribed
    (linear/arc) motion starts at its constant speed rather than ramping.
    """
    lookup = catalog if isinstance(catalog, dict) else catalog_by_id(catalog)
    if config.object_id not in lookup:
        raise NotFoundError(f"object id {config.object_id!r} not in catalog")
    spec = lookup[config.object_id]
    rng = np.random.Generator(np.random.PCG64(config.seed))
    terrain = sample_terrain(int(rng.integers(2**63)))
    px = rng.uniform(*PLATFORM_AHEAD_RANGE)
    py = rng.uniform(*PLATFORM_LATERAL_RANGE)
    pz = rng.uniform(*PLATFORM_Z_RANGE)
    platform_pose = Pose6(np.array([px, py, pz]), np.zeros(3))
    mount = Pose6(np.array([0.0, 0.0, spec.half_height]), np.zeros(3))
    fx, fy = spec.footprint_half
    twist = Twist.zero()
    if traj is not None:
        v0 = trajectory_velocity(traj, 0.0)
        if v0 is not None:
            twist = Twist(v0, np.zeros(3))
    return SceneState(
        time=0.0,
        platform_pose=platform_pose,
        platform_twist=twist,
        object_pose=_riding_pose(platform_pose, mount),
        object_twist=twist,
        object_attached_to="platform",
        terrain=terrain,
        rng_state=rng.bit_generator.state,
        object_spec=spec,
        mount_offset=mount,
        platform_half=(fx + PLATFORM_MARGIN, fy + PLATFORM_MARGIN),
    )


def _platform_velocity(traj: PlatformTrajectory, t: float, v, rng, dt: float) -> tuple:
    """Velocity (three floats) at time t, the end of a step of dt from velocity
    v; a random trajectory draws its noise from ``rng``."""
    closed_form = trajectory_velocity(traj, t)
    if closed_form is not None:
        return closed_form

    # Mean-reverting random velocity, acceleration-bounded and speed-clipped;
    # floats but for the norms (ddot) and the generator's draw.
    (vx, vy), (nx, ny), (mx, my) = v[:2], rng.normal(size=2).tolist(), traj.drift
    kick = OU_SIGMA * math.sqrt(dt)
    dvx, dvy = OU_THETA * (mx - vx) * dt + kick * nx, OU_THETA * (my - vy) * dt + kick * ny
    dv_cap = PLATFORM_MAX_ACCEL * dt
    dv_norm = float(np.linalg.norm((dvx, dvy)))
    k = dv_cap / dv_norm if dv_norm > dv_cap else 1.0     # x * 1.0 is x, bit for bit
    vx, vy = vx + dvx * k, vy + dvy * k
    lo, hi = traj.speed_range
    speed = float(np.linalg.norm((vx, vy)))
    k = hi / speed if speed > hi else lo / speed if 0.0 < speed < lo else 1.0
    vx, vy = vx * k, vy * k
    vz = 0.0
    if traj.z_policy == "free":
        vz0 = v[2]
        vz_target = traj.z_amp * math.sin(TWO_PI * traj.z_freq * t + traj.z_phase)
        dvz = min(max(vz_target - vz0, -dv_cap), dv_cap)
        vz = min(max(vz0 + dvz, -L4_MAX_VZ), L4_MAX_VZ)
    return vx, vy, vz


def _scene_floats(state: SceneState) -> tuple:
    """The Python floats a substep advances: (time, platform position and
    velocity, object, grip).  The object's (position, orientation, linear,
    angular) is None while it rides the platform; grip, the grip offset's
    (position, orientation), is None unless the gripper holds it."""
    obj = grip = None
    if state.object_attached_to != "platform":
        pose, twist = state.object_pose, state.object_twist
        obj = (pose.position.tolist(), pose.orientation.tolist(),
               twist.linear.tolist(), twist.angular.tolist())
    if state.object_attached_to == "gripper":
        grip = state.grip_offset.position.tolist(), state.grip_offset.orientation.tolist()
    return (state.time, state.platform_pose.position.tolist(),
            state.platform_twist.linear.tolist(), obj, grip)


def _scene_substep(sf: tuple, state: SceneState, traj: PlatformTrajectory, rng,
                   dt: float, ee) -> tuple:
    """The floats ``sf`` of ``state`` one substep on; ``ee`` is the stepped
    end-effector's (position, orientation) while the object is held.  The
    displacement uses the pre-step velocity, so a finite difference of
    positions across the step reproduces it exactly."""
    t, (px, py, pz), (vx, vy, vz), obj, grip = sf
    px, py, pz = px + vx * dt, py + vy * dt, pz + vz * dt
    t = t + dt
    vel = vx, vy, vz = _platform_velocity(traj, t, sf[2], rng, dt)
    if traj.z_policy == "free":
        lo, hi = PLATFORM_Z_RANGE
        if pz <= lo:
            pz, vel = lo, (vx, vy, max(vz, 0.0))
        elif pz >= hi:
            pz, vel = hi, (vx, vy, min(vz, 0.0))

    if grip is not None:
        pos, orn = _compose6(ee[0], _rot9(ee[1]), grip[0], grip[1])
        obj = (pos, orn, tuple((a - b) / dt for a, b in zip(pos, obj[0])),
               tuple(_wrap1(a - b) / dt for a, b in zip(orn, obj[1])))
    elif obj is not None:  # free: ballistic drop until resting on the terrain
        (x, y, z), orn, (lx, ly, lz), ang = obj
        x, y, z = x + lx * dt, y + ly * dt, z + lz * dt
        floor = state.terrain.height_at(x, y) + state.object_spec.half_height
        if z <= floor:
            obj = (x, y, floor), orn, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)
        else:
            obj = (x, y, z), orn, (lx, ly, lz - GRAVITY * dt), ang
    return t, (px, py, pz), vel, obj, grip


def _scene_state(state: SceneState, sf: tuple, rng) -> SceneState:
    """``state`` advanced to the floats ``sf`` and the generator ``rng``; with
    dt checked, every pose and twist is finite and built with ``_trusted``."""
    t, pos, vel, obj, _ = sf
    platform_pose = _trusted(Pose6, np.array(pos), state.platform_pose.orientation)
    platform_twist = _trusted(Twist, np.array(vel), np.zeros(3))
    if obj is None:
        obj_pose, obj_twist = _riding_pose(platform_pose, state.mount_offset), platform_twist
    else:
        obj_pose = _trusted(Pose6, np.array(obj[0]), np.array(obj[1]))
        obj_twist = _trusted(Twist, np.array(obj[2]), np.array(obj[3]))
    return SceneState(t, platform_pose, platform_twist, obj_pose, obj_twist,
                      state.object_attached_to, state.terrain,
                      state.rng_state if rng is None else rng.bit_generator.state,
                      state.object_spec, state.mount_offset, state.platform_half,
                      state.grip_offset)


def step_scene(state: SceneState, traj: PlatformTrajectory, dt: float,
               ee_pose: Pose6 | None = None) -> SceneState:
    """Advance the platform by dt, drawing from a generator built for this call;
    the object follows its carrier rigidly.  When the object rides the gripper,
    ``ee_pose`` must be the end-effector pose after the robot has stepped."""
    if not 0.0 < dt < math.inf:
        raise InvalidArgumentError(f"dt must be positive and finite, got {dt}")
    ee = None
    if state.object_attached_to == "gripper":
        if ee_pose is None:
            raise InvalidArgumentError("step_scene needs ee_pose while object is held")
        ee = ee_pose.position.tolist(), ee_pose.orientation.tolist()
    rng = _platform_rng(state, traj)
    sf = _scene_substep(_scene_floats(state), state, traj, rng, dt, ee)
    return _scene_state(state, sf, rng)


# ---------------------------------------------------------------------------
# Grasp attempts and episode status
# ---------------------------------------------------------------------------

def relative_close_speed(state: SceneState, robot) -> float:
    """Object speed relative to the robot base (the arm is settled at close)."""
    return float(np.linalg.norm(state.object_twist.linear - robot.base_twist.linear))


def find_aligned_candidate(bank, state: SceneState, ee_pose: Pose6, cfg):
    """Index of a stored grasp within cfg's align tolerances of the ee, or None."""
    best = None
    best_d = np.inf
    for i, world in enumerate(_world_vec6(bank, state.object_pose)):
        d = float(np.linalg.norm(world[:3] - ee_pose.position))
        if d > cfg.teacher_align_pos_tol:
            continue
        if (rotation_angle_between(world[3:], ee_pose.orientation)
                > cfg.teacher_align_ori_tol):
            continue
        if d < best_d:
            best, best_d = i, d
    return best


def apply_gripper_close(state: SceneState, robot, bank, cfg) -> tuple[SceneState, bool]:
    """Resolve a gripper-close event under ``cfg``'s (a SimConfig) tolerances.

    An aligned, slow-enough close captures the object onto the gripper.  A
    miss close enough to touch shoves the object across the platform; the
    footprint is barely larger than the object, so a shove usually drops it.
    """
    if state.object_attached_to != "platform":
        return state, False
    ee = robot.ee_pose
    aligned = find_aligned_candidate(bank, state, ee, cfg)
    if (aligned is not None
            and relative_close_speed(state, robot) <= cfg.teacher_max_rel_speed):
        grip = relative_pose(ee, state.object_pose)
        return replace(state, object_attached_to="gripper", grip_offset=grip), True

    gap = float(np.linalg.norm(ee.position - state.object_pose.position))
    if gap <= state.object_spec.bounding_radius + BUMP_REACH:
        away = state.object_pose.position[:2] - ee.position[:2]
        n = float(np.linalg.norm(away))
        away = away / n if n > 1e-9 else np.array([1.0, 0.0])
        rel = state.mount_offset.position[:2] + BUMP_DISTANCE * away
        fx, fy = state.platform_half
        if abs(rel[0]) > fx or abs(rel[1]) > fy:
            # Shoved off the platform: it falls and the episode is lost.
            pos = state.object_pose.position + np.array([away[0], away[1], 0.0]) * BUMP_DISTANCE
            return replace(
                state,
                object_attached_to="free",
                object_pose=_trusted(Pose6, pos, state.object_pose.orientation),
                object_twist=Twist.zero(),
            ), False
        mount = _trusted(Pose6, np.array([rel[0], rel[1], state.mount_offset.position[2]]),
                         state.mount_offset.orientation)
        return replace(
            state,
            mount_offset=mount,
            object_pose=_riding_pose(state.platform_pose, mount),
        ), False
    return state, False


def _status_after(status: EpisodeStatus, yaw: float, sf: tuple, state: SceneState,
                  config: EpisodeConfig, decision_step: int) -> EpisodeStatus:
    """check_status on the base yaw and the floats ``sf`` of ``state``."""
    if status.terminal:
        return status
    # Drift from yaw 0: a pose's yaw is wrapped, so abs() alone measures it.
    if abs(yaw) > YAW_FAIL_LIMIT:
        return EpisodeStatus("failed_yaw")
    if decision_step >= config.timeout_steps:
        return EpisodeStatus("failed_timeout")

    if state.object_attached_to == "gripper":
        lift = sf[3][0][2] - sf[1][2]
        if lift >= LIFT_SUCCESS_HEIGHT:
            hold = status.hold_steps + 1
            if hold >= LIFT_HOLD_STEPS:
                return EpisodeStatus("success", decision_step, hold)
            return EpisodeStatus("lifted", hold_steps=hold)
        return EpisodeStatus("grasped")

    # only apply_gripper_close moves the mount, and it frees what it shoves off
    if state.object_attached_to == "free":
        return EpisodeStatus("failed_dropped")
    return EpisodeStatus("approaching")


def check_status(state: SceneState, robot, status: EpisodeStatus,
                 config: EpisodeConfig, decision_step: int) -> EpisodeStatus:
    """Advance the episode state machine by one physics step."""
    return _status_after(status, robot.base_pose.orientation.item(2), _scene_floats(state),
                         state, config, decision_step)
