"""The physics substep: pinned episode bytes, the rule that the robot and
scene integrators build no checked value once the command and dt are in, the
episode's float ``advance`` against one-substep calls of the public API, the
gait joints computed only for a logged episode, and the decision step's
checked poses (the command and the policy output only)."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from graspsim import episode, robot as robot_module
from graspsim.config import SimConfig
from graspsim.episode import run_episode
from graspsim.nn import FRAME_SHAPE, STACK_LAYOUT
from graspsim.robot import (
    HighLevelAction,
    accumulate_command,
    execute_command,
    initial_robot,
)
from graspsim.scene import (
    PLATFORM_Z_RANGE,
    check_status,
    derive_seed,
    make_trajectory,
    reset_episode,
    step_scene,
)
from graspsim.se3 import Pose6, Twist, compose, inverse

from conftest import assert_valid_pose, make_config

DT = SimConfig().physics_dt

# sha256 of EpisodeLog.to_json() per (level, object, seed, timeout_steps).
# Like perfbench/reference.json, the digests hold for the numpy of the host
# that recorded them (numpy 2.4.6, x86-64); another numpy or libm may round
# a transcendental differently and change the bytes without a code change.
# Together the episodes run every step_scene branch: riding (all), held
# (the successes) and free (the drops, after an on-platform shove), on the
# arc, linear and random trajectories of levels 1-4.
EPISODE_DIGESTS = {
    (1, "water_bottle", 1, 40):
        "6145e9b6b22a7db7a7b547e4281059026e123b7e26c81103ff75a4df7f62d3c8",
    (1, "sugar_box", 0, 40):
        "50689a5a8214401f9f496507ef863b45a9dc4ac29a058050e889efc62dac9484",
    (2, "tennis_ball", 0, 12):
        "38c7152c892d79fde328c9d3380788ff4195d1f0020518942c7aa5558795c261",
    (2, "lemon", 2, 12):
        "bd6a6b46f7bb2b6490922806a78cc6cb3965a8bfd2f0cac11790e65d7755daeb",
    (3, "marker_large", 0, 40):
        "5626e8271da1824f1cd034f569c996a149bc99c571ae097e71fd6a7e6ac3078c",
    (3, "sugar_box", 0, 40):
        "b63507acdac473158fd82c67f63acd37e6854a4a08fb0b2c1775de0237d8ddb7",
    (4, "lemon", 0, 40):
        "da4813f55f6cf17c21fa9cc25411a38e57f68a8015f38edb16fab7c682137ae6",
    (4, "sugar_box", 0, 40):
        "1d1a11cc47dc7ec948fef106812a5a7e2411893df98d9839629ee097e477e17d",
}
EPISODE_OUTCOMES = {
    "water_bottle": "success", "marker_large": "success", "lemon": "success",
    "sugar_box": "failed_dropped", "tennis_ball": "failed_timeout",
}
# sha256 over the (stack, proprio, action, gripper, step) records of a
# 4-step level-1 tennis_ball episode with collect_observations=True, each
# stack hashed in its channels' (view, mask or depth, time) order.
OBSERVATION_DIGEST = "31824ea0fce9e599b5dd91467c08183456671697a61aed1b8c12323bd0d7780d"
# The same over the 37 records of the 40-step level-1 cracker_box episode in
# conftest's box_records: a box target, so its mask comes from the slab test.
BOX_OBSERVATION_DIGEST = "54a5a951c5e706f8d93a3456625e650bf7e945a8d9b4286af9374720c190a02a"
# The same over the 31 records of the 40-step level-4 mustard_bottle episode
# (a success, so its last frames show the held object): a cylinder target,
# whose mask comes from the exact cylinder test.
CYLINDER_OBSERVATION_DIGEST = (
    "b46f5c6e2364b316f20986d0ee50188da5e0a621abad636527d3fdf5187b3ac3")


@pytest.mark.parametrize("key", sorted(EPISODE_DIGESTS))
def test_episode_log_bytes_pinned(key, catalog):
    level, object_id, seed, timeout = key
    log = run_episode(make_config(level=level, object_id=object_id, seed=seed,
                                  timeout_steps=timeout), catalog=catalog, log_steps=True)
    expected = "failed_timeout" if level == 2 else EPISODE_OUTCOMES[object_id]
    assert log.outcome == expected
    assert log.attempt_count == len(log.close_events)
    assert hashlib.sha256(log.to_json().encode()).hexdigest() == EPISODE_DIGESTS[key]


def test_gait_joints_computed_only_for_the_log(catalog, monkeypatch):
    # The synthetic leg joints feed only the per-step log's rewards, so an
    # episode that nobody logs computes none; a logged one keeps its bytes.
    real, travels = robot_module.gait_joint_proxy, []

    def counted(travel):
        travels.append(travel)
        return real(travel)

    monkeypatch.setattr(robot_module, "gait_joint_proxy", counted)
    key = (1, "water_bottle", 1, 40)
    level, object_id, seed, timeout = key
    config = make_config(level=level, object_id=object_id, seed=seed,
                         timeout_steps=timeout)
    run_episode(config, catalog=catalog)
    assert travels == []
    log = run_episode(config, catalog=catalog, log_steps=True)
    assert len(travels) == 2 * log.n_steps    # q and q_star per logged step
    assert hashlib.sha256(log.to_json().encode()).hexdigest() == EPISODE_DIGESTS[key]


def test_observation_bytes_pinned(catalog):
    _, records = run_episode(make_config(object_id="tennis_ball", seed=0, timeout_steps=4),
                             catalog=catalog, collect_observations=True)
    assert len(records) == 4
    assert _records_digest(records) == OBSERVATION_DIGEST


def test_box_observation_bytes_pinned(box_records):
    assert len(box_records) == 37
    assert _records_digest(box_records) == BOX_OBSERVATION_DIGEST


def test_cylinder_observation_bytes_pinned(catalog):
    log, records = run_episode(make_config(level=4, object_id="mustard_bottle", seed=0,
                                           timeout_steps=40),
                               catalog=catalog, collect_observations=True)
    assert log.outcome == "success" and len(records) == 31
    assert _records_digest(records) == CYLINDER_OBSERVATION_DIGEST


def _records_digest(records) -> str:
    # each stack is hashed in (view, mask or depth, time) channel order,
    # whatever order STACK_LAYOUT keeps in memory
    digest = hashlib.sha256()
    for stacked, proprio, action, gripper, step in records:
        by_view = stacked.reshape(STACK_LAYOUT + FRAME_SHAPE).transpose(1, 2, 0, 3, 4)
        for arr in (by_view, proprio, action):
            digest.update(np.ascontiguousarray(arr).tobytes())
        digest.update(bytes([gripper, step]))
    return digest.hexdigest()


def _count_checked(monkeypatch):
    """Count Pose6 and Twist constructions that run their checks."""
    counts = {"Pose6": 0, "Twist": 0}
    for cls in (Pose6, Twist):
        hook = cls.__dict__["__post_init__"]

        def counted(self, _hook=hook, _name=cls.__name__):
            counts[_name] += 1
            _hook(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    return counts


def _scene(catalog_map, carrier, level):
    cfg = make_config(level=level, object_id="sugar_box", seed=5)
    traj = make_trajectory(level, derive_seed(cfg.seed, 11))
    scene = reset_episode(cfg, catalog_map, traj)
    robot = initial_robot(scene.terrain)
    if carrier == "clamp":
        # riding a platform that starts just above the floor of its z band,
        # sinking, so the free-z clamp holds it there
        pos = scene.platform_pose.position.copy()
        pos[2] = PLATFORM_Z_RANGE[0] + 0.004
        scene = replace(scene, platform_pose=Pose6(pos, np.zeros(3)),
                        platform_twist=Twist(np.array([0.05, 0.1, -0.2]), np.zeros(3)))
    elif carrier == "gripper":
        grip = compose(inverse(robot.ee_pose), scene.object_pose)
        scene = replace(scene, object_attached_to="gripper", grip_offset=grip)
    elif carrier == "free":
        scene = replace(scene, object_attached_to="free",
                        object_twist=Twist(np.array([0.1, -0.05, 0.4]),
                                           np.array([0.0, 0.0, 0.3])))
    return traj, scene, robot


def _substeps(catalog_map, carrier, level, n=40):
    """Yield (robot, scene, command) after each of n substeps on one scene."""
    traj, scene, robot = _scene(catalog_map, carrier, level)
    action = HighLevelAction(np.array([0.03, -0.02, 0.04]), np.array([0.1, -0.2, 0.15]),
                             0.4, 0.6)
    u = accumulate_command(robot, action)   # the checked boundary
    for _ in range(n):
        robot = execute_command(robot, u, scene.terrain, DT)
        held = robot.ee_pose if carrier == "gripper" else None
        scene = step_scene(scene, traj, DT, ee_pose=held)
        yield robot, scene, u


CARRIERS = [("platform", 1), ("platform", 4), ("gripper", 3), ("free", 4)]

# sha256 over every pose and twist that 100 substeps yield, per carrier, in
# the order of _substep_digest.  The episode digests log one row per decision
# step and rarely reach these branches: level 1 draws an arc (the closed-form
# velocity), level 4 the free-z OU walk, "free" falls and comes to rest,
# "gripper" carries the held pose, and "clamp" holds the platform at the
# floor of its z band.  Like EPISODE_DIGESTS they hold per numpy, libm and
# BLAS kernel; recorded from the numpy-array substep, before it moved to
# Python floats.
SUBSTEP_DIGESTS = {
    ("platform", 1):
        "64003ae1b207355d406235b48c76511ed340f6b59e6914920317fbe152e8e0a2",
    ("platform", 4):
        "fd5d11294812a633a52683dec254cd480f6fa860192b66b63c40abf93bb6f16f",
    ("gripper", 3):
        "1a0cdf7f2e24b66ff465228990c5536d36c31e38868687cd3fa9d31a979dc5f2",
    ("free", 4):
        "9b4b90af690a5f45ad75a73947501d500ef0ae2547638bf37654286aa8344e08",
    ("clamp", 4):
        "8b7352649c0c9a445a2151d33248669adaeb0e0e8488432525f17d5dfe0bd928",
}


def _substep_digest(catalog_map, carrier, level) -> str:
    digest = hashlib.sha256()
    for robot, scene, _ in _substeps(catalog_map, carrier, level, n=100):
        for value in (robot.base_pose, robot.base_twist, robot.ee_pose,
                      scene.platform_pose, scene.platform_twist,
                      scene.object_pose, scene.object_twist):
            for name in value.__dataclass_fields__:
                digest.update(getattr(value, name).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("carrier,level", sorted(SUBSTEP_DIGESTS))
def test_substep_bytes_pinned(carrier, level, catalog_map):
    assert _substep_digest(catalog_map, carrier, level) == SUBSTEP_DIGESTS[carrier, level]


@pytest.mark.parametrize("carrier,level", CARRIERS)
def test_substep_builds_no_checked_value(carrier, level, catalog_map, monkeypatch):
    steps = _substeps(catalog_map, carrier, level)
    next(steps)   # the first substep also builds the command and the scene
    counts = _count_checked(monkeypatch)
    for _ in steps:
        assert counts == {"Pose6": 0, "Twist": 0}


@pytest.mark.parametrize("carrier,level", CARRIERS)
def test_substep_values_keep_the_checked_guarantees(carrier, level, catalog_map):
    start_z = None
    for robot, scene, u in _substeps(catalog_map, carrier, level):
        start_z = scene.object_pose.position[2] if start_z is None else start_z
        for value in (robot.base_pose, robot.base_twist, robot.ee_pose,
                      scene.platform_pose, scene.platform_twist,
                      scene.object_pose, scene.object_twist):
            assert_valid_pose(value)
        # the command's one checked target, not a pose rebuilt per substep
        assert robot.ee_target is u.target
    assert scene.object_attached_to == carrier
    if carrier == "free":
        # fell onto the terrain and came to rest
        assert scene.object_pose.position[2] < start_z
        assert not np.any(scene.object_twist.linear)
    else:
        assert np.any(scene.object_twist.linear)


@pytest.mark.parametrize("object_id,seed", [("water_bottle", 1), ("sugar_box", 0)])
def test_decision_step_checks_only_command_and_policy_output(object_id, seed, catalog,
                                                            monkeypatch):
    # A GFM episode checks a Pose6 only where a value enters: the fused
    # policy output (vec6_decode), so at most one per decision step.  The
    # command's target, candidate poses, the teacher's lead pose and the
    # shoved object are computed and built unchecked.  water_bottle is
    # grasped and lifted; sugar_box is shoved along the platform, then off it.
    counts = _count_checked(monkeypatch)
    in_bank, at_decision = [], []
    real_bank, real_teacher = episode.episode_bank, episode.teacher_step

    def bank(*args, **kwargs):
        before = counts["Pose6"]
        out = real_bank(*args, **kwargs)
        in_bank.append(counts["Pose6"] - before)
        return out

    def teacher(*args, **kwargs):
        at_decision.append(counts["Pose6"])
        return real_teacher(*args, **kwargs)

    monkeypatch.setattr(episode, "episode_bank", bank)
    monkeypatch.setattr(episode, "teacher_step", teacher)
    log = run_episode(make_config(level=1, object_id=object_id, seed=seed, timeout_steps=40),
                      catalog=catalog)
    assert log.outcome == EPISODE_OUTCOMES[object_id]
    assert in_bank == [0]
    per_step = np.diff(at_decision + [counts["Pose6"]])
    assert len(per_step) == log.n_steps
    assert per_step.max() <= 1


def _advance_by_substeps(robot, scene, status, u, traj, config, sim_cfg, step):
    """advance as one-substep calls of execute_command, step_scene and
    check_status; also returns how many substeps ran."""
    dt = sim_cfg.physics_dt
    for n in range(1, sim_cfg.substeps + 1):
        robot = execute_command(robot, u, scene.terrain, dt)
        held = robot.ee_pose if scene.object_attached_to == "gripper" else None
        scene = step_scene(scene, traj, dt, ee_pose=held)
        status = check_status(scene, robot, status, config, step)
        if status.terminal:
            break
    return robot, scene, status, n


def _state_bytes(robot, scene) -> bytes:
    values = (robot.base_pose, robot.base_twist, robot.ee_pose,
              scene.platform_pose, scene.platform_twist, scene.object_pose, scene.object_twist)
    arrays = [getattr(v, name) for v in values for name in v.__dataclass_fields__]
    arrays.append(np.array([robot.travel, scene.time]))
    return b"".join(a.tobytes() for a in arrays)


# The EPISODE_DIGESTS episodes of levels 1, 3 and 4 plus one of level 2:
# held objects lifted to success, objects shoved off the platform (free),
# closed-form and random platform motion.
PARITY_EPISODES = [(1, "water_bottle", 1), (1, "sugar_box", 0), (2, "lemon", 2),
                   (3, "marker_large", 0), (3, "sugar_box", 0), (4, "lemon", 0),
                   (4, "sugar_box", 0)]


def test_advance_matches_one_substep_calls(catalog, monkeypatch):
    real_advance, seen = episode.advance, {"carriers": set(), "partway": 0, "draws": 0}

    def compared(robot, scene, status, u, traj, rng, config, sim_cfg, step):
        got = real_advance(robot, scene, status, u, traj, rng, config, sim_cfg, step)
        want_robot, want_scene, want_status, n = _advance_by_substeps(
            robot, scene, status, u, traj, config, sim_cfg, step)
        assert _state_bytes(*got[:2]) == _state_bytes(want_robot, want_scene)
        assert got[2] == want_status
        assert got[1].rng_state == want_scene.rng_state
        assert (got[0].gripper, got[0].ee_target) == (want_robot.gripper, u.target)
        assert got[1].object_attached_to == want_scene.object_attached_to
        seen["carriers"].add(scene.object_attached_to)
        seen["partway"] += n < sim_cfg.substeps
        seen["draws"] += got[1].rng_state != scene.rng_state
        return got

    monkeypatch.setattr(episode, "advance", compared)
    outcomes = set()
    for level, object_id, seed in PARITY_EPISODES:
        log = run_episode(make_config(level=level, object_id=object_id, seed=seed,
                                      timeout_steps=40), catalog=catalog)
        outcomes.add(log.outcome)
    assert outcomes == {"success", "failed_dropped", "failed_timeout"}
    assert seen["carriers"] == {"platform", "gripper", "free"}
    assert seen["partway"] > 0         # a status turned terminal inside a decision step
    assert seen["draws"] > 0           # the random levels advanced their generator
