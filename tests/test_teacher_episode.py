import json
import math
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from graspsim.config import SimConfig
from graspsim.distill import (
    HEADER_SIZE,
    RECORD_SIZE,
    DistillRecord,
    read_dataset,
    record_distillation,
)
from graspsim.episode import build_proprio, run_episode
from graspsim.errors import (
    EmptyBankError,
    InvalidArgumentError,
    NotFoundError,
    NotReadyError,
)
from graspsim.gfm import alignment_gfm_weights, build_memory, generate_candidates
from graspsim.metrics import summaries_to_jsonl
from graspsim.nn import PROPRIO_DIM, STACK_SHAPE, kd_loss
from graspsim.robot import WORKSPACE_CENTER, WORKSPACE_RADIUS, initial_robot
from graspsim.scene import ObjectSpec, derive_seed, reset_episode
from graspsim.se3 import Pose6, compose, wrap_angle
from graspsim.teacher import (REACH_MARGIN, YAW_CAP, _reach_limited_standoff, _steer,
                              cached_object_feature, teacher_step)

from conftest import make_config

GOLDEN = dict(object_id="tomato_soup_can", seed=3)


def _setup(catalog_map, object_id="rubiks_cube", seed=4):
    cfg = make_config(object_id=object_id, seed=seed)
    scene = reset_episode(cfg, catalog_map)
    spec = catalog_map[object_id]
    bank = build_memory(generate_candidates(spec, 200, seed=23), 30,
                        object_id=object_id)
    robot = initial_robot(scene.terrain)
    return scene, robot, bank


def test_teacher_fixed_point_closes(catalog_map):
    from graspsim.gfm import gfm_forward
    from graspsim.se3 import inverse

    scene, robot, bank = _setup(catalog_map)
    w = alignment_gfm_weights()
    fused, _ = gfm_forward(cached_object_feature(scene.object_spec),
                           scene.object_pose, bank, w)
    # park the base at standoff facing the object, arm settled on the grasp
    obj = scene.object_pose.position
    base = Pose6(np.array([obj[0] - 0.6, obj[1], robot.base_pose.position[2]]),
                 np.zeros(3))
    g_base = compose(inverse(base), fused)
    robot = replace(robot, base_pose=base, ee_pose=fused, ee_target=g_base)
    action = teacher_step(scene, robot, bank, w, SimConfig())
    assert action.gripper_close
    assert np.linalg.norm(action.dp) < 1e-6
    assert np.max(np.abs(action.dr)) < 1e-6


def test_teacher_drives_toward_distant_object(catalog_map):
    scene, robot, bank = _setup(catalog_map, seed=6)
    # static object ~2 m ahead: forward speed, steering toward the bearing
    action = teacher_step(scene, robot, bank, alignment_gfm_weights(),
                          SimConfig())
    assert action.v_lin > 0.0
    bearing = np.arctan2(scene.object_pose.position[1],
                         scene.object_pose.position[0])
    if abs(bearing) > 1e-3:
        assert np.sign(action.omega_yaw) == np.sign(bearing)
    assert not action.gripper_close


def test_teacher_leads_moving_object(catalog_map):
    from graspsim.se3 import Twist
    scene, robot, bank = _setup(catalog_map, seed=6)
    moving = replace(scene, object_twist=Twist(np.array([0.0, 0.2, 0.0]),
                                               np.zeros(3)))
    w = alignment_gfm_weights()
    a_static = teacher_step(scene, robot, bank, w, SimConfig())
    a_moving = teacher_step(moving, robot, bank, w, SimConfig())
    # the intercept point shifts +y, so the steering command gains +y bias
    assert a_moving.omega_yaw > a_static.omega_yaw


def test_teacher_lifts_after_grasp(catalog_map):
    scene, robot, bank = _setup(catalog_map)
    robot = replace(robot, gripper="closed")
    action = teacher_step(scene, robot, bank, alignment_gfm_weights(),
                          SimConfig())
    assert action.v_lin == 0.0 and action.omega_yaw == 0.0
    assert action.dp[2] > 0.0
    assert not action.gripper_close


def test_teacher_empty_bank_propagates(catalog_map):
    scene, robot, _ = _setup(catalog_map)
    empty = build_memory([], 30, object_id="none")
    with pytest.raises(EmptyBankError):
        teacher_step(scene, robot, empty, alignment_gfm_weights(),
                     SimConfig())


def test_reach_limited_standoff_floor():
    # the standoff shrinks to what the arm ball reaches at the grasp's height
    # offset dz from the workspace center, and never below 0.25 m
    center = float(WORKSPACE_CENTER[2])
    reach = WORKSPACE_RADIUS - REACH_MARGIN
    assert _reach_limited_standoff(0.55, center, 0.0) == 0.55
    for dz in (0.6, -0.6):     # a reach of 0.45 m
        assert (_reach_limited_standoff(0.55, center + dz, 0.0)
                == pytest.approx(math.sqrt(reach**2 - dz**2)))
    for dz in (0.71, -0.71, 0.75, 2.0):
        assert _reach_limited_standoff(0.55, center + dz, 0.0) == 0.25


def test_steer_bits_match_the_yaw_ref_form(rng):
    # _steer caps the bearing around the start heading 0.0; its bits equal the
    # form that capped around a reference yaw of 0.0 (yaw_ref + cap(wrap(
    # bearing - yaw_ref))), including arctan2's exact -pi and signed zeros
    def reference(dp, yaw, yaw_ref=0.0):
        bearing = float(np.arctan2(dp[1], dp[0]))
        capped = yaw_ref + float(min(max(wrap_angle(bearing - yaw_ref), -YAW_CAP),
                                     YAW_CAP))
        return wrap_angle(capped - yaw)

    pi, cap = np.pi, float(YAW_CAP)
    edges = [0.0, -0.0, 1.0, -1.0, 1e-300, -1e-300]
    offsets = [np.array([x, y]) for x in edges for y in edges]
    offsets += [np.array([np.cos(a), np.sin(a)])
                for a in (cap, -cap, np.nextafter(cap, 0.0), np.nextafter(-cap, 0.0))]
    offsets += list(rng.normal(size=(5000, 2)))
    yaws = [0.0, pi, np.nextafter(-pi, 0.0), pi / 2, -pi / 2, cap, -cap]
    for k, dp in enumerate(offsets):
        yaw = yaws[k % len(yaws)] if k % 2 else float(rng.uniform(-pi, pi))
        got, want = _steer(dp, yaw), reference(dp, yaw)
        assert np.float64(got).view(np.uint64) == np.float64(want).view(np.uint64)


def test_build_proprio_shape(catalog_map):
    cfg = make_config(seed=2)
    scene = reset_episode(cfg, catalog_map)
    robot = initial_robot(scene.terrain)
    p = build_proprio(robot, scene.terrain)
    assert p.shape == (PROPRIO_DIM,)
    assert p.dtype == np.float32


# ---------------------------------------------------------------------------
# Episode runner
# ---------------------------------------------------------------------------

def test_golden_level1_episode_regression():
    # frozen after calibration: a seeded level-1 run that succeeds first try
    log = run_episode(make_config(**GOLDEN))
    assert log.outcome == "success"
    assert log.attempt_count == 1
    assert log.success_step == 35
    assert log.n_steps == 36
    assert log.close_events == [[30, True]]


def test_episode_deterministic_serialization():
    a = run_episode(make_config(**GOLDEN), log_steps=True)
    b = run_episode(make_config(**GOLDEN), log_steps=True)
    assert a.to_json() == b.to_json()
    assert a.to_json().encode() == b.to_json().encode()
    # the documented log layout: exactly these fields, nothing added or dropped
    payload = json.loads(a.to_json())
    assert set(payload) == {
        "level", "object_id", "category", "seed", "physics_dt", "decision_dt",
        "timeout_steps", "steps", "close_events", "outcome", "attempt_count",
        "success_step"}
    assert payload["steps"] and all(set(step) == {
        "step", "phase", "action", "gripper_close", "object_pos", "object_vel",
        "base_pos", "base_yaw", "ee_pos", "reward_total", "low_reward_total"}
        for step in payload["steps"])


def test_unlogged_episode_refuses_json():
    # without log_steps there is no per-step trace; to_json must not write a
    # valid-looking log with no steps
    log = run_episode(make_config(**GOLDEN))
    assert log.steps is None and log.n_steps == 36
    with pytest.raises(NotReadyError, match="log_steps=True"):
        log.to_json()
    logged = run_episode(make_config(**GOLDEN), log_steps=True)
    assert len(logged.steps) == logged.n_steps
    assert summaries_to_jsonl([logged]) == summaries_to_jsonl([log])


def test_concurrent_level4_episodes_match_serial(catalog_map):
    # a level-4 platform draws from the scene RNG on every physics step;
    # episodes in threads (more than cores, switching often) must not share
    # draws, so every per-step log equals the serial one
    configs = [make_config(level=4, object_id=oid, seed=seed, timeout_steps=30)
               for oid, seed in (("lemon", 0), ("sugar_box", 0),
                                 ("tennis_ball", 3), ("mustard_bottle", 5))]
    serial = [run_episode(c, catalog=catalog_map, log_steps=True).to_json()
              for c in configs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=len(configs)) as pool:
            futures = [pool.submit(run_episode, c, catalog=catalog_map, log_steps=True)
                       for c in configs]
            threaded = [f.result(timeout=300).to_json() for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial


def test_episode_timeout_one_step():
    log = run_episode(make_config(timeout_steps=1))
    assert log.outcome == "failed_timeout"
    assert log.n_steps == 1


def test_episode_unknown_object():
    with pytest.raises(NotFoundError):
        run_episode(make_config(object_id="flux_capacitor"))


def test_episode_infeasible_object_raises_empty_bank():
    big = ObjectSpec("brick", "box", (0.2, 0.2, 0.2), 2.0, "seen", "square_box")
    with pytest.raises(EmptyBankError, match="'brick'"):
        run_episode(make_config(object_id="brick"), catalog={"brick": big})


def test_episode_takes_clocks_from_sim_config(monkeypatch):
    import graspsim.episode as episode_mod

    calls = []
    real_substep = episode_mod._scene_substep

    def counting_substep(sf, scene, traj, rng, dt, ee):
        calls.append(dt)
        return real_substep(sf, scene, traj, rng, dt, ee)

    # advance looks its scene substep up at call time, once per substep
    monkeypatch.setattr(episode_mod, "_scene_substep", counting_substep)
    log = run_episode(make_config(timeout_steps=3, **GOLDEN),
                      sim_cfg=SimConfig(physics_dt=0.05), log_steps=True)
    assert (log.physics_dt, log.decision_dt, log.n_steps) == (0.05, 0.1, 3)
    assert calls == [0.05] * 6          # 2 substeps per decision step
    assert '"physics_dt":0.05' in log.to_json()


def test_observations_do_not_change_dynamics():
    plain = run_episode(make_config(**GOLDEN), log_steps=True)
    observed, _ = run_episode(make_config(**GOLDEN), collect_observations=True,
                              log_steps=True)
    assert plain.to_json() == observed.to_json()


def test_ablation_teacher_differs(catalog_map):
    full = run_episode(make_config(**GOLDEN), log_steps=True)
    ablated = run_episode(make_config(**GOLDEN), use_gfm=False, log_steps=True)
    assert full.outcome == "success"
    assert (ablated.outcome != full.outcome
            or ablated.to_json() != full.to_json())


# ---------------------------------------------------------------------------
# Distillation dataset
# ---------------------------------------------------------------------------

def test_distill_roundtrip(tmp_path):
    log, obs = run_episode(make_config(**GOLDEN), collect_observations=True,
                           log_steps=True)
    path = tmp_path / "set.bin"
    n = record_distillation(log, obs, path)
    assert n == log.n_steps
    assert path.stat().st_size == HEADER_SIZE + n * RECORD_SIZE
    records = read_dataset(path)
    assert len(records) == n
    for rec, (stacked, proprio, action, grip, step) in zip(records, obs):
        assert rec.step == step
        assert np.array_equal(rec.observation, np.asarray(stacked, np.float32))
        assert np.array_equal(rec.proprio, np.asarray(proprio, np.float32))
        assert np.array_equal(rec.action, np.asarray(action, np.float32))
        assert rec.gripper == grip
    # records carry the same actions the log stored
    for rec, entry in zip(records, log.steps):
        assert np.allclose(rec.action, np.asarray(entry["action"], np.float32),
                           atol=1e-6)
    teacher = np.stack([r.action for r in records])
    assert kd_loss(teacher, teacher) == 0.0


def test_distill_count_mismatch(tmp_path):
    log, obs = run_episode(make_config(**GOLDEN), collect_observations=True)
    with pytest.raises(InvalidArgumentError):
        record_distillation(log, obs[:-1], tmp_path / "bad.bin")


def test_distill_rejects_corrupt_file(tmp_path):
    log, obs = run_episode(make_config(timeout_steps=3, **GOLDEN),
                           collect_observations=True)
    path = tmp_path / "ok.bin"
    record_distillation(log, obs, path)
    data = path.read_bytes()
    (tmp_path / "trunc.bin").write_bytes(data[:-5])
    with pytest.raises(InvalidArgumentError):
        read_dataset(tmp_path / "trunc.bin")
    (tmp_path / "magic.bin").write_bytes(b"XXXX" + data[4:])
    with pytest.raises(InvalidArgumentError):
        read_dataset(tmp_path / "magic.bin")
    (tmp_path / "head.bin").write_bytes(data[:HEADER_SIZE - 3])
    with pytest.raises(InvalidArgumentError):
        read_dataset(tmp_path / "head.bin")
    grip = bytearray(data)
    grip[HEADER_SIZE + 2 * RECORD_SIZE - 1] = 2
    (tmp_path / "grip.bin").write_bytes(grip)
    with pytest.raises(InvalidArgumentError) as err:
        read_dataset(tmp_path / "grip.bin")
    assert f"{tmp_path / 'grip.bin'}: record 1:" in str(err.value)
    with pytest.raises(InvalidArgumentError):
        DistillRecord(0, 0, np.zeros(STACK_SHAPE, np.float32),
                      np.zeros(PROPRIO_DIM, np.float32), np.zeros(8, np.float32), 2)
    # a recording that fails at its third record leaves no file behind and
    # keeps an earlier file at the same path as it was
    bad = list(obs)
    bad[2] = bad[2][:3] + (2,) + bad[2][4:]
    with pytest.raises(InvalidArgumentError):
        record_distillation(log, bad, tmp_path / "new.bin")
    assert not (tmp_path / "new.bin").exists()
    with pytest.raises(InvalidArgumentError):
        record_distillation(log, bad, path)
    assert path.read_bytes() == data
    assert not [p.name for p in tmp_path.iterdir() if ".tmp" in p.name]


def test_derive_seed_stable():
    assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
    assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)
    # the 31-bit mask would alias a negative part to another seed's sub-seed
    with pytest.raises(InvalidArgumentError, match="^seed must be >= 0, got -1$"):
        derive_seed(-1, 2, 3)
    # and int() would run a float or a bool as another seed
    for part in (1.5, True, np.float64(2.0)):
        error = f"seed must be an integer, got {part!r}"
        with pytest.raises(InvalidArgumentError, match=f"^{re.escape(error)}$"):
            derive_seed(part)
