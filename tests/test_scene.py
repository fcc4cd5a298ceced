import json
import math
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest

from graspsim.config import _RANGES, SimConfig
from graspsim.errors import CatalogError, InvalidArgumentError, NotFoundError
from graspsim.gfm import _world_vec6, build_memory, generate_candidates
from graspsim.robot import initial_robot
from graspsim.scene import (
    EpisodeConfig,
    EpisodeStatus,
    LEVEL_SPEED_RANGES,
    ObjectSpec,
    TerrainField,
    apply_gripper_close,
    check_status,
    close_target,
    load_catalog,
    make_trajectory,
    parse_catalog,
    reset_episode,
    sample_terrain,
    YAW_FAIL_LIMIT,
    step_scene,
    validate_catalog,
)
from graspsim.se3 import Pose6, compose, inverse, rotation_angle_between, wrap_angle

from conftest import assert_valid_pose, make_config

DT = SimConfig().physics_dt
SIM_CFG = SimConfig()


# ---------------------------------------------------------------------------
# Terrain
# ---------------------------------------------------------------------------

def test_terrain_bounds_and_determinism():
    t1 = sample_terrain(42)
    t2 = sample_terrain(42)
    assert np.array_equal(t1.heights, t2.heights)
    assert t1.heights.min() >= 0.0 and t1.heights.max() <= 0.1
    assert not np.array_equal(t1.heights, sample_terrain(43).heights)


def test_terrain_node_query_exact():
    t = sample_terrain(7)
    for i in range(t.heights.shape[0]):
        for j in range(t.heights.shape[1]):
            x = t.origin[0] + i * t.cell_size
            y = t.origin[1] + j * t.cell_size
            assert t.height_at(x, y) == pytest.approx(t.heights[i, j], abs=1e-12)


def _height_at_numpy(t, x, y):
    """The bilinear formula on numpy scalars of the grid and origin."""
    h = t.heights
    nx, ny = h.shape
    gx = min(max((x - t.origin[0]) / t.cell_size, 0.0), nx - 1.0)
    gy = min(max((y - t.origin[1]) / t.cell_size, 0.0), ny - 1.0)
    i, j = min(int(gx), nx - 2), min(int(gy), ny - 2)
    fx, fy = gx - i, gy - j
    top = h[i, j] + fx * (h[i + 1, j] - h[i, j])
    bot = h[i, j + 1] + fx * (h[i + 1, j + 1] - h[i, j + 1])
    return float(top + fy * (bot - top))


def test_height_at_bits_match_numpy_scalar_formula(rng):
    # height_at reads a Python-float copy of the grid and origin; the same
    # formula on numpy scalars gives the same bits, inside the lattice, on
    # its nodes and edges, and clamped outside it
    t = sample_terrain(11)
    lo = t.origin
    hi = t.origin + t.cell_size * (np.array(t.heights.shape) - 1)
    points = [tuple(p) for p in rng.uniform(lo - 1.0, hi + 1.0, (3000, 2))]
    nodes = [lo + t.cell_size * np.array([i, j])
             for i in (0, 1, 40, 79, 80) for j in (0, 1, 40, 79, 80)]
    points += [tuple(p) for p in nodes]
    ys = rng.uniform(lo[1], hi[1], 50)
    points += [(x, y) for x in (lo[0], hi[0], np.nextafter(hi[0], 0.0)) for y in ys]
    points += [(y, x) for x, y in points[-150:]]
    points += [(-1e3, 2.0), (1e3, -2.0), (0.5, 1e9), (-1e9, -1e9), (1e9, 1e9)]
    for x, y in points:
        for args in ((float(x), float(y)), (np.float64(x), np.float64(y))):
            got, want = t.height_at(*args), _height_at_numpy(t, *args)
            assert type(got) is float
            assert np.float64(got).view(np.uint64) == np.float64(want).view(np.uint64)


def test_terrain_continuity_lipschitz(rng):
    t = sample_terrain(3)
    bound = 0.1 / t.cell_size
    for _ in range(300):
        x, y = rng.uniform(-3.5, 3.5, 2)
        eps = rng.uniform(-0.05, 0.05, 2)
        dh = abs(t.height_at(x + eps[0], y + eps[1]) - t.height_at(x, y))
        assert dh <= bound * np.linalg.norm(eps) + 1e-12


_VALUES = r"^terrain heights and \(x, y\) origin"


@pytest.mark.parametrize("heights,cell,origin,match", [
    ([[0.0, np.nan], [0.0, 0.0]], 0.1, [0.0, 0.0], _VALUES),
    ([[0.0, 0.0], [np.inf, 0.0]], 0.1, [0.0, 0.0], _VALUES),
    ([[0.0, 0.0], [0.0, 0.0]], 0.1, [np.nan, 0.0], _VALUES),
    ([[0.0, 0.0], [0.0, 0.0]], 0.1, [0.0, -np.inf], _VALUES),
    ([[0.0, 0.0], [0.0, 0.0]], 0.0, [0.0, 0.0], _VALUES),
    ([[0.0, 0.0], [0.0, 0.0]], -0.1, [0.0, 0.0], _VALUES),
    ([[0.0, 0.0], [0.0, 0.0]], np.inf, [0.0, 0.0], _VALUES),
    ([[0.0, 0.0], [0.0, 0.0]], np.nan, [0.0, 0.0], _VALUES),
    ([[0.0, 0.0], [0.0, 0.0]], 0.1, [0.0, 0.0, 0.0], _VALUES),
    ([[0.0, 0.0], [0.0, 0.0]], 0.1, 0.5, _VALUES),
    ([[0.0, 0.0], [0.1 + 1e-9, 0.0]], 0.1, [0.0, 0.0], _VALUES + r".* render band 0\.\.0\.1 m"),
    ([[0.0, -1e-9], [0.0, 0.0]], 0.1, [0.0, 0.0], _VALUES + r".* render band 0\.\.0\.1 m"),
    ([[0.0, 0.0]], 0.1, [0.0, 0.0], r"^terrain grid must be at least 2x2$"),
], ids=["nan-height", "inf-height", "nan-origin", "inf-origin", "zero-cell",
        "negative-cell", "inf-cell", "nan-cell", "3d-origin", "scalar-origin",
        "above-band", "below-band", "1x2-grid"])
def test_terrain_rejects_non_finite_grid_or_bad_cell(heights, cell, origin, match):
    # a NaN height would reach the base height through height_at, a zero
    # cell size a ZeroDivisionError, an origin that is not (x, y) an unpacking
    # error, a grid of one row no bilinear cell; a height outside the band that
    # the renderer's terrain test casts into would give wrong depths
    with pytest.raises(InvalidArgumentError, match=match):
        TerrainField(np.array(heights), cell, np.array(origin))


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------

def test_bundled_catalog_counts(catalog):
    assert len(catalog) == 43
    assert sum(1 for s in catalog if s.split == "seen") == 30
    assert sum(1 for s in catalog if s.split == "unseen") == 13
    assert all(all(d > 0 for d in s.dims) and s.mass > 0 for s in catalog)


def test_catalog_count_mismatch_rejected(catalog):
    with pytest.raises(CatalogError):
        validate_catalog(list(catalog)[:42])
    specs = list(catalog)
    first_seen = next(i for i, s in enumerate(specs) if s.split == "seen")
    specs[first_seen] = replace(specs[first_seen], split="unseen")
    with pytest.raises(CatalogError, match="^catalog split must be 30 seen / 13 unseen, got 29/14$"):
        validate_catalog(specs)
    # every seen object made a sphere: that split has no tall/slender object
    squat = [replace(s, shape="sphere", dims=(0.03,)) if s.split == "seen" else s
             for s in catalog]
    with pytest.raises(CatalogError, match="^seen split needs both compact and tall"):
        validate_catalog(squat)


def test_catalog_parse_errors():
    with pytest.raises(CatalogError):
        parse_catalog("thing pyramid 0.1 0.2 seen ball\n")
    with pytest.raises(CatalogError):
        parse_catalog("thing sphere 0.1 0.2 seen nosuchcategory\n")
    with pytest.raises(CatalogError):
        parse_catalog("only five fields here now\n")
    for line, message in (("a sphere 0.1,0.2 0.1 seen ball", "sphere needs 1 dims, got 2"),
                          ("a box 0.1,0.2 0.1 seen long_box", "box needs 3 dims, got 2"),
                          ("a cylinder 0.1 0.1 seen cup", "cylinder needs 2 dims, got 1")):
        with pytest.raises(CatalogError, match=f"^a: {message}$"):
            parse_catalog(line)
    for line in ("a sphere nan 0.1 seen ball", "a sphere inf 0.1 seen ball",
                 "a box 0.1,-inf,0.1 0.1 seen long_box", "a sphere 0.1 nan seen ball",
                 "a cylinder 0.1,0.2 inf seen cup", "a sphere 0 0.1 seen ball",
                 "a sphere 0.1 -0.1 seen ball"):
        with pytest.raises(CatalogError, match="^a: dims and mass must be positive and finite"):
            parse_catalog(line)


def test_catalog_file_errors_name_the_path(tmp_path):
    bundled = (resources.files("graspsim.data") / "objects.txt").read_bytes()
    ok = tmp_path / "ok.txt"
    ok.write_bytes(bundled)
    assert len(load_catalog(ok)) == 43
    bad_byte = tmp_path / "bad_byte.txt"
    bad_byte.write_bytes(bundled.replace(b" ball", b" b\xb3ll", 1))
    with pytest.raises(CatalogError, match="not UTF-8") as err:
        load_catalog(bad_byte)
    assert str(err.value).startswith(f"{bad_byte}: ")
    short = tmp_path / "short.txt"
    short.write_bytes(bundled.rsplit(b"\n", 2)[0] + b"\n")
    with pytest.raises(CatalogError, match="exactly 43") as err:
        load_catalog(short)
    assert str(err.value).startswith(f"{short}: ")
    fields = tmp_path / "fields.txt"
    fields.write_bytes(bundled + b"odd sphere 0.1\n")
    with pytest.raises(CatalogError, match="expected 6 fields") as err:
        load_catalog(fields)
    assert str(err.value).startswith(f"{fields}: line ")
    for dim, mass in ((b"nan", b"0.058"), (b"0.0335", b"inf")):
        not_finite = tmp_path / "not_finite.txt"
        not_finite.write_bytes(bundled.replace(b"sphere    0.0335             0.058",
                                               b"sphere " + dim + b" " + mass, 1))
        with pytest.raises(CatalogError) as err:
            load_catalog(not_finite)
        assert str(err.value) == (f"{not_finite}: tennis_ball: dims and mass must be "
                                  "positive and finite")


def test_catalog_duplicate_ids_rejected(catalog):
    specs = list(catalog)
    specs[1] = ObjectSpec(specs[0].id, "sphere", (0.02,), 0.1,
                          specs[1].split, "ball")
    with pytest.raises(CatalogError):
        validate_catalog(specs)


# ---------------------------------------------------------------------------
# Trajectories
# ---------------------------------------------------------------------------

def test_make_trajectory_rejects_bad_level():
    with pytest.raises(InvalidArgumentError):
        make_trajectory(5, 0)


@pytest.mark.parametrize("level", [1, 2, 3, 4])
def test_platform_speed_ranges_sampled(level, catalog_map):
    lo, hi = LEVEL_SPEED_RANGES[level]
    cfg = make_config(level=level, seed=100 + level)
    traj = make_trajectory(level, 100 + level)
    state = reset_episode(cfg, catalog_map, traj)
    for _ in range(2000):
        state = step_scene(state, traj, DT)
        speed = float(np.linalg.norm(state.platform_twist.linear[:2]))
        assert lo - 1e-12 <= speed <= hi + 1e-12
        if level == 4:
            assert 0.2 <= state.platform_pose.position[2] <= 0.7
        else:
            assert state.platform_pose.position[2] == pytest.approx(
                state.platform_pose.position[2]
            )


def test_levels_1_to_3_keep_z_constant(catalog_map):
    for level in (1, 2, 3):
        cfg = make_config(level=level, seed=55)
        traj = make_trajectory(level, 55)
        state = reset_episode(cfg, catalog_map, traj)
        z0 = state.platform_pose.position[2]
        for _ in range(500):
            state = step_scene(state, traj, DT)
        assert state.platform_pose.position[2] == pytest.approx(z0, abs=1e-12)


# ---------------------------------------------------------------------------
# Reset and stepping
# ---------------------------------------------------------------------------

def test_reset_placement_and_attachment(catalog_map):
    for seed in range(50):
        cfg = make_config(seed=seed)
        state = reset_episode(cfg, catalog_map)
        assert 1.5 <= state.platform_pose.position[0] <= 2.5
        assert 0.2 <= state.platform_pose.position[2] <= 0.7
        expected = compose(state.platform_pose, state.mount_offset)
        assert np.allclose(state.object_pose.position, expected.position)


def test_reset_unknown_object(catalog_map):
    with pytest.raises(NotFoundError):
        reset_episode(make_config(object_id="warp_core"), catalog_map)


def test_reset_deterministic(catalog_map):
    a = reset_episode(make_config(seed=9), catalog_map)
    b = reset_episode(make_config(seed=9), catalog_map)
    assert np.array_equal(a.platform_pose.position, b.platform_pose.position)
    assert np.array_equal(a.terrain.heights, b.terrain.heights)


def test_step_finite_difference_matches_twist(catalog_map):
    cfg = make_config(level=2, seed=5)
    traj = make_trajectory(2, 5)
    state = reset_episode(cfg, catalog_map, traj)
    for _ in range(200):
        before = state
        state = step_scene(state, traj, DT)
        fd = (state.object_pose.position - before.object_pose.position) / DT
        speed = np.linalg.norm(before.object_twist.linear)
        assert np.allclose(fd, before.object_twist.linear, atol=1e-6 * (1 + speed))


def test_step_stationary_trajectory(catalog_map):
    # constant speed 0 comes out of the level-1 range; force it via the dataclass
    traj = make_trajectory(1, 2)
    traj = type(traj)(1, "linear", traj.speed_range, "fixed", speed=0.0)
    cfg = make_config(seed=2)
    state = reset_episode(cfg, catalog_map, traj)
    nxt = step_scene(state, traj, DT)
    assert nxt.time == pytest.approx(DT)
    assert np.array_equal(nxt.platform_pose.position, state.platform_pose.position)
    assert np.array_equal(nxt.object_pose.position, state.object_pose.position)


def test_attachment_relative_pose_constant(catalog_map):
    cfg = make_config(level=3, seed=8)
    traj = make_trajectory(3, 8)
    state = reset_episode(cfg, catalog_map, traj)
    rel0 = compose(inverse(state.platform_pose), state.object_pose)
    for _ in range(300):
        state = step_scene(state, traj, DT)
        assert_valid_pose(state.platform_pose)
        assert_valid_pose(state.object_pose)
    rel = compose(inverse(state.platform_pose), state.object_pose)
    assert np.allclose(rel.position, rel0.position, atol=1e-12)
    assert np.allclose(rel.orientation, rel0.orientation, atol=1e-12)


def test_step_scene_rejects_bad_dt(catalog_map):
    cfg = make_config(seed=1)
    traj = make_trajectory(1, 1)
    state = reset_episode(cfg, catalog_map, traj)
    # a straight line at constant speed gives a finite next twist for any dt,
    # so only the dt check stops a non-finite platform pose
    line = type(traj)(1, "linear", traj.speed_range, "fixed", speed=0.1)
    for dt in (0.0, -0.02, np.nan, np.inf):
        for tr in (traj, line):
            with pytest.raises(InvalidArgumentError):
                step_scene(state, tr, dt)
    # a held object moves with the end effector, so its pose is required
    held = replace(state, object_attached_to="gripper")
    with pytest.raises(InvalidArgumentError, match="^step_scene needs ee_pose while object is held$"):
        step_scene(held, traj, DT)


def test_scene_sequence_bit_deterministic(catalog_map):
    cfg = make_config(level=4, seed=77)
    traj = make_trajectory(4, 77)

    def rollout():
        st = reset_episode(cfg, catalog_map, traj)
        acc = []
        for _ in range(100):
            st = step_scene(st, traj, DT)
            acc.append(st.platform_pose.position)
        return np.array(acc)

    assert np.array_equal(rollout(), rollout())


def test_step_scene_is_a_function_of_its_state(catalog_map):
    # the level-4 step draws from the RNG state the scene carries; stepping
    # one state twice gives one result and leaves the input's state as it was
    traj = make_trajectory(4, 5)
    state = reset_episode(make_config(level=4, seed=5), catalog_map, traj)
    for _ in range(3):
        state = step_scene(state, traj, DT)
    before = json.dumps(state.rng_state, sort_keys=True)
    a = step_scene(state, traj, DT)
    b = step_scene(state, traj, DT)
    assert json.dumps(state.rng_state, sort_keys=True) == before
    assert a.rng_state == b.rng_state != state.rng_state
    assert a.time == b.time
    for x, y in ((a.platform_pose.position, b.platform_pose.position),
                 (a.platform_twist.linear, b.platform_twist.linear),
                 (a.object_pose.position, b.object_pose.position),
                 (a.object_twist.linear, b.object_twist.linear)):
        assert np.array_equal(x, y)


# ---------------------------------------------------------------------------
# Gripper close and status transitions
# ---------------------------------------------------------------------------

def _scene_and_aligned_robot(catalog_map, object_id="rubiks_cube", seed=4):
    cfg = make_config(object_id=object_id, seed=seed)
    state = reset_episode(cfg, catalog_map)
    spec = catalog_map[object_id]
    cands = generate_candidates(spec, 100, seed=1)
    bank = build_memory(cands, 30, object_id=object_id)
    robot = initial_robot(state.terrain)
    world = compose(state.object_pose, bank.candidates[0].pose)
    robot = replace(robot, ee_pose=world)
    return cfg, state, robot, bank


def _aligned_by_compose(bank, state, ee_pose, cfg):
    """close_target's alignment, re-projecting one candidate at a time."""
    best, best_d = None, np.inf
    for i, cand in enumerate(bank.candidates):
        world = compose(state.object_pose, cand.pose)
        d = float(np.linalg.norm(world.position - ee_pose.position))
        if d > cfg.teacher_align_pos_tol:
            continue
        if (rotation_angle_between(world.orientation, ee_pose.orientation)
                > cfg.teacher_align_ori_tol):
            continue
        if d < best_d:
            best, best_d = i, d
    return best


def test_close_target_matches_per_candidate_compose(catalog_map, rng):
    # the memoized bank re-projection picks the same candidate as composing
    # each one; an ee exactly on a candidate ties with every candidate at the
    # same position (the centred box grasps), and the first aligned one wins
    found = set()
    for object_id in ("rubiks_cube", "sugar_box", "tennis_ball", "tomato_soup_can"):
        _, state, robot, bank = _scene_and_aligned_robot(catalog_map, object_id)
        rows = _world_vec6(bank, state.object_pose)
        for _ in range(25):
            k = int(rng.integers(len(bank)))
            world = compose(state.object_pose, bank.candidates[k].pose)
            for ee in (world, Pose6(world.position + rng.normal(0.0, 0.012, 3),
                                    world.orientation + rng.normal(0.0, 0.12, 3))):
                got = close_target(state, replace(robot, ee_pose=ee), rows, SIM_CFG)
                assert got == _aligned_by_compose(bank, state, ee, SIM_CFG)
                found.add(got)
    assert None in found and len(found) > 3


def test_close_target_refuses_a_nan_row(catalog_map):
    # each comparison is written so that a NaN distance or angle refuses the row
    _, state, robot, _ = _scene_and_aligned_robot(catalog_map)
    on_ee = np.concatenate([robot.ee_pose.position, robot.ee_pose.orientation])
    assert close_target(state, robot, on_ee[None], SIM_CFG) == 0
    for col in (0, 3):
        row = on_ee.copy()
        row[col] = np.nan
        assert close_target(state, robot, row[None], SIM_CFG) is None
        assert close_target(state, robot, np.stack([row, on_ee]), SIM_CFG) == 1


def test_empty_bank_projects_to_no_rows_and_aligns_nothing(catalog_map):
    # an empty bank's projection keeps its (0, 6) shape, so no grasp aligns
    _, state, robot, _ = _scene_and_aligned_robot(catalog_map)
    empty = build_memory([], 30, object_id="none")
    assert _world_vec6(empty, state.object_pose).shape == (0, 6)
    assert close_target(state, robot, _world_vec6(empty, state.object_pose), SIM_CFG) is None


def test_aligned_close_attaches(catalog_map):
    cfg, state, robot, bank = _scene_and_aligned_robot(catalog_map)
    new_state, ok = apply_gripper_close(state, robot, bank, SIM_CFG)
    assert ok and new_state.object_attached_to == "gripper"


def test_misaligned_close_bumps_object_off(catalog_map):
    cfg, state, robot, bank = _scene_and_aligned_robot(catalog_map)
    status = EpisodeStatus()
    # keep closing with the gripper badly misaligned right next to the object;
    # the tight footprint means a couple of shoves push it off the platform
    for _ in range(4):
        off = Pose6(state.object_pose.position + np.array([0.05, 0.0, 0.0]),
                    np.array([0.4, 0.9, 0.2]))
        robot_off = replace(robot, ee_pose=off)
        new_state, ok = apply_gripper_close(state, robot_off, bank,
                                            SIM_CFG)
        assert not ok
        assert not np.allclose(new_state.object_pose.position,
                               state.object_pose.position)
        status = check_status(new_state, robot_off, status, cfg, 0)
        state = new_state
        if state.object_attached_to == "free":
            break
    assert state.object_attached_to == "free"
    assert status.phase == "failed_dropped"


def test_far_close_is_a_no_op(catalog_map):
    cfg, state, robot, bank = _scene_and_aligned_robot(catalog_map)
    far = Pose6(state.object_pose.position + np.array([1.0, 0, 0]), np.zeros(3))
    robot = replace(robot, ee_pose=far)
    new_state, ok = apply_gripper_close(state, robot, bank, SIM_CFG)
    assert not ok and new_state.object_attached_to == "platform"
    assert np.allclose(new_state.object_pose.position, state.object_pose.position)
    # an object not riding the platform (held, or fallen) is left as it is,
    # even by a close that would capture it from the platform
    _, state, robot, bank = _scene_and_aligned_robot(catalog_map)
    for carrier in ("gripper", "free"):
        off = replace(state, object_attached_to=carrier)
        new_state, ok = apply_gripper_close(off, robot, bank, SIM_CFG)
        assert new_state is off and ok is False


def test_yaw_drift_over_70_degrees_fails(catalog_map):
    cfg, state, robot, _ = _scene_and_aligned_robot(catalog_map)
    yawed = Pose6(robot.base_pose.position, np.array([0, 0, np.deg2rad(71.0)]))
    robot = replace(robot, base_pose=yawed)
    status = check_status(state, robot, EpisodeStatus(), cfg, 0)
    assert status.phase == "failed_yaw"
    # 69 degrees survives
    yawed = Pose6(robot.base_pose.position, np.array([0, 0, np.deg2rad(69.0)]))
    robot = replace(robot, base_pose=yawed)
    status = check_status(state, robot, EpisodeStatus(), cfg, 0)
    assert status.phase == "approaching"


def test_yaw_drift_needs_no_wrap(rng):
    # check_status reads the drift as abs(yaw): every pose's yaw is a wrap
    # output, and on those the wrap it no longer applies changes no bit of abs
    pi = np.pi
    yaws = [0.0, -0.0, pi, -pi, np.nextafter(pi, 0.0), np.nextafter(-pi, 0.0),
            float(YAW_FAIL_LIMIT), -float(YAW_FAIL_LIMIT), 1e-300, -1e-300]
    yaws += list(rng.uniform(-4 * pi, 4 * pi, 20000))
    for y in yaws:
        w = float(Pose6(np.zeros(3), np.array([0.0, 0.0, y])).orientation[2])
        assert (np.float64(abs(w)).view(np.uint64)
                == np.float64(abs(wrap_angle(w))).view(np.uint64))


def test_grasp_lift_hold_to_success(catalog_map):
    cfg, state, robot, bank = _scene_and_aligned_robot(catalog_map)
    state, ok = apply_gripper_close(state, robot, bank, SIM_CFG)
    assert ok
    # hold the object 0.2 m above the platform top for 10 physics checks
    lifted = Pose6(
        state.platform_pose.position + np.array([0.0, 0.0, 0.2]), np.zeros(3)
    )
    state = replace(state, object_pose=lifted)
    status = check_status(state, robot, EpisodeStatus(), cfg, 0)
    assert status.phase == "grasped" or status.phase == "lifted"
    for _ in range(10):
        status = check_status(state, robot, status, cfg, 3)
    assert status.phase == "success"
    assert status.success_step == 3


def test_timeout_status(catalog_map):
    cfg, state, robot, _ = _scene_and_aligned_robot(catalog_map)
    status = check_status(state, robot, EpisodeStatus(), cfg,
                          cfg.timeout_steps)
    assert status.phase == "failed_timeout"


def test_episode_config_validation():
    with pytest.raises(InvalidArgumentError):
        EpisodeConfig(level=1, object_id="x", seed=0, timeout_steps=0)
    with pytest.raises(InvalidArgumentError, match="seed must be >= 0, got -1"):
        EpisodeConfig(level=1, object_id="x", seed=-1)
    for level in (0, 5):
        with pytest.raises(InvalidArgumentError, match=f"got {level}$"):
            EpisodeConfig(level=level, object_id="x", seed=0)
    # integer fields take an int or a numpy integer, nothing else (no bool)
    for name, bad in (("level", 1.0), ("level", True), ("seed", 1.5), ("seed", "0"),
                      ("timeout_steps", 2.5), ("timeout_steps", np.float64(3.0))):
        fields = {"level": 1, "object_id": "x", "seed": 0, name: bad}
        with pytest.raises(InvalidArgumentError, match=f"^{name} must be an integer"):
            EpisodeConfig(**fields)
    cfg = EpisodeConfig(level=np.int64(2), object_id="x", seed=np.uint32(3),
                        timeout_steps=np.int32(7))
    assert [type(v) for v in (cfg.level, cfg.seed, cfg.timeout_steps)] == [int] * 3
    assert (cfg.level, cfg.seed, cfg.timeout_steps) == (2, 3, 7)
    with pytest.raises(InvalidArgumentError):
        SimConfig(physics_dt=0.03, decision_dt=0.1)
    for dts in ((0.1, 0.02), (0.0, 0.1), (float("nan"), 0.1), (0.02, float("inf"))):
        with pytest.raises(InvalidArgumentError):
            SimConfig(physics_dt=dts[0], decision_dt=dts[1])
    assert SimConfig().substeps == 5
    assert SimConfig(physics_dt=0.05).substeps == 2


_OUT_OF_RANGE = {"timeout_steps": 0, "bank_size": 0, "candidate_count": -3,
                 "teacher_intercept_horizon": -1.0, "hfov_deg": 500.0,
                 "mask_flip_prob": 2.0, "teacher_align_pos_tol": -1.0}


@pytest.mark.parametrize("key", sorted(_RANGES))
def test_sim_config_rejects_out_of_range(key):
    # SimConfig checks every range itself, not only load_config's file lines;
    # a key missing from _OUT_OF_RANGE must be positive, so 0.0 is out of range
    for bad in (_OUT_OF_RANGE.get(key, 0.0), math.nan, -math.inf):
        with pytest.raises(InvalidArgumentError, match=f"^{key} must be"):
            SimConfig(**{key: bad})
    ok, _ = _RANGES[key]
    assert ok(getattr(SimConfig(), key))
    if isinstance(getattr(SimConfig(), key), int):
        # a count takes an int or a numpy integer, nothing else (no bool)
        for bad in (2.5, 7.0, True, np.float32(3.0), "3"):
            with pytest.raises(InvalidArgumentError, match=f"^{key} must be an integer"):
                SimConfig(**{key: bad})
        value = getattr(SimConfig(**{key: np.int64(9)}), key)
        assert type(value) is int and value == 9
