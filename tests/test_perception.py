import platform
import re
import subprocess
import sys
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from graspsim import episode
from graspsim.camera import (
    DEPTH_CLIP,
    FRAME_H,
    FRAME_W,
    LATENCY_STEPS,
    CameraModel,
    Frame,
    LatencyBuffer,
    base_camera,
    dump_frame,
    frame_channels,
    render_frame,
    render_views,
    stack_observation,
    wrist_camera,
)
from graspsim.camera import _box_hits, _camera_rays
from graspsim.config import SimConfig
from graspsim.errors import InvalidArgumentError, NotReadyError
from graspsim.nn import _FRAME_PAIRS, FRAME_SHAPE, HISTORY_LEN, STACK_LAYOUT, VIEWS
from graspsim.robot import initial_robot
from graspsim.scene import (
    PLATFORM_THICKNESS,
    PLATFORM_Z_RANGE,
    TERRAIN_MAX_HEIGHT,
    ObjectSpec,
    SceneState,
    derive_seed,
    reset_episode,
)
from graspsim.se3 import Pose6, Twist, compose, euler_to_matrix

from conftest import flat_terrain, make_config, setting_env


def make_scene(spec, obj_pose, platform_pose=None, terrain=None):
    platform_pose = platform_pose or Pose6(
        obj_pose.position - np.array([0.0, 0.0, spec.half_height]), np.zeros(3))
    fx, fy = spec.footprint_half
    return SceneState(
        time=0.0,
        platform_pose=platform_pose,
        platform_twist=Twist.zero(),
        object_pose=obj_pose,
        object_twist=Twist.zero(),
        object_attached_to="platform",
        terrain=terrain or flat_terrain(),
        rng_state=np.random.PCG64(0).state,
        object_spec=spec,
        mount_offset=Pose6(np.array([0.0, 0.0, spec.half_height]), np.zeros(3)),
        platform_half=(fx + 0.02, fy + 0.02),
    )


def eye_robot(position, orientation=(0.0, 0.0, 0.0)):
    """Robot whose wrist camera parent (the ee) sits exactly at a pose."""
    robot = initial_robot(flat_terrain())
    ee = Pose6(np.asarray(position, dtype=float), np.asarray(orientation, float))
    return replace(robot, ee_pose=ee)


def centered_wrist_cam():
    # zero mount offset: camera frame == ee frame, looking along +x
    cam = wrist_camera()
    return replace(cam, mount_offset=Pose6(np.zeros(3), np.zeros(3)))


def project_point(cam, cam_pose, p_world):
    """Analytic pinhole projection oracle returning (row, col)."""
    from graspsim.se3 import euler_to_matrix
    r = euler_to_matrix(cam_pose.orientation)
    pc = r.T @ (np.asarray(p_world) - cam_pose.position)
    tan_h = np.tan(cam.hfov / 2.0)
    tan_v = tan_h * FRAME_H / FRAME_W
    xn = (-pc[1] / pc[0]) / tan_h
    yn = (-pc[2] / pc[0]) / tan_v
    col = xn * FRAME_W / 2.0 + FRAME_W / 2.0 - 0.5
    row = yn * FRAME_H / 2.0 + FRAME_H / 2.0 - 0.5
    return row, col


SPHERE = ObjectSpec("orb", "sphere", (0.04,), 0.1, "seen", "ball")


def test_centered_object_projection_and_depth():
    # place the sphere center exactly on the center pixel's ray (the
    # principal point falls between pixels on an even-sized image)
    cam = centered_wrist_cam()
    tan_h = np.tan(cam.hfov / 2.0)
    tan_v = tan_h * FRAME_H / FRAME_W
    yc = -tan_h * (0.5 / (FRAME_W / 2.0))
    zc = -tan_v * (0.5 / (FRAME_H / 2.0))
    eye = np.array([0.0, 0.0, 0.6])
    center = eye + np.array([1.0, yc, zc])          # z-depth exactly 1 m
    scene = make_scene(SPHERE, Pose6(center, np.zeros(3)))
    robot = eye_robot(eye)
    frame = render_frame(scene, robot, cam)
    assert frame.mask.sum() > 0
    rows, cols = np.nonzero(frame.mask)
    assert abs(rows.mean() - FRAME_H // 2) <= 1.0
    assert abs(cols.mean() - FRAME_W // 2) <= 1.0
    center_depth = frame.depth[FRAME_H // 2, FRAME_W // 2]
    assert center_depth == pytest.approx(1.0 - 0.04, abs=1e-3)


def test_object_behind_camera_invisible():
    scene = make_scene(SPHERE, Pose6(np.array([-1.0, 0.0, 0.6]), np.zeros(3)))
    robot = eye_robot([0.0, 0.0, 0.6])
    frame = render_frame(scene, robot, centered_wrist_cam())
    assert frame.mask.sum() == 0


def test_platform_fully_occludes_object():
    # a wide platform slab squarely between camera and a small free-flying
    # sphere: every ray toward the sphere crosses the slab first
    spec = ObjectSpec("orb2", "sphere", (0.03,), 0.1, "seen", "ball")
    obj = Pose6(np.array([1.2, 0.0, 0.6]), np.zeros(3))
    plat = Pose6(np.array([0.5, 0.0, 0.62]), np.zeros(3))
    fx, fy = spec.footprint_half
    scene = SceneState(
        time=0.0, platform_pose=plat, platform_twist=Twist.zero(),
        object_pose=obj, object_twist=Twist.zero(), object_attached_to="free",
        terrain=flat_terrain(), rng_state=np.random.PCG64(0).state,
        object_spec=spec,
        mount_offset=Pose6(np.array([0.0, 0.0, spec.half_height]), np.zeros(3)),
        platform_half=(0.2, 0.2),
    )
    robot = eye_robot([0.0, 0.0, 0.6])
    frame = render_frame(scene, robot, centered_wrist_cam())
    assert frame.mask.sum() == 0
    # the slab's near face (x = 0.3) is what the center pixel sees
    assert frame.valid[FRAME_H // 2, FRAME_W // 2]
    assert frame.depth[FRAME_H // 2, FRAME_W // 2] == pytest.approx(0.3, abs=1e-3)


def ray_box_oracle(o, d, center, half):
    """The box target's earlier slab test, which multiplies by 1/d: the bit
    oracle for _box_hits given reciprocal directions and np.multiply."""
    lo = np.full(d.shape[1], -np.inf, np.float32)
    hi = np.full(d.shape[1], np.inf, np.float32)
    with np.errstate(divide="ignore", invalid="ignore"):
        for axis in range(3):
            inv = 1.0 / d[axis]
            t1 = np.float32(center[axis] - half[axis] - o[axis]) * inv
            t2 = np.float32(center[axis] + half[axis] - o[axis]) * inv
            lo = np.fmax(lo, np.fmin(t1, t2))
            hi = np.fmin(hi, np.fmax(t1, t2))
    hit = (hi >= lo) & (hi > 0)
    t = np.where(lo > 0, lo, hi)
    return np.where(hit, t, np.inf)


def test_box_slab_bits_match_reciprocal_oracle(rng):
    # zero direction components and origins inside the box take the
    # infinite and the exit-distance paths
    hits = inside = 0
    for n in (1, 7, 333, 2049, FRAME_H * FRAME_W):
        for trial in range(4):
            d = rng.standard_normal((3, n)).astype(np.float32)
            d[rng.random((3, n)) < 0.05] = 0.0
            half = rng.uniform(0.02, 0.3, 3)
            o = half * rng.uniform(-0.9, 0.9, 3) if trial == 0 else rng.uniform(-0.5, 0.5, 3)
            with np.errstate(divide="ignore"):
                inv = 1.0 / d
            out = _box_hits(o, inv, np.zeros(3), half, np.multiply)
            expected = ray_box_oracle(o, d, np.zeros(3), half)
            assert expected.dtype == np.float32
            assert np.array_equal(out.view(np.uint32), expected.view(np.uint32))
            hits += int(np.isfinite(out).sum())
            inside += n * bool(np.all(np.abs(o) < half))
    assert hits > 1_000 and inside > 0


def test_reprojection_of_random_placements(rng):
    cam = centered_wrist_cam()
    misses = 0.0
    for _ in range(100):
        pos = np.array([rng.uniform(0.8, 2.5),
                        rng.uniform(-0.35, 0.35),
                        rng.uniform(0.35, 0.9)])
        scene = make_scene(SPHERE, Pose6(pos, np.zeros(3)))
        robot = eye_robot([0.0, 0.0, 0.6])
        frame = render_frame(scene, robot, cam)
        assert frame.mask.sum() > 0
        rows, cols = np.nonzero(frame.mask)
        r_pred, c_pred = project_point(cam, compose(robot.ee_pose, cam.mount_offset), pos)
        misses = max(misses, abs(rows.mean() - r_pred), abs(cols.mean() - c_pred))
    assert misses <= 2.0


def test_mask_depth_consistency_random_scenes(rng, catalog_map):
    specs = list(catalog_map.values())
    for i in range(20):
        spec = specs[int(rng.integers(len(specs)))]
        pos = np.array([rng.uniform(0.7, 2.0), rng.uniform(-0.4, 0.4),
                        rng.uniform(0.3, 0.8)])
        scene = make_scene(spec, Pose6(pos, rng.uniform(-1, 1, 3)))
        robot = eye_robot([0.0, 0.0, 0.6])
        frame = render_frame(scene, robot, centered_wrist_cam())
        assert np.all(frame.valid[frame.mask])
        assert np.all(frame.depth[frame.mask] > 0)
        assert np.all(frame.depth[~frame.valid] == 0.0)


def test_render_is_deterministic(catalog_map):
    cfg = make_config(seed=12)
    scene = reset_episode(cfg, catalog_map)
    robot = initial_robot(scene.terrain)
    a = render_frame(scene, robot, base_camera())
    b = render_frame(scene, robot, base_camera())
    assert np.array_equal(a.mask, b.mask)
    assert np.array_equal(a.depth, b.depth)
    assert np.array_equal(a.valid, b.valid)


def test_mask_noise_flips_pixels(catalog_map):
    cfg = make_config(seed=12)
    scene = reset_episode(cfg, catalog_map)
    robot = initial_robot(scene.terrain)
    clean = render_frame(scene, robot, base_camera())
    noisy = render_frame(scene, robot, base_camera(), mask_flip_prob=0.05,
                         noise_seed=4)
    flipped = np.count_nonzero(clean.mask ^ noisy.mask)
    assert 0 < flipped < clean.mask.size * 0.15
    again = render_frame(scene, robot, base_camera(), mask_flip_prob=0.05,
                         noise_seed=4)
    assert np.array_equal(noisy.mask, again.mask)


def test_render_frame_rejects_bad_noise_arguments(catalog_map):
    # render_frame is exported, so its noise arguments are checked at the call
    cfg = make_config(seed=12)
    scene = reset_episode(cfg, catalog_map)
    robot = initial_robot(scene.terrain)
    cam = base_camera()
    for prob in (-0.1, 1.5, np.nan, -np.inf):
        with pytest.raises(InvalidArgumentError,
                           match=r"^mask_flip_prob must be in \[0, 1\], got "):
            render_frame(scene, robot, cam, mask_flip_prob=prob)
    for seed in (2.5, True, "4"):
        with pytest.raises(InvalidArgumentError, match="^noise_seed must be an integer, got "):
            render_frame(scene, robot, cam, mask_flip_prob=0.05, noise_seed=seed)
    with pytest.raises(InvalidArgumentError, match="^noise_seed must be 0 or more, got -1$"):
        render_frame(scene, robot, cam, mask_flip_prob=0.05, noise_seed=-1)
    # both bounds of the probability are valid: 1 flips every pixel
    clean = render_frame(scene, robot, cam, mask_flip_prob=0.0)
    inverted = render_frame(scene, robot, cam, mask_flip_prob=1.0, noise_seed=np.int64(4))
    assert np.array_equal(inverted.mask, ~clean.mask)


def test_render_views_seeds_flips_per_step_and_view(catalog_map):
    # each view of decision step k flips with noise seed derive_seed(seed, 31, k)
    # plus its view index; without flips, the frames are the clean renders
    cfg = make_config(seed=12)
    scene = reset_episode(cfg, catalog_map)
    robot = initial_robot(scene.terrain)
    hfov = np.deg2rad(SimConfig().hfov_deg)
    cams = (wrist_camera(hfov), base_camera(hfov))
    for prob in (0.0, 0.05):
        views = render_views(scene, robot, SimConfig(mask_flip_prob=prob), 12, 7)
        for k, (cam, got) in enumerate(zip(cams, views)):
            want = render_frame(scene, robot, cam, prob, derive_seed(12, 31, 7) + k)
            assert np.array_equal(got.mask, want.mask)
            assert np.array_equal(got.depth, want.depth)
            clean = render_frame(scene, robot, cam)
            assert np.array_equal(got.mask, clean.mask) == (prob == 0.0)


def _view_rays(robot, cam):
    """A view's camera position and world ray directions, as the renderer makes them."""
    parent = robot.base_pose if cam.mount == "base" else robot.ee_pose
    r_parent = euler_to_matrix(parent.orientation)
    rot = r_parent @ euler_to_matrix(cam.mount_offset.orientation)
    origin = parent.position + r_parent @ cam.mount_offset.position
    return origin, rot.astype(np.float32) @ _camera_rays(cam.hfov)[0]


def _descending_rays(robot, cam) -> int:
    return int(np.count_nonzero(_view_rays(robot, cam)[1][2] < -1e-12))


@pytest.mark.parametrize("height", [0.0, TERRAIN_MAX_HEIGHT])
def test_flat_terrain_depth_is_the_plane_depth(height):
    # the terrain test casts into the 0..TERRAIN_MAX_HEIGHT band; on a flat
    # terrain at either edge of it, every descending ray of both views sees
    # the plane at its analytic z-depth, and every other ray sees nothing
    # (the object and its platform stand behind both cameras)
    assert PLATFORM_Z_RANGE[0] - PLATFORM_THICKNESS > TERRAIN_MAX_HEIGHT
    terrain = flat_terrain(height)
    scene = make_scene(SPHERE, Pose6(np.array([-5.0, 0.0, 0.5]), np.zeros(3)), terrain=terrain)
    robot = initial_robot(terrain)
    for cam, frame in zip((wrist_camera(), base_camera()),
                          render_views(scene, robot, SimConfig(), 0, 0)):
        origin, d = _view_rays(robot, cam)
        down = d[2] < -1e-12
        depth = frame.depth.reshape(-1)
        plane = (height - origin[2]) / d[2][down].astype(np.float64)
        assert down.sum() > 1_000 and not frame.mask.any()
        assert np.all(np.abs(depth[down] - plane) <= 1e-5 * plane)
        assert np.array_equal(frame.valid.reshape(-1), down) and not depth[~down].any()


@pytest.mark.parametrize("object_id", ["tennis_ball", "cracker_box", "mustard_bottle"])
@pytest.mark.parametrize("case", ["spawn", "wrist_looks_up", "wrist_inside_object",
                                  "rotated_in_both_views"])
def test_two_view_batch_equals_one_view_renders(object_id, case, catalog_map):
    # the (wrist, base) batch gives every bit of two one-view renders: at
    # spawn; with a wrist view that has no descending ray; with every wrist
    # ray near the object (its camera inside the object) while no base ray is
    # (the object is behind the base camera); and with a rotated object that
    # rays of both views hit, so one rotation product serves both views' rays
    spec = catalog_map[object_id]
    scene = reset_episode(make_config(object_id=object_id, seed=3), catalog_map)
    robot = initial_robot(scene.terrain)
    cams = (wrist_camera(), base_camera())
    if case == "wrist_looks_up":
        robot = eye_robot([0.3, 0.1, 0.7], (0.2, -0.9, 0.3))
        assert _descending_rays(robot, cams[0]) == 0 < _descending_rays(robot, cams[1])
    elif case == "wrist_inside_object":
        center = np.array([-1.5, 0.2, 0.5])
        scene = make_scene(spec, Pose6(center, np.array([0.1, 0.2, 0.3])))
        robot = eye_robot(center - cams[0].mount_offset.position)
    elif case == "rotated_in_both_views":
        scene = make_scene(spec, Pose6(np.array([1.0, 0.0, 0.5]), np.array([0.4, -0.3, 0.7])))
    batch = render_views(scene, robot, SimConfig(), 0, 0)
    for cam, got in zip(cams, batch):
        want = render_frame(scene, robot, cam)
        for name in ("mask", "depth", "valid"):
            assert np.array_equal(getattr(got, name).view(np.uint8),
                                  getattr(want, name).view(np.uint8)), name
    if case == "wrist_inside_object":
        assert batch[0].mask.all() and not batch[1].mask.any()
    if case == "rotated_in_both_views":
        assert batch[0].mask.any() and batch[1].mask.any()


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"),
                    reason="the setting names an x86-64 BLAS kernel")
def test_two_view_batch_holds_under_blas_without_fma():
    # the batch equals one-view renders under a BLAS kernel without FMA too:
    # the comparison above, run in a child process under that kernel
    env = setting_env({"OPENBLAS_CORETYPE": "Sandybridge"}, control=True)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{__file__}::test_two_view_batch_equals_one_view_renders"],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout
    assert re.fullmatch(r"\d+ passed in .*", proc.stdout.strip().splitlines()[-1]), proc.stdout


def test_threads_render_the_serial_bytes(catalog):
    # the renderer keeps no state between calls: a 2-thread pool rendering
    # the decision-step states of three level-4 episodes (a box, a cylinder
    # and a sphere) gives the bytes of serial renders, run after run
    cfg = SimConfig()
    states = [(seen, step) for object_id in ("sugar_box", "marker_large", "tennis_ball")
              for step, seen, *_ in episode.decisions(
                  make_config(level=4, object_id=object_id, seed=0, timeout_steps=40),
                  cfg, catalog=catalog)]

    def render(state):
        (scene, robot), step = state
        return b"".join(a.tobytes() for f in render_views(scene, robot, cfg, 0, step)
                        for a in (f.mask, f.depth, f.valid))

    serial = [render(state) for state in states]
    assert len(serial) == 90
    with ThreadPoolExecutor(max_workers=2) as pool:
        for _ in range(3):
            assert list(pool.map(render, states)) == serial


def test_episode_renders_each_state_the_history_reads_once(catalog, monkeypatch):
    # the latency queue holds states; the history fetches the state of
    # LATENCY_STEPS steps ago (step 0's during the warm-up), rendered once, so
    # the last LATENCY_STEPS states are never rendered
    rendered = []

    def counted(scene, robot, sim_cfg, seed, step):
        rendered.append(step)
        return render_views(scene, robot, sim_cfg, seed, step)

    monkeypatch.setattr(episode, "render_views", counted)
    for timeout in (1, LATENCY_STEPS, LATENCY_STEPS + 1, 12):
        rendered.clear()
        log, records = episode.run_episode(
            make_config(object_id="tennis_ball", seed=0, timeout_steps=timeout),
            catalog=catalog, collect_observations=True)
        assert log.n_steps == len(records) == timeout
        assert rendered == list(range(max(1, timeout - LATENCY_STEPS)))


@pytest.mark.parametrize("level, object_id, timeout", [
    (1, "tennis_ball", 1), (1, "tennis_ball", LATENCY_STEPS + 1),
    (1, "tennis_ball", LATENCY_STEPS + 3), (1, "tennis_ball", None),
    (4, "sugar_box", None)])
def test_recorded_stacks_follow_the_index_rule(level, object_id, timeout, catalog):
    # a record's time slot t holds, bit for bit, the newest slot of record
    # max(i - (HISTORY_LEN - 1 - t), 0), for every view and channel: the warm-up
    # (timeouts 1 to LATENCY_STEPS + 3) and whole episodes alike
    kw = {} if timeout is None else {"timeout_steps": timeout}
    log, records = episode.run_episode(make_config(level, object_id, seed=0, **kw),
                                       catalog=catalog, collect_observations=True)
    assert len(records) == log.n_steps == (timeout or log.n_steps)
    slots = [stack.reshape(STACK_LAYOUT + FRAME_SHAPE) for stack, *_ in records]
    for i, stack in enumerate(slots):
        for t in range(HISTORY_LEN):
            source = slots[max(i - (HISTORY_LEN - 1 - t), 0)][:, :, -1]
            assert stack[:, :, t].tobytes() == source.tobytes(), (i, t)


# ---------------------------------------------------------------------------
# Latency buffer and stacking
# ---------------------------------------------------------------------------

def test_latency_four_step_delay():
    buf = LatencyBuffer()
    outs = [buf.push_and_fetch(i) for i in range(20)]
    assert outs[0] == 0          # first call returns its own input
    assert outs[:5] == [0, 0, 0, 0, 0]
    for t in range(5, 20):
        assert outs[t] == t - 4


def test_latency_constant_stream_steady_state():
    buf = LatencyBuffer()
    for _ in range(10):
        assert buf.push_and_fetch("same") == "same"


def test_latency_sentinel_random_positions(rng):
    for _ in range(25):
        k = int(rng.integers(5, 200))
        buf = LatencyBuffer()
        seen_at = None
        for t in range(k + 10):
            out = buf.push_and_fetch("X" if t == k else t)
            if out == "X" and seen_at is None:
                seen_at = t
        assert seen_at == k + 4


def test_history_prewarm_repeats_oldest():
    # renders a, b, c, d are told apart by their depth channel: 1, 2, 3, 4 m;
    # a stack reads the newest HISTORY_LEN of them, padded with the oldest
    def stacked(history):
        wrist = stack_observation(history)[_FRAME_PAIRS][:HISTORY_LEN]
        return [round(float(depth[0, 0]) * DEPTH_CLIP, 6) for _, depth in wrist]

    def render(depth):
        return frame_channels([_const_frame(True, depth)] * len(VIEWS))

    history = []
    with pytest.raises(NotReadyError):
        stack_observation(history)
    history.append(render(1.0))
    assert stacked(history) == [1.0, 1.0, 1.0]
    history.append(render(2.0))
    assert stacked(history) == [1.0, 1.0, 2.0]
    history.append(render(3.0))
    history.append(render(4.0))
    assert stacked(history) == [2.0, 3.0, 4.0]
    assert stacked(deque(history, maxlen=HISTORY_LEN)) == [2.0, 3.0, 4.0]


def _const_frame(mask_val, depth_val):
    mask = np.full((FRAME_H, FRAME_W), mask_val, dtype=bool)
    depth = np.full((FRAME_H, FRAME_W), depth_val, dtype=np.float32)
    valid = depth > 0
    return Frame(mask, depth, valid)


def test_stack_observation_layout_and_scaling():
    history = []
    with pytest.raises(NotReadyError):
        stack_observation(history)
    for d in (1.0, 2.5, 5.0):
        history.append(frame_channels((_const_frame(True, d),
                                       _const_frame(False, 10.0))))   # clipped to 5 m
    obs = stack_observation(history)
    assert obs.shape == (12, FRAME_H, FRAME_W)
    assert obs.dtype == np.float32
    assert np.all(obs[0] == 1.0) and np.all(obs[2] == 1.0)   # wrist masks
    assert obs[3, 0, 0] == pytest.approx(1.0 / DEPTH_CLIP)
    assert obs[4, 0, 0] == pytest.approx(2.5 / DEPTH_CLIP)   # 2.5 m -> 0.5
    assert obs[5, 0, 0] == pytest.approx(1.0)                # 5 m -> 1.0
    assert np.all(obs[6:9] == 0.0)                           # base masks empty
    assert np.all(obs[9:12] == 1.0)                          # 10 m clips to 5


def test_stack_channels_pair_up_in_nn_frame_order():
    # camera writes the stack, nn gathers it: image i of the gather must be
    # frame t = i % HISTORY_LEN of view i // HISTORY_LEN (wrist, then base),
    # its mask and depth from that one frame.  The tag is in both channels.
    def tagged(tag):
        mask = np.zeros((FRAME_H, FRAME_W), bool)
        mask[0, :tag + 1] = True
        depth = np.full((FRAME_H, FRAME_W), 0.5 * (tag + 1), np.float32)
        return Frame(mask, depth, depth > 0)

    history = [frame_channels([tagged(view * HISTORY_LEN + t) for view in range(len(VIEWS))])
               for t in range(HISTORY_LEN)]
    imgs = stack_observation(history)[_FRAME_PAIRS]
    assert imgs.shape == (len(VIEWS) * HISTORY_LEN, 2, FRAME_H, FRAME_W)
    for tag, (mask, depth) in enumerate(imgs):
        assert np.count_nonzero(mask) == tag + 1 and np.all(mask[0, :tag + 1] == 1.0)
        assert np.allclose(depth, 0.5 * (tag + 1) / DEPTH_CLIP, rtol=0, atol=1e-6)


def test_stack_invalid_depth_stays_zero():
    dead = Frame(np.zeros((FRAME_H, FRAME_W), bool),
                 np.zeros((FRAME_H, FRAME_W), np.float32),
                 np.zeros((FRAME_H, FRAME_W), bool))
    history = [frame_channels((dead, dead))] * 3
    obs = stack_observation(history)
    assert np.all(obs == 0.0)
    # the valid bit decides, not the depth: 3 m pixels whose bit is clear read
    # 0, the one valid pixel 3 / DEPTH_CLIP
    valid = np.zeros((FRAME_H, FRAME_W), bool)
    valid[0, 0] = True
    far = Frame(dead.mask, np.full((FRAME_H, FRAME_W), 3.0, np.float32), valid)
    depth = stack_observation([frame_channels((far, dead))])[_FRAME_PAIRS][0, 1]
    assert depth[0, 0] == np.float32(3.0) / np.float32(DEPTH_CLIP)
    assert np.count_nonzero(depth) == 1


def test_dump_frame_pgm(tmp_path, catalog_map):
    cfg = make_config(seed=3)
    scene = reset_episode(cfg, catalog_map)
    robot = initial_robot(scene.terrain)
    frame = render_frame(scene, robot, base_camera())
    paths = dump_frame(frame, str(tmp_path / "t"))
    for p in paths:
        data = open(p, "rb").read()
        assert data.startswith(b"P5\n96 54\n")


def test_camera_model_and_frame_reject_bad_fields():
    # both are exported, so their constructors are boundaries
    for hfov in (0.0, np.pi, -0.5, np.nan):
        with pytest.raises(InvalidArgumentError, match=r"^hfov must be in \(0, pi\), got "):
            CameraModel("base", Pose6.identity(), hfov)
    with pytest.raises(InvalidArgumentError, match="^mount must be base or wrist, got head$"):
        CameraModel("head", Pose6.identity())
    for name in ("mask", "depth", "valid"):
        arrays = {k: np.zeros((FRAME_H, FRAME_W)) for k in ("mask", "depth", "valid")}
        arrays[name] = np.zeros((FRAME_W, FRAME_H))
        with pytest.raises(InvalidArgumentError, match=f"^{name} must be {FRAME_H}x{FRAME_W}$"):
            Frame(**arrays)
