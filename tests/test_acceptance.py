"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
report.  The end-to-end thresholds in criterion 10 were fixed after the
implementer calibration run and are regression gates from then on.
"""

import os
import time
from dataclasses import replace

import numpy as np
import pytest

from graspsim.camera import (
    FRAME_H,
    FRAME_W,
    LatencyBuffer,
    base_camera,
    render_frame,
)
from graspsim.config import SimConfig
from graspsim.episode import run_episode
from graspsim.errors import SingularJacobianError
from graspsim.gfm import (
    GfmWeights,
    GraspMemoryBank,
    GraspCandidate,
    build_memory,
    generate_candidates,
    gfm_forward,
    object_feature,
    random_gfm_weights,
)
from graspsim.metrics import compute_metrics, run_benchmark, summaries_to_jsonl
from graspsim.nn import (
    PROPRIO_DIM,
    attention,
    conv2d,
    init_student_weights,
    kd_loss,
    linear,
    softmax,
    student_forward,
    transformer_encoder_layer,
)
from graspsim.rewards import (
    HighLevelRewardInput,
    LowLevelState,
    high_level_reward,
    low_level_reward,
    yaw_penalty,
)
from graspsim.robot import ik_pseudoinverse_step, initial_robot
from graspsim.scene import (
    EpisodeConfig,
    EpisodeStatus,
    LEVEL_SPEED_RANGES,
    check_status,
    derive_seed,
    make_trajectory,
    reset_episode,
    step_scene,
)
from graspsim.se3 import Pose6, compose, grasp_to_world, vec6_encode

from test_nn import (
    naive_attention,
    naive_conv2d,
    naive_encoder_layer,
    naive_linear,
    random_layer_weights,
)
from test_metrics import counting_oracle, summary
from test_perception import (
    SPHERE,
    centered_wrist_cam,
    eye_robot,
    make_scene,
    project_point,
)

WORKERS = min(8, (os.cpu_count() or 2) * 4)


def report(name, detail=""):
    print(f"\nPASS: {name}" + (f" — {detail}" if detail else ""))


# ---------------------------------------------------------------------------
# 1. Protocol-constant conformance
# ---------------------------------------------------------------------------

def test_criterion_1_protocol_constants(catalog_map):
    t0 = time.perf_counter()
    steps_per_level = 10_000
    dt = SimConfig().physics_dt
    for level in (1, 2, 3, 4):
        lo, hi = LEVEL_SPEED_RANGES[level]
        cfg = EpisodeConfig(level=level, object_id="tennis_ball", seed=level)
        traj = make_trajectory(level, derive_seed(level, 11))
        state = reset_episode(cfg, catalog_map, traj)
        for _ in range(steps_per_level):
            state = step_scene(state, traj, dt)
            speed = float(np.hypot(*state.platform_twist.linear[:2]))
            assert lo - 1e-12 <= speed <= hi + 1e-12, (level, speed)
            if level == 4:
                z = state.platform_pose.position[2]
                assert 0.2 - 1e-12 <= z <= 0.7 + 1e-12

    heights = []
    for seed in range(1_000):
        cfg = EpisodeConfig(level=1, object_id="tennis_ball", seed=seed)
        state = reset_episode(cfg, catalog_map)
        heights.append(state.platform_pose.position[2])
        assert state.terrain.heights.min() >= 0.0
        assert state.terrain.heights.max() <= 0.1
    heights = np.array(heights)
    assert np.all(heights >= 0.2) and np.all(heights <= 0.7)

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report("criterion 1 (protocol constants)",
           f"4x{steps_per_level} steps + 1000 resets in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. Metrics oracle
# ---------------------------------------------------------------------------

def test_criterion_2_metrics_oracle():
    rng = np.random.Generator(np.random.PCG64(202))
    outcomes = ["success", "failed_timeout", "failed_dropped", "failed_yaw"]
    for _ in range(50):
        logs = []
        for i in range(int(rng.integers(1, 60))):
            logs.append(summary(
                outcome=outcomes[int(rng.integers(len(outcomes)))],
                success_step=int(rng.integers(1, 300)),
                first=bool(rng.integers(2)),
                attempts=int(rng.integers(1, 5)),
                seed=i,
            ))
        row = compute_metrics(logs).row(1)
        gsr, ossr, ossr_alt, tsc = counting_oracle(logs)
        assert abs(row.gsr - gsr) <= 1e-12
        assert abs(row.ossr - ossr) <= 1e-12
        assert abs(row.ossr_alt - ossr_alt) <= 1e-12
        if tsc is None:
            assert row.tsc is None
        else:
            assert abs(row.tsc - tsc) <= 1e-12
        assert 0.0 <= row.ossr <= row.gsr <= 100.0
    report("criterion 2 (metrics oracle)", "50 synthetic log sets exact")


# ---------------------------------------------------------------------------
# 3. GFM invariants
# ---------------------------------------------------------------------------

def test_criterion_3_gfm_invariants(catalog_map):
    rng = np.random.Generator(np.random.PCG64(303))
    specs = list(catalog_map.values())
    checked = 0
    while checked < 1000:
        spec = specs[int(rng.integers(len(specs)))]
        cands = generate_candidates(spec, 40, int(rng.integers(2**31)))
        if not cands:
            continue
        k = int(rng.integers(1, min(len(cands), 8) + 1))
        bank = build_memory(cands, k, object_id=spec.id)
        w = random_gfm_weights(int(rng.integers(2**31)))
        obj = Pose6(rng.uniform(-2, 2, 3), rng.uniform(-0.4, 0.4, 3))
        feat = object_feature(spec)
        fused, alphas = gfm_forward(feat, obj, bank, w)

        assert abs(float(alphas.sum()) - 1.0) < 1e-6
        assert np.all(np.isfinite(vec6_encode(fused)))

        g6 = np.stack([vec6_encode(grasp_to_world(c.pose, obj))
                       for c in bank.candidates])
        vals = g6 @ w.wv + w.bv
        mix = vals[0] + alphas @ (vals - vals[0])
        assert np.all(mix >= vals.min(axis=0) - 1e-9)
        assert np.all(mix <= vals.max(axis=0) + 1e-9)

        if len(bank) == 1:
            assert np.array_equal(alphas, np.array([1.0]))

        # logit-shift invariance of the argmax
        q = np.concatenate([feat, vec6_encode(obj)]) @ w.wq + w.bq
        w_shift = GfmWeights(w.wq, w.bq, w.wk,
                             w.bk + 3.7 * q / float(q @ q),
                             w.wv, w.bv, w.wout, w.bout)
        _, alphas_shift = gfm_forward(feat, obj, bank, w_shift)
        assert int(np.argmax(alphas)) == int(np.argmax(alphas_shift))
        checked += 1

    # identical-candidate degeneracy, exact
    base = generate_candidates(specs[0], 5, seed=1)[0]
    dup = tuple(GraspCandidate(base.pose, base.score) for _ in range(30))
    w = random_gfm_weights(9)
    obj = Pose6(np.array([1.0, 0.2, 0.5]), np.zeros(3))
    feat = object_feature(specs[0])
    many, _ = gfm_forward(feat, obj, GraspMemoryBank(specs[0].id, dup, 30), w)
    one, alphas_one = gfm_forward(feat, obj,
                                  GraspMemoryBank(specs[0].id, dup[:1], 1), w)
    assert np.array_equal(vec6_encode(many), vec6_encode(one))
    assert np.array_equal(alphas_one, np.array([1.0]))
    report("criterion 3 (GFM invariants)", "1000 random triples")


# ---------------------------------------------------------------------------
# 4. NN oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_4_nn_oracles():
    rng = np.random.Generator(np.random.PCG64(404))
    cases = 0
    for _ in range(50):
        x = rng.standard_normal((int(rng.integers(1, 6)),
                                 int(rng.integers(2, 9)))).astype(np.float32)
        w = rng.standard_normal((x.shape[1], int(rng.integers(1, 7)))).astype(np.float32)
        b = rng.standard_normal(w.shape[1]).astype(np.float32)
        assert np.max(np.abs(linear(x, w, b) - naive_linear(x, w, b))) < 1e-5
        cases += 1
    for _ in range(50):
        c = int(rng.integers(1, 4))
        x = rng.standard_normal((c, int(rng.integers(5, 10)),
                                 int(rng.integers(5, 10)))).astype(np.float32)
        k = rng.standard_normal((int(rng.integers(1, 4)), c, 3, 3)).astype(np.float32)
        fast = conv2d(x, k)
        assert np.max(np.abs(fast - naive_conv2d(x, k))) < 1e-5
        cases += 1
    for _ in range(50):
        d = int(rng.integers(2, 8))
        q = rng.standard_normal((1, d)).astype(np.float32)
        k = rng.standard_normal((int(rng.integers(1, 9)), d)).astype(np.float32)
        v = rng.standard_normal((k.shape[0], int(rng.integers(1, 5)))).astype(np.float32)
        assert np.max(np.abs(attention(q, k, v)[0] - naive_attention(q, k, v))) < 1e-5
        sm = softmax(rng.standard_normal((3, 7)).astype(np.float32) * 8, axis=-1)
        assert np.max(np.abs(sm.sum(axis=-1) - 1.0)) < 1e-6
        cases += 1
    for _ in range(50):
        w = random_layer_weights(rng)
        tokens = rng.standard_normal((int(rng.integers(2, 6)), 64)).astype(np.float32)
        out = transformer_encoder_layer(tokens, w)
        assert np.max(np.abs(out - naive_encoder_layer(tokens, w))) < 1e-5
        cases += 1
    assert cases == 200

    assert kd_loss(np.zeros((3, 8)), np.zeros((3, 8))) == 0.0
    e = np.zeros((1, 8)); e2 = e.copy(); e2[0, 3] = 1.0
    assert kd_loss(e, e2) == 1.0
    s = np.zeros((2, 8)); t = np.zeros((2, 8)); t[0, 0] = 1.0; t[1, 1] = 2.0
    assert kd_loss(s, t) == 2.5

    wstore = init_student_weights(44)
    frames = rng.random((12, 54, 96)).astype(np.float32)
    proprio = rng.random(PROPRIO_DIM).astype(np.float32)
    out1 = student_forward(frames, proprio, wstore)
    out2 = student_forward(frames, proprio, wstore)
    assert out1.shape == (8,) and np.array_equal(out1, out2)
    report("criterion 4 (NN oracles)", "200 random cases + kd + student")


# ---------------------------------------------------------------------------
# 5. Latency
# ---------------------------------------------------------------------------

def test_criterion_5_latency():
    rng = np.random.Generator(np.random.PCG64(505))
    for _ in range(100):
        k = int(rng.integers(5, 500))
        buf = LatencyBuffer()
        first_seen = None
        for t in range(k + 8):
            out = buf.push_and_fetch(("sentinel", t) if t == k else t)
            if isinstance(out, tuple) and first_seen is None:
                first_seen = t
        assert first_seen == k + 4
    report("criterion 5 (4-frame latency)", "100 random injection steps")


# ---------------------------------------------------------------------------
# 6. Determinism (serial and parallel)
# ---------------------------------------------------------------------------

def test_criterion_6_benchmark_determinism():
    kwargs = dict(levels=[1, 4], episodes_per_level=50, seed=7)
    _, csv_a, sums_a = run_benchmark(**kwargs)
    _, csv_b, sums_b = run_benchmark(**kwargs)
    _, csv_p, sums_p = run_benchmark(**kwargs, workers=WORKERS)
    assert csv_a.encode() == csv_b.encode() == csv_p.encode()
    jl_a, jl_b, jl_p = map(summaries_to_jsonl, (sums_a, sums_b, sums_p))
    assert jl_a.encode() == jl_b.encode() == jl_p.encode()
    report("criterion 6 (determinism)",
           "seed 7, levels 1+4, 50 episodes: serial x2 + pool byte-identical")


# ---------------------------------------------------------------------------
# 7. Renderer correctness and throughput
# ---------------------------------------------------------------------------

def test_criterion_7_renderer():
    rng = np.random.Generator(np.random.PCG64(707))
    cam = centered_wrist_cam()
    tan_h = np.tan(cam.hfov / 2.0)
    tan_v = tan_h * FRAME_H / FRAME_W
    for _ in range(100):
        pos = np.array([rng.uniform(0.8, 2.5), rng.uniform(-0.35, 0.35),
                        rng.uniform(0.35, 0.9)])
        scene = make_scene(SPHERE, Pose6(pos, np.zeros(3)))
        robot = eye_robot([0.0, 0.0, 0.6])
        frame = render_frame(scene, robot, cam)
        rows, cols = np.nonzero(frame.mask)
        assert rows.size > 0
        r_pred, c_pred = project_point(cam, compose(robot.ee_pose, cam.mount_offset), pos)
        assert abs(rows.mean() - r_pred) <= 2.0
        assert abs(cols.mean() - c_pred) <= 2.0
        # analytic z-depth of the nearest-to-center mask pixel's ray
        i = int(np.argmin((rows - r_pred) ** 2 + (cols - c_pred) ** 2))
        row, col = int(rows[i]), int(cols[i])
        yc = -tan_h * ((col + 0.5 - FRAME_W / 2) / (FRAME_W / 2))
        zc = -tan_v * ((row + 0.5 - FRAME_H / 2) / (FRAME_H / 2))
        d = np.array([1.0, yc, zc])
        o = np.array([0.0, 0.0, 0.6])
        oc = o - pos
        a = d @ d
        b = 2 * (d @ oc)
        c0 = oc @ oc - SPHERE.dims[0] ** 2
        disc = b * b - 4 * a * c0
        assert disc >= 0
        t_exact = (-b - np.sqrt(disc)) / (2 * a)
        assert frame.depth[row, col] == pytest.approx(t_exact, abs=1e-3)

    # throughput: median of three timed bursts
    scene = make_scene(SPHERE, Pose6(np.array([1.5, 0.0, 0.6]), np.zeros(3)))
    robot = eye_robot([0.0, 0.0, 0.6])
    cam_b = base_camera()
    render_frame(scene, robot, cam_b)
    rates = []
    for _ in range(3):
        n = 600
        t0 = time.perf_counter()
        for _ in range(n):
            render_frame(scene, robot, cam_b)
        rates.append(n / (time.perf_counter() - t0))
    fps = sorted(rates)[1]
    assert fps >= 2000.0, f"renderer too slow: {fps:.0f} fps"
    report("criterion 7 (renderer)",
           f"100 placements within 2px/1e-3m; {fps:.0f} frames/s")


# ---------------------------------------------------------------------------
# 8. Reward-formula fidelity
# ---------------------------------------------------------------------------

def test_criterion_8_reward_fidelity(catalog_map):
    # high-level table, every row against hand-evaluated values
    q_dot_prev = np.linspace(-1.0, 1.0, 12)
    q_dot = np.linspace(0.5, -0.5, 12)
    a_prev = np.linspace(-0.4, 0.4, 8)
    a = np.linspace(0.2, -0.2, 8)
    d_obj = np.array([1.0, 0.0, 0.0])
    d_ee = np.array([np.cos(0.3), np.sin(0.3), 0.0])
    d_base = np.array([np.cos(-0.5), np.sin(-0.5), 0.0])
    inp = HighLevelRewardInput(
        phase="approaching", dist_ee_obj=0.8, lift_height=0.0, completed=False,
        q_dot_prev=q_dot_prev, q_dot=q_dot, a_prev=a_prev, a=a, v_x_star=0.4,
        d_obj=d_obj, d_ee=d_ee, d_base=d_base, x_obj=0.9, x_base=0.0,
        h_current=0.5, h_target=0.55, psi_c=1.3, psi_0=0.0,
    )
    bd = high_level_reward(inp)
    expected = {
        "approach": (np.exp(-0.8), 0.5),
        "lift": (0.0, 0.8),
        "completion": (0.0, 3.5),
        "acc": (1 - np.exp(-np.linalg.norm(q_dot_prev - q_dot)), -0.001),
        "cmd": (-0.4 + 0.25 * np.exp(-0.4), 0.05),
        "action": (1 - np.exp(-np.linalg.norm(a_prev - a)), -0.001),
        "ee_orn": (np.cos(0.3), 0.01),
        "base_orn": (np.cos(-0.5), 0.25),
        "base_approach": (1 + np.tanh(-10.0 * abs(0.9 - 0.0 - 0.6)), 0.01),
        "base_h": (np.exp(-abs(0.5 - 0.55)), 0.5),
        "yaw": (-np.tanh(1.3), -0.4),
    }
    for name, (raw, weight) in expected.items():
        assert bd.raw(name) == pytest.approx(raw, abs=1e-9), name
        assert bd.terms[name][1] == weight, name
    manual = sum(r * w for (r, w, _) in bd.terms.values())
    assert abs(bd.total - manual) <= 1e-12

    # staged rows activate alone
    grasped = high_level_reward(replace(inp, phase="grasped", lift_height=0.06))
    assert grasped.raw("lift") == pytest.approx(0.5 + 0.5 * 0.06 / 0.15, abs=1e-9)
    assert grasped.raw("approach") == 0.0
    done = high_level_reward(replace(inp, phase="lifted", completed=True))
    assert done.raw("completion") == 1.0 and done.raw("lift") == 0.0

    # yaw boundary behavior
    assert yaw_penalty(np.pi / 3, 0.0) == 0.0
    assert yaw_penalty(np.pi / 3 + 1e-9, 0.0) < 0.0
    assert yaw_penalty(np.pi, 0.0) == pytest.approx(-np.tanh(np.pi), abs=1e-9)

    # >70 degrees terminates the episode
    cfg = EpisodeConfig(level=1, object_id="tennis_ball", seed=0)
    scene = reset_episode(cfg, catalog_map)
    robot = initial_robot(scene.terrain)
    bad = replace(robot, base_pose=Pose6(robot.base_pose.position,
                                         np.array([0, 0, np.deg2rad(70.5)])))
    assert check_status(scene, bad, EpisodeStatus(), cfg, 0).phase == "failed_yaw"

    # low-level table, every row against hand-evaluated values
    s = LowLevelState(
        q=np.linspace(-0.3, 0.3, 12), q_dot=np.linspace(0.2, -0.2, 12),
        q_ddot=np.zeros(12), q_star=np.linspace(-0.1, 0.1, 12),
        tau=np.linspace(-2.0, 2.0, 12), v_b=np.array([0.25, -0.05, 0.1]),
        omega_b=np.array([0.05, -0.1, 0.2]), v_x_star=0.4, v_yaw_star=0.1,
        n_collision=2, f_foot=np.array([12.0, 0.0, 8.0, 3.0]),
        v_z_foot=np.array([0.05, -0.1, 0.0, 0.02]),
        t_air=np.array([0.3, 0.6, 0.5, 0.45]), h_b=0.5, h_b_target=0.55,
        q_default=np.full(12, 0.1), contact_cmd=np.array([1.0, 0.0, 0.7, 0.3]),
    )
    sigma, scf, scv = 0.25, 100.0, 0.05
    lbd = low_level_reward(s)
    verr = np.array([0.4 - 0.25, 0.05])
    low_expected = {
        "lin_vel_tracking": (np.exp(-float(verr @ verr) / sigma), 1.0),
        "yaw_vel_tracking": (np.exp(-(0.1 - 0.2) ** 2 / sigma), 0.5),
        "ang_vel_penalty": (-(0.05**2 + 0.1**2), 0.05),
        "joint_torques": (-float(np.sum(s.tau**2)), 0.00002),
        "action_rate": (-float(np.sum(s.q_star**2)), 0.25),
        "collisions": (-2.0, 0.001),
        "feet_air_time": (float(np.sum(s.t_air - 0.5)), 2.0),
        "default_joint_pos": (
            float(np.exp(-0.05 * np.linalg.norm(s.q - s.q_default))), 1.0),
        "lin_vel_z": (0.1**2, -1.5),
        "base_height": (abs(0.5 - 0.55), -5.0),
        "swing_phase_force": (
            float(np.sum((1 - s.contact_cmd)
                         * (1 - np.exp(-s.f_foot**2 / scf)))), -0.2),
        "stance_phase_velocity": (
            float(np.sum(s.contact_cmd
                         * (1 - np.exp(-s.v_z_foot**2 / scv)))), -0.2),
    }
    for name, (raw, weight) in low_expected.items():
        assert lbd.raw(name) == pytest.approx(raw, abs=1e-9), name
        assert lbd.terms[name][1] == weight, name
    manual = sum(r * w for (r, w, _) in lbd.terms.values())
    assert abs(lbd.total - manual) <= 1e-12
    report("criterion 8 (reward fidelity)", "both tables hand-checked")


# ---------------------------------------------------------------------------
# 9. IK pseudoinverse
# ---------------------------------------------------------------------------

def test_criterion_9_ik():
    rng = np.random.Generator(np.random.PCG64(909))
    for _ in range(100):
        m = int(rng.integers(2, 5))
        n = m + int(rng.integers(1, 5))
        j = rng.standard_normal((m, n))
        e = rng.standard_normal(m)
        dq = ik_pseudoinverse_step(j, e)
        assert np.linalg.norm(j @ dq - e) <= 1e-8
        for _ in range(5):
            z = rng.standard_normal(n)
            z -= j.T @ np.linalg.solve(j @ j.T, j @ z)
            assert np.linalg.norm(dq) <= np.linalg.norm(dq + z) + 1e-9
    with pytest.raises(SingularJacobianError):
        ik_pseudoinverse_step(np.array([[1.0, 0.0], [2.0, 0.0]]),
                              np.array([1.0, 1.0]))
    report("criterion 9 (IK)", "100 systems, residual + minimum norm")


# ---------------------------------------------------------------------------
# 10. End-to-end benchmark behavior (calibrated, frozen)
# ---------------------------------------------------------------------------

def test_criterion_10_end_to_end():
    t0 = time.perf_counter()
    report_full, _, _ = run_benchmark([1, 4], episodes_per_level=200, seed=0,
                                      workers=WORKERS)
    l1 = report_full.row(1)
    l4 = report_full.row(4)
    report_ablate, _, _ = run_benchmark([1], episodes_per_level=200, seed=0,
                                        workers=WORKERS, use_gfm=False)
    l1_ablated = report_ablate.row(1)
    elapsed = time.perf_counter() - t0

    assert l1.gsr >= 80.0, f"L1 GSR {l1.gsr:.1f}% below the frozen 80% gate"
    assert l4.gsr >= 50.0, f"L4 GSR {l4.gsr:.1f}% below the frozen 50% gate"
    assert l1.gsr >= l4.gsr, "difficulty ordering inverted"
    assert l1_ablated.gsr < l1.gsr, "GFM ablation did not lower L1 GSR"
    report(
        "criterion 10 (end-to-end)",
        f"L1 {l1.gsr:.1f}% / L4 {l4.gsr:.1f}% (TSC {l1.tsc:.1f}/{l4.tsc:.1f}), "
        f"ablation {l1_ablated.gsr:.1f}%, {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 11. Distillation dataset round trip
# ---------------------------------------------------------------------------

def test_criterion_11_distillation(tmp_path):
    from graspsim.distill import HEADER_SIZE, RECORD_SIZE, read_dataset, \
        record_distillation

    cfg = EpisodeConfig(level=1, object_id="tomato_soup_can", seed=3)
    log, obs = run_episode(cfg, collect_observations=True)
    path = tmp_path / "distill.bin"
    n = record_distillation(log, obs, path)
    assert n == log.n_steps
    assert path.stat().st_size == HEADER_SIZE + n * RECORD_SIZE
    records = read_dataset(path)
    assert len(records) == n
    for rec, (stacked, proprio, action, grip, step) in zip(records, obs):
        assert np.array_equal(rec.observation, np.asarray(stacked, np.float32))
        assert np.array_equal(rec.proprio, np.asarray(proprio, np.float32))
        assert np.array_equal(rec.action, np.asarray(action, np.float32))
        assert rec.step == step and rec.gripper == grip
    labels = np.stack([r.action for r in records])
    assert kd_loss(labels, labels) == 0.0
    report("criterion 11 (distillation round trip)",
           f"{n} records bit-exact, kd_loss 0")
