import itertools

import numpy as np
import pytest

from graspsim.errors import InvalidArgumentError, SingularJacobianError
from graspsim.rewards import LowLevelState
from graspsim.robot import (
    DEFAULT_JOINTS,
    MAX_DP,
    MAX_DR,
    MAX_OMEGA,
    MAX_V_LIN,
    CommandVector,
    EE_TAU,
    HighLevelAction,
    WORKSPACE_CENTER,
    WORKSPACE_RADIUS,
    _lag_angle,
    _robot_floats,
    _robot_substep,
    accumulate_command,
    clamp_to_workspace,
    execute_command,
    gait_joint_proxy,
    gait_observables,
    ik_pseudoinverse_step,
    initial_robot,
)
from graspsim.scene import sample_terrain
from graspsim.se3 import Pose6, _rot9, wrap_angle

from conftest import assert_valid_pose, flat_terrain

GROUND = flat_terrain()


def test_action_clamps_on_construction():
    a = HighLevelAction(np.array([1.0, 0, 0]), np.array([0.5, -0.5, 3.0]),
                        v_lin=2.0, omega_yaw=-4.0)
    assert np.linalg.norm(a.dp) == pytest.approx(0.05)
    assert np.all(np.abs(a.dr) <= 0.2)
    assert a.v_lin == pytest.approx(0.8)
    assert a.omega_yaw == pytest.approx(-1.0)


def _bits(x):
    return np.asarray(x, dtype=float).view(np.uint64).tolist()


def _action_oracle(dp, dr, v_lin, omega_yaw):
    """HighLevelAction's clamps in numpy: np.linalg.norm and an in-place
    scale for dp, np.clip for the rest."""
    dp = np.array(dp, dtype=float)
    n = float(np.linalg.norm(dp))
    if n > MAX_DP:
        dp *= MAX_DP / n
    return (dp, np.clip(np.asarray(dr, dtype=float), -MAX_DR, MAX_DR),
            np.clip(v_lin, -MAX_V_LIN, MAX_V_LIN), np.clip(omega_yaw, -MAX_OMEGA, MAX_OMEGA))


def test_action_clamp_bits_match_numpy_oracle(rng):
    # the clamps run on floats: the bits of np.clip and of the norm's scale,
    # at the bounds, just past them, at -0.0 and at subnormals
    edges = [0.0, -0.0, 5e-324, MAX_DR, -MAX_DR, np.nextafter(MAX_DR, 1.0),
             np.nextafter(-MAX_DR, -1.0), 1.0, -3.0]
    cases = [(v[:3], v[3:6], v[6], v[7])
             for scale in (0.01, 0.1, 0.3, 3.0) for v in rng.uniform(-scale, scale, (500, 8))]
    cases += [(np.array(d) / 4.0, d, d[0] * 4.0, d[1] * 5.0)
              for d in itertools.product(edges, repeat=3)]
    cases += [((MAX_DP, 0.0, -0.0), (0.0,) * 3, MAX_V_LIN, -MAX_OMEGA),
              ((-0.0,) * 3, (-0.0,) * 3, -0.0, -0.0),
              ((0.03, 0.04, 0.0), (0.2, -0.2, 0.2), np.nextafter(MAX_V_LIN, 2.0), 1.0)]
    for dp, dr, v_lin, omega_yaw in cases:
        a = HighLevelAction(dp, dr, v_lin, omega_yaw)
        want = _action_oracle(dp, dr, v_lin, omega_yaw)
        assert [_bits(x) for x in (a.dp, a.dr, a.v_lin, a.omega_yaw)] == \
            [_bits(x) for x in want]
        assert not (a.dp.flags.writeable or a.dr.flags.writeable)


def test_substep_yaw_frame_bits_match_rot9(rng):
    # a substep hands its base rotation to the next, built as the pure-yaw
    # closed form: _rot9's bits with a roll and pitch of 0.0 or -0.0
    yaws = [0.0, 5e-324, -5e-324, 1e-300, -1e-300, np.pi, np.nextafter(np.pi, 0.0),
            np.nextafter(-np.pi, 0.0), np.pi / 2, -np.pi / 2]
    yaws += rng.uniform(-np.pi, np.pi, 2000).tolist()
    rf = list(_robot_floats(initial_robot(GROUND)))
    for yaw in yaws:
        rf[1] = (0.0, 0.0, yaw)
        rf[6] = _rot9(rf[1])
        for omega in (0.0, 0.7):
            out = _robot_substep(tuple(rf), (0.3, omega, [0.4, 0.0, 0.2], [0.0, 0.0, 0.0]),
                                 GROUND, 0.02)
            for roll, pitch in itertools.product((0.0, -0.0), repeat=2):
                assert _bits(out[6]) == _bits(_rot9((roll, pitch, out[1][2]))), yaw


def test_action_rejects_non_3_vectors():
    for dp, dr in ((np.zeros(2), np.zeros(3)), (np.zeros(3), np.zeros(4)),
                   (np.zeros((1, 3)), np.zeros(3)), (0.0, np.zeros(3))):
        with pytest.raises(InvalidArgumentError, match="^dp and dr must be 3-vectors$"):
            HighLevelAction(dp, dr, 0.0, 0.0)


def test_action_rejects_non_finite():
    with pytest.raises(InvalidArgumentError):
        HighLevelAction(np.array([np.nan, 0, 0]), np.zeros(3), 0.0, 0.0)
    # the command and dt are the boundary of execute_command, whose poses and
    # twists are built without re-validation
    robot = initial_robot(GROUND)
    u = accumulate_command(robot, HighLevelAction.zero())
    for bad in (np.nan, np.inf):
        with pytest.raises(InvalidArgumentError):
            CommandVector(Pose6.identity(), bad, 0.0)
        with pytest.raises(InvalidArgumentError):
            CommandVector(Pose6.identity(), 0.0, bad)
        with pytest.raises(InvalidArgumentError):
            CommandVector(Pose6(np.array([0.0, bad, 0.0]), np.zeros(3)), 0.0, 0.0)
        with pytest.raises(InvalidArgumentError):
            CommandVector(Pose6(np.zeros(3), np.array([0.0, 0.0, bad])), 0.0, 0.0)
        with pytest.raises(InvalidArgumentError):
            execute_command(robot, u, GROUND, bad)
    with pytest.raises(InvalidArgumentError):
        CommandVector(Pose6(np.zeros(2), np.zeros(3)), 0.0, 0.0)
    # the target is a checked Pose6, not the arrays of one
    with pytest.raises(InvalidArgumentError, match="must be a Pose6"):
        CommandVector((np.zeros(3), np.zeros(3)), 0.0, 0.0)


def test_accumulate_zero_action_keeps_target():
    robot = initial_robot(GROUND)
    u = accumulate_command(robot, HighLevelAction.zero())
    assert np.allclose(u.target.position, robot.ee_target.position)
    assert np.allclose(u.target.orientation, robot.ee_target.orientation)
    assert u.v_lin == 0.0 and u.omega_yaw == 0.0


def test_accumulate_projects_to_workspace_ball():
    robot = initial_robot(GROUND)
    # drive the target far out along +x with many max increments
    for _ in range(40):
        a = HighLevelAction(np.array([0.05, 0, 0]), np.zeros(3), 0.0, 0.0)
        u = accumulate_command(robot, a)
        robot = execute_command(robot, u, GROUND, 0.02)
        off = robot.ee_target.position - WORKSPACE_CENTER
        assert np.linalg.norm(off) <= WORKSPACE_RADIUS + 1e-12
    # analytic projection oracle for a point pushed outside
    raw = robot.ee_target.position + np.array([0.05, 0, 0])
    off = raw - WORKSPACE_CENTER
    expected = WORKSPACE_CENTER + off * (WORKSPACE_RADIUS / np.linalg.norm(off))
    got = clamp_to_workspace(raw)
    assert np.allclose(got, expected, atol=1e-12)


def test_accumulate_wraps_orientation():
    robot = initial_robot(GROUND)
    # +0.2 rad per step, 3*pi total, lands wrapped into (-pi, pi]; the base
    # turns past pi too
    for _ in range(24):
        a = HighLevelAction(np.zeros(3), np.array([0, 0, 0.2]), 0.3, 1.0)
        u = accumulate_command(robot, a)
        # the unchecked target has the checked Pose6's bits
        want = Pose6(clamp_to_workspace(robot.ee_target.position + a.dp),
                     robot.ee_target.orientation + a.dr)
        assert u.target.position.tobytes() == want.position.tobytes()
        assert u.target.orientation.tobytes() == want.orientation.tobytes()
        robot = execute_command(robot, u, GROUND, 0.2)
        for pose in (robot.base_pose, robot.ee_pose, robot.ee_target):
            assert_valid_pose(pose)
    assert -np.pi < robot.ee_target.orientation[2] <= np.pi


def test_unicycle_straight_line():
    robot = initial_robot(GROUND)
    u = CommandVector(robot.ee_target, v_lin=0.5, omega_yaw=0.0)
    for _ in range(50):
        robot = execute_command(robot, u, GROUND, 0.02)
    assert robot.base_pose.position[0] == pytest.approx(0.5, abs=1e-9)
    assert robot.base_pose.position[1] == pytest.approx(0.0, abs=1e-12)


def test_unicycle_pure_rotation():
    robot = initial_robot(GROUND)
    u = CommandVector(robot.ee_target, v_lin=0.0, omega_yaw=np.pi / 2)
    for _ in range(50):
        robot = execute_command(robot, u, GROUND, 0.02)
    assert robot.base_pose.orientation[2] == pytest.approx(np.pi / 2, abs=1e-9)
    assert np.allclose(robot.base_pose.position[:2], 0.0, atol=1e-12)


def test_unicycle_arc_matches_closed_form():
    robot = initial_robot(GROUND)
    v, w, T = 0.6, 0.8, 1.5
    u = CommandVector(robot.ee_target, v_lin=v, omega_yaw=w)
    steps = 75
    for _ in range(steps):
        robot = execute_command(robot, u, GROUND, T / steps)
    # analytic circle solution from yaw 0 at the origin
    x = (v / w) * np.sin(w * T)
    y = (v / w) * (1 - np.cos(w * T))
    assert robot.base_pose.position[0] == pytest.approx(x, abs=1e-9)
    assert robot.base_pose.position[1] == pytest.approx(y, abs=1e-9)


def test_ee_converges_to_reachable_target():
    robot = initial_robot(GROUND)
    target = np.array([0.5, 0.1, 0.4])       # base frame
    orn = np.array([0.0, 0.3, -0.2])
    u = CommandVector(Pose6(target, orn), 0.0, 0.0)
    for _ in range(100):  # 2 seconds
        robot = execute_command(robot, u, GROUND, 0.02)
    world_target = robot.base_pose.position + target  # base sits at yaw 0
    assert np.linalg.norm(robot.ee_pose.position - world_target) < 1e-3
    assert np.allclose(robot.ee_pose.orientation, orn, atol=1e-2)


def test_lag_angle_bits_match_array_form(rng):
    # _lag_angle runs on Python floats; its bits equal the array form's:
    # wrap the difference, then wrap current + alpha * err.
    def reference(current, target, alpha):
        err = wrap_angle(np.asarray(target) - np.asarray(current))
        return wrap_angle(np.asarray(current) + alpha * err)

    pi, nxt = np.pi, np.nextafter(np.pi, 0.0)
    ties = [0.0, -0.0, pi, -pi, nxt, -nxt, pi / 2, -pi / 2]
    pairs = [(np.array([c, t, c]), np.array([t, c, -t]))
             for c, t in itertools.product(ties, ties)]
    pairs += [(rng.uniform(-pi, pi, 3), rng.uniform(-pi, pi, 3)) for _ in range(5000)]
    alphas = [1.0 - np.exp(-dt / EE_TAU) for dt in (0.02, 0.01, 0.1)]
    alphas += list(rng.uniform(0.0, 1.0, 2)) + [0.0, 1.0]
    for k, (current, target) in enumerate(pairs):
        alpha = alphas[k % len(alphas)]
        got = np.array(_lag_angle(current, target, float(alpha)))
        want = reference(current, target, alpha)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_step_rate_consistency():
    # same constant command: two 0.01 s steps equal one 0.02 s step
    u = CommandVector(Pose6(np.array([0.4, 0.0, 0.3]), np.zeros(3)), 0.5, 0.7)
    a = initial_robot(GROUND)
    a = execute_command(a, u, GROUND, 0.02)
    b = initial_robot(GROUND)
    b = execute_command(execute_command(b, u, GROUND, 0.01), u, GROUND, 0.01)
    assert np.allclose(a.base_pose.position, b.base_pose.position, atol=1e-6)
    assert np.allclose(a.base_pose.orientation, b.base_pose.orientation,
                       atol=1e-6)
    assert np.allclose(a.ee_pose.position, b.ee_pose.position, atol=1e-6)


def test_base_height_tracks_terrain():
    terrain = sample_terrain(5)
    robot = initial_robot(terrain)
    u = CommandVector(robot.ee_target, v_lin=0.5, omega_yaw=0.0)
    for _ in range(300):
        robot = execute_command(robot, u, terrain, 0.02)
    x, y = robot.base_pose.position[:2]
    expected = terrain.height_at(x, y) + 0.55
    assert robot.base_pose.position[2] == pytest.approx(expected, abs=0.02)


def test_gait_observables_is_the_locomotion_input():
    # after each decision step of dt: the joint rates are finite differences
    # of the q and q_dot handed on from the step before, as run_episode hands
    # them on, and h_b is the base's height over the terrain under it
    terrain = sample_terrain(5)
    robot = initial_robot(terrain)
    u = CommandVector(robot.ee_target, v_lin=0.5, omega_yaw=0.3)
    dt = 0.1
    q_prev, q_dot_prev = DEFAULT_JOINTS, np.zeros(12)
    for i in range(2):
        for _ in range(5):
            robot = execute_command(robot, u, terrain, dt / 5)
        low = gait_observables(robot, q_prev, q_dot_prev, dt, u, terrain)
        assert isinstance(low, LowLevelState)
        assert low.q.tobytes() == gait_joint_proxy(robot.travel).tobytes()
        assert low.q_dot.tobytes() == ((low.q - q_prev) / dt).tobytes()
        assert low.q_ddot.tobytes() == ((low.q_dot - q_dot_prev) / dt).tobytes()
        assert np.array_equal(low.q_ddot, low.q_dot / dt) == (i == 0)   # q_dot_prev 0, then not
        x, y, z = robot.base_pose.position
        assert low.h_b == z - terrain.height_at(x, y) != z
        assert np.array_equal(low.v_b, robot.base_twist.linear)
        assert (low.v_x_star, low.v_yaw_star) == (u.v_lin, u.omega_yaw)
        q_prev, q_dot_prev = low.q, low.q_dot


def test_ik_identity_and_orthonormal_rows(rng):
    assert np.allclose(ik_pseudoinverse_step(np.eye(3), np.array([1.0, 2, 3])),
                       [1, 2, 3])
    # orthonormal rows: pseudoinverse reduces to the transpose
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    j = q[:, :3].T
    e = rng.standard_normal(3)
    assert np.allclose(ik_pseudoinverse_step(j, e), j.T @ e, atol=1e-12)


def test_ik_residual_and_minimum_norm(rng):
    for _ in range(30):
        j = rng.standard_normal((3, 6))
        e = rng.standard_normal(3)
        dq = ik_pseudoinverse_step(j, e)
        assert np.linalg.norm(j @ dq - e) <= 1e-8
        # any random solution of J z = e is at least as long
        for _ in range(20):
            null = rng.standard_normal(6)
            null -= j.T @ np.linalg.solve(j @ j.T, j @ null)
            z = dq + null
            assert np.linalg.norm(dq) <= np.linalg.norm(z) + 1e-9


def test_ik_rejects_bad_shapes():
    for j, e in ((np.zeros(3), np.zeros(3)), (np.eye(3), np.zeros(2)),
                 (np.zeros((2, 3, 1)), np.zeros(2))):
        with pytest.raises(InvalidArgumentError, match=r"^need J \(m,n\) and e \(m,\), got "):
            ik_pseudoinverse_step(j, e)


def test_ik_rejects_singular():
    j = np.array([[1.0, 0, 0], [1.0, 0, 0]])
    with pytest.raises(SingularJacobianError):
        ik_pseudoinverse_step(j, np.array([1.0, 1.0]))
