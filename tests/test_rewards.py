import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graspsim.errors import InvalidArgumentError
from graspsim.rewards import (
    HIGH_LEVEL_WEIGHTS,
    HighLevelRewardInput,
    LOW_LEVEL_WEIGHTS,
    LowLevelState,
    high_level_reward,
    low_level_reward,
    tracking_kernel,
    yaw_penalty,
)


def hl_input(**overrides):
    base = dict(
        phase="approaching",
        dist_ee_obj=0.5,
        lift_height=0.0,
        completed=False,
        q_dot_prev=np.zeros(12),
        q_dot=np.zeros(12),
        a_prev=np.zeros(8),
        a=np.zeros(8),
        v_x_star=0.0,
        d_obj=np.array([1.0, 0, 0]),
        d_ee=np.array([1.0, 0, 0]),
        d_base=np.array([1.0, 0, 0]),
        x_obj=0.6,
        x_base=0.0,
        h_current=0.55,
        h_target=0.55,
        psi_c=0.0,
        psi_0=0.0,
    )
    base.update(overrides)
    return HighLevelRewardInput(**base)


def ll_state(**overrides):
    base = dict(
        q=np.zeros(12), q_dot=np.zeros(12), q_ddot=np.zeros(12),
        q_star=np.zeros(12), tau=np.zeros(12), v_b=np.zeros(3),
        omega_b=np.zeros(3), v_x_star=0.0, v_yaw_star=0.0, n_collision=0,
        f_foot=np.zeros(4), v_z_foot=np.zeros(4),
        t_air=np.full(4, 0.5), h_b=0.55, h_b_target=0.55,
        q_default=np.zeros(12), contact_cmd=np.full(4, 0.5),
    )
    base.update(overrides)
    return LowLevelState(**base)


# ---------------------------------------------------------------------------
# Yaw penalty
# ---------------------------------------------------------------------------

def test_yaw_penalty_zero_inside_threshold():
    assert yaw_penalty(0.0, 0.0) == 0.0
    assert yaw_penalty(np.pi / 4, 0.0) == 0.0
    # exactly pi/3 is inactive (strict inequality)
    assert yaw_penalty(np.pi / 3, 0.0) == 0.0


def test_yaw_penalty_rejects_non_finite():
    for psi_c, psi_0 in ((np.nan, 0.0), (0.0, np.inf), (-np.inf, 0.0)):
        with pytest.raises(InvalidArgumentError, match="^yaw angles must be finite$"):
            yaw_penalty(psi_c, psi_0)


def test_yaw_penalty_values():
    assert yaw_penalty(np.pi, 0.0) == pytest.approx(-np.tanh(np.pi), abs=1e-12)
    assert yaw_penalty(np.pi, 0.0) == pytest.approx(-0.9962720762, abs=1e-6)
    assert yaw_penalty(1.2, 0.0) == pytest.approx(-np.tanh(1.2), abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.floats(-np.pi, np.pi, allow_nan=False))
def test_yaw_penalty_even(delta):
    assert yaw_penalty(delta, 0.0) == pytest.approx(yaw_penalty(-delta, 0.0))


def test_yaw_penalty_monotone_on_active_range():
    deltas = np.linspace(np.pi / 3, np.pi, 200)
    vals = [yaw_penalty(d, 0.0) for d in deltas]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# High-level table
# ---------------------------------------------------------------------------

def test_base_height_row():
    bd = high_level_reward(hl_input(h_current=0.7, h_target=0.7))
    assert bd.raw("base_h") == pytest.approx(1.0, abs=1e-12)
    assert bd.weighted("base_h") == pytest.approx(0.5, abs=1e-12)


def test_yaw_row_inactive_below_threshold():
    bd = high_level_reward(hl_input(psi_c=np.pi / 4, psi_0=0.0))
    assert bd.raw("yaw") == 0.0
    assert bd.weighted("yaw") == 0.0


def test_base_approach_row_at_standoff():
    bd = high_level_reward(hl_input(x_obj=0.6, x_base=0.0))
    assert bd.raw("base_approach") == pytest.approx(1.0 + np.tanh(0.0), abs=1e-12)
    assert bd.weighted("base_approach") == pytest.approx(0.01, abs=1e-12)


def test_exactly_one_stage_active():
    cases = [
        hl_input(phase="approaching"),
        hl_input(phase="grasped"),
        hl_input(phase="lifted", lift_height=0.1),
        hl_input(phase="lifted", lift_height=0.2, completed=True),
    ]
    for bd in map(high_level_reward, cases):
        active = [n for n in ("approach", "lift", "completion") if bd.raw(n) != 0.0]
        assert len(active) == 1


def test_failed_step_scores_no_stage():
    for phase in ("failed_dropped", "failed_timeout", "failed_yaw"):
        bd = high_level_reward(hl_input(phase=phase, lift_height=0.1))
        assert [bd.raw(n) for n in ("approach", "lift", "completion")] == [0.0, 0.0, 0.0]
    with pytest.raises(InvalidArgumentError, match="phase"):
        high_level_reward(hl_input(phase="dropped"))


def test_assistant_rows_hand_values():
    q_dot = np.zeros(12)
    q_dot_prev = np.full(12, 0.25)
    a = np.zeros(8)
    a_prev = np.concatenate([[1.0, 0, 2.0], np.zeros(5)])
    bd = high_level_reward(hl_input(
        q_dot=q_dot, q_dot_prev=q_dot_prev, a=a, a_prev=a_prev, v_x_star=0.3,
        d_ee=np.array([0.0, 1.0, 0.0]), d_base=np.array([0.0, 0.0, 1.0]),
    ))
    assert bd.raw("acc") == pytest.approx(
        1 - np.exp(-np.linalg.norm(q_dot_prev - q_dot)), abs=1e-12)
    assert bd.raw("action") == pytest.approx(
        1 - np.exp(-np.sqrt(5.0)), abs=1e-12)
    assert bd.raw("cmd") == pytest.approx(-0.3 + 0.25 * np.exp(-0.3), abs=1e-12)
    assert bd.raw("ee_orn") == pytest.approx(0.0, abs=1e-12)   # cos 90 deg
    assert bd.raw("base_orn") == pytest.approx(0.0, abs=1e-12)
    assert bd.weighted("acc") == pytest.approx(bd.raw("acc") * -0.001, abs=1e-15)


def test_total_is_manual_weighted_sum(rng):
    for _ in range(50):
        bd = high_level_reward(hl_input(
            dist_ee_obj=float(rng.uniform(0, 2)),
            q_dot=rng.standard_normal(12), q_dot_prev=rng.standard_normal(12),
            a=rng.standard_normal(8), a_prev=rng.standard_normal(8),
            v_x_star=float(rng.uniform(-1, 1)),
            x_obj=float(rng.uniform(0, 3)),
            h_current=float(rng.uniform(0.3, 0.8)),
            psi_c=float(rng.uniform(-np.pi, np.pi)),
        ))
        manual = sum(raw * w for (raw, w, _) in bd.terms.values())
        assert bd.total == pytest.approx(manual, abs=1e-12)


def test_assistant_raw_bounds(rng):
    # documented finite intervals for the exp/tanh rows
    for _ in range(100):
        bd = high_level_reward(hl_input(
            dist_ee_obj=float(rng.uniform(0, 10)),
            q_dot=rng.standard_normal(12) * 5,
            q_dot_prev=rng.standard_normal(12) * 5,
            a=rng.standard_normal(8) * 5, a_prev=rng.standard_normal(8) * 5,
            v_x_star=float(rng.uniform(-0.8, 0.8)),
            x_obj=float(rng.uniform(0, 5)),
            h_current=float(rng.uniform(0, 2)),
            psi_c=float(rng.uniform(-np.pi, np.pi)),
        ))
        assert 0.0 <= bd.raw("acc") <= 1.0
        assert 0.0 <= bd.raw("action") <= 1.0
        assert -0.8 <= bd.raw("cmd") <= 0.25
        assert -1.0 <= bd.raw("ee_orn") <= 1.0
        assert -1.0 <= bd.raw("base_orn") <= 1.0
        assert 0.0 <= bd.raw("base_approach") <= 1.0
        assert 0.0 < bd.raw("base_h") <= 1.0
        assert -1.0 <= bd.raw("yaw") <= 0.0


def test_high_level_rejects_nan():
    with pytest.raises(InvalidArgumentError):
        high_level_reward(hl_input(dist_ee_obj=float("nan")))


def test_high_level_rejects_non_unit_directions():
    for name in ("d_obj", "d_ee", "d_base"):
        for v in (np.array([2.0, 0.0, 0.0]), np.zeros(3), np.array([np.nan, 0.0, 0.0])):
            with pytest.raises(InvalidArgumentError, match=f"^{name} must be unit-norm, "):
                high_level_reward(hl_input(**{name: v}))


# ---------------------------------------------------------------------------
# Low-level table
# ---------------------------------------------------------------------------

def test_perfect_tracking_rows():
    bd = low_level_reward(ll_state())
    assert bd.raw("lin_vel_tracking") == pytest.approx(1.0, abs=1e-12)
    assert bd.terms["lin_vel_tracking"][1] == 1.0
    assert bd.raw("yaw_vel_tracking") == pytest.approx(1.0, abs=1e-12)
    assert bd.raw("joint_torques") == 0.0
    assert bd.raw("feet_air_time") == pytest.approx(0.0, abs=1e-12)


def test_low_level_hand_rows(rng):
    s = ll_state(
        q=rng.standard_normal(12), q_default=rng.standard_normal(12),
        tau=rng.standard_normal(12), q_star=rng.standard_normal(12),
        v_b=np.array([0.3, -0.1, 0.2]), omega_b=np.array([0.1, -0.2, 0.4]),
        v_x_star=0.5, v_yaw_star=0.3, n_collision=3,
        f_foot=np.array([10.0, 0.0, 5.0, 2.0]),
        v_z_foot=np.array([0.1, -0.2, 0.0, 0.05]),
        t_air=np.array([0.2, 0.7, 0.5, 0.4]),
        h_b=0.48, h_b_target=0.55,
        contact_cmd=np.array([1.0, 0.0, 0.5, 0.25]),
    )
    sigma = 0.25
    bd = low_level_reward(s)
    err = np.array([0.5 - 0.3, 0.1])
    assert bd.raw("lin_vel_tracking") == pytest.approx(
        np.exp(-np.dot(err, err) / sigma), abs=1e-9)
    assert bd.raw("yaw_vel_tracking") == pytest.approx(
        np.exp(-(0.3 - 0.4) ** 2 / sigma), abs=1e-9)
    assert bd.raw("ang_vel_penalty") == pytest.approx(-(0.1**2 + 0.2**2), abs=1e-9)
    assert bd.raw("joint_torques") == pytest.approx(-np.sum(s.tau**2), abs=1e-9)
    assert bd.raw("action_rate") == pytest.approx(-np.sum(s.q_star**2), abs=1e-9)
    assert bd.raw("collisions") == -3.0
    assert bd.raw("feet_air_time") == pytest.approx(
        np.sum(s.t_air - 0.5), abs=1e-12)
    assert bd.raw("default_joint_pos") == pytest.approx(
        np.exp(-0.05 * np.linalg.norm(s.q - s.q_default)), abs=1e-9)
    assert bd.raw("lin_vel_z") == pytest.approx(0.2**2, abs=1e-12)
    assert bd.raw("base_height") == pytest.approx(0.07, abs=1e-12)
    swing = np.sum((1 - s.contact_cmd) * (1 - np.exp(-s.f_foot**2 / 100.0)))
    stance = np.sum(s.contact_cmd * (1 - np.exp(-s.v_z_foot**2 / 0.05)))
    assert bd.raw("swing_phase_force") == pytest.approx(swing, abs=1e-9)
    assert bd.raw("stance_phase_velocity") == pytest.approx(stance, abs=1e-9)
    manual = sum(raw * w for (raw, w, _) in bd.terms.values())
    assert bd.total == pytest.approx(manual, abs=1e-12)


def test_low_level_uses_listed_weights():
    bd = low_level_reward(ll_state())
    for name, w in LOW_LEVEL_WEIGHTS.items():
        assert bd.terms[name][1] == w
    for name, w in HIGH_LEVEL_WEIGHTS.items():
        assert name in high_level_reward(hl_input()).terms
    # each stage's high-level total is the sum of its raw values under the table
    for inp in (hl_input(), hl_input(phase="grasped", lift_height=0.1),
                hl_input(completed=True)):
        total = high_level_reward(inp).total
        manual = sum(raw * HIGH_LEVEL_WEIGHTS[name]
                     for name, (raw, _, _) in high_level_reward(inp).terms.items())
        assert total == pytest.approx(manual, abs=1e-12)


def test_low_level_validation():
    with pytest.raises(InvalidArgumentError):
        low_level_reward(ll_state(tau=np.full(12, np.nan)))
    with pytest.raises(InvalidArgumentError):
        ll_state(t_air=np.array([-0.1, 0, 0, 0]))
    with pytest.raises(InvalidArgumentError):
        ll_state(q=np.zeros(11))


def test_tracking_kernel():
    assert tracking_kernel(np.zeros(2), 0.25) == 1.0
    assert tracking_kernel(np.array([0.5]), 0.25) == pytest.approx(np.exp(-1.0))
