import argparse
import re

import numpy as np
import pytest

from graspsim import cli
from graspsim.camera import FrameStore, base_camera, render_frame
from graspsim.config import SimConfig
from graspsim.errors import InvalidArgumentError, check_integer
from graspsim.gfm import GraspMemoryBank, generate_candidates
from graspsim.metrics import run_benchmark
from graspsim.nn import init_student_weights
from graspsim.robot import initial_robot
from graspsim.scene import derive_seed, reset_episode

from conftest import make_config


def test_check_integer_takes_an_int_or_numpy_integer_at_or_above_its_minimum():
    for value in (0, np.int64(0), np.uint8(0), 7):
        got = check_integer("n", value, 0)
        assert type(got) is int and got == value
    assert check_integer("n", -5) == -5                 # no minimum, no bound
    assert check_integer("n", np.int32(1), 1) == 1
    for bad in (1.0, np.float64(2.0), "3", None, True, np.bool_(True)):
        with pytest.raises(InvalidArgumentError, match="^n must be an integer, got "):
            check_integer("n", bad, 0)


@pytest.fixture(scope="module")
def seen(catalog_map):
    scene = reset_episode(make_config(seed=12), catalog_map)
    return scene, initial_robot(scene.terrain)


# Every integer argument with a lower bound: (its name, the bound, a call that
# passes the value to it).  The CLI flags are given to their commands as
# argparse would; the command line itself is test_cli's test_count_arguments_rejected.
BOUNDED = {
    "render_frame-noise_seed": ("noise_seed", 0, lambda v, seen: render_frame(
        *seen, base_camera(), mask_flip_prob=0.05, noise_seed=v)),
    "FrameStore-chunk": ("chunk", 1, lambda v, seen: FrameStore(v)),
    "GraspMemoryBank-k": ("K", 1, lambda v, seen: GraspMemoryBank("x", (), v)),
    "generate_candidates-n": ("n", 1, lambda v, seen: generate_candidates(
        seen[0].object_spec, v, 0)),
    "run_benchmark-seed": ("seed", 0, lambda v, seen: run_benchmark([1], seed=v)),
    "run_benchmark-workers": ("workers", 0, lambda v, seen: run_benchmark([1], workers=v)),
    "run_benchmark-episodes_per_level": ("episodes_per_level", 1, lambda v, seen: run_benchmark(
        [1], episodes_per_level=v)),
    "run_benchmark-step_budget": ("step_budget", 1, lambda v, seen: run_benchmark(
        [1], step_budget=v)),
    "init_student_weights-seed": ("seed", 0, lambda v, seen: init_student_weights(v)),
    "EpisodeConfig-seed": ("seed", 0, lambda v, seen: make_config(seed=v)),
    "EpisodeConfig-timeout_steps": ("timeout_steps", 1, lambda v, seen: make_config(
        timeout_steps=v)),
    "derive_seed-part": ("seed", 0, lambda v, seen: derive_seed(1, v)),
    "render-step": ("--step", 0, lambda v, seen: cli._cmd_render(
        argparse.Namespace(step=v), SimConfig())),
    "distill-record-episodes": ("--episodes", 1, lambda v, seen: cli._cmd_distill_record(
        argparse.Namespace(seed=0, episodes=v), SimConfig())),
}


@pytest.mark.parametrize("name, minimum, call", BOUNDED.values(), ids=BOUNDED.keys())
def test_bounded_integer_arguments_state_one_rule(name, minimum, call, seen):
    below = f"{name} must be >= {minimum}, got {minimum - 1}"
    with pytest.raises(InvalidArgumentError, match=f"^{re.escape(below)}$"):
        call(minimum - 1, seen)
    for bad in (1.5, True):
        with pytest.raises(InvalidArgumentError,
                           match=f"^{re.escape(name)} must be an integer, got {bad}$"):
            call(bad, seen)
