"""The benchmark's span tracer still fits the package it wraps.

``perfbench/run.py --trace 1`` replaces module-global names of ``graspsim``
and the ``__post_init__`` of the se3 value types; a rename or deletion in
``src/`` that the tracer still names breaks traced runs only, so the
install/uninstall round trip is checked here on every test run.
"""

import importlib.util
from pathlib import Path

from graspsim import episode
from graspsim.config import SimConfig

from conftest import make_config

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_counts_and_restores(catalog):
    tracer = _load_tracer()
    tr = tracer.Tracer()
    try:
        assert tr.install() > 0
        assert not tr.restored()
        # looked up at call time, as the benchmark's workloads do
        log = episode.run_episode(
            make_config(object_id="tennis_ball", seed=0, timeout_steps=2), catalog=catalog)
        assert log.n_steps == 2
        assert tr.span("episode.run_episode").calls == 1
        assert tr.span("scene.check_status").calls > 0
        assert tr.span("se3.Pose6").calls > 0
        # episode.advance runs the substeps through the robot and scene float
        # cores, cross-module bindings, so their time stays on those layers
        substeps = 2 * SimConfig().substeps
        for core in ("robot._robot_substep", "scene._scene_substep"):
            assert tr.span(core).calls == substeps
            assert tr.span(core).self_time > 0.0
        assert tr.span("scene._status_after").calls == substeps
        assert tr.span("se3._compose6").calls >= substeps
        metrics = tracer.layer_metrics(tr, log.n_steps, 1.0, 1.0, 1.0)
        assert metrics["nn.flops_per_forward"] > 0
    finally:
        tr.uninstall()
    assert tr.restored()
