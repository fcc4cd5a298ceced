import concurrent.futures
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

# Pin the BLAS / OpenMP pools to one thread before numpy loads, as
# perfbench/run.py does, so spinning pool threads on a busy host do not
# distort the wall-clock budgets (student forward latency).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import graspsim.metrics  # noqa: E402
from graspsim.episode import run_episode  # noqa: E402
from graspsim.scene import (  # noqa: E402
    EpisodeConfig,
    TerrainField,
    catalog_by_id,
    load_catalog,
)
from graspsim.se3 import Pose6  # noqa: E402

SRC = Path(__file__).resolve().parents[1] / "src"


def child_env(env=None) -> dict:
    """``env`` (default os.environ) for a child process that imports graspsim
    from this checkout: ``src`` first on its PYTHONPATH."""
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


# One numpy 3x3 matmul batch: its digest shows whether a setting changed the
# BLAS kernel.
_MATMUL_CONTROL = """
import hashlib
import numpy as np
m = np.random.Generator(np.random.PCG64(5)).uniform(-1, 1, (2000, 3, 3))
print(hashlib.sha256((m @ m).tobytes()).hexdigest())
"""


def _matmul_digest(env) -> str:
    return subprocess.run([sys.executable, "-c", _MATMUL_CONTROL], env=env, check=True,
                          capture_output=True, text=True, timeout=60).stdout


def setting_env(setting: dict, control: bool = False) -> dict:
    """``child_env`` with ``setting`` (x86-64 BLAS kernel or CPU-feature
    variables) added, for a child run compared with a default one.  Skips the
    calling test where numpy does not import under the setting and, with
    ``control``, where the setting leaves a matmul's bits as they are (it
    changes no BLAS kernel on this host)."""
    env = child_env({**os.environ, **setting})
    probe = subprocess.run([sys.executable, "-c", "import numpy"], env=env,
                           capture_output=True, text=True, timeout=60)
    if probe.returncode != 0:
        pytest.skip(f"numpy does not import under {setting}: {probe.stderr.strip()}")
    if control and _matmul_digest(env) == _matmul_digest(child_env()):
        pytest.skip(f"{setting} does not change the BLAS kernel on this host")
    return env


@pytest.fixture(scope="session")
def catalog():
    return load_catalog()


@pytest.fixture(scope="session")
def catalog_map(catalog):
    return catalog_by_id(catalog)


@pytest.fixture(scope="session")
def box_records():
    """Observation records of a 40-step level-1 cracker_box episode, whose
    box mask runs the camera's reciprocal-multiply slab test."""
    _, records = run_episode(make_config(object_id="cracker_box", seed=0,
                                         timeout_steps=40),
                             collect_observations=True)
    return records


@dataclass
class PoolRecord:
    """What the stand-in pools of one test saw: each pool's ``max_workers``, and
    each task submitted and each result read, in order, as ``("submit", task)``
    and ``("result", task)``."""

    max_workers: list = field(default_factory=list)
    events: list = field(default_factory=list)

    def submitted(self) -> list:
        return [task for kind, task in self.events if kind == "submit"]


@pytest.fixture
def stand_in_pool(monkeypatch):
    """``ProcessPoolExecutor`` swapped for an in-process stand-in, on a host of
    2 CPUs as ``run_benchmark`` sees it; returns the PoolRecord.  The stand-in
    runs each task at submission, so a sweep's pooled branch runs, traced,
    without a process."""
    record = PoolRecord()

    class DoneFuture:
        def __init__(self, task, value):
            self.task, self.value = task, value

        def result(self):
            record.events.append(("result", self.task))
            return self.value

    class StandInPool:
        def __init__(self, max_workers):
            record.max_workers.append(max_workers)

        def submit(self, fn, task):
            record.events.append(("submit", task))
            return DoneFuture(task, fn(task))

        def shutdown(self, wait=True, cancel_futures=False):
            pass

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", StandInPool)
    monkeypatch.setattr(graspsim.metrics.os, "cpu_count", lambda: 2)
    return record


@pytest.fixture
def rng():
    return np.random.Generator(np.random.PCG64(1234))


def make_config(level=1, object_id="tomato_soup_can", seed=0, **kw):
    return EpisodeConfig(level=level, object_id=object_id, seed=seed, **kw)


def flat_terrain(height=0.0):
    """Level ground: height_at returns exactly ``height`` everywhere."""
    return TerrainField(np.full((3, 3), height), 10.0, np.array([-15.0, -15.0]))


def assert_valid_pose(value):
    """What Pose6 (or Twist) validation guarantees, for values built without it."""
    is_pose = isinstance(value, Pose6)
    arrays = (value.position, value.orientation) if is_pose else (value.linear, value.angular)
    for arr in arrays:
        assert isinstance(arr, np.ndarray)
        assert arr.shape == (3,) and arr.dtype == np.float64
        assert not arr.flags.writeable
        assert np.all(np.isfinite(arr))
    if is_pose:
        assert np.all(value.orientation > -np.pi) and np.all(value.orientation <= np.pi)
