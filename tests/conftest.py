import os

# Pin the BLAS / OpenMP pools to one thread before numpy loads, as
# perfbench/run.py does, so spinning pool threads on a busy host do not
# distort the wall-clock budgets (student forward latency).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from graspsim.scene import EpisodeConfig, catalog_by_id, load_catalog  # noqa: E402


@pytest.fixture(scope="session")
def catalog():
    return load_catalog()


@pytest.fixture(scope="session")
def catalog_map(catalog):
    return catalog_by_id(catalog)


@pytest.fixture
def rng():
    return np.random.Generator(np.random.PCG64(1234))


def make_config(level=1, object_id="tomato_soup_can", seed=0, **kw):
    return EpisodeConfig(level=level, object_id=object_id, seed=seed, **kw)


def assert_valid_pose(pose):
    """What Pose6 validation guarantees, for poses built without it."""
    for arr in (pose.position, pose.orientation):
        assert arr.shape == (3,) and arr.dtype == np.float64
        assert not arr.flags.writeable
        assert np.all(np.isfinite(arr))
    assert np.all(pose.orientation > -np.pi) and np.all(pose.orientation <= np.pi)
