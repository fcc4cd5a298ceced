"""Floating-platform motion across the four difficulty levels.

Level 1: slow prescribed line/arc (0-15 cm/s).  Level 2: fast prescribed
(15-30 cm/s).  Level 3: seeded drifting random walk (0-30 cm/s).  Level 4:
the same plus free vertical motion inside the 0.2-0.7 m band.
"""

import numpy as np

from graspsim import EpisodeConfig, SimConfig, load_catalog, make_trajectory
from graspsim.scene import catalog_by_id, reset_episode, step_scene

catalog = catalog_by_id(load_catalog())
config = EpisodeConfig(level=1, object_id="tomato_soup_can", seed=42)
dt = SimConfig().physics_dt       # the clocks live in the one SimConfig

for level in (1, 2, 3, 4):
    traj = make_trajectory(level, seed=42)
    cfg = EpisodeConfig(level=level, object_id="tomato_soup_can", seed=42)
    state = reset_episode(cfg, catalog, traj)
    speeds, zs = [], []
    for _ in range(2500):            # 50 seconds of platform motion
        state = step_scene(state, traj, dt)
        speeds.append(float(np.hypot(*state.platform_twist.linear[:2])))
        zs.append(state.platform_pose.position[2])
    speeds, zs = np.array(speeds), np.array(zs)
    print(f"L{level} ({traj.mode:6s})  speed range "
          f"[{speeds.min():.3f}, {speeds.max():.3f}] m/s   "
          f"z range [{zs.min():.3f}, {zs.max():.3f}] m")

# The terrain under everything is a seeded 0-10 cm heightfield.
state = reset_episode(config, catalog)
t = state.terrain
print(f"\nterrain: {t.heights.shape[0]}x{t.heights.shape[1]} grid, "
      f"heights [{t.heights.min():.3f}, {t.heights.max():.3f}] m")
print("height under the spawn point:", round(t.height_at(0.0, 0.0), 4), "m")

# While riding the platform the object never slips: its pose is always the
# platform pose composed with a fixed mount offset.
from graspsim.se3 import compose, inverse

traj = make_trajectory(3, seed=7)
state = reset_episode(EpisodeConfig(level=3, object_id="banana", seed=7),
                      catalog, traj)
rel0 = compose(inverse(state.platform_pose), state.object_pose)
for _ in range(500):
    state = step_scene(state, traj, 0.02)
rel = compose(inverse(state.platform_pose), state.object_pose)
print("\nmount-offset drift after 10 s:",
      float(np.abs(rel.position - rel0.position).max()))
