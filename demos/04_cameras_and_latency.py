"""Dual-view rendering, the 4-step latency buffer, and frame stacking.

Both cameras produce a binary target mask plus a z-depth map at 54x96; the
student network sees them 4 decision steps late, stacked 3 frames deep per
view into a [12, 54, 96] tensor.
"""

import os

from graspsim import EpisodeConfig, SimConfig, load_catalog
from graspsim.camera import (
    LatencyBuffer,
    base_camera,
    dump_frame,
    frame_channels,
    render_frame,
    stack_observation,
    wrist_camera,
)
from graspsim.robot import initial_robot
from graspsim.scene import catalog_by_id, make_trajectory, reset_episode, step_scene

catalog = catalog_by_id(load_catalog())
cfg = EpisodeConfig(level=1, object_id="cracker_box", seed=9)
traj = make_trajectory(1, 9)
scene = reset_episode(cfg, catalog, traj)
robot = initial_robot(scene.terrain)

frame = render_frame(scene, robot, base_camera())
print(f"base view: {int(frame.mask.sum())} target px, "
      f"{int(frame.valid.sum())}/{frame.valid.size} px hit anything")
print(f"depth range on hits: {frame.depth[frame.valid].min():.2f}"
      f"..{frame.depth[frame.valid].max():.2f} m")

out_dir = "demo_frames"
os.makedirs(out_dir, exist_ok=True)
paths = dump_frame(frame, os.path.join(out_dir, "base"))
print("wrote", *paths)

# The latency buffer replays what the cameras saw 4 steps ago.
buf = LatencyBuffer()
for step in range(8):
    delayed = buf.push_and_fetch(f"frame@{step}")
    print(f"step {step}: observed {delayed}")

# Stacking: each render's (wrist, base) frames are normalized once (masks 0/1,
# depths /5 m); the stack is the newest three renders, wrist then base.
history = []
for k in range(3):
    scene = step_scene(scene, traj, SimConfig().physics_dt)
    history.append(frame_channels((render_frame(scene, robot, wrist_camera()),
                                   render_frame(scene, robot, base_camera()))))
obs = stack_observation(history)
print("\nstacked observation:", obs.shape, obs.dtype,
      "value range", float(obs.min()), "..", round(float(obs.max()), 3))
