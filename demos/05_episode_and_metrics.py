"""One full scripted-teacher episode, then a small seeded benchmark sweep.

The teacher is a privileged stand-in policy: it reads the true object pose
and velocity, predicts a short intercept, walks the base to a standoff
point, pulls the gripper onto the fused grasp, and closes once aligned.
"""

from graspsim import EpisodeConfig, run_episode
from graspsim.metrics import run_benchmark

log = run_episode(EpisodeConfig(level=1, object_id="tomato_soup_can", seed=3),
                  log_steps=True)
print(f"episode outcome: {log.outcome} after {log.n_steps} decision steps")
print(f"close events: {log.close_events}  (attempts={log.attempt_count})")
for entry in log.steps[::8]:
    print(f"  step {entry['step']:3d}  phase={entry['phase']:12s} "
          f"obj=({entry['object_pos'][0]:.2f},{entry['object_pos'][1]:.2f}) "
          f"base=({entry['base_pos'][0]:.2f},{entry['base_pos'][1]:.2f}) "
          f"r={entry['reward_total']:+.3f}")

# A miniature benchmark: a few episodes on levels 1 and 4.  The real
# protocol budget is 5,000 decision steps per level (run_benchmark's
# default when neither a count nor a budget is given).
report, csv_text, summaries = run_benchmark(
    [1, 4], episodes_per_level=8, split="seen", seed=17,
)
for row in report.rows:
    if row.category == "all":
        tsc = "-" if row.tsc is None else f"{row.tsc:.1f}"
        print(f"\nlevel {row.level}: GSR {row.gsr:.0f}%  OSSR {row.ossr:.0f}%  "
              f"TSC {tsc}  ({row.n_episodes} episodes)")
print("\nCSV head:")
print("\n".join(csv_text.splitlines()[:4]))
