"""Grasp memory construction and attention fusion.

Antipodal candidates are generated once per object in its local frame,
the top-K by score form a memory bank, and at query time every stored
grasp is re-projected to the world frame, embedded as key/value pairs, and
softly selected by a query built from the object descriptor plus its pose.
"""

import numpy as np

from graspsim import Pose6, load_catalog
from graspsim.gfm import (
    alignment_gfm_weights,
    build_memory,
    generate_candidates,
    gfm_forward,
    object_feature,
    random_gfm_weights,
)
from graspsim.scene import catalog_by_id
from graspsim.se3 import grasp_to_world, vec6_encode

np.set_printoptions(precision=3, suppress=True)
catalog = catalog_by_id(load_catalog())

spec = catalog["mustard_bottle"]
candidates = generate_candidates(spec, 200, seed=5)
print(f"{spec.id}: {len(candidates)} candidates, "
      f"scores {min(c.score for c in candidates):.2f}"
      f"..{max(c.score for c in candidates):.2f}")

bank = build_memory(candidates, 30, object_id=spec.id)
print(f"bank keeps the top {len(bank)} (K={bank.k})")

feat = object_feature(spec)
print("descriptor: 128-d,", np.count_nonzero(feat), "populated entries")

# The shipped alignment weights make the soft fusion effectively pick one
# stable, reachable grasp; seeded random weights exercise the same math.
obj_pose = Pose6(np.array([2.0, 0.1, 0.45]), np.zeros(3))
for name, weights in (("alignment", alignment_gfm_weights()),
                      ("random", random_gfm_weights(0))):
    fused, alphas = gfm_forward(feat, obj_pose, bank, weights)
    print(f"\n{name} weights: alpha max {alphas.max():.3f}, "
          f"sum {alphas.sum():.6f}")
    print("  fused world grasp:", vec6_encode(fused))
    hard = grasp_to_world(bank.candidates[int(np.argmax(alphas))].pose, obj_pose)
    print("  argmax world grasp:", vec6_encode(hard))

# Selection is stable while the object translates: the attention logits all
# shift together, so the winner does not change.
w = alignment_gfm_weights()
winners = []
for dx in np.linspace(0.0, 0.5, 6):
    moved = Pose6(obj_pose.position + np.array([dx, 0.0, 0.0]), np.zeros(3))
    _, alphas = gfm_forward(feat, moved, bank, w)
    winners.append(int(np.argmax(alphas)))
print("\nargmax index while the object slides 0.5 m:", winners)
