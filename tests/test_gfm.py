import numpy as np
import pytest

from graspsim.config import SimConfig
from graspsim.episode import episode_bank
from graspsim.errors import EmptyBankError, InvalidArgumentError, ShapeError
from graspsim.gfm import (
    _cross,
    _world_vec6,
    GRIPPER_APERTURE,
    GfmWeights,
    GraspMemoryBank,
    alignment_gfm_weights,
    build_memory,
    draw_bank,
    generate_candidates,
    gfm_forward,
    object_feature,
    random_gfm_weights,
    save_bank,
)
from graspsim.scene import ObjectSpec, derive_seed
from graspsim.se3 import (
    Pose6,
    compose,
    euler_to_matrix,
    grasp_to_world,
    vec6_encode,
)

SPHERE = ObjectSpec("ball", "sphere", (0.03,), 0.1, "seen", "ball")
BOX = ObjectSpec("bx", "box", (0.05, 0.07, 0.12), 0.3, "seen", "long_box")
CYL = ObjectSpec("cyl", "cylinder", (0.03, 0.2), 0.4, "seen", "bottle")
BIG_BOX = ObjectSpec("big", "box", (0.10, 0.12, 0.12), 1.0, "seen", "square_box")


def random_bank(rng, k=6, object_id="bx"):
    cands = generate_candidates(BOX, 50, int(rng.integers(2**31)))
    return build_memory(cands, k, object_id=object_id)


# ---------------------------------------------------------------------------
# Candidate generation
# ---------------------------------------------------------------------------

def test_sphere_candidates_geometry():
    cands = generate_candidates(SPHERE, 64, seed=3)
    assert len(cands) == 64
    for c in cands:
        assert np.linalg.norm(c.pose.position) <= SPHERE.dims[0] + 1e-12
        assert 0.0 <= c.score <= 1.0
        # width 6 cm against the 8.5 cm aperture
        assert c.score <= 1.0 - 0.06 / GRIPPER_APERTURE + 1e-9


def test_infeasible_box_yields_empty_list():
    assert generate_candidates(BIG_BOX, 40, seed=0) == []
    # a sphere or a cylinder wider than the aperture gives none either
    for wide in (ObjectSpec("big_ball", "sphere", (0.05,), 0.5, "seen", "ball"),
                 ObjectSpec("drum", "cylinder", (0.05, 0.2), 1.0, "seen", "bottle")):
        assert 2 * wide.dims[0] > GRIPPER_APERTURE
        assert generate_candidates(wide, 40, seed=0) == []
        assert len(draw_bank(wide, 40, 30, seed=0)) == 0


def test_generation_deterministic():
    a = generate_candidates(CYL, 80, seed=9)
    b = generate_candidates(CYL, 80, seed=9)
    assert len(a) == len(b)
    for ca, cb in zip(a, b):
        assert np.array_equal(vec6_encode(ca.pose), vec6_encode(cb.pose))
        assert ca.score == cb.score


def test_approach_axis_points_toward_centroid():
    for spec in (SPHERE, BOX, CYL):
        for c in generate_candidates(spec, 60, seed=5):
            approach = euler_to_matrix(c.pose.orientation)[:, 0]
            to_center = -c.pose.position
            assert float(approach @ to_center) >= -1e-12


def test_cross_bits_match_numpy_oracle(rng):
    # the float helper computes np.cross's products and differences in the
    # same order; exact zeros of both signs and +-1 entries hit the signed-zero
    # cases (0.0 * -1.0, x - x)
    a = rng.normal(size=(20000, 3)) * 10.0 ** rng.integers(-3, 4, size=(20000, 1))
    b = rng.normal(size=(20000, 3)) * 10.0 ** rng.integers(-3, 4, size=(20000, 1))
    for v in (a, b):
        special = rng.random(v.shape) < 0.2
        v[special] = rng.choice([0.0, -0.0, 1.0, -1.0], size=int(special.sum()))
    b[:500] = a[:500]
    got = np.array([_cross(x, y) for x, y in zip(a, b)])
    assert np.array_equal(got.view(np.uint64), np.cross(a, b).view(np.uint64))
    assert np.signbit(got).any() and (got == 0.0).any()


def test_generate_rejects_bad_count():
    with pytest.raises(InvalidArgumentError):
        generate_candidates(SPHERE, 0, seed=1)


# ---------------------------------------------------------------------------
# Memory bank
# ---------------------------------------------------------------------------

def test_build_memory_top_k():
    cands = generate_candidates(CYL, 200, seed=2)
    bank = build_memory(cands, 30, object_id="cyl")
    assert len(bank) == 30
    scores = [c.score for c in bank.candidates]
    assert scores == sorted(scores, reverse=True)
    all_scores = sorted((c.score for c in cands), reverse=True)
    assert scores == all_scores[:30]


def test_build_memory_short_list():
    cands = generate_candidates(SPHERE, 5, seed=2)
    bank = build_memory(cands, 30)
    assert len(bank) == 5


@pytest.mark.parametrize("seed", [0, 3, 11])
def test_episode_bank_bytes_equal_the_memory_of_every_candidate(seed, catalog, tmp_path):
    # an episode's bank poses only the K candidates it keeps; its file is the
    # one build_memory writes after posing all 200, for every bundled object
    # (a sphere, box and cylinder each, ties included: box scores repeat)
    for spec in catalog:
        save_bank(episode_bank(spec, SimConfig(), seed), tmp_path / "kept.txt")
        every = generate_candidates(spec, 200, derive_seed(seed, 23))
        save_bank(build_memory(every, 30, spec.id), tmp_path / "all.txt")
        assert ((tmp_path / "kept.txt").read_bytes()
                == (tmp_path / "all.txt").read_bytes()), spec.id
    assert {spec.shape for spec in catalog} == {"sphere", "box", "cylinder"}


def test_draw_bank_short_lists_and_errors():
    # fewer candidates than K keeps them all; nothing that fits gives an
    # empty bank; bad n and K fail as generate_candidates and build_memory do
    for spec, n, k in ((SPHERE, 5, 30), (CYL, 1, 30), (BOX, 13, 4), (BIG_BOX, 40, 30)):
        want = build_memory(generate_candidates(spec, n, seed=8), k, spec.id)
        got = draw_bank(spec, n, k, seed=8)
        assert (got.object_id, got.k, len(got)) == (want.object_id, want.k, len(want))
        for g, c in zip(got.candidates, want.candidates):
            assert g.score == c.score
            assert vec6_encode(g.pose).tobytes() == vec6_encode(c.pose).tobytes()
    with pytest.raises(InvalidArgumentError, match="n must be >= 1"):
        draw_bank(SPHERE, 0, 30, seed=1)
    with pytest.raises(InvalidArgumentError, match="K must be >= 1"):
        draw_bank(SPHERE, 10, 0, seed=1)
    # K and n are integers, checked before they slice or draw; a numpy integer
    # K is kept as an int
    cands = generate_candidates(SPHERE, 20, 1)
    for k in (2.5, 3.0, True):
        for make in (lambda: draw_bank(SPHERE, 20, k, seed=1), lambda: build_memory(cands, k)):
            with pytest.raises(InvalidArgumentError, match=f"^K must be an integer, got {k!r}$"):
                make()
    for n in (2.5, 3.0, True):
        for make in (lambda: draw_bank(SPHERE, n, 30, seed=1),
                     lambda: generate_candidates(SPHERE, n, 1)):
            with pytest.raises(InvalidArgumentError, match=f"^n must be an integer, got {n!r}$"):
                make()
    for bank in (draw_bank(SPHERE, 20, np.int64(3), seed=1), build_memory(cands, np.int64(3))):
        assert type(bank.k) is int and bank.k == 3


def test_build_memory_stable_ties():
    from graspsim.gfm import GraspCandidate
    p = Pose6(np.zeros(3), np.zeros(3))
    cands = [GraspCandidate(p, 0.5), GraspCandidate(p, 0.9),
             GraspCandidate(p, 0.5), GraspCandidate(p, 0.5)]
    bank = build_memory(cands, 3)
    assert bank.candidates[0].score == 0.9
    assert bank.candidates[1] is cands[0]
    assert bank.candidates[2] is cands[2]


def test_bank_rejects_unsorted():
    from graspsim.gfm import GraspCandidate
    p = Pose6(np.zeros(3), np.zeros(3))
    with pytest.raises(InvalidArgumentError):
        GraspMemoryBank("x", (GraspCandidate(p, 0.1), GraspCandidate(p, 0.9)), 5)
    for score in (-0.1, 1.5, np.nan):
        with pytest.raises(InvalidArgumentError, match=r"^score must be in \[0,1\], got "):
            GraspCandidate(p, score)
    with pytest.raises(InvalidArgumentError, match="^bank holds more candidates than K$"):
        GraspMemoryBank("x", (GraspCandidate(p, 0.5), GraspCandidate(p, 0.4)), 1)
    with pytest.raises(InvalidArgumentError, match="^K must be >= 1, got 0$"):
        GraspMemoryBank("x", (), 0)
    for k in (2.5, 3.0, True):
        with pytest.raises(InvalidArgumentError, match=f"^K must be an integer, got {k!r}$"):
            GraspMemoryBank("x", (), k)


def test_bank_file_roundtrip(tmp_path):
    # the bank file is output only: its text carries every candidate's bits
    bank = build_memory(generate_candidates(BOX, 40, seed=1), 10, object_id="bx")
    path = tmp_path / "bank.txt"
    save_bank(bank, path)
    head, *rows = path.read_text(encoding="ascii").splitlines()
    assert head == "bank bx 10" and len(rows) == len(bank) == 10
    for c, row in zip(bank.candidates, rows):
        assert [float(x) for x in row.split()] == [*vec6_encode(c.pose), c.score]


# ---------------------------------------------------------------------------
# Object feature
# ---------------------------------------------------------------------------

def test_object_feature_deterministic_and_padded():
    a = object_feature(BOX)
    b = object_feature(BOX)
    assert np.array_equal(a, b)
    assert a.shape == (128,)
    assert np.all(a[69:] == 0.0)          # populated prefix is 69 wide
    assert not np.array_equal(a, object_feature(CYL))


def test_sphere_histogram_single_bin():
    feat = object_feature(SPHERE)
    hist = feat[8:68]
    assert hist.sum() == pytest.approx(1.0)
    assert np.count_nonzero(hist) == 1


def test_feature_layout_prefix():
    feat = object_feature(SPHERE)
    assert np.allclose(feat[:3], [1.0, 0.0, 0.0])        # shape one-hot
    assert feat[3] == pytest.approx(0.03)                # radius
    r = 0.03
    assert feat[6] == pytest.approx(4 / 3 * np.pi * r**3)
    assert feat[7] == pytest.approx(4 * np.pi * r**2)
    assert feat[68] == pytest.approx(SPHERE.mass)


# ---------------------------------------------------------------------------
# Fusion
# ---------------------------------------------------------------------------

def test_alphas_sum_to_one(rng):
    feat = object_feature(BOX)
    for i in range(20):
        bank = random_bank(rng)
        w = random_gfm_weights(int(rng.integers(2**31)))
        obj = Pose6(rng.uniform(-2, 2, 3), rng.uniform(-0.3, 0.3, 3))
        _, alphas = gfm_forward(feat, obj, bank, w)
        assert abs(float(alphas.sum()) - 1.0) < 1e-6
        assert np.all(alphas >= 0)


def test_single_candidate_passthrough(rng):
    cands = generate_candidates(BOX, 50, seed=4)
    bank = build_memory(cands[:1], 1, object_id="bx")
    w = random_gfm_weights(7)
    obj = Pose6(np.array([1.0, 0.2, 0.4]), np.zeros(3))
    fused, alphas = gfm_forward(object_feature(BOX), obj, bank, w)
    assert np.array_equal(alphas, np.array([1.0]))
    # fused 64-d value equals that candidate's value embedding exactly,
    # so the decoded pose equals decode(linear(v)) exactly
    g6 = vec6_encode(grasp_to_world(bank.candidates[0].pose, obj))
    v = g6 @ w.wv + w.bv
    out = v @ w.wout + w.bout
    from graspsim.se3 import vec6_decode
    assert np.array_equal(vec6_encode(fused), vec6_encode(vec6_decode(out)))


def test_identical_candidates_degenerate_to_single(rng):
    from graspsim.gfm import GraspCandidate
    base = generate_candidates(BOX, 10, seed=11)[0]
    dup = tuple(GraspCandidate(base.pose, base.score) for _ in range(30))
    bank_many = GraspMemoryBank("bx", dup, 30)
    bank_one = GraspMemoryBank("bx", dup[:1], 1)
    w = random_gfm_weights(3)
    obj = Pose6(np.array([0.5, -0.1, 0.3]), np.array([0.0, 0.0, 0.4]))
    feat = object_feature(BOX)
    fused_many, alphas = gfm_forward(feat, obj, bank_many, w)
    fused_one, _ = gfm_forward(feat, obj, bank_one, w)
    assert np.array_equal(vec6_encode(fused_many), vec6_encode(fused_one))
    assert np.allclose(alphas, 1.0 / 30.0)


def test_fused_value_inside_hull(rng):
    feat = object_feature(BOX)
    for _ in range(30):
        bank = random_bank(rng, k=8)
        w = random_gfm_weights(int(rng.integers(2**31)))
        obj = Pose6(rng.uniform(-1, 1, 3), np.zeros(3))
        _, alphas = gfm_forward(feat, obj, bank, w)
        g6 = np.stack([vec6_encode(grasp_to_world(c.pose, obj))
                       for c in bank.candidates])
        vals = g6 @ w.wv + w.bv
        fused = vals[0] + alphas @ (vals - vals[0])
        assert np.all(fused >= vals.min(axis=0) - 1e-9)
        assert np.all(fused <= vals.max(axis=0) + 1e-9)


def test_translation_shift_is_bounded_by_value_spread(rng):
    # move the object; the fused outputs may re-weight, but only within the
    # span of the candidate value embeddings mapped through the output layer
    feat = object_feature(BOX)
    w = random_gfm_weights(5)
    bank = random_bank(rng, k=10)
    obj_a = Pose6(np.array([1.0, 0.0, 0.4]), np.zeros(3))
    shift = np.array([0.3, -0.2, 0.1])
    obj_b = Pose6(obj_a.position + shift, np.zeros(3))
    out_a, _ = gfm_forward(feat, obj_a, bank, w)
    out_b, _ = gfm_forward(feat, obj_b, bank, w)
    # remove the pure-translation contribution to the 6-vector output
    trans_effect = np.concatenate([shift, np.zeros(3)]) @ w.wv @ w.wout
    diff = vec6_encode(out_b) - trans_effect - vec6_encode(out_a)
    g6 = np.stack([vec6_encode(grasp_to_world(c.pose, obj_a))
                   for c in bank.candidates])
    outs = (g6 @ w.wv + w.bv) @ w.wout
    spread = 0.0
    for i in range(len(outs)):
        for j in range(len(outs)):
            spread = max(spread, np.max(np.abs(outs[i] - outs[j])))
    # decode re-wraps angles; compare in the unwrapped 6-vector space
    wrapped = np.abs(np.arctan2(np.sin(diff[3:]), np.cos(diff[3:])))
    assert np.all(np.abs(diff[:3]) <= spread + 1e-9)
    assert np.all(wrapped <= spread + 1e-9)


def test_empty_bank_raises():
    bank = GraspMemoryBank("x", (), 30)
    with pytest.raises(EmptyBankError):
        gfm_forward(object_feature(BOX), Pose6.identity(), bank,
                    random_gfm_weights(0))


def test_reprojection_frame_consistency(rng):
    # rebuilding keys from a rigidly moved object equals moving each world
    # grasp by the same motion before flattening
    for _ in range(30):
        rel = Pose6(rng.uniform(-0.05, 0.05, 3), rng.uniform(-np.pi, np.pi, 3))
        obj = Pose6(rng.uniform(-1, 1, 3), rng.uniform(-0.5, 0.5, 3))
        d = Pose6(rng.uniform(-1, 1, 3), rng.uniform(-0.5, 0.5, 3))
        a = grasp_to_world(rel, compose(d, obj))
        b = compose(d, grasp_to_world(rel, obj))
        assert np.allclose(a.position, b.position, atol=1e-9)
        assert np.allclose(euler_to_matrix(a.orientation),
                           euler_to_matrix(b.orientation), atol=1e-9)
    # the memoized re-projection of a whole bank equals re-projecting each
    # candidate on its own, bit for bit; the thin box's bank holds gimbal-lock
    # grasps (approach +-y closing z, or +-z closing y: r[0, 2] = +-1)
    thin = ObjectSpec("thin", "box", (0.10, 0.04, 0.06), 0.2, "seen", "long_box")
    locked = 0
    for spec in (SPHERE, BOX, CYL, thin):
        cands = generate_candidates(spec, 40, seed=3)
        bank = build_memory(cands, len(cands))
        locked += sum(abs(euler_to_matrix(c.pose.orientation)[0, 2]) == 1.0
                      for c in cands)
        for _ in range(5):
            obj = Pose6(rng.uniform(-1, 1, 3), rng.uniform(-np.pi, np.pi, 3))
            g6 = _world_vec6(bank, obj)
            assert g6.shape == (len(cands), 6)
            for row, c in zip(g6, bank.candidates):
                assert np.array_equal(row, vec6_encode(grasp_to_world(c.pose, obj)))
    assert locked > 0


def test_world_projection_memo_follows_the_orientation(rng):
    # the bank keeps its last projection, keyed by the orientation bytes:
    # queries at orientations A, B, A and at A moved give a fresh bank's bytes
    cands = generate_candidates(CYL, 60, seed=5)
    bank, feat, w = build_memory(cands, 30), object_feature(CYL), random_gfm_weights(4)
    a = Pose6(rng.uniform(-1, 1, 3), rng.uniform(-np.pi, np.pi, 3))
    b = Pose6(a.position, rng.uniform(-np.pi, np.pi, 3))
    moved = Pose6(a.position + np.array([0.3, -0.1, 0.02]), a.orientation)
    for pose in (a, b, a, moved, moved):
        want = _world_vec6(build_memory(cands, 30), pose)
        got = _world_vec6(bank, pose)
        assert got.tobytes() == want.tobytes()
        got[:] = 7.0    # a caller's edit does not reach the next query
        assert _world_vec6(bank, pose).tobytes() == want.tobytes()
        fused, alphas = gfm_forward(feat, pose, bank, w)
        fresh_fused, fresh_alphas = gfm_forward(feat, pose, build_memory(cands, 30), w)
        assert vec6_encode(fused).tobytes() == vec6_encode(fresh_fused).tobytes()
        assert alphas.tobytes() == fresh_alphas.tobytes()


def test_argmax_invariant_to_logit_shift(rng):
    feat = object_feature(BOX)
    bank = random_bank(rng, k=8)
    w = random_gfm_weights(4)
    obj = Pose6(np.array([0.9, -0.3, 0.5]), np.zeros(3))
    _, alphas = gfm_forward(feat, obj, bank, w)
    # add a constant c to every logit q.k_i by shifting the key bias along q
    q = np.concatenate([feat, vec6_encode(obj)]) @ w.wq + w.bq
    c = 7.3
    bk_shift = w.bk + c * q / float(q @ q)
    w2 = GfmWeights(w.wq, w.bq, w.wk, bk_shift, w.wv, w.bv, w.wout, w.bout)
    _, alphas2 = gfm_forward(feat, obj, bank, w2)
    assert int(np.argmax(alphas)) == int(np.argmax(alphas2))
    assert np.allclose(alphas, alphas2, atol=1e-9)


def test_gfm_weights_reject_non_finite_and_name_it():
    # a NaN or inf weight would fail only later, in gfm_forward's pose
    w = random_gfm_weights(0)
    names = ("q.w", "q.b", "k.w", "k.b", "v.w", "v.b", "out.w", "out.b")
    arrays = (w.wq, w.bq, w.wk, w.bk, w.wv, w.bv, w.wout, w.bout)
    for i, name in enumerate(names):
        for bad in (np.nan, np.inf, -np.inf):
            arrs = [a.copy() for a in arrays]
            arrs[i].flat[-1] = bad
            with pytest.raises(InvalidArgumentError) as err:
                GfmWeights(*arrs)
            assert str(err.value) == f"GFM weight {name} has non-finite values"


def test_gfm_weights_and_forward_reject_bad_shapes():
    w = random_gfm_weights(0)
    arrays = [w.wq, w.bq, w.wk, w.bk, w.wv, w.bv, w.wout, w.bout]
    arrays[2] = np.zeros((6, 63))
    with pytest.raises(ShapeError,
                       match=r"^GFM weight k.w must have shape \(6, 64\), got \(6, 63\)$"):
        GfmWeights(*arrays)
    bank = draw_bank(BOX, 40, 5, seed=1)
    with pytest.raises(ShapeError, match=r"^feature must be \(128,\), got \(127,\)$"):
        gfm_forward(np.zeros(127), Pose6.identity(), bank, w)


def test_alignment_weights_pick_bank_members(catalog_map):
    # with the hand-built weights the fused pose sits on (or blends tightly
    # around) a stored candidate once re-projected to the world frame
    w = alignment_gfm_weights()
    for oid in ("rubiks_cube", "mustard_bottle", "tennis_ball"):
        spec = catalog_map[oid]
        bank = build_memory(generate_candidates(spec, 200, seed=3), 30,
                            object_id=oid)
        obj = Pose6(np.array([2.0, 0.1, 0.45]), np.zeros(3))
        fused, alphas = gfm_forward(object_feature(spec), obj, bank, w)
        best = grasp_to_world(bank.candidates[int(np.argmax(alphas))].pose, obj)
        assert np.linalg.norm(fused.position - best.position) < 0.02
        assert float(alphas.max()) > 0.5
