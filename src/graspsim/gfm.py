"""Grasp memory and attention fusion.

Candidates are generated analytically per primitive (antipodal pairs that fit
the parallel-jaw aperture); an episode's top-K memory bank (``draw_bank``)
poses only the K it keeps.  The bank, stored object-locally, is projected to
the world frame once per object orientation and fused with a single
query/key/value attention pass.  Orientation fusion happens in the 64-d value
embedding and is projected back to 6-D; note that the degenerate linear
default weights make this a convex blend of pose vectors, and averaging Euler
angles directly is geometrically valid only for tightly clustered rotations.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING

import numpy as np

from .atomicfile import atomic_write
from .errors import EmptyBankError, InvalidArgumentError, ShapeError, check_integer
from .se3 import (Pose6, _euler9, _mul9, _mulv, _rot9, _trusted, matrix_to_euler,
                  vec6_decode, vec6_encode)

if TYPE_CHECKING:
    from .scene import ObjectSpec

GRIPPER_APERTURE = 0.085
DEFAULT_BANK_SIZE = 30
FEATURE_DIM = 128
HIST_BINS = 60
SURFACE_SAMPLES = 512
GFM_SHAPES = [
    ("q.w", (FEATURE_DIM + 6, 64)), ("q.b", (64,)),
    ("k.w", (6, 64)), ("k.b", (64,)),
    ("v.w", (6, 64)), ("v.b", (64,)),
    ("out.w", (64, 6)), ("out.b", (6,)),
]


@dataclass(frozen=True)
class GraspCandidate:
    """Object-local grasp pose with a feasibility score in [0, 1]."""

    pose: Pose6
    score: float

    def __post_init__(self):
        if not (0.0 <= self.score <= 1.0):
            raise InvalidArgumentError(f"score must be in [0,1], got {self.score}")


@dataclass(frozen=True)
class GraspMemoryBank:
    object_id: str
    candidates: tuple
    k: int
    # _world_vec6's last projection: (orientation bytes, offsets, Euler rows).
    _memo: tuple = field(init=False, repr=False, compare=False, default=(None, None, None))

    def __post_init__(self):
        object.__setattr__(self, "k", check_integer("K", self.k, 1))
        scores = [c.score for c in self.candidates]
        if any(scores[i] < scores[i + 1] for i in range(len(scores) - 1)):
            raise InvalidArgumentError("bank candidates must be sorted by score")
        if len(self.candidates) > self.k:
            raise InvalidArgumentError("bank holds more candidates than K")

    def __len__(self) -> int:
        return len(self.candidates)


@dataclass(frozen=True)
class GfmWeights:
    """Linear maps of the fusion module: query 134->64, key/value 6->64, out 64->6."""

    wq: np.ndarray
    bq: np.ndarray
    wk: np.ndarray
    bk: np.ndarray
    wv: np.ndarray
    bv: np.ndarray
    wout: np.ndarray
    bout: np.ndarray

    def __post_init__(self):
        for (name, shape), f in zip(GFM_SHAPES, fields(self)):
            arr = np.asarray(getattr(self, f.name), dtype=np.float64)
            if arr.shape != shape:
                raise ShapeError(f"GFM weight {name} must have shape {shape}, "
                                 f"got {arr.shape}")
            if not np.isfinite(arr).all():
                raise InvalidArgumentError(f"GFM weight {name} has non-finite values")
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, f.name, arr)


def random_gfm_weights(seed: int = 0) -> GfmWeights:
    """Seeded init, uniform +-1/sqrt(fan_in) matrices and zero biases."""
    rng = np.random.Generator(np.random.PCG64(seed))
    arrs = []
    for name, shape in GFM_SHAPES:
        if len(shape) == 2:
            bound = 1.0 / np.sqrt(shape[0])
            arrs.append(rng.uniform(-bound, bound, size=shape))
        else:
            arrs.append(np.zeros(shape))
    return GfmWeights(*arrs)


def alignment_gfm_weights() -> GfmWeights:
    """Hand-built functional default for the scripted controller.

    Keys carry the world grasp 6-vector verbatim; values/out are an identity
    pair so the fused output is a convex blend of candidate pose vectors.
    The query is a fixed sharp preference over the key coordinates (so one
    candidate dominates and the selection is stable while the object
    translates) plus a coupling to the object's planar position that favors
    grasp points on the near side, i.e. facing a robot at the origin.
    """
    wq = np.zeros((FEATURE_DIM + 6, 64))
    bq = np.zeros(64)
    # Sharp generic preference: mostly "high grasp point", tie-broken by the
    # remaining coordinates so the argmax is unique for any candidate set.
    bq[:6] = [170.0, 290.0, 4100.0, 37.0, 23.0, 31.0]
    # Object position (query input indices 128, 129) against candidate world
    # xy: negative coupling scores near-side grasp offsets higher.
    wq[FEATURE_DIM + 0, 0] = -60.0
    wq[FEATURE_DIM + 1, 1] = -60.0
    wk = np.zeros((6, 64))
    wk[:, :6] = np.eye(6)
    wv = np.zeros((6, 64))
    wv[:, :6] = np.eye(6)
    wout = np.zeros((64, 6))
    wout[:6, :] = np.eye(6)
    return GfmWeights(wq, bq, wk, np.zeros(64), wv, np.zeros(64),
                      wout, np.zeros(6))


# ---------------------------------------------------------------------------
# Candidate generation (analytic antipodal sampler)
# ---------------------------------------------------------------------------

def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.cross`` of two 3-vectors on Python floats: the same products and
    differences (``a1*b2 - a2*b1``, ...) at a small part of its call cost."""
    a0, a1, a2 = a.tolist()
    b0, b1, b2 = b.tolist()
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def _pose_from_axes(position, approach, closing) -> Pose6:
    """Grasp pose whose local +x is the approach axis and +y the closing axis."""
    a = np.asarray(approach, dtype=float)
    a = a / np.linalg.norm(a)
    c = np.asarray(closing, dtype=float)
    c = c - a * np.dot(a, c)
    c = c / np.linalg.norm(c)
    r = np.column_stack([a, c, _cross(a, c)])
    return _trusted(Pose6, np.array(position, dtype=float), matrix_to_euler(r))


def _score(width, approach_z, aperture: float) -> list:
    """Each candidate's score from its pair width and approach-axis z: wider
    pairs score lower; approaching from below is penalized."""
    base = 1.0 - np.asarray(width, dtype=float) / aperture
    up = np.maximum(0.0, approach_z)
    return np.minimum(np.maximum(base * (1.0 - 0.5 * up), 0.0), 1.0).tolist()


def _uniform(u: np.ndarray, lo: float, hi: float) -> list:
    """``rng.uniform(lo, hi)`` of each ``rng.random()`` draw in ``u``, as
    Python floats: numpy computes one as ``lo + (hi - lo) * random()``."""
    return (lo + (hi - lo) * u).tolist()


def _sphere_draws(radius, n, rng, aperture):
    if 2.0 * radius > aperture:
        return [], None
    u = rng.random((n, 3))   # z, phi and roll of each candidate in turn
    z = _uniform(u[:, 0], -1.0, 1.0)
    phi, roll = (_uniform(u[:, j], -np.pi, np.pi) for j in (1, 2))

    def pose(i):
        s = np.sqrt(max(0.0, 1.0 - z[i] * z[i]))
        approach = np.array([s * np.cos(phi[i]), s * np.sin(phi[i]), z[i]])
        helper = np.array([1.0, 0.0, 0.0] if abs(z[i]) > 0.9 else [0.0, 0.0, 1.0])
        closing_seed = _cross(approach, helper)
        c = (np.cos(roll[i]) * closing_seed
             + np.sin(roll[i]) * _cross(approach, closing_seed))
        return _pose_from_axes(np.zeros(3), approach, c)
    return _score(2.0 * radius, np.array(z), aperture), pose


_AXES = tuple(np.eye(3))


def _box_draws(dims, n, rng, aperture):
    feasible = [i for i in range(3) if dims[i] <= aperture]
    if not feasible:
        return [], None
    combos = [(ci, ai, sign, 3 - ci - ai) for ci in feasible for ai in range(3)
              if ai != ci for sign in (1.0, -1.0)]
    picks = [combos[idx % len(combos)] for idx in range(n)]
    # Slide along the remaining axis; index 0 of each combo stays centered.
    frac = [0.0] * min(n, len(combos)) + _uniform(rng.random(max(0, n - len(combos))),
                                                  -0.25, 0.25)

    def pose(i):
        ci, ai, sign, free = picks[i]
        return _pose_from_axes(_AXES[free] * (frac[i] * dims[free]),
                               sign * _AXES[ai], _AXES[ci])
    approach_z = np.array([sign * _AXES[ai][2] for _, ai, sign, _ in picks])
    return _score([dims[ci] for ci, *_ in picks], approach_z, aperture), pose


def _cylinder_draws(radius, height, n, rng, aperture):
    if 2.0 * radius > aperture:
        return [], None
    n_top = max(1, n // 4)
    side = n - n_top
    # A side grasp draws its phi, then its frac (the first stays centered);
    # then each top grasp draws its phi.
    k = max(0, 2 * side - 1)
    u = rng.random(k + n_top)
    phi = _uniform(np.concatenate([u[:min(side, 1)], u[1:k:2], u[k:]]), -np.pi, np.pi)
    frac = [0.0] + _uniform(u[2:k:2], -0.25, 0.25)

    def pose(i):
        ring = np.array([np.cos(phi[i]), np.sin(phi[i]), 0.0])
        if i < side:
            return _pose_from_axes(np.array([0.0, 0.0, frac[i] * height]), ring, _AXES[2])
        return _pose_from_axes(np.array([0.0, 0.0, 0.25 * height]), np.array([0.0, 0.0, -1.0]),
                               ring)
    return _score(2.0 * radius, np.array([0.0] * side + [-1.0] * n_top), aperture), pose


def _draws(spec: ObjectSpec, n: int, seed: int, aperture: float):
    """The scores of ``n`` candidates of ``spec`` in draw order, and a function
    that builds the pose of candidate i; no candidates if nothing fits."""
    check_integer("n", n, 1)
    rng = np.random.Generator(np.random.PCG64(seed))
    if spec.shape == "sphere":
        return _sphere_draws(spec.dims[0], n, rng, aperture)
    if spec.shape == "box":
        return _box_draws(spec.dims, n, rng, aperture)
    return _cylinder_draws(spec.dims[0], spec.dims[1], n, rng, aperture)


def _kept(scores, k: int) -> list:
    """Indices of the top-K scores, best first (stable: ties keep earlier entries)."""
    return sorted(range(len(scores)), key=lambda i: -scores[i])[:check_integer("K", k)]


def generate_candidates(spec: ObjectSpec, n: int, seed: int,
                        aperture: float = GRIPPER_APERTURE) -> list:
    """Antipodal grasp candidates in the object frame; empty if nothing fits."""
    scores, pose = _draws(spec, n, seed, aperture)
    return [GraspCandidate(pose(i), s) for i, s in enumerate(scores)]


def build_memory(candidates, k: int = DEFAULT_BANK_SIZE,
                 object_id: str = "") -> GraspMemoryBank:
    """Keep the top-K candidates by score (stable: ties keep earlier entries)."""
    return GraspMemoryBank(object_id, tuple(candidates[i] for i in
                                            _kept([c.score for c in candidates], k)), k)


def draw_bank(spec: ObjectSpec, n: int, k: int, seed: int,
              aperture: float = GRIPPER_APERTURE) -> GraspMemoryBank:
    """``build_memory(generate_candidates(spec, n, seed, aperture), k, spec.id)``,
    with a pose built only for the K candidates it keeps."""
    scores, pose = _draws(spec, n, seed, aperture)
    return GraspMemoryBank(spec.id, tuple(GraspCandidate(pose(i), scores[i])
                                          for i in _kept(scores, k)), k)


# ---------------------------------------------------------------------------
# Object descriptor
# ---------------------------------------------------------------------------

def _surface_points(spec: ObjectSpec, rng) -> np.ndarray:
    n = SURFACE_SAMPLES
    if spec.shape == "sphere":
        r = spec.dims[0]
        z = rng.uniform(-1, 1, n)
        phi = rng.uniform(-np.pi, np.pi, n)
        s = np.sqrt(np.maximum(0.0, 1 - z**2))
        return r * np.column_stack([s * np.cos(phi), s * np.sin(phi), z])
    if spec.shape == "box":
        half = np.asarray(spec.dims) / 2.0
        pts = rng.uniform(-1, 1, size=(n, 3)) * half
        face = rng.integers(0, 3, n)
        sign = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        pts[np.arange(n), face] = half[face] * sign
        return pts
    r, h = spec.dims
    phi = rng.uniform(-np.pi, np.pi, n)
    area_side = 2 * np.pi * r * h
    area_caps = 2 * np.pi * r * r
    on_side = rng.random(n) < area_side / (area_side + area_caps)
    z = np.where(on_side, rng.uniform(-h / 2, h / 2, n),
                 np.where(rng.random(n) < 0.5, h / 2, -h / 2))
    rad = np.where(on_side, r, r * np.sqrt(rng.random(n)))
    return np.column_stack([rad * np.cos(phi), rad * np.sin(phi), z])


def object_feature(spec: ObjectSpec) -> np.ndarray:
    """128-d analytic descriptor: shape one-hot, dims, volume, area,
    radial-distance histogram of sampled surface points, mass; zero padded."""
    if spec.shape == "sphere":
        r = spec.dims[0]
        dims3 = (r, 0.0, 0.0)
        volume = 4.0 / 3.0 * np.pi * r**3
        area = 4.0 * np.pi * r**2
    elif spec.shape == "box":
        dims3 = tuple(spec.dims)
        lx, ly, lz = spec.dims
        volume = lx * ly * lz
        area = 2.0 * (lx * ly + ly * lz + lx * lz)
    else:
        r, h = spec.dims
        dims3 = (r, h, 0.0)
        volume = np.pi * r**2 * h
        area = 2.0 * np.pi * r * (r + h)
    one_hot = [float(spec.shape == s) for s in ("sphere", "box", "cylinder")]
    key = f"{spec.shape}:{','.join(f'{d:.6f}' for d in spec.dims)}"
    rng = np.random.Generator(np.random.PCG64(zlib.crc32(key.encode())))
    pts = _surface_points(spec, rng)
    dist = np.linalg.norm(pts, axis=1)
    d_max = spec.bounding_radius * (1.0 + 1e-9)
    hist, _ = np.histogram(np.clip(dist, 0.0, d_max), bins=HIST_BINS,
                           range=(0.0, d_max))
    feat = np.zeros(FEATURE_DIM)
    body = np.concatenate([one_hot, dims3, [volume, area],
                           hist / SURFACE_SAMPLES, [spec.mass]])
    feat[:body.size] = body
    return feat


# ---------------------------------------------------------------------------
# Fusion
# ---------------------------------------------------------------------------

def _world_vec6(bank: GraspMemoryBank, obj_pose: Pose6) -> np.ndarray:
    """(K, 6) world vectors of every candidate: row i is
    vec6_encode(grasp_to_world(c_i.pose, obj_pose)), through compose's float
    steps.  The rotated offsets and Euler rows depend on the orientation
    alone, so the bank keeps the last ones: a riding object only translates,
    and a query at the same orientation bytes adds the position to the kept
    offsets.
    """
    key, (memo_key, offsets, euler) = obj_pose.orientation.tobytes(), bank._memo
    if key != memo_key:
        ra = _rot9(obj_pose.orientation.tolist())
        poses = [c.pose for c in bank.candidates]
        offsets = np.array([_mulv(ra, p.position.tolist()) for p in poses]).reshape(-1, 3)
        euler = np.array([_euler9(_mul9(ra, _rot9(p.orientation.tolist())))
                          for p in poses]).reshape(-1, 3)
        object.__setattr__(bank, "_memo", (key, offsets, euler))
    return np.concatenate([offsets + obj_pose.position, euler], axis=1)


def gfm_forward(feat, obj_pose: Pose6, bank: GraspMemoryBank,
                w: GfmWeights) -> tuple[Pose6, np.ndarray]:
    """Fuse the memory bank into one world-frame grasp pose.

    Returns the decoded pose and the attention weights (softmax over the
    unscaled query-key dot products).  The weighted sum is anchored at the
    first value embedding — algebraically the same convex combination, but
    it makes the single-candidate and identical-candidate degeneracies
    bit-exact instead of merely close.
    """
    if len(bank) == 0:
        raise EmptyBankError(f"cannot fuse the empty grasp memory bank of {bank.object_id!r}")
    feat = np.asarray(feat, dtype=np.float64)
    if feat.shape != (FEATURE_DIM,):
        raise ShapeError(f"feature must be ({FEATURE_DIM},), got {feat.shape}")
    query_in = np.concatenate([feat, vec6_encode(obj_pose)])
    q = query_in @ w.wq + w.bq
    g6 = _world_vec6(bank, obj_pose)
    keys = g6 @ w.wk + w.bk
    vals = g6 @ w.wv + w.bv
    logits = keys @ q
    logits -= logits.max()
    e = np.exp(logits)
    alphas = e / e.sum()
    # Anchor the convex combination on an embedding computed the same way
    # for every bank size, so degenerate banks reproduce the K=1 result
    # bit-for-bit (batched GEMM row results vary with the batch shape).
    anchor = g6[0] @ w.wv + w.bv
    fused = anchor + alphas @ (vals - vals[0])
    out = fused @ w.wout + w.bout
    return vec6_decode(out), alphas


# ---------------------------------------------------------------------------
# Bank file (written only, like the PGM frames: no reader)
# ---------------------------------------------------------------------------

def save_bank(bank: GraspMemoryBank, path) -> None:
    lines = [f"bank {bank.object_id} {bank.k}"]
    for c in bank.candidates:
        v = vec6_encode(c.pose)
        lines.append(" ".join(f"{x:.17g}" for x in v) + f" {c.score:.17g}")
    with atomic_write(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
