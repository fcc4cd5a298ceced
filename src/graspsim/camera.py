"""Dual pinhole cameras, raycast mask/depth rendering, history and latency.

Frames are 54x96.  Depth is z-depth along the optical axis, not Euclidean
range — the two differ off-axis.  No-hit pixels store depth 0 with the
validity bit cleared.  Rays are cast against the ground heightfield, the
platform box, and the target primitive; the nearest hit wins and the mask
marks pixels whose nearest hit is the target.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass

import numpy as np

from .atomicfile import atomic_write
from .errors import InvalidArgumentError, NotReadyError
from .nn import FRAME_SHAPE, HISTORY_LEN
from .scene import PLATFORM_THICKNESS, SceneState
from .se3 import Pose6, euler_to_matrix

FRAME_H, FRAME_W = FRAME_SHAPE
DEFAULT_HFOV = np.deg2rad(87.0)
DEPTH_CLIP = 5.0
LATENCY_STEPS = 4
_NO_HIT = np.inf

BASE_CAM_OFFSET = Pose6(np.array([0.25, 0.0, 0.15]),
                        np.array([0.0, np.deg2rad(15.0), 0.0]))
WRIST_CAM_OFFSET = Pose6(np.array([-0.08, 0.0, 0.04]), np.zeros(3))


@dataclass(frozen=True)
class CameraModel:
    """Pinhole camera of FRAME_H x FRAME_W square pixels: optical axis +x,
    image right -y, image up +z."""

    mount: str                        # base | wrist
    mount_offset: Pose6
    hfov: float = DEFAULT_HFOV

    def __post_init__(self):
        if not (0.0 < self.hfov < np.pi):
            raise InvalidArgumentError(f"hfov must be in (0, pi), got {self.hfov}")
        if self.mount not in ("base", "wrist"):
            raise InvalidArgumentError(f"mount must be base or wrist, got {self.mount}")


def base_camera(hfov: float = DEFAULT_HFOV) -> CameraModel:
    return CameraModel("base", BASE_CAM_OFFSET, hfov=hfov)


def wrist_camera(hfov: float = DEFAULT_HFOV) -> CameraModel:
    return CameraModel("wrist", WRIST_CAM_OFFSET, hfov=hfov)


@dataclass(frozen=True)
class Frame:
    """Binary target mask plus z-depth map with per-pixel validity."""

    mask: np.ndarray
    depth: np.ndarray
    valid: np.ndarray

    def __post_init__(self):
        for name in ("mask", "depth", "valid"):
            a = getattr(self, name)
            if a.shape != (FRAME_H, FRAME_W):
                raise InvalidArgumentError(f"{name} must be {FRAME_H}x{FRAME_W}")
            a.setflags(write=False)


_RAY_CACHE: dict = {}


def _camera_rays(cam: CameraModel):
    """Unnormalized camera-frame ray directions with x = 1 (so t is z-depth).

    Returns (dirs [3,n] row-contiguous float32, |dir|^2 [n]); rotation
    preserves the norms, so the squared lengths serve every world-frame
    quadratic test.
    """
    key = round(cam.hfov, 12)
    if key not in _RAY_CACHE:
        tan_h = np.tan(cam.hfov / 2.0)
        tan_v = tan_h * FRAME_H / FRAME_W               # square pixels
        u = (np.arange(FRAME_W) + 0.5 - FRAME_W / 2.0) / (FRAME_W / 2.0)
        v = (np.arange(FRAME_H) + 0.5 - FRAME_H / 2.0) / (FRAME_H / 2.0)
        yy = -tan_h * u[None, :] * np.ones((FRAME_H, 1))
        zz = -tan_v * v[:, None] * np.ones((1, FRAME_W))
        dirs = np.ascontiguousarray(
            np.stack([np.ones_like(yy), yy, zz], axis=-1).reshape(-1, 3).T,
            dtype=np.float32,
        )
        dirs.setflags(write=False)
        norm_sq = np.einsum("ij,ij->j", dirs, dirs)
        norm_sq.setflags(write=False)
        _RAY_CACHE[key] = (dirs, norm_sq)
    return _RAY_CACHE[key]


class _Workspace:
    """Per-thread scratch buffers so a frame render allocates almost nothing.

    Fresh 40 KB temporaries on every ufunc call blow the cache and turn the
    renderer memory-bound; reusing warm buffers is worth ~5x here.
    """

    def __init__(self, n: int):
        self.d = np.empty((3, n), np.float32)
        self.t_obj = np.empty(n, np.float32)
        self.t_plat = np.empty(n, np.float32)
        self.t_ground = np.empty(n, np.float32)
        self.r = [np.empty(n, np.float32) for _ in range(8)]
        self.i1 = np.empty(n, np.intp)
        self.i2 = np.empty(n, np.intp)
        self.m1 = np.empty(n, bool)
        self.m2 = np.empty(n, bool)


_WS_LOCAL = threading.local()


def _workspace() -> _Workspace:
    ws = getattr(_WS_LOCAL, "ws", None)
    if ws is None:
        ws = _WS_LOCAL.ws = _Workspace(FRAME_H * FRAME_W)
    return ws


# ---------------------------------------------------------------------------
# Ray-primitive intersections.  Directions are [3,n] with contiguous rows;
# origins are single 3-points, so slab offsets stay scalar.  The in-place tests
# write into workspace buffers; the slab test runs on slices of them, so the
# full frame and the object's few candidate rays share it.
# ---------------------------------------------------------------------------

def _ray_cylinder_local(o, d, radius, height) -> np.ndarray:
    """Cylinder centered at the local origin with axis z."""
    hz = height / 2.0
    dx, dy, dz = d
    a = dx * dx + dy * dy
    b = 2.0 * (o[0] * dx + o[1] * dy)
    c = o[0] * o[0] + o[1] * o[1] - radius * radius
    disc = b * b - (4.0 * c) * a
    ok = (disc >= 0) & (a > 1e-18)
    sq = np.sqrt(np.where(ok, disc, 0.0))
    inv2a = 0.5 / np.where(ok, a, 1.0)
    best = np.full(d.shape[1], _NO_HIT, np.float32)
    for sgn in (-1.0, 1.0):
        t = (-b + sgn * sq) * inv2a
        z = o[2] + t * dz
        good = ok & (t > 0) & (np.abs(z) <= hz)
        best = np.where(good & (t < best), t, best)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv_dz = 1.0 / dz
        for cap in (-hz, hz):
            t = (cap - o[2]) * inv_dz
            x = o[0] + t * dx
            y = o[1] + t * dy
            good = (t > 0) & np.isfinite(t) & (x * x + y * y <= radius * radius)
            best = np.where(good & (t < best), t, best)
    return best


def _sphere_into(o, d, d_sq, center, radius, out, ws: _Workspace) -> None:
    """Quadratic sphere test, fully in-place; misses become inf in ``out``."""
    b, disc, reg = ws.r[4], ws.r[5], ws.r[6]
    ocx = np.float32(o[0] - center[0])
    ocy = np.float32(o[1] - center[1])
    ocz = np.float32(o[2] - center[2])
    c0 = float(ocx) ** 2 + float(ocy) ** 2 + float(ocz) ** 2 - float(radius) ** 2
    np.multiply(d[0], np.float32(2.0 * ocx), out=b)
    np.multiply(d[1], np.float32(2.0 * ocy), out=reg)
    b += reg
    np.multiply(d[2], np.float32(2.0 * ocz), out=reg)
    b += reg                                           # b = 2 d . oc
    np.multiply(b, b, out=disc)
    np.multiply(d_sq, np.float32(4.0 * c0), out=reg)
    disc -= reg                                        # disc = b^2 - 4ac
    np.greater_equal(disc, 0.0, out=ws.m1)
    np.maximum(disc, 0.0, out=disc)
    np.sqrt(disc, out=disc)                            # sq
    np.divide(np.float32(0.5), d_sq, out=reg)          # 1 / 2a
    np.add(b, disc, out=out)
    np.negative(out, out=out)
    out *= reg                                         # t0 = (-b - sq) / 2a
    np.subtract(disc, b, out=disc)
    disc *= reg                                        # t1 = (-b + sq) / 2a
    np.less_equal(out, 0.0, out=ws.m2)
    np.copyto(out, disc, where=ws.m2)                  # prefer t0 when > 0
    np.greater(out, 0.0, out=ws.m2)
    ws.m1 &= ws.m2
    np.logical_not(ws.m1, out=ws.m2)
    np.copyto(out, _NO_HIT, where=ws.m2)


def _box_into(o, d, center, half, op, out, ws: _Workspace) -> None:
    """Slab test over len(out) rays, slab distances ``op(center -+ half - o, d)``.
    The platform passes directions and np.divide, the object reciprocals and
    np.multiply: the two round differently, and each caller's bits are pinned
    (every frame; the recorded student datasets).  A zero direction component
    gives an unconstrained (or empty) interval on its axis."""
    lo, hi, t1, t2 = (r[:len(out)] for r in ws.r[4:8])
    m1, m2 = ws.m1[:len(out)], ws.m2[:len(out)]
    lo.fill(-np.inf)
    hi.fill(np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        for axis in range(3):
            op(np.float32(center[axis] - half[axis] - o[axis]), d[axis], out=t1)
            op(np.float32(center[axis] + half[axis] - o[axis]), d[axis], out=t2)
            np.fmax(lo, np.fmin(t1, t2, out=out), out=lo)
            np.fmin(hi, np.fmax(t1, t2, out=t2), out=hi)
    np.greater_equal(hi, lo, out=m1)
    np.greater(hi, 0.0, out=m2)
    m1 &= m2
    np.less_equal(lo, 0.0, out=m2)
    np.copyto(out, lo)
    np.copyto(out, hi, where=m2)                       # t = lo if lo > 0 else hi
    np.logical_not(m1, out=m2)
    np.copyto(out, _NO_HIT, where=m2)


def _heights_into(terrain, xs, ys, out, ws: _Workspace) -> None:
    """Bilinear terrain sample into ``out``; xs/ys are consumed as scratch."""
    nx, ny = terrain.heights.shape
    flat = terrain.flat32
    inv_cell = np.float32(1.0 / terrain.cell_size)
    xs -= np.float32(terrain.origin[0])
    xs *= inv_cell
    np.clip(xs, 0.0, np.float32(nx - 1), out=xs)
    ys -= np.float32(terrain.origin[1])
    ys *= inv_cell
    np.clip(ys, 0.0, np.float32(ny - 1), out=ys)
    i0, j0 = ws.i1, ws.i2
    np.copyto(i0, xs, casting="unsafe")                # trunc == floor (>= 0)
    np.minimum(i0, nx - 2, out=i0)
    np.copyto(j0, ys, casting="unsafe")
    np.minimum(j0, ny - 2, out=j0)
    xs -= i0                                           # fx
    ys -= j0                                           # fy
    i0 *= ny
    i0 += j0                                           # flat index of (i0, j0)
    h10, h11 = ws.r[6], ws.r[7]
    flat.take(i0, out=out)                             # h00
    i0 += ny
    flat.take(i0, out=h10)
    h10 -= out
    h10 *= xs
    out += h10                                         # top = h00 + fx (h10 - h00)
    i0 += 1
    flat.take(i0, out=h11)
    i0 -= ny
    flat.take(i0, out=h10)                             # h01
    h11 -= h10
    h11 *= xs
    h10 += h11                                         # bot = h01 + fx (h11 - h01)
    h10 -= out
    h10 *= ys
    out += h10                                         # top + fy (bot - top)


def _terrain_into(o, d, terrain, out, ws: _Workspace) -> None:
    """Descending rays vs the 0..0.1 m heightfield band.

    One fixed-point step of t = (h(x(t), y(t)) - oz) / dz from the band's
    mid-height (0.05 m), clamped to the band entry: a median 1.6 mm and a
    99th percentile 3.7 cm off the converged depth (spawn views, 20 scenes).
    Terrain sits strictly below the floating platform and the object, so its
    depth never occludes them.  Non-descending rays ride along on a pinned
    slope and are masked out at the end.
    """
    dz = d[2]
    inv, t_band, t = ws.r[0], ws.r[1], ws.r[2]
    xs, ys, h = ws.r[3], ws.r[4], ws.r[5]
    np.minimum(dz, np.float32(-1e-12), out=inv)
    np.divide(np.float32(1.0), inv, out=inv)
    np.multiply(inv, np.float32(0.1 - o[2]), out=t_band)
    np.maximum(t_band, 0.0, out=t_band)
    np.multiply(inv, np.float32(0.05 - o[2]), out=t)
    np.multiply(t, d[0], out=xs)
    xs += np.float32(o[0])
    np.multiply(t, d[1], out=ys)
    ys += np.float32(o[1])
    _heights_into(terrain, xs, ys, h, ws)
    h -= np.float32(o[2])
    np.multiply(h, inv, out=t)
    np.maximum(t, t_band, out=out)
    np.less(dz, np.float32(-1e-12), out=ws.m1)
    np.logical_not(ws.m1, out=ws.m1)
    np.copyto(out, _NO_HIT, where=ws.m1)


def _object_into(o, d, d_sq, pose: Pose6, spec, out, ws: _Workspace) -> None:
    """Target primitive in its (possibly rotated) frame.

    A bounding-sphere prefilter keeps the exact (and pricier) primitive test
    on the handful of rays that can possibly hit the object.  A box multiplies
    by reciprocal directions, the arithmetic that made the recorded masks.
    """
    if spec.shape == "sphere":
        _sphere_into(o, d, d_sq, pose.position, spec.dims[0], out, ws)
        return
    _sphere_into(o, d, d_sq, pose.position, spec.bounding_radius * 1.001,
                 out, ws)
    np.isfinite(out, out=ws.m1)
    near = np.flatnonzero(ws.m1)
    out.fill(_NO_HIT)
    if near.size == 0:
        return
    r = euler_to_matrix(pose.orientation)
    o_l = r.T @ (o - pose.position)
    d_l = (r.T @ d.take(near, axis=1).astype(np.float64)).astype(np.float32)
    if spec.shape == "box":
        hits = ws.r[3][:near.size]
        with np.errstate(divide="ignore"):
            _box_into(o_l, 1.0 / d_l, np.zeros(3), np.asarray(spec.dims) / 2.0,
                      np.multiply, hits, ws)
        out[near] = hits
    else:
        out[near] = _ray_cylinder_local(o_l, d_l, spec.dims[0], spec.dims[1])


def render_frame(scene: SceneState, robot, cam: CameraModel,
                 mask_flip_prob: float = 0.0, noise_seed: int = 0) -> Frame:
    """Cast one ray per pixel and return the target mask plus z-depth."""
    parent = robot.base_pose if cam.mount == "base" else robot.ee_pose
    r_parent = euler_to_matrix(parent.orientation)
    rot = r_parent @ euler_to_matrix(cam.mount_offset.orientation)
    o = parent.position + r_parent @ cam.mount_offset.position
    rays, d_sq = _camera_rays(cam)
    ws = _workspace()
    d = np.matmul(rot.astype(np.float32), rays, out=ws.d)

    _object_into(o, d, d_sq, scene.object_pose, scene.object_spec, ws.t_obj, ws)
    pc = scene.platform_pose.position
    center = (pc[0], pc[1], pc[2] - PLATFORM_THICKNESS / 2.0)
    half = (scene.platform_half[0], scene.platform_half[1],
            PLATFORM_THICKNESS / 2.0)
    _box_into(o, d, center, half, np.divide, ws.t_plat, ws)
    _terrain_into(o, d, scene.terrain, ws.t_ground, ws)

    nearest = ws.r[0]
    np.fmin(ws.t_obj, ws.t_plat, out=nearest)
    np.fmin(nearest, ws.t_ground, out=nearest)
    valid = np.isfinite(nearest)
    mask = np.less_equal(ws.t_obj, nearest)
    mask &= valid
    depth = np.where(valid, nearest, np.float32(0.0))

    mask = mask.reshape(FRAME_H, FRAME_W)
    if mask_flip_prob > 0.0:
        rng = np.random.Generator(np.random.PCG64(noise_seed))
        flips = rng.random(mask.shape) < mask_flip_prob
        mask = mask ^ flips
    return Frame(mask, depth.reshape(FRAME_H, FRAME_W),
                 valid.reshape(FRAME_H, FRAME_W))


# ---------------------------------------------------------------------------
# Latency and history
# ---------------------------------------------------------------------------

class LatencyBuffer:
    """Fixed FIFO delaying frames by LATENCY_STEPS (four) decision steps.

    During warm-up (fewer than LATENCY_STEPS + 1 pushes) the first frame ever
    pushed keeps coming back, so the very first call returns its own input.
    """

    def __init__(self):
        self._queue: deque = deque()

    def push_and_fetch(self, frame):
        self._queue.append(frame)
        if len(self._queue) > LATENCY_STEPS:
            return self._queue.popleft()
        return self._queue[0]


class ObsHistory:
    """Ring of the last HISTORY_LEN frames of one view."""

    def __init__(self):
        self._frames: deque = deque(maxlen=HISTORY_LEN)

    def push(self, frame) -> None:
        """Keep the frame as its float32 channels, normalized once: the mask as
        {0,1}, the depth clipped to [0, 5] m over 5 (invalid pixels 0)."""
        d = np.clip(frame.depth, 0.0, DEPTH_CLIP) / DEPTH_CLIP
        self._frames.append((frame.mask.astype(np.float32),
                             np.where(frame.valid, d, 0.0).astype(np.float32)))

    def frames(self) -> list:
        """(mask, depth) pairs oldest to newest, padded by repeating the oldest."""
        if not self._frames:
            raise NotReadyError("observation history is empty")
        frames = list(self._frames)
        return [frames[0]] * (HISTORY_LEN - len(frames)) + frames


def stack_observation(hist_wrist: ObsHistory, hist_base: ObsHistory) -> np.ndarray:
    """[STACK_CHANNELS,*FRAME_SHAPE] float32 stack, one view after the other in
    `nn.VIEWS` order: its HISTORY_LEN masks, then its HISTORY_LEN depths."""
    channels = []
    for hist in (hist_wrist, hist_base):
        frames = hist.frames()
        channels += [mask for mask, _ in frames] + [depth for _, depth in frames]
    return np.stack(channels)


# ---------------------------------------------------------------------------
# Frame dumps (portable graymaps for eyeballing)
# ---------------------------------------------------------------------------

def write_pgm(path, image: np.ndarray, maxval: int) -> None:
    """Binary PGM; 16-bit samples are stored big-endian per the format."""
    h, w = image.shape
    header = f"P5\n{w} {h}\n{maxval}\n".encode("ascii")
    if maxval > 255:
        payload = image.astype(">u2").tobytes()
    else:
        payload = image.astype(np.uint8).tobytes()
    with atomic_write(path) as fh:
        fh.write(header + payload)


def dump_frame(frame: Frame, stem) -> list:
    """Write mask (0/255) and depth (16-bit millimeters) PGMs; returns paths."""
    mask_path = f"{stem}_mask.pgm"
    depth_path = f"{stem}_depth.pgm"
    write_pgm(mask_path, np.where(frame.mask, 255, 0), 255)
    mm = np.clip(np.where(frame.valid, frame.depth, 0.0) * 1000.0, 0, 65535)
    write_pgm(depth_path, mm.astype(np.uint16), 65535)
    return [mask_path, depth_path]
