"""Minimal inference-only tensor ops and the student network forward pass.

Everything runs on float32 numpy arrays; there is no autograd, no training,
and no GPU path.  Weights come from files or seeded initialization (matrices
uniform in +-1/sqrt(fan_in), biases zero, norm gains one).

Validation happens at the boundaries: `WeightStore` rejects non-finite weights
once, when they enter the program (init, `load`, construction).  The ops check
activations, not weights: a public op checks its input, then runs its private
kernel (`_linear`, `_layer_norm`, `_elu`, `_softmax`), which the encoder layers
call directly and which checks its output.  The CNN runs one image at a time:
`conv_pool_elu` copies an image's sliding windows into columns in row-parity
order (even output rows, then odd ones; an odd last row is not cast), runs one
GEMM into a tile it reuses, checks it as `conv2d` does, then pools, biases and
ELUs it into an image-major [n,oc,h,w] batch, already the fc's row layout.
`max_pool2` trusts the tile it is handed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .atomicfile import atomic_write
from .errors import ArchitectureError, InvalidArgumentError, ShapeError, check_integer

FRAME_SHAPE = (54, 96)
VIEWS = ("wrist", "base")               # camera views, in stack order
HISTORY_LEN = 3                         # frames stacked per view
STACK_LAYOUT = (len(VIEWS), 2, HISTORY_LEN)     # views x (mask, depth) x history
STACK_CHANNELS = math.prod(STACK_LAYOUT)
STACK_SHAPE = (STACK_CHANNELS, *FRAME_SHAPE)
PROPRIO_DIM = 24
MODEL_DIM = 64
FF_DIM = 256
NUM_HEADS = 2
NUM_LAYERS = 2
CNN_CH1 = 8
CNN_CH2 = 304
HEAD_DIMS = (128, 64, 8)
STUDENT_ARCH = "student-v1"
_LN_EPS = 1e-5


def as_tensor(x) -> np.ndarray:
    t = np.asarray(x, dtype=np.float32)
    if not np.all(np.isfinite(t)):
        raise InvalidArgumentError("tensor contains non-finite values")
    return t


def _checked(y: np.ndarray, op: str) -> np.ndarray:
    if not np.all(np.isfinite(y)):
        raise InvalidArgumentError(f"{op} produced non-finite values")
    return y


# ---------------------------------------------------------------------------
# Primitive ops
# ---------------------------------------------------------------------------

def linear(x, w, b) -> np.ndarray:
    """y = x @ w + b over the last axis; w and b are not scanned on entry."""
    x, w, b = as_tensor(x), np.asarray(w, np.float32), np.asarray(b, np.float32)
    if x.shape[-1] != w.shape[0] or b.shape != (w.shape[1],):
        raise ShapeError(f"linear shapes disagree: x {x.shape}, w {w.shape}, b {b.shape}")
    return _linear(x, w, b)


def _linear(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    return _checked(x @ w + b, "linear")


def elu(x) -> np.ndarray:
    """x if x >= 0 else exp(x) - 1, computed as max(expm1(min(x, 0)), x).

    expm1(x) >= x for x < 0, so three whole-array passes give the masked
    ``expm1(x, where=x < 0)`` bit for bit (every finite float32 checked) at a
    fraction of the masked ufunc's cost, with no overflow for large x.
    """
    x = as_tensor(x)
    return _elu(x, np.empty_like(x))


def _elu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """`elu` of a finite float32 array of 1 or more axes, into `out` or a new array."""
    out = np.minimum(x, 0.0, out=out)
    np.expm1(out, out=out)
    return np.maximum(out, x, out=out)


def softmax(x, axis: int = -1) -> np.ndarray:
    return _softmax(as_tensor(x), axis)


def _softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    e = np.exp(x - np.max(x, axis=axis, keepdims=True))
    return e / np.sum(e, axis=axis, keepdims=True)


def conv2d(x, kernels) -> np.ndarray:
    """Valid cross-correlation (stride 1, no padding) of x [c,h,w] -> [oc,oh,ow]
    with kernels [oc,c,kh,kw]; oh = h - kh + 1 and ow = w - kw + 1.  One GEMM
    [oc,c*kh*kw] x [c*kh*kw,oh*ow].
    """
    x, k = as_tensor(x), np.asarray(kernels, np.float32)
    if x.ndim != 3:
        raise ShapeError(f"conv2d takes one image [c,h,w], got {x.shape}")
    oh, ow = _conv_fit(x.shape, k, "conv2d")
    return _conv_tile(x, k, oh, ow, np.empty((k.shape[0], 1, oh, ow), np.float32))[:, 0]


def conv_pool_elu(x, kernels, bias) -> np.ndarray:
    """elu(max_pool2(conv2d(x[i], kernels)) + bias) for every image of a batch
    x [n,c,h,w] -> [n,oc,oh//2,ow//2], bit for bit under the kernels README names.

    One image at a time, through one cache-sized tile in row-parity order, so
    its row pairs are its two contiguous halves.  ELU is monotone, so pooling
    before it gives the bits of conv -> ELU -> pool on a quarter of the work.
    """
    x, k = as_tensor(x), np.asarray(kernels, np.float32)
    b = np.asarray(bias, np.float32)
    if x.ndim != 4 or b.shape != k.shape[:1]:
        raise ShapeError(f"conv_pool_elu takes images [n,c,h,w] and a bias per "
                         f"kernel, got {x.shape}, kernels {k.shape}, bias {b.shape}")
    oh, ow = _conv_fit(x.shape[1:], k, "conv_pool_elu")
    out = np.empty((x.shape[0], k.shape[0], oh // 2, ow // 2), np.float32)
    tile = np.empty((k.shape[0], 2, oh // 2, ow), np.float32)     # [oc,parity,row,col]
    for image, o in zip(x, out):
        pooled = max_pool2(_conv_tile(image, k, oh, ow, tile).swapaxes(1, 2))[:, :, 0]
        pooled += b[:, None, None]
        _elu(pooled, o)
    return out


def _conv_fit(image_shape, k: np.ndarray, op: str) -> tuple:
    """(oh, ow) of kernels k [oc,c,kh,kw] over one image [c,h,w]."""
    if k.ndim != 4 or image_shape[0] != k.shape[1]:
        raise ShapeError(f"{op} shapes disagree: image {tuple(image_shape)}, "
                         f"kernels {k.shape}")
    oh, ow = image_shape[1] - k.shape[2] + 1, image_shape[2] - k.shape[3] + 1
    if oh <= 0 or ow <= 0:
        raise ShapeError(f"{op} kernel {k.shape} does not fit image {tuple(image_shape)}")
    return oh, ow


def _conv_tile(x: np.ndarray, k: np.ndarray, oh: int, ow: int, tile: np.ndarray) -> np.ndarray:
    """The one im2col and GEMM: x [c,h,w]'s (oh, ow) windows, one per kernel tap,
    times kernels k [oc,c,kh,kw] into tile [oc,step,rows,ow], checked by min and
    max (they propagate NaN and expose +-inf).  Row step 1 keeps the output rows
    in order; 2 casts the even rows, then the odd ones, and no odd last row."""
    step, rows = tile.shape[1:3]
    win = sliding_window_view(x, (oh, ow), axis=(1, 2))[..., :step * rows, :]
    cols = win.reshape(*win.shape[:3], rows, step, ow).swapaxes(3, 4).reshape(-1, tile[0].size)
    np.matmul(k.reshape(len(k), -1), cols, out=tile.reshape(len(k), -1))
    if not (np.isfinite(tile.min()) and np.isfinite(tile.max())):
        raise InvalidArgumentError("conv2d produced non-finite values")
    return tile


def max_pool2(x) -> np.ndarray:
    """2x2 stride-2 max pooling of the last two axes; an odd last row/col is dropped."""
    x = np.asarray(x, np.float32)
    if x.ndim < 2:
        raise ShapeError(f"max_pool2 needs at least 2 axes, got {x.shape}")
    h2, w2 = x.shape[-2] // 2 * 2, x.shape[-1] // 2 * 2
    rows = np.maximum(x[..., 0:h2:2, :w2], x[..., 1:h2:2, :w2])
    return np.maximum(rows[..., 0::2], rows[..., 1::2])


def attention(q, k, v) -> np.ndarray:
    """Single-query attention with unscaled dot-product logits."""
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    if q.ndim != 2 or q.shape[0] != 1 or k.ndim != 2 or v.ndim != 2:
        raise ShapeError(f"attention expects q [1,d], k [n,d], v [n,d'], "
                         f"got {q.shape}, {k.shape}, {v.shape}")
    if q.shape[1] != k.shape[1] or k.shape[0] != v.shape[0]:
        raise ShapeError(f"attention shapes disagree: q {q.shape}, k {k.shape}, "
                         f"v {v.shape}")
    return _checked(_softmax(q @ k.T) @ v, "attention")


def layer_norm(x, gain, bias) -> np.ndarray:
    return _layer_norm(as_tensor(x), np.asarray(gain, np.float32), np.asarray(bias, np.float32))


def _layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """The variance is x.var's: the float32 sum of squares over an intp count."""
    centred = x - x.mean(axis=-1, keepdims=True)
    var = np.sum(centred * centred, axis=-1, keepdims=True)
    var /= np.intp(x.shape[-1])
    return _checked(centred / np.sqrt(var + _LN_EPS) * gain + bias, "layer_norm")


def transformer_encoder_layer(tokens, weights: dict) -> np.ndarray:
    """Post-norm encoder layer: NUM_HEADS-head scaled dot-product self-attention
    under ``attn.*`` + residual + norm, FF + residual + norm."""
    tokens = as_tensor(tokens)
    if tokens.ndim != 2:
        raise ShapeError(f"tokens must be 2-D, got {tokens.shape}")
    q, k, v = (_linear(tokens, weights[f"attn.w{p}"], weights[f"attn.b{p}"]) for p in "qkv")
    dh = tokens.shape[1] // NUM_HEADS
    heads = np.empty_like(tokens)
    for h in range(NUM_HEADS):
        sl = slice(h * dh, (h + 1) * dh)
        heads[:, sl] = _softmax((q[:, sl] @ k[:, sl].T) / np.float32(np.sqrt(dh))) @ v[:, sl]
    x = _layer_norm(tokens + _linear(heads, weights["attn.wo"], weights["attn.bo"]),
                    weights["ln1.g"], weights["ln1.b"])
    ff = _linear(_elu(_linear(x, weights["ff.w1"], weights["ff.b1"])),
                 weights["ff.w2"], weights["ff.b2"])
    return _layer_norm(x + ff, weights["ln2.g"], weights["ln2.b"])


@functools.lru_cache(maxsize=8)
def positional_encoding(length: int, dim: int) -> np.ndarray:
    """Sinusoidal position codes, shape [length, dim]; cached, read-only."""
    pos = np.arange(length, dtype=np.float32)[:, None]
    i = np.arange(dim, dtype=np.float32)[None, :]
    angles = pos / np.power(10000.0, (2.0 * np.floor(i / 2.0)) / dim)
    pe = np.where(i.astype(int) % 2 == 0, np.sin(angles), np.cos(angles)).astype(np.float32)
    pe.flags.writeable = False
    return pe


def kd_loss(student_actions, teacher_actions) -> float:
    """Mean over steps of the squared L2 distance between action vectors."""
    s = np.asarray(student_actions, dtype=np.float64)
    t = np.asarray(teacher_actions, dtype=np.float64)
    if s.shape != t.shape or s.ndim != 2 or s.shape[0] < 1:
        raise ShapeError(f"kd_loss needs matching [T,d] sequences, "
                         f"got {s.shape} and {t.shape}")
    return float(np.mean(np.sum((s - t) ** 2, axis=1)))


# ---------------------------------------------------------------------------
# Weight store
# ---------------------------------------------------------------------------

@dataclass
class WeightStore:
    """Named parameters matching a manifest; student-v1's is `student_manifest()`."""

    arch: str
    manifest: list                      # ordered (name, shape) pairs
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        declared = {name: tuple(shape) for name, shape in self.manifest}
        if len(declared) != len(self.manifest):
            raise ArchitectureError(f"manifest of arch {self.arch} repeats a name")
        want = dict(student_manifest()) if self.arch == STUDENT_ARCH else declared
        for name in (n for n in {**want, **declared} if declared.get(n) != want.get(n)):
            raise ArchitectureError(f"{self.arch} parameter {name!r}: the manifest says "
                                    f"{declared.get(name)}, the network needs {want.get(name)}")
        if set(declared) != set(self.params):
            missing = sorted(set(declared) - set(self.params))
            extra = sorted(set(self.params) - set(declared))
            raise ArchitectureError(
                f"parameters do not match manifest (missing {missing}, extra {extra})"
            )
        for name, shape in self.manifest:
            p = self.params[name]
            if tuple(p.shape) != tuple(shape):
                raise ArchitectureError(
                    f"parameter {name!r} has shape {tuple(p.shape)}, "
                    f"manifest says {tuple(shape)}"
                )
            p = self.params[name] = np.ascontiguousarray(p, dtype=np.float32)
            if not np.all(np.isfinite(p)):
                raise ArchitectureError(f"parameter {name!r} has non-finite values")

    def get(self, name: str) -> np.ndarray:
        if name not in self.params:
            raise ArchitectureError(f"unknown parameter {name!r} for arch {self.arch}")
        return self.params[name]

    def param_count(self) -> int:
        return int(sum(int(np.prod(shape)) for _, shape in self.manifest))

    def layer(self, prefix: str) -> dict:
        """Sub-map of parameters under `prefix.`, keys relative to it."""
        plen = len(prefix) + 1
        sub = {n[plen:]: p for n, p in self.params.items()
               if n.startswith(prefix + ".")}
        if not sub:
            raise ArchitectureError(f"no parameters under prefix {prefix!r}")
        return sub

    def save(self, path) -> None:
        lines = [f"weights-v1 {self.arch}"]
        for name, shape in self.manifest:
            lines.append(f"{name} {','.join(str(int(d)) for d in shape)}")
        header = ("\n".join(lines) + "\n---\n").encode("ascii")
        blob = b"".join(
            self.params[name].astype("<f4").tobytes() for name, _ in self.manifest
        )
        with atomic_write(path) as fh:
            fh.write(header)
            fh.write(blob)

    @staticmethod
    def load(path) -> "WeightStore":
        with open(path, "rb") as fh:
            data = fh.read()
        sep = b"\n---\n"
        cut = data.find(sep)
        if cut < 0:
            raise ArchitectureError(f"{path}: missing manifest separator")
        if not data[:cut].isascii():
            raise ArchitectureError(f"{path}: manifest is not ASCII")
        head = data[:cut].decode("ascii").splitlines() or [""]
        blob = data[cut + len(sep):]
        magic = head[0].split()
        if len(magic) != 2 or magic[0] != "weights-v1":
            raise ArchitectureError(f"{path}: bad header line {head[0]!r}")
        if len(blob) % 4:
            raise ArchitectureError(f"{path}: blob is not a whole number of floats")
        arch = magic[1]
        manifest, params, offset = [], {}, 0
        raw = np.frombuffer(blob, dtype="<f4")
        for line in head[1:]:
            parts = line.split()
            if len(parts) != 2 or not all(d.isdigit() and int(d) > 0
                                          for d in parts[1].split(",")):
                raise ArchitectureError(f"{path}: bad manifest line {line!r}")
            name, shape = parts[0], tuple(int(d) for d in parts[1].split(","))
            size = math.prod(shape)
            if offset + size > raw.size:
                raise ArchitectureError(f"{path}: blob too short at {name!r}")
            params[name] = raw[offset:offset + size].reshape(shape).copy()
            manifest.append((name, shape))
            offset += size
        if offset != raw.size:
            raise ArchitectureError(f"{path}: {raw.size - offset} trailing floats")
        try:
            return WeightStore(arch, manifest, params)
        except ArchitectureError as exc:
            raise ArchitectureError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Student network
# ---------------------------------------------------------------------------

def _cnn_flat_dim() -> int:
    h, w = FRAME_SHAPE
    h, w = (h - 5 + 1) // 2, (w - 5 + 1) // 2        # conv k5 + pool
    h, w = (h - 3 + 1) // 2, (w - 3 + 1) // 2        # conv k3 + pool
    return CNN_CH2 * h * w


def student_manifest() -> list:
    """Ordered (name, shape) pairs for the student policy network."""
    m = [
        ("cnn.conv1.w", (CNN_CH1, 2, 5, 5)), ("cnn.conv1.b", (CNN_CH1,)),
        ("cnn.conv2.w", (CNN_CH2, CNN_CH1, 3, 3)), ("cnn.conv2.b", (CNN_CH2,)),
        ("cnn.fc.w", (_cnn_flat_dim(), MODEL_DIM)), ("cnn.fc.b", (MODEL_DIM,)),
        ("proprio.w", (PROPRIO_DIM, MODEL_DIM)), ("proprio.b", (MODEL_DIM,)),
    ]
    for stream in VIEWS:
        for l in range(NUM_LAYERS):
            p = f"{stream}.enc{l}"
            for part in ("wq", "wk", "wv", "wo"):
                m.append((f"{p}.attn.{part}", (MODEL_DIM, MODEL_DIM)))
                m.append((f"{p}.attn.{part.replace('w', 'b')}", (MODEL_DIM,)))
            m += [(f"{p}.ln1.g", (MODEL_DIM,)), (f"{p}.ln1.b", (MODEL_DIM,)),
                  (f"{p}.ff.w1", (MODEL_DIM, FF_DIM)), (f"{p}.ff.b1", (FF_DIM,)),
                  (f"{p}.ff.w2", (FF_DIM, MODEL_DIM)), (f"{p}.ff.b2", (MODEL_DIM,)),
                  (f"{p}.ln2.g", (MODEL_DIM,)), (f"{p}.ln2.b", (MODEL_DIM,))]
        m += [(f"{stream}.proj.w", (MODEL_DIM, MODEL_DIM)),
              (f"{stream}.proj.b", (MODEL_DIM,))]
    m += [
        ("head.fc1.w", (2 * MODEL_DIM, HEAD_DIMS[0])), ("head.fc1.b", (HEAD_DIMS[0],)),
        ("head.fc2.w", (HEAD_DIMS[0], HEAD_DIMS[1])), ("head.fc2.b", (HEAD_DIMS[1],)),
        ("head.fc3.w", (HEAD_DIMS[1], HEAD_DIMS[2])), ("head.fc3.b", (HEAD_DIMS[2],)),
    ]
    return m


def init_student_weights(seed: int = 0) -> WeightStore:
    """Seeded init: matrices uniform +-1/sqrt(fan_in); biases 0; norm gains 1."""
    if check_integer("seed", seed) < 0:
        raise InvalidArgumentError(f"seed must be 0 or more, got {seed!r}")
    rng = np.random.Generator(np.random.PCG64(seed))
    manifest, params = student_manifest(), {}
    for name, shape in manifest:
        if len(shape) >= 2:
            bound = 1.0 / np.sqrt(shape[0] if len(shape) == 2 else np.prod(shape[1:]))
            params[name] = rng.uniform(-bound, bound, size=shape).astype(np.float32)
        elif name.endswith(".g"):
            params[name] = np.ones(shape, dtype=np.float32)
        else:
            params[name] = np.zeros(shape, dtype=np.float32)
    return WeightStore(STUDENT_ARCH, manifest, params)


# Each image's (mask, depth) channel pair in the STACK_LAYOUT stack that
# `camera.stack_observation` writes, image-major: a view's frames, oldest first.
_FRAME_PAIRS = np.arange(STACK_CHANNELS).reshape(STACK_LAYOUT).transpose(0, 2, 1).reshape(-1, 2)


def _encode_frames(imgs, w: WeightStore) -> np.ndarray:
    """Shared CNN over mask+depth pairs [n,2,54,96] -> [n,64] tokens.

    Each image runs through both convs in cache-sized tiles; the conv2 output
    [n,304,11,22] is already the fc's [n,73568] rows, so nothing is transposed.
    """
    x = conv_pool_elu(imgs, w.get("cnn.conv1.w"), w.get("cnn.conv1.b"))
    x = conv_pool_elu(x, w.get("cnn.conv2.w"), w.get("cnn.conv2.b"))
    return linear(x.reshape(x.shape[0], -1), w.get("cnn.fc.w"), w.get("cnn.fc.b"))


def _encode_stream(tokens, state_token, w: WeightStore, stream: str) -> np.ndarray:
    """One view's HISTORY_LEN frame tokens, after the state token -> [MODEL_DIM]."""
    seq = np.vstack([state_token[None, :], tokens])
    seq += positional_encoding(seq.shape[0], MODEL_DIM)
    for l in range(NUM_LAYERS):
        seq = transformer_encoder_layer(seq, w.layer(f"{stream}.enc{l}"))
    visual = seq[1:].mean(axis=0, keepdims=True)
    return linear(visual, w.get(f"{stream}.proj.w"), w.get(f"{stream}.proj.b"))[0]


def student_forward(frames, proprio, w: WeightStore) -> np.ndarray:
    """Map stacked dual-view observations + proprioception to 8 action values.

    frames: STACK_SHAPE, read through `_FRAME_PAIRS` as one (mask, depth)
    image per view and time step.
    """
    if w.arch != STUDENT_ARCH:
        raise ArchitectureError(f"expected arch {STUDENT_ARCH!r}, got {w.arch!r}")
    frames, proprio = as_tensor(frames), as_tensor(proprio)
    if frames.shape != STACK_SHAPE:
        raise ShapeError(f"frames must be {STACK_SHAPE}, got {frames.shape}")
    if proprio.shape != (PROPRIO_DIM,):
        raise ShapeError(f"proprio must be ({PROPRIO_DIM},), got {proprio.shape}")

    state_token = linear(proprio[None, :], w.get("proprio.w"), w.get("proprio.b"))[0]
    tokens = _encode_frames(frames[_FRAME_PAIRS], w)
    per_view = tokens.reshape(len(VIEWS), HISTORY_LEN, MODEL_DIM)
    streams = [_encode_stream(t, state_token, w, view) for view, t in zip(VIEWS, per_view)]
    z = np.concatenate(streams)[None, :]
    z = _elu(linear(z, w.get("head.fc1.w"), w.get("head.fc1.b")))
    z = _elu(linear(z, w.get("head.fc2.w"), w.get("head.fc2.b")))
    return linear(z, w.get("head.fc3.w"), w.get("head.fc3.b"))[0]

