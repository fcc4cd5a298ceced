"""Minimal inference-only tensor ops and the student network forward pass.

Everything runs on float32 numpy arrays; there is no autograd, no training,
and no GPU path.  Weights come from files or seeded initialization (matrices
uniform in +-1/sqrt(fan_in), biases zero, norm gains one).

A `WeightStore` is its arch and its ordered parameters; the manifest a weight
file states is derived from them, and `load` checks it.  Validation happens at
the boundaries: a store rejects non-finite weights, and student-v2 names or
shapes other than `student_manifest()`'s, once, when they enter the program
(init, `load`, construction).  The ops check activations, not weights: a public
op checks its input, then runs its private kernel (`_linear`, `_layer_norm`,
`_elu`, `_softmax`), which the encoder layers call directly and which checks
its output, each by one min and one max scan.  The CNN runs one image at a
time: `conv_pool_elu` casts an image's windows into a reused tile, one GEMM per
block of output-row (and column) parity, so a 2x2 pool is `np.maximum` over
whole blocks, then checks, biases and ELUs it into an image-major [n,oc,h,w]
batch, already the fc's row layout.  A student-v2 store holds each per-view
parameter once, stacked over `VIEWS`: both views' streams run as one batch.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .atomicfile import atomic_write
from .errors import ArchitectureError, InvalidArgumentError, ShapeError, check_integer

FRAME_SHAPE = (54, 96)
VIEWS = ("wrist", "base")               # camera views, in stack order
HISTORY_LEN = 3                         # frames stacked per view
STACK_LAYOUT = (HISTORY_LEN, len(VIEWS), 2)     # history x views x (mask, depth)
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
STUDENT_ARCH = "student-v2"
_LN_EPS = 1e-5
_DRAW_CHUNK = 1 << 16                   # float64 values per init_student_weights draw


def as_tensor(x) -> np.ndarray:
    t = np.asarray(x, dtype=np.float32)
    # min and max propagate NaN and show +-inf, with no bool mask; an empty array passes
    if not (math.isfinite(t.min(initial=0.0)) and math.isfinite(t.max(initial=0.0))):
        raise InvalidArgumentError("tensor contains non-finite values")
    return t


def _checked(y: np.ndarray, op: str) -> np.ndarray:
    if not (math.isfinite(y.min(initial=0.0)) and math.isfinite(y.max(initial=0.0))):
        raise InvalidArgumentError(f"{op} produced non-finite values")
    return y


# ---------------------------------------------------------------------------
# Primitive ops
# ---------------------------------------------------------------------------

def linear(x, w, b) -> np.ndarray:
    """y = x @ w + b over the last axis, for w [d,e] and b [e], or for x [v,n,d]
    and a stack w [v,d,e], b [v,1,e]; w and b are not scanned on entry."""
    x, w, b = as_tensor(x), np.asarray(w, np.float32), np.asarray(b, np.float32)
    stacked = w.ndim == x.ndim == 3 and len(w) == len(x)
    if (w.ndim != 2 and not stacked) or x.shape[-1:] != w.shape[-2:-1] \
            or b.shape != ((len(w), 1) if stacked else ()) + w.shape[-1:]:
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
    return _checked(_conv_tile(x, k, np.empty((1, 1, k.shape[0], oh, ow), np.float32))[0, 0],
                    "conv2d")


def conv_pool_elu(x, kernels, bias) -> np.ndarray:
    """elu(2x2 max pool of conv2d(x[i], kernels) + bias) for every image of a batch
    x [n,c,h,w] -> [n,oc,oh//2,ow//2], bit for bit under the kernels README names.

    One image at a time, through one cache-sized tile whose blocks hold the even
    and odd output rows (and columns, where kernels outnumber taps and a strided
    pool would move more floats than the cast), so a pool is a max of whole
    blocks; ELU, monotone, runs after it on a quarter of the values.  The tile's
    min and the pool's max (the tile's max) check it as `conv2d` does.
    """
    x, k = as_tensor(x), np.asarray(kernels, np.float32)
    b = np.asarray(bias, np.float32)
    if x.ndim != 4 or b.shape != k.shape[:1]:
        raise ShapeError(f"conv_pool_elu takes images [n,c,h,w] and a bias per "
                         f"kernel, got {x.shape}, kernels {k.shape}, bias {b.shape}")
    oh, ow = _conv_fit(x.shape[1:], k, "conv_pool_elu")
    cp = 2 if k.shape[0] > k[0].size else 1             # column parities cast apart
    out = np.empty((x.shape[0], k.shape[0], oh // 2, ow // 2), np.float32)
    tile = np.empty((2, cp, k.shape[0], oh // 2, ow // 2 * 2 // cp), np.float32)
    for image, o in zip(x, out):
        t = _conv_tile(image, k, tile)
        least = t.min(initial=0.0)                      # before the pool overwrites t[0]
        rows = np.maximum(t[0], t[1], out=t[0])         # [cp,oc,oh//2,cols]
        pooled = (np.maximum(rows[0], rows[1], out=rows[0]) if cp == 2
                  else np.maximum(rows[0, ..., 0::2], rows[0, ..., 1::2]))
        if not (math.isfinite(least) and math.isfinite(pooled.max(initial=0.0))):
            raise InvalidArgumentError("conv2d produced non-finite values")
        pooled += b[:, None, None]
        _elu(pooled, o)
    return out


def _conv_fit(image_shape, k: np.ndarray, op: str) -> tuple:
    """(oh, ow) of kernels k [oc,c,kh,kw], no axis empty, over one image [c,h,w]."""
    if k.ndim != 4 or 0 in k.shape or image_shape[0] != k.shape[1]:
        raise ShapeError(f"{op} takes kernels [oc,c,kh,kw], no axis empty, c the image's: "
                         f"image {tuple(image_shape)}, kernels {k.shape}")
    oh, ow = image_shape[1] - k.shape[2] + 1, image_shape[2] - k.shape[3] + 1
    if oh <= 0 or ow <= 0:
        raise ShapeError(f"{op} kernel {k.shape} does not fit image {tuple(image_shape)}")
    return oh, ow


def _conv_tile(x: np.ndarray, k: np.ndarray, tile: np.ndarray) -> np.ndarray:
    """The one im2col and its GEMMs: x [c,h,w]'s windows, one per kernel tap,
    times kernels k [oc,c,kh,kw] into tile [rs,cs,oc,rows,cols], whose block
    [i,j] holds output rows i, i+rs, ... and columns j, j+cs, ...; the first
    rs*rows rows and cs*cols columns are cast, one copy, and each block is one
    GEMM [oc,c*kh*kw] x [c*kh*kw,rows*cols] into its contiguous place."""
    rs, cs, oc, rows, cols = tile.shape
    win = sliding_window_view(x, (rs * rows, cs * cols), axis=(1, 2))[:, :k.shape[2], :k.shape[3]]
    blocks = win.reshape(*win.shape[:3], rows, rs, cols, cs).transpose(4, 6, 0, 1, 2, 3, 5)
    np.matmul(k.reshape(oc, -1), blocks.reshape(rs * cs, k[0].size, rows * cols),
              out=tile.reshape(rs * cs, oc, rows * cols))
    return tile


def attention(q, k, v) -> np.ndarray:
    """Single-query attention with unscaled dot-product logits."""
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    if q.ndim != 2 or q.shape[0] != 1 or k.ndim != 2 or len(k) == 0 or v.ndim != 2:
        raise ShapeError(f"attention expects q [1,d], k [n,d], v [n,d'] with n >= 1, "
                         f"got {q.shape}, {k.shape}, {v.shape}")
    if q.shape[1] != k.shape[1] or k.shape[0] != v.shape[0]:
        raise ShapeError(f"attention shapes disagree: q {q.shape}, k {k.shape}, "
                         f"v {v.shape}")
    return _checked(_softmax(q @ k.T) @ v, "attention")


def layer_norm(x, gain, bias) -> np.ndarray:
    x, gain, bias = as_tensor(x), np.asarray(gain, np.float32), np.asarray(bias, np.float32)
    if gain.shape != x.shape[-1:] or bias.shape != x.shape[-1:]:
        raise ShapeError(f"layer_norm takes a gain and a bias of shape (d,): "
                         f"x {x.shape}, gain {gain.shape}, bias {bias.shape}")
    return _layer_norm(x, gain, bias)


def _layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """The variance is x.var's: the float32 sum of squares over an intp count."""
    centred = x - x.mean(axis=-1, keepdims=True)
    var = np.sum(centred * centred, axis=-1, keepdims=True)
    var /= np.intp(x.shape[-1])
    return _checked(centred / np.sqrt(var + _LN_EPS) * gain + bias, "layer_norm")


def transformer_encoder_layer(tokens, weights: dict) -> np.ndarray:
    """Post-norm encoder layer: NUM_HEADS-head scaled dot-product self-attention
    under ``attn.*`` + residual + norm, FF + residual + norm.  tokens [v,n,d]
    take v layers' weights stacked, as in a student-v2 store's `layer("enc0")`."""
    tokens, wq = as_tensor(tokens), np.shape(weights["attn.wq"])
    if tokens.ndim not in (2, 3) or tokens.ndim != len(wq) or tokens.shape[:-2] != wq[:-2]:
        raise ShapeError(f"tokens must be 2-D, or 3-D with weights stacked to match: "
                         f"tokens {tokens.shape}, attn.wq {wq}")
    q, k, v = (_linear(tokens, weights[f"attn.w{p}"], weights[f"attn.b{p}"]) for p in "qkv")
    dh = tokens.shape[-1] // NUM_HEADS
    heads = np.empty_like(tokens)
    for h in range(NUM_HEADS):
        sl = slice(h * dh, (h + 1) * dh)
        scores = q[..., sl] @ k[..., sl].swapaxes(-1, -2)
        heads[..., sl] = _softmax(scores / np.float32(np.sqrt(dh))) @ v[..., sl]
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
    """Named parameters, in the order `save` writes them; student-v2's names and
    shapes must be `student_manifest()`.  Only what a weight file can state is
    held: the arch and each name a whitespace-free ASCII word, one or more axes
    and none empty.  `layer()` maps hold the parameters themselves, so a loaded
    store is its blob's slices and nothing else."""

    arch: str
    params: dict                        # name -> array, in file order

    def __post_init__(self):
        for word in (self.arch, *self.params):
            if not (isinstance(word, str) and word.isascii() and word.split() == [word]):
                raise ArchitectureError(
                    f"arch or parameter name {word!r} is not a whitespace-free ASCII word")
        if self.arch == STUDENT_ARCH:
            have, want = {n: np.shape(p) for n, p in self.params.items()}, dict(student_manifest())
            for name in (n for n in {**want, **have} if have.get(n) != want.get(n)):
                raise ArchitectureError(f"{self.arch} parameter {name!r}: the manifest says "
                                        f"{have.get(name)}, the network needs {want.get(name)}")
        for name, p in self.params.items():
            p = self.params[name] = np.asarray(p, np.float32, order="C")
            if 0 in p.shape or p.ndim == 0:
                raise ArchitectureError(f"parameter {name!r} has {'an empty' if p.ndim else 'no'} "
                                        f"axis: {p.shape}")
            # a whole mask: cnn.fc.w's 4.7 MB one lifts the mmap threshold; forwards take no faults
            if not np.all(np.isfinite(p)):
                raise ArchitectureError(f"parameter {name!r} has non-finite values")
        self._layers = {}                   # prefix -> {name under prefix.: parameter}
        for name, p in self.params.items():
            for dot in (i for i, c in enumerate(name) if c == "."):
                self._layers.setdefault(name[:dot], {})[name[dot + 1:]] = p

    @property
    def manifest(self) -> list:
        """Ordered (name, shape) pairs of the parameters."""
        return [(name, p.shape) for name, p in self.params.items()]

    def get(self, name: str) -> np.ndarray:
        if name not in self.params:
            raise ArchitectureError(f"unknown parameter {name!r} for arch {self.arch}")
        return self.params[name]

    def param_count(self) -> int:
        return sum(p.size for p in self.params.values())

    def layer(self, prefix: str) -> MappingProxyType:
        """Read-only sub-map of parameters under `prefix.`, keys relative to it."""
        if prefix not in self._layers:
            raise ArchitectureError(f"no parameters under prefix {prefix!r}")
        return MappingProxyType(self._layers[prefix])

    def save(self, path) -> None:
        lines = [f"weights-v1 {self.arch}"]
        lines += (f"{name} {','.join(map(str, shape))}" for name, shape in self.manifest)
        with atomic_write(path) as fh:
            fh.write(("\n".join(lines) + "\n---\n").encode("ascii"))
            for p in self.params.values():          # each as it lies, no copy
                fh.write(p.astype("<f4", copy=False))

    @staticmethod
    def load(path) -> "WeightStore":
        """Read a ``save`` file; its parameters are slices of one float32 array."""
        with open(path, "rb") as fh:
            lines = []                      # the manifest ends at its first "\n---\n"
            while (line := fh.readline()) and not (lines and line == b"---\n"):
                lines.append(line)
            if not line:
                raise ArchitectureError(f"{path}: missing manifest separator")
            head = b"".join(lines)
            if not head.isascii():
                raise ArchitectureError(f"{path}: manifest is not ASCII")
            head = head.decode("ascii").splitlines() or [""]
            magic = head[0].split()
            if len(magic) != 2 or magic[0] != "weights-v1":
                raise ArchitectureError(f"{path}: bad header line {head[0]!r}")
            raw = np.fromfile(fh, "<f4")            # the blob, read once
            if fh.read(1):
                raise ArchitectureError(f"{path}: blob is not a whole number of floats")
        params, offset = {}, 0
        for line in head[1:]:
            parts = line.split()
            if len(parts) != 2 or not all(d.isdigit() and int(d) > 0
                                          for d in parts[1].split(",")):
                raise ArchitectureError(f"{path}: bad manifest line {line!r}")
            name, shape = parts[0], tuple(int(d) for d in parts[1].split(","))
            if name in params:
                raise ArchitectureError(f"{path}: manifest repeats {name!r}")
            size = math.prod(shape)
            if offset + size > raw.size:
                raise ArchitectureError(f"{path}: blob too short at {name!r}")
            params[name] = raw[offset:offset + size].reshape(shape)
            offset += size
        if offset != raw.size:
            raise ArchitectureError(f"{path}: {raw.size - offset} trailing floats")
        try:
            return WeightStore(magic[1], params)
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
    """Ordered (name, shape) pairs for the student policy network; the only 3-axis
    ones stack a per-view parameter over `VIEWS`: matrices [v,d,e], vectors [v,1,e]."""
    v = len(VIEWS)
    m = [
        ("cnn.conv1.w", (CNN_CH1, 2, 5, 5)), ("cnn.conv1.b", (CNN_CH1,)),
        ("cnn.conv2.w", (CNN_CH2, CNN_CH1, 3, 3)), ("cnn.conv2.b", (CNN_CH2,)),
        ("cnn.fc.w", (_cnn_flat_dim(), MODEL_DIM)), ("cnn.fc.b", (MODEL_DIM,)),
        ("proprio.w", (PROPRIO_DIM, MODEL_DIM)), ("proprio.b", (MODEL_DIM,)),
    ]
    for l in range(NUM_LAYERS):
        p = f"enc{l}"
        for part in ("wq", "wk", "wv", "wo"):
            m.append((f"{p}.attn.{part}", (v, MODEL_DIM, MODEL_DIM)))
            m.append((f"{p}.attn.{part.replace('w', 'b')}", (v, 1, MODEL_DIM)))
        m += [(f"{p}.ln1.g", (v, 1, MODEL_DIM)), (f"{p}.ln1.b", (v, 1, MODEL_DIM)),
              (f"{p}.ff.w1", (v, MODEL_DIM, FF_DIM)), (f"{p}.ff.b1", (v, 1, FF_DIM)),
              (f"{p}.ff.w2", (v, FF_DIM, MODEL_DIM)), (f"{p}.ff.b2", (v, 1, MODEL_DIM)),
              (f"{p}.ln2.g", (v, 1, MODEL_DIM)), (f"{p}.ln2.b", (v, 1, MODEL_DIM))]
    m += [
        ("proj.w", (v, MODEL_DIM, MODEL_DIM)), ("proj.b", (v, 1, MODEL_DIM)),
        ("head.fc1.w", (2 * MODEL_DIM, HEAD_DIMS[0])), ("head.fc1.b", (HEAD_DIMS[0],)),
        ("head.fc2.w", (HEAD_DIMS[0], HEAD_DIMS[1])), ("head.fc2.b", (HEAD_DIMS[1],)),
        ("head.fc3.w", (HEAD_DIMS[1], HEAD_DIMS[2])), ("head.fc3.b", (HEAD_DIMS[2],)),
    ]
    return m


def init_student_weights(seed: int = 0) -> WeightStore:
    """Seeded init: matrices (`w*` names) uniform +-1/sqrt(fan_in), each one stream
    of bounded draws; biases 0; norm gains 1.  A stack's rows draw as matrices."""
    rng = np.random.Generator(np.random.PCG64(check_integer("seed", seed, 0)))
    params = {n: np.full(s, n.endswith(".g"), np.float32) for n, s in student_manifest()}
    matrices = (p for n, p in params.items() if n.rpartition(".")[2][0] == "w")
    # student-v1's order: a run of stacks draws all its wrist rows, then all its base rows
    draws = [m for stacked, run in itertools.groupby(matrices, key=lambda p: p.ndim == 3)
             for m in (itertools.chain(*zip(*run)) if stacked else run)]
    for m in draws:
        bound = 1.0 / np.sqrt(m.shape[0] if m.ndim == 2 else np.prod(m.shape[1:]))
        for part in np.array_split(m.reshape(-1), -(-m.size // _DRAW_CHUNK)):
            part[...] = rng.uniform(-bound, bound, size=part.size)
    return WeightStore(STUDENT_ARCH, params)


def _encode_frames(imgs, w: WeightStore) -> np.ndarray:
    """Shared CNN over mask+depth pairs [n,2,54,96] -> [n,64] tokens.

    Each image runs through both convs in cache-sized tiles; the conv2 output
    [n,304,11,22] is already the fc's [n,73568] rows, so nothing is transposed.
    """
    x = conv_pool_elu(imgs, w.get("cnn.conv1.w"), w.get("cnn.conv1.b"))
    x = conv_pool_elu(x, w.get("cnn.conv2.w"), w.get("cnn.conv2.b"))
    return linear(x.reshape(x.shape[0], -1), w.get("cnn.fc.w"), w.get("cnn.fc.b"))


def student_forward(frames, proprio, w: WeightStore) -> np.ndarray:
    """Map stacked dual-view observations + proprioception to 8 action values.

    frames: STACK_SHAPE in STACK_LAYOUT order; its (mask, depth) images are
    encoded as they lie, (time, view).  The views' streams, each the state token
    and its frame tokens, run as one [len(VIEWS), 1 + HISTORY_LEN, MODEL_DIM] batch.
    """
    if w.arch != STUDENT_ARCH:
        raise ArchitectureError(f"expected arch {STUDENT_ARCH!r}, got {w.arch!r}")
    frames, proprio = as_tensor(frames), as_tensor(proprio)
    if frames.shape != STACK_SHAPE:
        raise ShapeError(f"frames must be {STACK_SHAPE}, got {frames.shape}")
    if proprio.shape != (PROPRIO_DIM,):
        raise ShapeError(f"proprio must be ({PROPRIO_DIM},), got {proprio.shape}")

    tokens = _encode_frames(frames.reshape(-1, 2, *FRAME_SHAPE), w)
    seq = np.empty((len(VIEWS), 1 + HISTORY_LEN, MODEL_DIM), np.float32)
    seq[:, 0] = linear(proprio[None, :], w.get("proprio.w"), w.get("proprio.b"))
    seq[:, 1:] = tokens.reshape(HISTORY_LEN, len(VIEWS), MODEL_DIM).swapaxes(0, 1)
    seq += positional_encoding(1 + HISTORY_LEN, MODEL_DIM)
    for l in range(NUM_LAYERS):
        seq = transformer_encoder_layer(seq, w.layer(f"enc{l}"))
    proj = w.layer("proj")
    z = linear(seq[:, 1:].mean(axis=1, keepdims=True), proj["w"], proj["b"]).reshape(1, -1)
    z = _elu(linear(z, w.get("head.fc1.w"), w.get("head.fc1.b")))
    z = _elu(linear(z, w.get("head.fc2.w"), w.get("head.fc2.b")))
    return linear(z, w.get("head.fc3.w"), w.get("head.fc3.b"))[0]

