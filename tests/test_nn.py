import hashlib
import platform
import re
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

from graspsim import nn
from graspsim.errors import ArchitectureError, InvalidArgumentError, ShapeError
from graspsim.nn import (
    FRAME_SHAPE,
    MODEL_DIM,
    NUM_LAYERS,
    PROPRIO_DIM,
    STACK_LAYOUT,
    VIEWS,
    WeightStore,
    attention,
    conv2d,
    conv_pool_elu,
    elu,
    init_student_weights,
    kd_loss,
    layer_norm,
    linear,
    positional_encoding,
    softmax,
    student_forward,
    student_manifest,
    transformer_encoder_layer,
)
from graspsim.nn import _encode_frames

from conftest import setting_env


# ---------------------------------------------------------------------------
# Brute-force oracles (independent of the implementations under test)
# ---------------------------------------------------------------------------

def naive_linear(x, w, b):
    out = np.zeros((x.shape[0], w.shape[1]))
    for i in range(x.shape[0]):
        for j in range(w.shape[1]):
            s = 0.0
            for k in range(w.shape[0]):
                s += float(x[i, k]) * float(w[k, j])
            out[i, j] = s + float(b[j])
    return out


def naive_conv2d(x, kern):
    c, h, w = x.shape
    oc, _, kh, kw = kern.shape
    oh, ow = h - kh + 1, w - kw + 1
    out = np.zeros((oc, oh, ow))
    for o in range(oc):
        for i in range(oh):
            for j in range(ow):
                s = 0.0
                for ch in range(c):
                    for a in range(kh):
                        for bb in range(kw):
                            s += float(x[ch, i + a, j + bb]) * float(kern[o, ch, a, bb])
                out[o, i, j] = s
    return out


def naive_max_pool2(x):
    out = np.zeros((*x.shape[:-2], x.shape[-2] // 2, x.shape[-1] // 2))
    for *lead, i, j in np.ndindex(*out.shape):
        out[(*lead, i, j)] = max(float(x[(*lead, 2 * i + a, 2 * j + bb)])
                                 for a in (0, 1) for bb in (0, 1))
    return out


def max_pool2(x):
    """2x2 stride-2 max pooling of the last two axes; an odd last row/col is
    dropped.  The pooling oracle of conv_pool_elu: like it, it takes the row
    pairs first, then the column pairs."""
    x = np.asarray(x, np.float32)
    if x.ndim < 2:
        raise ShapeError(f"max_pool2 needs at least 2 axes, got {x.shape}")
    h2, w2 = x.shape[-2] // 2 * 2, x.shape[-1] // 2 * 2
    rows = np.maximum(x[..., 0:h2:2, :w2], x[..., 1:h2:2, :w2])
    return np.maximum(rows[..., 0::2], rows[..., 1::2])


def naive_conv_pool_elu(x, kern, bias):
    """conv -> 2x2 max pool -> bias -> ELU, image by image, in float64."""
    out = []
    for image in x:
        v = naive_max_pool2(naive_conv2d(image, kern)) + bias[:, None, None]
        out.append(np.where(v > 0, v, np.expm1(np.minimum(v, 0.0))))
    return np.stack(out)


def tap_loop_conv2d(x, kern):
    """conv2d with its earlier column build, one slice copy per kernel tap;
    the GEMM operand should equal the sliding-window copy, so the bits do."""
    oc, c, kh, kw = kern.shape
    oh, ow = x.shape[1] - kh + 1, x.shape[2] - kw + 1
    cols = np.empty((c, kh, kw, oh, ow), np.float32)
    for a, b in np.ndindex(kh, kw):
        cols[:, a, b] = x[:, a:a + oh, b:b + ow]
    tile = kern.reshape(oc, -1) @ cols.reshape(c * kh * kw, oh * ow)
    return tile.reshape(oc, oh, ow)


def naive_softmax(v):
    e = np.exp(np.asarray(v, dtype=np.float64) - np.max(v))
    return e / e.sum()


def naive_attention(q, k, v):
    logits = np.array([float(np.dot(q[0], k[i])) for i in range(k.shape[0])])
    alpha = naive_softmax(logits)
    return np.array([float(np.dot(alpha, v[:, j])) for j in range(v.shape[1])])


def naive_layer_norm(x, g, b, eps=1e-5):
    out = np.zeros_like(x, dtype=np.float64)
    for i in range(x.shape[0]):
        row = x[i].astype(np.float64)
        mu = row.mean()
        var = row.var()
        out[i] = (row - mu) / np.sqrt(var + eps) * g + b
    return out


def naive_encoder_layer(tokens, weights, heads=2):
    t, d = tokens.shape
    dh = d // heads
    x = tokens.astype(np.float64)
    q = naive_linear(x, weights["attn.wq"], weights["attn.bq"])
    k = naive_linear(x, weights["attn.wk"], weights["attn.bk"])
    v = naive_linear(x, weights["attn.wv"], weights["attn.bv"])
    attn = np.zeros((t, d))
    for h in range(heads):
        sl = slice(h * dh, (h + 1) * dh)
        for i in range(t):
            logits = np.array([
                float(np.dot(q[i, sl], k[j, sl])) / np.sqrt(dh) for j in range(t)
            ])
            alpha = naive_softmax(logits)
            for j in range(t):
                attn[i, sl] += alpha[j] * v[j, sl]
    attn = naive_linear(attn, weights["attn.wo"], weights["attn.bo"])
    x = naive_layer_norm(x + attn, weights["ln1.g"], weights["ln1.b"])
    hmid = naive_linear(x, weights["ff.w1"], weights["ff.b1"])
    hmid = np.where(hmid > 0, hmid, np.expm1(hmid))
    ff = naive_linear(hmid, weights["ff.w2"], weights["ff.b2"])
    return naive_layer_norm(x + ff, weights["ln2.g"], weights["ln2.b"])


def random_layer_weights(rng, d=64, ff=256):
    w = {}
    for part in ("wq", "wk", "wv", "wo"):
        w[f"attn.{part}"] = rng.uniform(-0.2, 0.2, (d, d)).astype(np.float32)
        w[f"attn.{part.replace('w', 'b')}"] = rng.uniform(-0.1, 0.1, d).astype(np.float32)
    w["ln1.g"] = np.ones(d, np.float32)
    w["ln1.b"] = np.zeros(d, np.float32)
    w["ff.w1"] = rng.uniform(-0.2, 0.2, (d, ff)).astype(np.float32)
    w["ff.b1"] = rng.uniform(-0.1, 0.1, ff).astype(np.float32)
    w["ff.w2"] = rng.uniform(-0.2, 0.2, (ff, d)).astype(np.float32)
    w["ff.b2"] = rng.uniform(-0.1, 0.1, d).astype(np.float32)
    w["ln2.g"] = np.ones(d, np.float32)
    w["ln2.b"] = np.zeros(d, np.float32)
    return w


# ---------------------------------------------------------------------------
# Op tests
# ---------------------------------------------------------------------------

def test_linear_identity_and_hand_case():
    x = np.array([[1.0, 2.0]], dtype=np.float32)
    assert np.allclose(linear(x, np.eye(2, dtype=np.float32),
                              np.zeros(2, np.float32)), x)
    y = linear(x, np.eye(2, dtype=np.float32), np.array([3.0, 4.0], np.float32))
    assert np.allclose(y, [[4.0, 6.0]])


def test_linear_matches_naive(rng):
    for _ in range(20):
        x = rng.standard_normal((4, 7)).astype(np.float32)
        w = rng.standard_normal((7, 5)).astype(np.float32)
        b = rng.standard_normal(5).astype(np.float32)
        assert np.max(np.abs(linear(x, w, b) - naive_linear(x, w, b))) < 1e-5


def test_linear_shape_error_names_shapes():
    with pytest.raises(ShapeError) as err:
        linear(np.zeros((2, 3), np.float32), np.zeros((4, 5), np.float32),
               np.zeros(5, np.float32))
    assert "(2, 3)" in str(err.value) and "(4, 5)" in str(err.value)


def test_linear_rejects_a_weight_neither_a_matrix_nor_a_stack_matching_x(rng):
    x = np.ones((2, 1, 3), np.float32)
    for w, b in ((np.ones(3), np.zeros(3)),                     # 1-D
                 (np.float32(1.0), np.zeros(3)),                # 0-d
                 (np.ones((3, 3, 3)), np.zeros((3, 1, 3))),     # a stack of 3 for 2 rows
                 (np.ones((2, 3, 4)), np.zeros((2, 4))),        # a stacked b without its row axis
                 (np.ones((2, 3, 4)), np.zeros(4)),
                 (np.ones((1, 2, 3, 4)), np.zeros((1, 2, 1, 4)))):
        with pytest.raises(ShapeError, match="^linear shapes disagree"):
            linear(x, w, b)
    with pytest.raises(ShapeError, match="^linear shapes disagree"):
        linear(x[0], np.ones((2, 3, 4)), np.zeros((2, 1, 4)))   # a stack needs x [v,n,d]
    # a stack applies each of its weights to its own rows, with their bits
    x = rng.standard_normal((2, 4, 64)).astype(np.float32)
    w = rng.standard_normal((2, 64, 8)).astype(np.float32)
    b = rng.standard_normal((2, 1, 8)).astype(np.float32)
    both = linear(x, w, b)
    for i in range(2):
        assert np.array_equal(both[i], linear(x[i], w[i], b[i, 0]))
        assert np.array_equal(linear(x[i, :1][None], w[i:i + 1], b[i:i + 1])[0],
                              linear(x[i, :1], w[i], b[i, 0]))


def test_layer_norm_rejects_a_gain_or_bias_not_of_shape_d():
    x, ones, zeros = np.ones((2, 4), np.float32), np.ones(4), np.zeros(4)
    for gain, bias in ((np.ones(3), zeros), (ones, np.zeros(5)), (np.ones((1, 4)), zeros),
                       (ones, np.zeros((2, 4))), (np.float32(1.0), zeros), (ones, 0.0)):
        with pytest.raises(ShapeError, match="^layer_norm takes a gain and a bias of shape"):
            layer_norm(x, gain, bias)
    assert layer_norm(x, ones, zeros).shape == (2, 4)


# w and b make linear's output bad: 3e38 * w overflows, and inf + -inf is NaN
@pytest.mark.parametrize("bad, w, b", [(np.nan, 2.0, -np.inf), (np.inf, 2.0, 0.0),
                                       (-np.inf, -2.0, 0.0)], ids=["nan", "+inf", "-inf"])
def test_elu_and_linear_reject_non_finite_values_and_pass_empty_ones(bad, w, b):
    eye, zeros = np.eye(3, dtype=np.float32), np.zeros(3, np.float32)
    for at in ((0, 0), (1, 2), (1, 0)):
        x = np.ones((2, 3), np.float32)
        x[at] = bad
        with pytest.raises(InvalidArgumentError, match="^tensor contains non-finite values$"):
            elu(x)
        with pytest.raises(InvalidArgumentError, match="^tensor contains non-finite values$"):
            linear(x, eye, zeros)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(InvalidArgumentError, match="^linear produced non-finite values$"):
        linear(np.full((1, 1), 3e38, np.float32), np.float32([[w]]), np.float32([b]))
    assert elu(np.zeros((0, 3), np.float32)).shape == (0, 3)
    assert linear(np.zeros((0, 3), np.float32), eye, zeros).shape == (0, 3)


def test_elu_values():
    assert elu(np.float32(0.0)) == 0.0
    assert elu(np.float32(1.0)) == 1.0
    x = np.array([-2.0, -0.5, 0.0, 0.5], np.float32)
    expected = np.where(x > 0, x, np.expm1(x))
    assert np.allclose(elu(x), expected, atol=1e-7)


def test_elu_bits_match_masked_expm1_oracle(rng):
    # random finite bit patterns cover every exponent, subnormals and both
    # zeros; the normal samples cover typical activations, where expm1(x)
    # rounds to x for tiny |x|; odd offsets move the SIMD loop tails
    bits = rng.integers(0, 2**32, size=1_000_000, dtype=np.uint64).astype(np.uint32)
    x = bits.view(np.float32)
    x = np.concatenate([x[np.isfinite(x)], rng.standard_normal(200_001).astype(np.float32),
                        np.float32([0.0, -0.0, -1e-45, -1e-30, -104.0, 89.0, 3e38])])
    for xs in (x, x[1:], x[::3], x[-7:], x[-1], x[-6]):
        xs = np.asarray(xs)
        expected = np.expm1(xs, out=xs.copy(), where=xs < 0)
        got = elu(xs)
        assert got.shape == xs.shape and got.dtype == np.float32
        assert np.array_equal(got.view(np.uint32), expected.view(np.uint32))


def test_softmax_uniform_and_normalized(rng):
    s = softmax(np.full(7, 3.3, np.float32))
    assert np.allclose(s, 1.0 / 7.0, atol=1e-7)
    for _ in range(20):
        x = rng.standard_normal((5, 9)).astype(np.float32) * 10
        s = softmax(x, axis=-1)
        assert np.max(np.abs(s.sum(axis=-1) - 1.0)) < 1e-6


def test_conv2d_identity_and_sum():
    x = np.arange(12, dtype=np.float32).reshape(1, 3, 4)
    ident = np.ones((1, 1, 1, 1), np.float32)
    assert np.allclose(conv2d(x, ident), x)
    ones = np.ones((1, 1, 3, 3), np.float32)
    out = conv2d(np.ones((1, 3, 3), np.float32), ones)
    assert out.shape == (1, 1, 1)
    assert out[0, 0, 0] == pytest.approx(9.0)


def test_conv2d_matches_naive(rng):
    for h, w in ((8, 9), (7, 8), (10, 12)):
        x = rng.standard_normal((3, h, w)).astype(np.float32)
        k = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
        fast = conv2d(x, k)
        slow = naive_conv2d(x, k)
        assert fast.shape == slow.shape == (4, h - 2, w - 2)
        assert np.max(np.abs(fast - slow)) < 1e-5
    # a non-square kernel on a non-square image: swapped tap axes would show
    x = rng.standard_normal((2, 9, 12)).astype(np.float32)
    k = rng.standard_normal((3, 2, 3, 5)).astype(np.float32)
    fast = conv2d(x, k)
    assert fast.shape == (3, 7, 8)
    assert np.max(np.abs(fast - naive_conv2d(x, k))) < 1e-5


def test_conv2d_bits_match_tap_loop_oracle(rng):
    # the student's two layers, the non-square case and a one-column kernel
    for (c, h, w), (oc, kh, kw) in (((2, 54, 96), (8, 5, 5)),
                                    ((8, 25, 46), (304, 3, 3)),
                                    ((2, 9, 12), (3, 3, 5)),
                                    ((3, 5, 4), (2, 5, 1))):
        x = rng.standard_normal((c, h, w)).astype(np.float32)
        k = rng.standard_normal((oc, c, kh, kw)).astype(np.float32)
        fast, oracle = conv2d(x, k), tap_loop_conv2d(x, k)
        assert fast.shape == oracle.shape == (oc, h - kh + 1, w - kw + 1)
        assert np.array_equal(fast.view(np.uint32), oracle.view(np.uint32))


def test_conv2d_shape_error():
    with pytest.raises(ShapeError):
        conv2d(np.zeros((2, 4, 4), np.float32), np.zeros((1, 3, 3, 3), np.float32))
    with pytest.raises(ShapeError):
        conv2d(np.zeros((1, 2, 2), np.float32), np.zeros((1, 1, 5, 5), np.float32))
    with pytest.raises(ShapeError):
        conv2d(np.zeros((2, 2, 4, 4), np.float32), np.zeros((1, 3, 3, 3), np.float32))
    with pytest.raises(ShapeError):
        conv2d(np.zeros((1, 1, 1, 4, 4), np.float32), np.zeros((1, 1, 3, 3), np.float32))
    with pytest.raises(ShapeError):     # one image only; batches go to conv_pool_elu
        conv2d(np.zeros((1, 1, 4, 4), np.float32), np.zeros((1, 1, 3, 3), np.float32))


@pytest.mark.parametrize("op", ["conv2d", "conv_pool_elu"])
@pytest.mark.parametrize("kernels", [(0, 3, 3, 3), (2, 0, 3, 3), (2, 3, 0, 3), (2, 3, 3, 0)],
                         ids=["no-kernel", "no-channel", "no-row", "no-column"])
def test_conv_ops_reject_a_kernel_with_an_empty_axis(op, kernels):
    # the image has the kernels' channels (none, for no-channel): only the empty axis is wrong
    x, k = np.ones((1, kernels[1], 6, 6), np.float32), np.ones(kernels, np.float32)
    with pytest.raises(ShapeError, match=re.escape(f"kernels {kernels}")):
        if op == "conv2d":
            conv2d(x[0], k)
        else:
            conv_pool_elu(x, k, np.zeros(kernels[0], np.float32))


def test_conv_pool_elu_bits_match_single_image_ops(rng):
    # conv output sizes 6x7, 7x8 and 5x5 leave an odd row or column to pool away
    for n, c, h, w in ((3, 3, 8, 9), (2, 2, 9, 10), (1, 3, 7, 7)):
        x = rng.standard_normal((n, c, h, w)).astype(np.float32)
        k = rng.standard_normal((4, c, 3, 3)).astype(np.float32)
        b = rng.standard_normal(4).astype(np.float32)
        out = conv_pool_elu(x, k, b)
        assert out.shape == (n, 4, (h - 2) // 2, (w - 2) // 2)
        for i in range(n):
            single = elu(max_pool2(conv2d(x[i], k)) + b[:, None, None])
            assert np.array_equal(out[i], single)
            assert np.array_equal(conv_pool_elu(x[i:i + 1], k, b)[0], single)
        assert np.max(np.abs(out - naive_conv_pool_elu(x, k, b))) < 1e-5


def test_conv_pool_elu_bits_match_single_image_ops_on_student_layers(rng):
    # conv2's 23 output rows leave an odd last row, which conv_pool_elu does
    # not cast: the bits hold where a GEMM element's bits depend neither on
    # its column's position nor on the operand's width
    for c, h, w, oc, kh in ((2, 54, 96, 8, 5), (8, 25, 46, 304, 3)):
        x = rng.random((2, c, h, w)).astype(np.float32)
        k = rng.uniform(-0.3, 0.3, (oc, c, kh, kh)).astype(np.float32)
        b = rng.uniform(-0.1, 0.1, oc).astype(np.float32)
        out = conv_pool_elu(x, k, b)
        for i in range(2):
            single = elu(max_pool2(conv2d(x[i], k)) + b[:, None, None])
            assert np.array_equal(out[i].view(np.uint32), single.view(np.uint32))


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"),
                    reason="the setting names an x86-64 BLAS kernel")
def test_conv_pool_elu_bits_hold_under_blas_without_fma():
    # the two comparisons above and the student's two batch checks, run in
    # a child process under a BLAS kernel whose bits, like the default's,
    # ignore column position and width
    env = setting_env({"OPENBLAS_CORETYPE": "Sandybridge"})
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{__file__}::test_conv_pool_elu_bits_match_single_image_ops",
         f"{__file__}::test_conv_pool_elu_bits_match_single_image_ops_on_student_layers",
         f"{__file__}::test_encode_frames_batch_equals_single_pairs",
         f"{__file__}::test_transformer_layer_runs_both_views_as_one_batch"],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout
    assert re.fullmatch(r"4 passed in .*", proc.stdout.strip().splitlines()[-1]), proc.stdout


def test_conv_pool_elu_errors():
    k = np.zeros((2, 3, 3, 3), np.float32)
    for x, b in ((np.zeros((3, 4, 4), np.float32), np.zeros(2, np.float32)),
                 (np.zeros((1, 2, 4, 4), np.float32), np.zeros(2, np.float32)),
                 (np.zeros((1, 3, 2, 4), np.float32), np.zeros(2, np.float32)),
                 (np.zeros((1, 3, 4, 4), np.float32), np.zeros(3, np.float32))):
        with pytest.raises(ShapeError):
            conv_pool_elu(x, k, b)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(InvalidArgumentError, match="conv2d"):
        conv_pool_elu(np.full((1, 3, 4, 4), 3e38, np.float32), np.ones_like(k),
                      np.zeros(2, np.float32))
    # a conv output one row or one column high leaves no pool window: the
    # result is empty, as the oracle's, not an error
    for h, w in ((3, 6), (6, 3)):
        x = np.ones((1, 3, h, w), np.float32)
        want = max_pool2(conv2d(x[0], k))
        out = conv_pool_elu(x, k, np.zeros(2, np.float32))
        assert want.size == 0 and out.shape == (1, *want.shape)


@pytest.mark.parametrize("oc", [1, 2], ids=["rows-split", "rows-and-columns-split"])
@pytest.mark.parametrize("bad", [-np.inf, np.inf, np.nan], ids=["-inf", "+inf", "nan"])
def test_conv_pool_elu_catches_a_non_finite_value_beside_a_finite_window_maximum(
        monkeypatch, bad, oc):
    # 1x1 kernels 1 and 0.5 over one channel: the conv output's first 2x2
    # window has its maximum at (0, 0), and its member at (1, 1), found in the
    # tile by its unique value 0.125, becomes the non-finite value; pooling
    # discards a -inf there.  Two kernels for one tap split the column pairs too.
    x = np.full((1, 1, 4, 4), 0.3, np.float32)
    x[0, 0, 0, 0], x[0, 0, 1, 1] = 1.0, 0.125
    k, b = np.float32([1.0, 0.5][:oc]).reshape(oc, 1, 1, 1), np.zeros(oc, np.float32)
    conv_tile = nn._conv_tile

    def poked(image, kernels, tile):
        t = conv_tile(image, kernels, tile)
        assert np.count_nonzero(t == 0.125) == 1
        t[t == 0.125] = bad
        return t

    monkeypatch.setattr(nn, "_conv_tile", poked)
    with pytest.raises(InvalidArgumentError, match="^conv2d produced non-finite values$"):
        conv_pool_elu(x, k, b)
    # the same through the GEMM: 2 x -+3e38 overflows to -+inf at (1, 1) only
    monkeypatch.undo()
    if not np.isnan(bad):
        x[0, 0, 1, 1] = np.copysign(3e38, bad)
        with np.errstate(over="ignore"), \
                pytest.raises(InvalidArgumentError, match="^conv2d produced non-finite values$"):
            conv_pool_elu(x, np.float32([2.0, 1.0][:oc]).reshape(oc, 1, 1, 1), b)


def test_attention_single_key_passthrough(rng):
    q = rng.standard_normal((1, 4)).astype(np.float32)
    k = rng.standard_normal((1, 4)).astype(np.float32)
    v = rng.standard_normal((1, 6)).astype(np.float32)
    assert np.array_equal(attention(q, k, v), v)


def test_attention_equal_keys_mean(rng):
    q = rng.standard_normal((1, 4)).astype(np.float32)
    k = np.tile(rng.standard_normal((1, 4)).astype(np.float32), (5, 1))
    v = rng.standard_normal((5, 3)).astype(np.float32)
    assert np.allclose(attention(q, k, v)[0], v.mean(axis=0), atol=1e-6)


def test_attention_two_key_hand_case():
    # q.k1 = ln 2, q.k2 = 0  ->  alpha = (2/3, 1/3), unscaled logits
    q = np.array([[1.0, 0.0]], np.float32)
    k = np.array([[np.log(2.0), 0.0], [0.0, 5.0]], np.float32)
    v = np.array([[1.0], [0.0]], np.float32)
    out = attention(q, k, v)
    assert out[0, 0] == pytest.approx(2.0 / 3.0, abs=1e-6)


def test_attention_matches_naive(rng):
    for _ in range(20):
        q = rng.standard_normal((1, 6)).astype(np.float32)
        k = rng.standard_normal((7, 6)).astype(np.float32)
        v = rng.standard_normal((7, 4)).astype(np.float32)
        assert np.max(np.abs(attention(q, k, v)[0] - naive_attention(q, k, v))) < 1e-5


def test_attention_output_in_value_hull(rng):
    for _ in range(20):
        q = rng.standard_normal((1, 3)).astype(np.float32) * 3
        k = rng.standard_normal((6, 3)).astype(np.float32)
        v = rng.standard_normal((6, 1)).astype(np.float32)
        out = attention(q, k, v)[0, 0]
        assert v.min() - 1e-6 <= out <= v.max() + 1e-6


def test_attention_rejects_bad_shapes():
    q, k, v = np.zeros((1, 4)), np.zeros((3, 4)), np.zeros((3, 2))
    with pytest.raises(ShapeError, match="expects"):
        attention(np.zeros((2, 4)), k, v)
    with pytest.raises(ShapeError, match="disagree"):
        attention(q, k, v[:2])
    with pytest.raises(ShapeError, match=r"^attention expects .* n >= 1, got \(1, 4\), \(0, 4\)"):
        attention(q, k[:0], v[:0])          # no key: the softmax would have nothing to weigh


def test_transformer_layer_shape_and_oracle(rng):
    w = random_layer_weights(rng)
    tokens = rng.standard_normal((4, 64)).astype(np.float32)
    out = transformer_encoder_layer(tokens, w)
    assert out.shape == (4, 64)
    ref = naive_encoder_layer(tokens, w)
    assert np.max(np.abs(out - ref)) < 1e-4


def test_transformer_layer_not_permutation_invariant(rng):
    w = random_layer_weights(rng)
    tokens = rng.standard_normal((4, 64)).astype(np.float32)
    tokens = tokens + positional_encoding(4, 64)
    perm = tokens[[1, 0, 2, 3]]
    a = transformer_encoder_layer(tokens, w)
    b = transformer_encoder_layer(perm, w)
    assert np.max(np.abs(a - b)) > 1e-6


def test_transformer_layer_reduced_to_attention_path(rng):
    # zero feed-forward + identity output projection leaves attention + norms
    w = random_layer_weights(rng)
    w["attn.wo"] = np.eye(64, dtype=np.float32)
    w["attn.bo"] = np.zeros(64, np.float32)
    w["ff.w1"] = np.zeros((64, 256), np.float32)
    w["ff.b1"] = np.zeros(256, np.float32)
    w["ff.w2"] = np.zeros((256, 64), np.float32)
    w["ff.b2"] = np.zeros(64, np.float32)
    tokens = rng.standard_normal((3, 64)).astype(np.float32)
    out = transformer_encoder_layer(tokens, w)

    # hand-built reduced oracle
    x = tokens.astype(np.float64)
    q = x @ w["attn.wq"] + w["attn.bq"]
    k = x @ w["attn.wk"] + w["attn.bk"]
    v = x @ w["attn.wv"] + w["attn.bv"]
    attn = np.zeros_like(x)
    for h in range(2):
        sl = slice(h * 32, (h + 1) * 32)
        logits = q[:, sl] @ k[:, sl].T / np.sqrt(32)
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        alpha = e / e.sum(axis=1, keepdims=True)
        attn[:, sl] = alpha @ v[:, sl]
    y = naive_layer_norm(x + attn, w["ln1.g"], w["ln1.b"])
    ref = naive_layer_norm(y, w["ln2.g"], w["ln2.b"])
    assert np.max(np.abs(out - ref)) < 1e-4


def test_transformer_layer_runs_both_views_as_one_batch(rng):
    # a student-v2 store holds each per-view parameter as one stack over the
    # views, vectors as [v,1,e]; the batch gives each view's stream the bits
    # that view's slice of the weights gives it alone, through the 2-D path
    params = dict(init_student_weights(1).params)
    for name, shape in student_manifest():
        if name.rpartition(".")[2][0] in "bg":      # non-zero biases, gains other than one
            params[name] = params[name] + rng.uniform(-0.3, 0.3, shape).astype(np.float32)
    store = WeightStore("student-v2", params)
    tokens = rng.standard_normal((len(VIEWS), 4, MODEL_DIM)).astype(np.float32)
    for layer in [f"enc{l}" for l in range(NUM_LAYERS)]:
        stacked = store.layer(layer)
        assert stacked["attn.wq"].shape == (2, 64, 64) and stacked["ln1.g"].shape == (2, 1, 64)
        assert stacked["ff.w1"] is store.get(f"{layer}.ff.w1")     # the store's own arrays
        both = transformer_encoder_layer(tokens, stacked)
        for i, view in enumerate(VIEWS):
            own = {n: p[i] if p.shape[1] > 1 else p[i, 0] for n, p in stacked.items()}
            assert own["attn.wq"].shape == (64, 64) and own["ln1.g"].shape == (64,)
            alone = transformer_encoder_layer(tokens[i], own)
            assert np.array_equal(both[i].view(np.uint32), alone.view(np.uint32)), (layer, view)
    proj, visual = store.layer("proj"), tokens[:, :1]
    assert proj["w"].shape == (2, 64, 64) and proj["b"].shape == (2, 1, 64)
    both = linear(visual, proj["w"], proj["b"])
    for i, view in enumerate(VIEWS):
        alone = linear(visual[i], proj["w"][i], proj["b"][i, 0])
        assert np.array_equal(both[i].view(np.uint32), alone.view(np.uint32)), view


def test_transformer_layer_rejects_tokens_not_2d(rng):
    w = random_layer_weights(rng)
    with pytest.raises(ShapeError, match="2-D"):
        transformer_encoder_layer(np.zeros((2, 3, 64), np.float32), w)


def test_positional_encoding_cached_read_only():
    pe = positional_encoding(4, 64)
    assert positional_encoding(4, 64) is pe and not pe.flags.writeable
    with pytest.raises(ValueError):
        pe[0, 0] = 1.0


def test_positional_encoding_values():
    pe = positional_encoding(4, 6)
    assert pe[0, 0] == pytest.approx(0.0)
    assert pe[0, 1] == pytest.approx(1.0)
    assert pe[2, 0] == pytest.approx(np.sin(2.0), abs=1e-6)
    assert pe[2, 1] == pytest.approx(np.cos(2.0), abs=1e-6)
    assert pe[1, 2] == pytest.approx(np.sin(1.0 / 10000.0 ** (2.0 / 6.0)), abs=1e-6)


def test_kd_loss_cases():
    a = np.zeros((3, 8))
    assert kd_loss(a, a) == 0.0
    b = np.zeros((1, 8))
    c = b.copy()
    c[0, 0] = 1.0
    assert kd_loss(b, c) == pytest.approx(1.0)
    s = np.zeros((2, 8))
    t = np.zeros((2, 8))
    t[0, 0] = 1.0
    t[1, 1] = 2.0
    assert kd_loss(s, t) == pytest.approx(2.5)
    with pytest.raises(ShapeError):
        kd_loss(np.zeros((2, 8)), np.zeros((3, 8)))


def test_layer_norm_matches_naive(rng):
    x = rng.standard_normal((5, 16)).astype(np.float32)
    g = rng.uniform(0.5, 1.5, 16).astype(np.float32)
    b = rng.uniform(-0.5, 0.5, 16).astype(np.float32)
    assert np.max(np.abs(layer_norm(x, g, b) - naive_layer_norm(x, g, b))) < 1e-5


def test_layer_norm_bits_match_var_formula(rng):
    # the variance is x.var's, divided by the count as numpy does; at a width
    # that is not a power of two, a multiply by the count's reciprocal shows
    for width in (64, 100, 7):
        x = rng.standard_normal((5, width)).astype(np.float32) * 3 + 1
        g = rng.uniform(0.5, 1.5, width).astype(np.float32)
        b = rng.uniform(-0.5, 0.5, width).astype(np.float32)
        mean = x.mean(axis=-1, keepdims=True)
        want = (x - mean) / np.sqrt(x.var(axis=-1, keepdims=True) + 1e-5) * g + b
        assert want.dtype == np.float32
        assert np.array_equal(layer_norm(x, g, b).view(np.uint32), want.view(np.uint32))


def test_max_pool2(rng):
    x = np.arange(16, dtype=np.float32).reshape(1, 4, 4)
    out = max_pool2(x)
    assert np.allclose(out[0], [[5, 7], [13, 15]])
    odd = max_pool2(np.arange(15, dtype=np.float32).reshape(1, 3, 5))
    assert odd.shape == (1, 1, 2)
    lead = np.arange(2 * 3 * 5 * 4, dtype=np.float32).reshape(2, 3, 5, 4)[..., ::-1]
    out = max_pool2(lead)
    assert out.shape == (2, 3, 2, 2)
    for i in range(2):
        assert np.array_equal(out[i], max_pool2(lead[i]))
    assert np.array_equal(max_pool2(lead[1, 2]), out[1, 2])
    assert np.allclose(max_pool2(x[0]), [[5, 7], [13, 15]])
    view = rng.standard_normal((4, 3, 12, 23)).astype(np.float32)[::-1, :, 1:, ::2]
    assert view.shape == (4, 3, 11, 12) and not view.flags.c_contiguous
    assert np.array_equal(max_pool2(view), naive_max_pool2(view))
    odd = rng.standard_normal((2, 3, 7, 9)).astype(np.float32)
    assert np.array_equal(max_pool2(odd), naive_max_pool2(odd))
    with pytest.raises(ShapeError):
        max_pool2(np.zeros(4, np.float32))


# ---------------------------------------------------------------------------
# Weight store and student network
# ---------------------------------------------------------------------------

def test_weight_store_manifest_validation():
    # the manifest is the params' names and shapes, in their order, read-only
    params = {"a.w": np.zeros((2, 3), np.float32), "a.b": np.zeros(3, np.float32)}
    store = WeightStore("toy", dict(params))
    assert store.manifest == [("a.w", (2, 3)), ("a.b", (3,))]
    with pytest.raises(AttributeError):
        store.manifest = [("a.w", (2, 3))]
    assert store.param_count() == 9
    for bad in (np.nan, np.inf):
        w = params["a.w"].copy()
        w[1, 2] = bad
        with pytest.raises(ArchitectureError) as err:
            WeightStore("toy", {"a.w": w, "a.b": params["a.b"]})
        assert "a.w" in str(err.value)
    with np.errstate(over="ignore"), pytest.raises(ArchitectureError) as err:
        WeightStore("toy", {"a.w": params["a.w"],     # overflows float32
                            "a.b": np.full(3, 1e300)})
    assert "a.b" in str(err.value)
    with pytest.raises(ArchitectureError):
        store.get("missing.w")


_NOT_A_WORD = "arch or parameter name {!r} is not a whitespace-free ASCII word"


@pytest.mark.parametrize("arch, params, error", [
    ("t x", {"a": np.zeros(2)}, _NOT_A_WORD.format("t x")),
    ("", {"a": np.zeros(2)}, _NOT_A_WORD.format("")),
    ("toy", {"a b": np.zeros(2)}, _NOT_A_WORD.format("a b")),
    ("toy", {"a\nb": np.zeros(2)}, _NOT_A_WORD.format("a\nb")),
    ("toy", {"é": np.zeros(2)}, _NOT_A_WORD.format("é")),
    ("toy", {1: np.zeros(2)}, _NOT_A_WORD.format(1)),
    ("toy", {"a": np.zeros((0, 3))}, "parameter 'a' has an empty axis: (0, 3)"),
    ("toy", {"a.s": np.float32(2.0)}, "parameter 'a.s' has no axis: ()"),
], ids=["arch-space", "arch-empty", "name-space", "name-newline", "name-non-ascii",
        "name-not-str", "empty-axis", "no-axis"])
def test_weight_store_holds_only_what_its_file_states(arch, params, error):
    # each of these would save a file that WeightStore.load rejects
    with pytest.raises(ArchitectureError, match=f"^{re.escape(error)}$"):
        WeightStore(arch, params)


def test_weight_store_layer_rejects_unknown_prefix():
    store = init_student_weights(0)
    assert set(store.layer("head")) == {"fc1.w", "fc1.b", "fc2.w", "fc2.b", "fc3.w", "fc3.b"}
    # the maps are built with the store: every prefix, read-only, the store's arrays
    enc = store.layer("enc1")
    assert len(enc) == 16 and enc["attn.wq"] is store.get("enc1.attn.wq")
    assert store.layer("enc1.attn")["wq"] is enc["attn.wq"]
    with pytest.raises(TypeError):
        enc["attn.wq"] = enc["attn.wk"]
    # student-v2 has no per-view names
    for prefix in ("enc9", "enc1.attn.wq", "wrist.enc1", "wrist", "en", ""):
        with pytest.raises(ArchitectureError, match=f"prefix {prefix!r}"):
            store.layer(prefix)


def test_init_student_weights_rejects_bad_seeds():
    for seed in (True, 1.5, -1):
        with pytest.raises(InvalidArgumentError, match="seed"):
            init_student_weights(seed)
    want = init_student_weights(3).get("head.fc3.w")
    assert np.array_equal(init_student_weights(np.int64(3)).get("head.fc3.w"), want)


def _peak_bytes(fn):
    """(fn(), the peak of memory traced while it ran)."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_init_student_weights_draws_each_matrix_in_bounded_chunks():
    # one generator drawn in chunks gives the bits of one float64 draw per
    # matrix, cast, without holding that draw.  The draws run in student-v1's
    # order, where each view had its own matrices: the CNN and proprio, then
    # every stack's wrist row, every stack's base row, then the head.
    store, peak = _peak_bytes(lambda: init_student_weights(5))
    rng = np.random.Generator(np.random.PCG64(5))
    stacks = [f"enc{l}.{part}" for l in range(NUM_LAYERS)
              for part in ("attn.wq", "attn.wk", "attn.wv", "attn.wo", "ff.w1", "ff.w2")]
    draws = ([(n, ()) for n in ("cnn.conv1.w", "cnn.conv2.w", "cnn.fc.w", "proprio.w")]
             + [(n, (i,)) for i in range(len(VIEWS)) for n in stacks + ["proj.w"]]
             + [(f"head.fc{i}.w", ()) for i in (1, 2, 3)])
    for name, row in draws:
        shape = store.get(name)[row].shape
        bound = 1.0 / np.sqrt(shape[0] if len(shape) == 2 else np.prod(shape[1:]))
        want = rng.uniform(-bound, bound, size=shape).astype(np.float32)
        assert store.get(name)[row].tobytes() == want.tobytes(), (name, row)
    for name, p in store.params.items():        # the rest: biases 0, norm gains 1
        if name not in dict(draws):
            assert np.all(p == name.endswith(".g")), name
    # the weights, the finiteness mask of the largest matrix, one draw
    size = 4 * store.param_count()
    assert peak < size + max(p.size for p in store.params.values()) + 1e6, (peak, size)


def test_weight_store_file_roundtrip(tmp_path, rng):
    # the loaded floats are the saved ones, bit for bit, read into one array:
    # loading holds one file, not the file beside a copy of each weight
    store = init_student_weights(3)
    path = tmp_path / "student.weights"
    store.save(path)
    loaded, peak = _peak_bytes(lambda: WeightStore.load(path))
    assert loaded.arch == store.arch
    assert loaded.manifest == store.manifest
    for name, _ in store.manifest:
        assert loaded.get(name).tobytes() == store.get(name).tobytes()
    size = path.stat().st_size        # the weights and the largest matrix's finiteness mask
    assert size < peak < size + max(p.size for p in store.params.values()) + 1e6, (peak, size)
    # saving writes each parameter as it lies: at most one converted copy
    # (on a big-endian host), never the whole blob beside its parts
    _, peak = _peak_bytes(lambda: store.save(tmp_path / "again.weights"))
    assert peak <= max(p.nbytes for p in store.params.values()) + 1e6, peak
    assert (tmp_path / "again.weights").read_bytes() == path.read_bytes()


def test_weight_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.weights"
    path.write_bytes(b"not a weight file")
    with pytest.raises(ArchitectureError):
        WeightStore.load(path)
    store = init_student_weights(0)
    good = tmp_path / "good.weights"
    store.save(good)
    data = good.read_bytes()
    (tmp_path / "short.weights").write_bytes(data[:-100])
    with pytest.raises(ArchitectureError):
        WeightStore.load(tmp_path / "short.weights")
    (tmp_path / "ragged.weights").write_bytes(data[:-3])
    with pytest.raises(ArchitectureError):
        WeightStore.load(tmp_path / "ragged.weights")
    (tmp_path / "long.weights").write_bytes(data + bytes(8))
    with pytest.raises(ArchitectureError, match="2 trailing floats$"):
        WeightStore.load(tmp_path / "long.weights")
    blob = b"\n---\n"
    for head in (b"", b"weights-v1 toy\na.w", b"weights-v1 toy\na.w 2,3 x",
                 b"weights-v1 toy\na.w 2,x", b"weights-v1 toy\na.w 2.0,3",
                 b"weights-v1 toy\na.w 0,3", b"weights-v1 toy\na.w -2,3",
                 "weights-v1 t\u00f6y\na.w 2,3".encode("utf-8")):
        path.write_bytes(head + blob)
        with pytest.raises(ArchitectureError) as err:
            WeightStore.load(path)
        assert str(path) in str(err.value)
    # a repeated name would overwrite the first parameter of that name
    path.write_bytes(b"weights-v1 toy\na.w 2,3\na.b 3\na.w 2,3" + blob + bytes(4 * 15))
    with pytest.raises(ArchitectureError, match=re.escape(f"{path}: manifest repeats 'a.w'")):
        WeightStore.load(path)
    toy = WeightStore("toy", {"a.w": np.ones((2, 3), np.float32)})
    toy.save(path)
    WeightStore.load(path)
    path.write_bytes(path.read_bytes()[:-4] + np.float32(np.nan).tobytes())
    with pytest.raises(ArchitectureError) as err:
        WeightStore.load(path)
    assert "a.w" in str(err.value) and str(path) in str(err.value)


def test_student_weight_file_must_match_the_student_manifest(tmp_path):
    # a student-v2 file with one edited shape, or one parameter missing, fails
    # as it loads, naming that parameter, not partway through a forward
    w = init_student_weights(0)
    edits = {"cnn.fc.w": [(n, (10, MODEL_DIM) if n == "cnn.fc.w" else s) for n, s in w.manifest],
             "enc1.attn.wq": [(n, (1, MODEL_DIM, MODEL_DIM) if n == "enc1.attn.wq" else s)
                              for n, s in w.manifest],      # a stack of one view
             "head.fc3.b": w.manifest[:-1]}
    path = tmp_path / "student.weights"
    for name, manifest in edits.items():
        params = {n: w.get(n)[:shape[0]] for n, shape in manifest}
        WeightStore("toy", params).save(path)
        path.write_bytes(path.read_bytes().replace(b"weights-v1 toy\n",
                                                   b"weights-v1 student-v2\n", 1))
        message = f"student-v2 parameter '{name}': the manifest says "
        with pytest.raises(ArchitectureError, match=re.escape(f"{path}: {message}")):
            WeightStore.load(path)
        with pytest.raises(ArchitectureError, match=f"^{message}"):
            WeightStore("student-v2", params)


def test_loaded_student_store_is_slices_of_one_blob(tmp_path):
    # the file's blob is the only copy of the weights: every parameter, and
    # every layer() map's entry, is a slice of it
    path = tmp_path / "student.weights"
    init_student_weights(3).save(path)
    loaded = WeightStore.load(path)
    blob = loaded.get("cnn.conv1.w").base
    assert blob.ndim == 1 and blob.size == loaded.param_count()
    for name, p in loaded.params.items():
        assert p.base is blob and np.shares_memory(p, blob), name
    for prefix in ("enc0", "enc1", "proj"):
        for key, p in loaded.layer(prefix).items():
            assert p is loaded.get(f"{prefix}.{key}")


def test_student_v1_file_loads_but_does_not_run(tmp_path):
    # a student-v1 file (each view's weights named apart) is a generic store
    # now; the forward's arch check names it
    v1 = {}
    for name, p in init_student_weights(0).params.items():
        if p.ndim != 3:
            v1[name] = p
        for i, view in enumerate(VIEWS if p.ndim == 3 else ()):
            v1[f"{view}.{name}"] = p[i] if p.shape[1] > 1 else p[i, 0]
    path = tmp_path / "v1.weights"
    WeightStore("student-v1", v1).save(path)
    loaded = WeightStore.load(path)
    assert loaded.arch == "student-v1" and len(loaded.params) == 82
    frames, proprio = np.zeros(nn.STACK_SHAPE, np.float32), np.zeros(PROPRIO_DIM, np.float32)
    with pytest.raises(ArchitectureError, match="^expected arch 'student-v2', got 'student-v1'$"):
        student_forward(frames, proprio, loaded)


def test_student_parameter_count_near_reported_budget():
    count = init_student_weights(0).param_count()
    assert abs(count - 5.37e6) / 5.37e6 <= 0.15


def test_student_forward_contract(rng):
    w = init_student_weights(1)
    frames = rng.random((12, 54, 96)).astype(np.float32)
    proprio = rng.random(PROPRIO_DIM).astype(np.float32)
    out = student_forward(frames, proprio, w)
    assert out.shape == (8,)
    assert np.array_equal(out, student_forward(frames, proprio, w))
    with pytest.raises(ShapeError):
        student_forward(frames[:6], proprio, w)
    with pytest.raises(ShapeError):
        student_forward(frames, proprio[:10], w)
    bad = WeightStore("other-arch", {"x": np.zeros(1, np.float32)})
    with pytest.raises(ArchitectureError):
        student_forward(frames, proprio, bad)


# sha256 of student_forward(stacked, proprio, init_student_weights(0)) as
# little-endian float32, over conftest's 37 box_records in order.  Like the
# episode digests, it holds for the numpy and BLAS that recorded it.
STUDENT_FORWARD_DIGEST = "14d9bdd31399658c135bc0273e3a0f5256b9654ce396c6af407bb7edaedcf909"


def test_student_forward_bits_pinned(box_records):
    w = init_student_weights(0)
    digest = hashlib.sha256()
    for stacked, proprio, *_ in box_records:
        digest.update(student_forward(stacked, proprio, w).astype("<f4").tobytes())
    assert digest.hexdigest() == STUDENT_FORWARD_DIGEST


def test_encode_frames_batch_equals_single_pairs(rng):
    # Each pair is also encoded as a batch of two copies: a one-row fc would
    # run as a BLAS matrix-vector product, which sums in another order.  The
    # stack goes in as student_forward reads it, (time, view), and again in
    # (view, time) order: a token's bits may not depend on its row.
    w = init_student_weights(1)
    frames = rng.random((12, 54, 96)).astype(np.float32)
    imgs = frames.reshape(-1, 2, *FRAME_SHAPE)
    assert imgs.shape == (6, 2, 54, 96)
    tokens = _encode_frames(imgs, w)
    assert tokens.shape == (6, 64)
    by_view = frames.reshape(STACK_LAYOUT + FRAME_SHAPE).swapaxes(0, 1).reshape(imgs.shape)
    assert np.array_equal(_encode_frames(by_view, w).reshape(STACK_LAYOUT[1], -1, MODEL_DIM),
                          tokens.reshape(*STACK_LAYOUT[:2], MODEL_DIM).swapaxes(0, 1))
    for i in range(6):
        single = _encode_frames(imgs[[i, i]], w)
        assert np.array_equal(single[0], tokens[i])
        assert np.array_equal(single[1], tokens[i])


def test_student_forward_rejects_cnn_overflow():
    w = init_student_weights(2)         # its conv1 overflows on these frames
    for value in (3e38, -3e38):
        frames = np.full((12, 54, 96), value, np.float32)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(InvalidArgumentError, match="conv2d"):
            student_forward(frames, np.zeros(PROPRIO_DIM, np.float32), w)


def test_student_forward_peak_allocation(rng):
    # The CNN runs one image at a time and pools in its tile, so a forward's
    # temporaries stay a few conv tiles, not full-batch activations (about
    # 12 MB when batched): 3.45 MB measured, and 20% above it is the bound.
    w = init_student_weights(0)
    frames = rng.random((12, 54, 96)).astype(np.float32)
    proprio = rng.random(PROPRIO_DIM).astype(np.float32)
    student_forward(frames, proprio, w)
    tracemalloc.start()
    try:
        student_forward(frames, proprio, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.14e6, peak


def test_student_forward_latency_budget(rng):
    w = init_student_weights(2)
    frames = rng.random((12, 54, 96)).astype(np.float32)
    proprio = rng.random(PROPRIO_DIM).astype(np.float32)
    student_forward(frames, proprio, w)
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        student_forward(frames, proprio, w)
        times.append(time.perf_counter() - t0)
    assert sorted(times)[2] < 0.050


def test_student_manifest_is_stable():
    shapes = dict(student_manifest())
    names = list(shapes)
    assert names[0] == "cnn.conv1.w" and names[-1] == "head.fc3.b"
    # student-v2: each per-view parameter once, stacked over the views
    assert len(names) == 48 and not any(n.startswith(VIEWS) for n in names)
    assert shapes["enc0.attn.wq"] == shapes["proj.w"] == (len(VIEWS), MODEL_DIM, MODEL_DIM)
    assert shapes["enc1.ln1.g"] == shapes["enc1.attn.bq"] == (len(VIEWS), 1, MODEL_DIM)


def test_tensor_guards():
    with pytest.raises(InvalidArgumentError):
        elu(np.array([np.nan], np.float32))
    w = np.eye(3, dtype=np.float32)
    w[1, 2] = np.nan
    with pytest.raises(InvalidArgumentError):
        linear(np.ones((1, 3), np.float32), w, np.zeros(3, np.float32))
    with pytest.raises(InvalidArgumentError):
        softmax(np.array([np.inf], np.float32))
