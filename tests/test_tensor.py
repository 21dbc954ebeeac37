"""Tensor-core tests: every primitive against an independent oracle.

The conv oracles below are deliberately naive Python loops so they share
no code path with the vectorized implementations they check.
"""

import tracemalloc

import numpy as np
import pytest

import manner.nn
from manner.chunker import chunk, merge
from manner.loss import StftConfig, stft_magnitude
from manner.nn import (
    ParamInit,
    batch_norm,
    batch_norm_tensors,
    conv1d,
    conv_out_length,
    conv_transpose1d,
    linear,
    overlap_add,
    time_windows,
)
from manner.tensor import (
    Tape,
    Tensor,
    add,
    apply_op,
    backward,
    concat,
    div,
    finite_diff_check,
    maximum,
    mul,
    narrow,
    pad_end,
    relu,
    reshape,
    sigmoid,
    sub,
    tanh,
    tmax,
    tmean,
    transpose,
    tsum,
)

# ---------------------------------------------------------------------
# oracles


def conv1d_loops(x, w, b=None, stride=1, padding=0, groups=1):
    bsz, cin, t = x.shape
    cout, cin_g, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding)))
    tout = (t + 2 * padding - kw) // stride + 1
    oc = cout // groups
    out = np.zeros((bsz, cout, tout), dtype=np.float64)
    for n in range(bsz):
        for o in range(cout):
            base = (o // oc) * cin_g
            for tau in range(tout):
                acc = 0.0 if b is None else float(b[o])
                for c in range(cin_g):
                    for k in range(kw):
                        acc += float(w[o, c, k]) * float(xp[n, base + c, tau * stride + k])
                out[n, o, tau] = acc
    return out


def conv_transpose1d_loops(x, w, b=None, stride=1, padding=0):
    bsz, cin, t = x.shape
    _, cout, kw = w.shape
    tfull = (t - 1) * stride + kw
    full = np.zeros((bsz, cout, tfull), dtype=np.float64)
    for n in range(bsz):
        for i in range(cin):
            for o in range(cout):
                for tau in range(t):
                    for k in range(kw):
                        full[n, o, tau * stride + k] += float(x[n, i, tau]) * float(w[i, o, k])
    out = full[:, :, padding : tfull - padding] if padding else full
    if b is not None:
        out = out + np.asarray(b, dtype=np.float64)[:, None]
    return out


def linear_map_matrix(apply, in_shape, out_size):
    """Explicit matrix of a linear map, column by column via basis vectors."""
    n = int(np.prod(in_shape))
    m = np.zeros((out_size, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        m[:, j] = apply(e.reshape(in_shape)).reshape(-1)
    return m


def zero_bias(n, dtype=np.float32):
    return Tensor(np.zeros(n, dtype=dtype))


# ---------------------------------------------------------------------
# conv1d


def test_conv1d_hand_values():
    x = Tensor(np.array([[[1.0, 2.0, 3.0, 4.0]]]))
    w = Tensor(np.array([[[1.0, 1.0]]]))
    out = conv1d(x, w, zero_bias(1, np.float64))
    np.testing.assert_allclose(out.data, [[[3.0, 5.0, 7.0]]])


def test_conv1d_identity_kernel():
    rng = np.random.default_rng(1)
    x = Tensor(rng.standard_normal((2, 5, 9)).astype(np.float32))
    w = Tensor(np.ones((5, 1, 1), dtype=np.float32))
    out = conv1d(x, w, zero_bias(5), groups=5)
    np.testing.assert_array_equal(out.data, x.data)


def test_conv1d_length_formula():
    assert conv_out_length(64000, 8, 4, 2) == 16000
    x = Tensor(np.zeros((1, 1, 64000), dtype=np.float32))
    w = Tensor(np.zeros((1, 1, 8), dtype=np.float32))
    assert conv1d(x, w, zero_bias(1), stride=4, padding=2).shape == (1, 1, 16000)


@pytest.mark.parametrize(
    "b,cin,cout,t,kw,stride,padding,groups,use_bias",
    [
        (1, 1, 1, 6, 3, 1, 0, 1, False),
        (2, 3, 4, 10, 3, 1, 1, 1, True),
        (1, 4, 6, 12, 5, 2, 2, 1, True),
        (2, 6, 6, 9, 3, 1, 1, 6, True),  # depthwise
        (3, 2, 5, 7, 7, 1, 3, 1, True),  # kernel spans padded input
        (2, 4, 4, 40, 31, 1, 15, 4, True),  # the model's depthwise: K=31, P=15
        (3, 5, 5, 71, 31, 1, 15, 5, True),  # depthwise, B > 1, 71 outputs in blocks of L=14
        (40, 3, 3, 5, 3, 1, 1, 3, True),  # depthwise, 5 outputs < one block of L=14
    ],
)
def test_conv1d_matches_loop_oracle(b, cin, cout, t, kw, stride, padding, groups, use_bias):
    rng = np.random.default_rng(b * 100 + t)
    x = rng.standard_normal((b, cin, t))
    w = rng.standard_normal((cout, cin // groups, kw))
    bias = rng.standard_normal(cout) if use_bias else np.zeros(cout)
    want = conv1d_loops(x, w, bias, stride, padding, groups)
    got = conv1d(
        Tensor(x, dtype=np.float64),
        Tensor(w, dtype=np.float64),
        Tensor(bias, dtype=np.float64),
        stride=stride,
        padding=padding,
        groups=groups,
    )
    assert got.shape == want.shape
    np.testing.assert_allclose(got.data, want, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("stride,padding,kw", [(1, 15, 31), (1, 1, 3), (1, 2, 5), (1, 0, 4)])
def test_depthwise_backward_matches_block_diagonal_dense(stride, padding, kw):
    """Depthwise gradients equal those of the dense conv with a
    block-diagonal weight, under a random upstream gradient."""
    rng = np.random.default_rng(stride * 10 + kw)
    ch = 3
    x = rng.standard_normal((2, ch, 41))
    w = rng.standard_normal((ch, 1, kw))
    dense = np.zeros((ch, ch, kw))
    dense[np.arange(ch), np.arange(ch)] = w[:, 0]
    grads = []
    for weight, groups in ((w, ch), (dense, 1)):
        xt = Tensor(x, requires_grad=True, dtype=np.float64)
        wt = Tensor(weight, requires_grad=True, dtype=np.float64)
        with Tape() as tape:
            y = conv1d(xt, wt, zero_bias(ch, np.float64), stride=stride, padding=padding, groups=groups)
            loss = tsum(y * Tensor(np.random.default_rng(0).standard_normal(y.shape)))
        backward(tape, loss)
        gw = wt.grad[:, 0] if groups > 1 else wt.grad[np.arange(ch), np.arange(ch)]
        grads.append((xt.grad, gw))
    (gx, gw), (gx_dense, gw_dense) = grads
    np.testing.assert_allclose(gx, gx_dense, rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(gw, gw_dense, rtol=1e-10, atol=1e-12)


def test_depthwise_forward_copies_no_windows():
    """The kernel copies the input into blocks of L outputs with their K-1
    halo samples one channel group at a time, each group's copy at most
    DEPTHWISE_BLOCK_BYTES, and writes each group's product straight into
    its slice of the output; a [B,C,K,T] window copy would peak near K
    times the input."""
    rng = np.random.default_rng(4)
    x = Tensor(rng.standard_normal((1, 64, 8000)).astype(np.float32))
    w = Tensor(rng.standard_normal((64, 1, 31)).astype(np.float32))
    b = Tensor(rng.standard_normal(64).astype(np.float32))
    tracemalloc.start()
    try:
        out = conv1d(x, w, b, padding=15, groups=64)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == x.shape
    assert peak < 4 * x.data.nbytes


def test_long_depthwise_forward_peaks_under_one_and_a_half_inputs():
    """At a 10 s full-model ResCon shape the block copy is taken channel
    group by channel group, so the output is the one full-size buffer; one
    copy of all channels, (L+K-1)/L ~ 1.9 times the input, peaked near 3x."""
    x = Tensor(np.random.default_rng(4).standard_normal((1, 240, 40000)).astype(np.float32))
    w = Tensor(np.full((240, 1, 31), 1 / 31, np.float32))
    tracemalloc.start()
    try:
        conv1d(x, w, zero_bias(240), padding=15, groups=240)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * x.data.nbytes, f"{peak / x.data.nbytes:.2f}x the input"


@pytest.mark.parametrize("shape", [(1, 7, 300), (3, 5, 71), (40, 3, 5)], ids=lambda s: "x".join(map(str, s)))
def test_depthwise_channel_groups_change_no_bits(monkeypatch, shape):
    """Forward, grad-x and grad-w with one channel per group equal those of
    one group over every channel, bit for bit."""
    rng = np.random.default_rng(sum(shape))
    x, g = (rng.standard_normal(shape).astype(np.float32) for _ in range(2))
    w = rng.standard_normal((shape[1], 1, 31)).astype(np.float32)
    runs = []
    for budget in (2**40, 1):
        monkeypatch.setattr(manner.nn, "DEPTHWISE_BLOCK_BYTES", budget)
        xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
        with Tape() as tape:
            y = conv1d(xt, wt, zero_bias(shape[1]), padding=15, groups=shape[1])
            loss = tsum(mul(y, Tensor(g)))
        backward(tape, loss)
        runs.append((y.data, xt.grad, wt.grad))
    for one, grouped in zip(*runs):
        np.testing.assert_array_equal(one, grouped)


def depthwise_einsum(x, taps, padding, count):
    """The einsum over the window view that the banded kernel replaced,
    kept as the float32 rounding reference."""
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding)))
    return np.einsum("bckt,ck->bct", time_windows(xp, taps.shape[1], 1, count), taps)


def depthwise_einsum_grads(x, taps, g, padding):
    """(output, grad-x, grad-w) of the einsum depthwise conv under upstream g."""
    t, kw = x.shape[-1], taps.shape[1]
    y = depthwise_einsum(x, taps, padding, g.shape[-1])
    gx = depthwise_einsum(g, taps[:, ::-1], kw - 1, t + 2 * padding)[..., padding : padding + t]
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding)))
    gw = np.einsum("bct,bckt->ck", g, time_windows(xp, kw, 1, g.shape[-1]))
    return y, gx, gw


# every depthwise conv of a full-model training step at B=2 x 1 s
TRAIN_STEP_DEPTHWISE = [(2, 120, 4032), (250, 20, 64), (2, 240, 1008), (62, 40, 64), (2, 480, 252),
                        (14, 80, 64), (2, 960, 63), (2, 160, 64), (2, 1920, 63), (2, 320, 64),
                        (2, 960, 252), (14, 160, 64), (2, 480, 1008), (2, 240, 4032)]


@pytest.mark.parametrize("shape", TRAIN_STEP_DEPTHWISE, ids=lambda s: "x".join(map(str, s)))
def test_depthwise_float32_error_at_most_twice_einsum(shape):
    """At the model's shapes, the float32 forward, grad-x and grad-w err
    against float64 by at most twice what the einsum kernel did."""
    b, c, t = shape
    rng = np.random.default_rng(c + t)
    x = rng.standard_normal(shape).astype(np.float32)
    g = rng.standard_normal(shape).astype(np.float32)
    w = rng.uniform(-1 / np.sqrt(31), 1 / np.sqrt(31), (c, 1, 31)).astype(np.float32)
    xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
    with Tape() as tape:
        y = conv1d(xt, wt, zero_bias(c), padding=15, groups=c)
        loss = tsum(mul(y, Tensor(g)))
    backward(tape, loss)
    banded = (y.data, xt.grad, wt.grad[:, 0])
    einsum32 = depthwise_einsum_grads(x, w[:, 0], g, 15)
    exact = depthwise_einsum_grads(x.astype(np.float64), w[:, 0].astype(np.float64), g.astype(np.float64), 15)
    for name, got, ref, want in zip(("forward", "grad-x", "grad-w"), banded, einsum32, exact):
        err = np.linalg.norm(got - want) / np.linalg.norm(want)
        ref_err = np.linalg.norm(ref - want) / np.linalg.norm(want)
        assert err <= 2 * ref_err, f"{name}: {err:.2e} against einsum {ref_err:.2e}"


def test_depthwise_rejects_stride():
    """Every depthwise layer of the model runs at stride 1; no other is built."""
    x = Tensor(np.zeros((1, 4, 16), dtype=np.float32))
    w = Tensor(np.zeros((4, 1, 3), dtype=np.float32))
    for stride in (2, 3):
        with pytest.raises(ValueError, match=f"stride={stride}"):
            conv1d(x, w, zero_bias(4), stride=stride, groups=4)


# ---------------------------------------------------------------------
# the window view and its adjoint, overlap-add


@pytest.mark.parametrize("stride", [1, 2, 4, 32, 50])
@pytest.mark.parametrize("kw", [1, 3, 7, 8, 31, 64, 240])
def test_overlap_add_is_adjoint_of_time_windows(kw, stride):
    """<time_windows(x), y> == <x, overlap_add(y)>, K < stride included; the
    stride-1 tail samples no window reads get a zero."""
    count = 5
    length = (count - 1) * stride + kw + stride - 1
    rng = np.random.default_rng(kw * 100 + stride)
    x = rng.standard_normal((2, 3, length))
    y = rng.standard_normal((2, 3, kw, count))
    back = overlap_add(y, stride, length)
    assert back.shape == x.shape
    lhs = float(np.sum(time_windows(x, kw, stride, count) * y))
    rhs = float(np.sum(x * back))
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)
    np.testing.assert_array_equal(back[..., length - stride + 1 :], 0.0)


@pytest.mark.parametrize(
    "shape,stride",
    [((2, 5, 8, 40), 4), ((1, 3, 31, 50), 1), ((2, 3, 64, 9), 32), ((2, 240, 30), 50), ((3, 2, 7), 9)],
)
def test_overlap_add_float32_bits_match_per_tap_loop(shape, stride):
    """Each position adds its taps in ascending k, so float32 sums round
    exactly as a direct loop over the taps does."""
    rng = np.random.default_rng(len(shape) * 7 + stride)
    y = rng.standard_normal(shape).astype(np.float32)
    kw, count = shape[-2:]
    length = (count - 1) * stride + kw
    want = np.zeros(shape[:-2] + (length,), dtype=np.float32)
    for k in range(kw):
        want[..., k : k + (count - 1) * stride + 1 : stride] += y[..., k, :]
    got = overlap_add(y, stride, length)
    assert got.dtype == np.float32
    np.testing.assert_array_equal(got, want)


def test_time_windows_view_is_read_only():
    x = np.arange(12.0).reshape(1, 12)
    win = time_windows(x, 4, 2, 5)
    np.testing.assert_array_equal(win[0, :, 1], x[0, 2:6])
    with pytest.raises(ValueError):
        win[0, 0, 0] = -1.0
    assert x[0, 0] == 0.0


def test_conv1d_rejects_bad_shapes():
    x = Tensor(np.zeros((1, 4, 8), dtype=np.float32))
    with pytest.raises(ValueError):
        conv1d(x, Tensor(np.zeros((2, 3, 3), dtype=np.float32)), zero_bias(2))  # cin mismatch
    with pytest.raises(ValueError):
        conv1d(x, Tensor(np.zeros((2, 4, 3), dtype=np.float32)), zero_bias(2), groups=3)
    with pytest.raises(ValueError):  # grouped but not depthwise
        conv1d(x, Tensor(np.zeros((4, 2, 3), dtype=np.float32)), zero_bias(4), groups=2)
    with pytest.raises(ValueError):  # depthwise with a channel multiplier
        conv1d(x, Tensor(np.zeros((8, 1, 3), dtype=np.float32)), zero_bias(8), groups=4)
    with pytest.raises(ValueError):
        conv1d(x, Tensor(np.zeros((2, 4, 16), dtype=np.float32)), zero_bias(2))  # tout < 1
    with pytest.raises(ValueError):
        conv1d(Tensor(np.zeros((4, 8), dtype=np.float32)), Tensor(np.zeros((2, 4, 3), dtype=np.float32)),
               zero_bias(2))


# ---------------------------------------------------------------------
# conv_transpose1d


def test_conv_transpose_length_formula():
    x = Tensor(np.zeros((1, 1, 16000), dtype=np.float32))
    w = Tensor(np.zeros((1, 1, 8), dtype=np.float32))
    assert conv_transpose1d(x, w, zero_bias(1), stride=4, padding=2).shape == (1, 1, 64000)


def test_conv_transpose_identity():
    rng = np.random.default_rng(2)
    x = Tensor(rng.standard_normal((1, 3, 7)).astype(np.float32))
    w = Tensor(np.eye(3, dtype=np.float32)[:, :, None])
    out = conv_transpose1d(x, w, zero_bias(3))
    np.testing.assert_allclose(out.data, x.data, rtol=1e-6)


@pytest.mark.parametrize(
    "b,cin,cout,t,kw,stride,padding,use_bias",
    [
        (1, 1, 1, 5, 3, 1, 0, False),
        (2, 3, 2, 6, 4, 2, 1, True),
        (1, 4, 5, 7, 8, 4, 2, True),
        (2, 2, 3, 9, 2, 3, 0, True),
        (1, 5, 4, 4, 6, 2, 2, False),
    ],
)
def test_conv_transpose_matches_loop_oracle(b, cin, cout, t, kw, stride, padding, use_bias):
    rng = np.random.default_rng(b * 37 + kw)
    x = rng.standard_normal((b, cin, t))
    w = rng.standard_normal((cin, cout, kw))
    bias = rng.standard_normal(cout) if use_bias else np.zeros(cout)
    want = conv_transpose1d_loops(x, w, bias, stride, padding)
    got = conv_transpose1d(
        Tensor(x, dtype=np.float64),
        Tensor(w, dtype=np.float64),
        Tensor(bias, dtype=np.float64),
        stride=stride,
        padding=padding,
    )
    assert got.shape == want.shape
    np.testing.assert_allclose(got.data, want, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("stride,padding,kw,t", [(1, 0, 3, 17), (2, 1, 4, 16), (4, 2, 8, 16), (3, 0, 5, 17)])
def test_conv_adjoint_identity(stride, padding, kw, t):
    """<conv(x), y> == <x, conv_t(y)> makes the pair an exact adjoint.

    Holds whenever (T + 2P - K) is a multiple of the stride, the geometry
    every layer of the model runs at (input is pre-padded to guarantee it).
    """
    assert (t + 2 * padding - kw) % stride == 0
    rng = np.random.default_rng(kw * 11 + stride)
    cin, cout = 3, 4
    w = rng.standard_normal((cout, cin, kw)).astype(np.float32)
    x = rng.standard_normal((1, cin, t)).astype(np.float32)
    tout = conv_out_length(t, kw, stride, padding)
    y = rng.standard_normal((1, cout, tout)).astype(np.float32)

    fwd = conv1d(Tensor(x), Tensor(w), zero_bias(cout), stride=stride, padding=padding).data
    # the same weight array serves both maps: conv reads it as
    # [Cout, Cin, K], its adjoint as [Cin', Cout', K]
    back = conv_transpose1d(Tensor(y), Tensor(w), zero_bias(cin), stride=stride, padding=padding).data
    assert back.shape[-1] == t
    lhs = float(np.sum(fwd * y))
    rhs = float(np.sum(x * back))
    assert abs(lhs - rhs) <= 1e-4 * max(abs(lhs), abs(rhs), 1.0)

    # brute-force matrix form: the two maps are literal transposes
    m_fwd = linear_map_matrix(
        lambda v: conv1d(Tensor(v[None], dtype=np.float64), Tensor(w, dtype=np.float64),
                         zero_bias(cout, np.float64), stride=stride, padding=padding).data[0],
        (cin, t),
        cout * tout,
    )
    m_back = linear_map_matrix(
        lambda v: conv_transpose1d(Tensor(v[None], dtype=np.float64), Tensor(w, dtype=np.float64),
                                   zero_bias(cin, np.float64), stride=stride, padding=padding).data[0],
        (cout, tout),
        cin * t,
    )
    np.testing.assert_allclose(m_back, m_fwd.T, rtol=1e-10, atol=1e-12)


def test_conv_transpose_full_length_adjoint():
    # without trimming, output length (T-1)*S+K carries every contribution
    rng = np.random.default_rng(3)
    x = rng.standard_normal((1, 2, 5))
    w = rng.standard_normal((2, 3, 4))
    out = conv_transpose1d(Tensor(x, dtype=np.float64), Tensor(w, dtype=np.float64),
                           zero_bias(3, np.float64), stride=2)
    assert out.shape == (1, 3, 12)
    np.testing.assert_allclose(out.data, conv_transpose1d_loops(x, w, stride=2), rtol=1e-10)


# ---------------------------------------------------------------------
# linear and batch-norm


def test_linear_hand_value():
    x = Tensor(np.array([[1.0, 2.0]]))
    w = Tensor(np.array([[1.0, 0.0], [0.0, 2.0]]))
    np.testing.assert_allclose(linear(x, w).data, [[1.0, 4.0]])


def test_linear_identity_weight():
    rng = np.random.default_rng(4)
    x = Tensor(rng.standard_normal((2, 3, 5)).astype(np.float32))
    w = Tensor(np.eye(5, dtype=np.float32))
    np.testing.assert_allclose(linear(x, w).data, x.data, rtol=1e-6)


def test_linear_weight_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    x = Tensor(rng.standard_normal((3, 4)).astype(np.float32), requires_grad=True)
    w = Tensor(rng.standard_normal((4, 2)).astype(np.float32), requires_grad=True)
    err = finite_diff_check(lambda *p: tsum(linear(*p)), [x, w])
    assert err < 1e-3


def fresh_bn(channels, dtype):
    """(gamma, beta, running_mean, running_var) as the model registers them."""
    init = ParamInit({}, None, dtype)
    init.batch_norm("bn", channels)
    return batch_norm_tensors(init.params, "bn")


def bn_relu_reference(x, gamma, beta):
    """relu(gamma * (x - mean) / sqrt(var + eps) + beta) with the batch's
    per-channel statistics, in plain numpy and in the op's order of rounding."""
    c = lambda a: a[None, :, None]
    xhat = (x - c(x.mean(axis=(0, 2)))) * c(1.0 / np.sqrt(x.var(axis=(0, 2)) + 1e-5))
    return np.maximum(xhat * c(gamma) + c(beta), 0.0)


def test_batch_norm_normalizes_training_batch():
    """With beta far above the lowest normalised value the ReLU passes the
    whole batch, which comes out with mean beta and unit variance."""
    rng = np.random.default_rng(6)
    x = Tensor((5.0 + 2.0 * rng.standard_normal((4, 3, 50))).astype(np.float32))
    gamma, beta, running_mean, running_var = fresh_bn(3, np.float32)
    beta.data[...] = 6.0
    out = batch_norm(x, gamma, beta, running_mean, running_var)
    assert out.data.min() > 0.0
    np.testing.assert_allclose(out.data.mean(axis=(0, 2)), 6.0, atol=1e-4)
    np.testing.assert_allclose(out.data.std(axis=(0, 2)), 1.0, atol=1e-3)
    # running stats moved toward the batch stats
    assert np.all(running_mean.data > 0.0)


def test_batch_norm_inverse_transform_recovers_input():
    rng = np.random.default_rng(7)
    xd = rng.standard_normal((2, 3, 40)).astype(np.float32) * 2.0 + 1.0
    x = Tensor(xd)
    gamma, beta, running_mean, running_var = fresh_bn(3, np.float32)
    gamma.data[...] = xd.std(axis=(0, 2))
    beta.data[...] = xd.mean(axis=(0, 2))
    out = batch_norm(x, gamma, beta, running_mean, running_var)
    np.testing.assert_allclose(out.data, np.maximum(xd, 0.0), atol=1e-3)


def test_batch_norm_matches_plain_numpy():
    rng = np.random.default_rng(9)
    xd = rng.standard_normal((2, 4, 30))
    gamma = rng.standard_normal(4)
    beta = rng.standard_normal(4)
    g, bt, running_mean, running_var = fresh_bn(4, np.float64)
    g.data[...] = gamma
    bt.data[...] = beta
    out = batch_norm(Tensor(xd, dtype=np.float64), g, bt, running_mean, running_var)
    np.testing.assert_allclose(out.data, bn_relu_reference(xd, gamma, beta), rtol=1e-10)


def bn_case(seed, dtype):
    """An off-zero [2, 5, 40] input and (gamma, beta, running_mean, running_var)
    with random values, so no factor of the formulas is 1 or 0."""
    rng = np.random.default_rng(seed)
    x = 2.0 + 1.5 * rng.standard_normal((2, 5, 40))
    stats = fresh_bn(5, dtype)
    for t, value in zip(stats, (rng.uniform(0.5, 1.5, 5), rng.uniform(-0.5, 0.5, 5),
                                rng.uniform(1.5, 2.5, 5), rng.uniform(1.0, 3.0, 5))):
        t.data[...] = value
    return Tensor(x, dtype=dtype), stats


def test_batch_norm_running_stats_follow_x_mean_and_x_var():
    """The statistics the op normalizes with are those of x.mean and x.var,
    so the running buffers get the update they got before the op took the
    ReLU, bit for bit."""
    x, (gamma, beta, running_mean, running_var) = bn_case(30, np.float32)
    mom = 0.1
    want_mean = (1.0 - mom) * running_mean.data + mom * x.data.mean(axis=(0, 2))
    want_var = (1.0 - mom) * running_var.data + mom * x.data.var(axis=(0, 2))
    batch_norm(x, gamma, beta, running_mean, running_var)
    np.testing.assert_array_equal(running_mean.data, want_mean)
    np.testing.assert_array_equal(running_var.data, want_var)


def test_batch_norm_relu_is_relu_of_batch_norm_in_one_node():
    x, stats = bn_case(31, np.float32)
    gamma, beta = (Tensor(t.data, requires_grad=True) for t in stats[:2])
    with Tape() as tape:
        got = batch_norm(x, gamma, beta, *stats[2:])
    assert len(tape) == 1
    assert got.data.min() == 0.0 < got.data.max()
    want = bn_relu_reference(x.data, gamma.data, beta.data)
    np.testing.assert_array_equal(got.data, want)


def test_finite_diff_batch_norm_relu():
    """float64, random upstream: the one backward masks, normalizes and
    scales as the chain of batch norm and relu does."""
    x, (gamma, beta, running_mean, running_var) = bn_case(32, np.float64)
    x.requires_grad = gamma.requires_grad = beta.requires_grad = True
    r = Tensor(np.random.default_rng(33).standard_normal(x.shape))

    def f(xi, gi, bi):
        # fresh copies keep the running buffers fixed across the probes
        stats = (Tensor(running_mean.data.copy()), Tensor(running_var.data.copy()))
        return tsum(mul(batch_norm(xi, gi, bi, *stats), r))

    assert finite_diff_check(f, [x, gamma, beta]) < 1e-6


# ---------------------------------------------------------------------
# activations, pooling


def test_activation_values():
    x = Tensor(np.array([-1.0, 0.0, 2.0]))
    np.testing.assert_array_equal(relu(x).data, [0.0, 0.0, 2.0])
    assert sigmoid(Tensor(np.array([0.0]))).data[0] == pytest.approx(0.5)
    assert tanh(Tensor(np.array([0.0]))).data[0] == 0.0


def test_sigmoid_saturates_without_overflow():
    out = sigmoid(Tensor(np.array([-1e4, 1e4], dtype=np.float32)))
    assert np.all(np.isfinite(out.data))
    np.testing.assert_allclose(out.data, [0.0, 1.0], atol=1e-20)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_bits_match_the_plain_formula_and_leave_the_input(dtype):
    """One buffer, run through the same ufuncs in the same order as
    1 / (1 + exp(-clip(x))); the input keeps its values."""
    x = np.random.default_rng(3).uniform(-80.0, 80.0, (3, 1000)).astype(dtype)
    keep = x.copy()
    out = sigmoid(Tensor(x)).data
    np.testing.assert_array_equal(out, 1.0 / (1.0 + np.exp(-np.clip(keep, -60.0, 60.0))))
    np.testing.assert_array_equal(x, keep)


def test_inplace_relu_writes_the_input_buffer_and_keeps_its_gradient():
    x = Tensor(np.array([-1.0, 0.5, 2.0]), requires_grad=True)
    with Tape() as tape:
        h = mul(x, 1.0)  # a fresh buffer the caller owns
        y = relu(h, inplace=True)
        loss = tsum(y)
    assert y.data is h.data
    backward(tape, loss)
    np.testing.assert_array_equal(x.grad, [0.0, 1.0, 1.0])


def test_pool_values():
    x = Tensor(np.array([[1.0, 2.0, 3.0]]))
    assert tmean(x, axis=1).data[0] == pytest.approx(2.0)
    assert tmax(x, axis=1).data[0] == pytest.approx(3.0)
    const = Tensor(np.full((2, 5), 1.7))
    np.testing.assert_allclose(tmean(const, axis=1).data, tmax(const, axis=1).data)


# [1, 3, 4] with ties along both pooled axes: rows 1 and 2 tie within
# themselves, and column 2 ties between rows 1 and 2
TIED_3D = [[[1.0, 3.0, 3.0, 2.0],
            [5.0, 0.0, 5.0, 5.0],
            [2.0, 4.0, 5.0, 4.0]]]


@pytest.mark.parametrize("x,axis,keepdims", [
    ([[1.0, 3.0, 3.0, 2.0]], 1, False),
    (TIED_3D, 1, True),  # local attention pools over channels
    (TIED_3D, 2, False),  # channel attention pools over time
], ids=["row", "channels-keepdims", "time"])
def test_max_gradient_routes_to_first_argmax(x, axis, keepdims):
    x = Tensor(np.array(x), requires_grad=True)
    out_shape = np.max(x.data, axis=axis, keepdims=keepdims).shape
    w = np.arange(1.0, 1.0 + np.prod(out_shape)).reshape(out_shape)  # a distinct upstream gradient per max
    with Tape() as tape:
        loss = tsum(mul(tmax(x, axis=axis, keepdims=keepdims), Tensor(w)))
    backward(tape, loss)
    # oracle: walk each pooled line and credit its first maximum
    expected = np.zeros_like(x.data)
    lines, target = np.moveaxis(x.data, axis, -1), np.moveaxis(expected, axis, -1)
    g = np.moveaxis(w if keepdims else np.expand_dims(w, axis), axis, -1)[..., 0]
    for pos in np.ndindex(g.shape):
        line = list(lines[pos])
        target[pos][line.index(max(line))] = g[pos]
    np.testing.assert_array_equal(x.grad, expected)


def test_max_keeps_only_argmax_indices_for_backward():
    """A taped max saves the [..., 1] argmax indices, not an input-sized mask."""
    x = Tensor(np.random.default_rng(0).standard_normal((4, 64, 8192)).astype(np.float32),
               requires_grad=True)
    tracemalloc.start()
    try:
        with Tape() as tape:
            out = tmax(x, axis=2)
        held = tracemalloc.get_traced_memory()[0] - out.data.nbytes
    finally:
        tracemalloc.stop()
    assert len(tape) == 1
    assert held < 64 * 2**10, f"taped max holds {held} bytes besides its output"


def test_maximum_ties_prefer_first_argument():
    a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    b = Tensor(np.array([1.0, 0.0]), requires_grad=True)
    with Tape() as tape:
        loss = tsum(maximum(a, b))
    backward(tape, loss)
    np.testing.assert_array_equal(a.grad, [1.0, 1.0])
    np.testing.assert_array_equal(b.grad, [0.0, 0.0])


# ---------------------------------------------------------------------
# tape mechanics


def test_backward_of_sum_is_ones():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    with Tape() as tape:
        loss = tsum(x)
    backward(tape, loss)
    np.testing.assert_array_equal(x.grad, np.ones((2, 3)))


def test_backward_of_square_sum_is_two_x():
    x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    with Tape() as tape:
        loss = tsum(x * x)
    backward(tape, loss)
    np.testing.assert_allclose(x.grad, 2.0 * x.data, rtol=1e-6)


def test_backward_requires_scalar_loss():
    x = Tensor(np.ones(3), requires_grad=True)
    with Tape() as tape:
        y = x * 2.0
    with pytest.raises(ValueError):
        backward(tape, y)


def test_unreached_leaf_gets_zero_gradient():
    x = Tensor(np.ones(3), requires_grad=True)
    y = Tensor(np.ones(3), requires_grad=True)
    with Tape() as tape:
        _dead_branch = y * 2.0  # recorded, but never feeds the loss
        loss = tsum(x * 1.5)
    backward(tape, loss)
    np.testing.assert_array_equal(y.grad, np.zeros(3))


def test_gradients_accumulate_across_fan_out():
    x = Tensor(np.array([2.0]), requires_grad=True)
    with Tape() as tape:
        loss = tsum(x * 3.0) + tsum(x * x)
    backward(tape, loss)
    np.testing.assert_allclose(x.grad, [3.0 + 2.0 * 2.0])


def test_step_graph_is_freed_without_the_cyclic_gc():
    import gc
    import weakref

    x = Tensor(np.ones((2, 3)), requires_grad=True)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        with Tape() as tape:
            hidden = relu(x * 2.0)
            y = sigmoid(hidden)
            loss = tsum(y * y)
        backward(tape, loss)
        assert y.node is not None
        ref = weakref.ref(hidden)
        node_ref = weakref.ref(y.node)
        del hidden
        assert ref() is None  # nodes link to parent nodes, not to tensors
        del tape, y, loss
        assert ref() is None
        assert node_ref() is None
    finally:
        if was_enabled:
            gc.enable()


def _bn(h):
    ones, zeros = np.ones(h.shape[1]), np.zeros(h.shape[1])
    stats = (Tensor(ones, requires_grad=True), Tensor(zeros, requires_grad=True),
             Tensor(zeros.copy()), Tensor(ones.copy()))
    return batch_norm(h, *stats)


FREEING_OPS = {
    "relu": relu,
    "add": lambda h: add(h, Tensor(np.ones(h.shape))),
    "sub": lambda h: Tensor(np.ones(h.shape)) - h,
    "mul_constant": lambda h: h * 3.0,
    "div_constant": lambda h: h / 3.0,
    "maximum_constant": lambda h: maximum(h, 0.5),
    "narrow": lambda h: narrow(h, 1, 5),
    "batch_norm_relu_training": _bn,
    "stft_magnitude": lambda h: stft_magnitude(h, StftConfig(8, 2, 4)),
    "chunk_merge": lambda h: merge(chunk(h, 4), h.shape[-1]),
}


@pytest.mark.parametrize("op", sorted(FREEING_OPS))
def test_tape_frees_intermediates_no_backward_reads(op):
    import weakref

    x = Tensor(np.linspace(-1.0, 1.0, 48).reshape(2, 3, 8), requires_grad=True)
    with Tape() as tape:
        hidden = x * 2.0
        refs = (weakref.ref(hidden), weakref.ref(hidden.data))
        loss = tsum(sigmoid(FREEING_OPS[op](hidden)))
        del hidden
        assert [r() for r in refs] == [None, None]  # freed while the tape lives
    backward(tape, loss)
    assert x.grad.shape == x.shape and np.any(x.grad != 0.0)


def test_backward_drops_every_saved_closure():
    x = Tensor(np.ones(3), requires_grad=True)
    y = Tensor(np.ones(3), requires_grad=True)
    with Tape() as tape:
        _dead_branch = y * 2.0  # recorded, but never feeds the loss
        loss = tsum(relu(x * 2.0))
    backward(tape, loss)
    assert len(tape) == 4
    assert all(node.backward_fn is None for node in tape._nodes)


def test_second_backward_on_a_consumed_tape_raises():
    x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    with Tape() as tape:
        loss = tsum(x * x)
    backward(tape, loss)
    with pytest.raises(ValueError, match="already run"):
        backward(tape, loss)
    np.testing.assert_allclose(x.grad, [2.0, -4.0])  # the first pass only


BINARY_OPS = {
    "add": (add, np.add),
    "sub": (sub, np.subtract),
    "mul": (mul, np.multiply),
    "div": (div, np.divide),
    "maximum": (maximum, np.maximum),
}
# the reflected operator, for the ops Tensor defines one for
REFLECTED = {"add": lambda s, x: s + x, "sub": lambda s, x: s - x, "mul": lambda s, x: s * x}


@pytest.mark.parametrize("name", sorted(BINARY_OPS))
def test_binary_op_broadcast_rule(name):
    op, np_op = BINARY_OPS[name]
    rng = np.random.default_rng(21)
    # values in [0.5, 1.5] keep div off zero and maximum off ties at this step size
    full, row, scalar = (Tensor(rng.uniform(0.5, 1.5, shape), requires_grad=True)
                         for shape in ((2, 3, 4), (2, 1, 4), ()))
    for a, b in ((full, row), (row, full), (full, scalar), (scalar, full)):
        np.testing.assert_array_equal(op(a, b).data, np_op(a.data, b.data))
        assert finite_diff_check(lambda a, b: tsum(tanh(op(a, b))), [a, b]) < 1e-6

    # a Python scalar takes the tensor's dtype, on either side
    x32 = Tensor(rng.uniform(0.5, 1.5, (2, 3)).astype(np.float32))
    right = op(x32, 2.0)
    assert right.dtype == np.float32 and right.shape == x32.shape
    np.testing.assert_array_equal(right.data, np_op(x32.data, np.float32(2.0)))
    assert finite_diff_check(lambda x: tsum(tanh(op(x, 2.0))), [full]) < 1e-6
    if name in REFLECTED:
        left = REFLECTED[name](2.0, x32)
        assert left.dtype == np.float32
        np.testing.assert_array_equal(left.data, np_op(np.float32(2.0), x32.data))
        assert finite_diff_check(lambda x: tsum(tanh(REFLECTED[name](2.0, x))), [full]) < 1e-6

    # scalars and equal-rank size-1 axes are the two sanctioned broadcasts
    assert op(x32, Tensor(np.ones((1, 3), dtype=np.float32))).shape == (2, 3)
    with pytest.raises(ValueError, match=f"^{name}: rank mismatch"):
        op(x32, Tensor(np.ones(3, dtype=np.float32)))
    with pytest.raises(ValueError, match=f"^{name}: shape mismatch"):
        op(x32, Tensor(np.ones((2, 2), dtype=np.float32)))
    with pytest.raises(ValueError, match=f"^{name}: dtype mismatch"):
        op(x32, Tensor(np.ones((2, 3))))
    with pytest.raises(TypeError, match=f"^{name}: unsupported operand type ndarray"):
        op(x32, np.ones((2, 3), dtype=np.float32))  # arrays are not coerced


def test_shape_ops_roundtrip_and_differentiate():
    rng = np.random.default_rng(11)
    x = Tensor(rng.standard_normal((2, 3, 4)).astype(np.float64), requires_grad=True)

    def f(t):
        y = transpose(t, (0, 2, 1))
        y = reshape(y, (2, 12))
        y = pad_end(y, 3)
        y = narrow(y, 1, 12)
        return tsum(y * y)

    assert finite_diff_check(f, [x]) < 1e-6


def test_concat_splits_gradient():
    a = Tensor(np.ones((2, 2)), requires_grad=True)
    b = Tensor(np.ones((2, 3)), requires_grad=True)
    with Tape() as tape:
        joined = concat([a, b], axis=1)
        loss = tsum(joined * joined)
    assert joined.shape == (2, 5)
    backward(tape, loss)
    np.testing.assert_allclose(a.grad, 2.0 * np.ones((2, 2)))
    np.testing.assert_allclose(b.grad, 2.0 * np.ones((2, 3)))


def test_ops_are_deterministic():
    rng = np.random.default_rng(13)
    x = rng.standard_normal((1, 6, 32)).astype(np.float32)
    w = rng.standard_normal((4, 6, 5)).astype(np.float32)
    a = conv1d(Tensor(x), Tensor(w), zero_bias(4), stride=2, padding=2).data
    b = conv1d(Tensor(x), Tensor(w), zero_bias(4), stride=2, padding=2).data
    np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------
# finite-difference checker


def test_finite_diff_exact_for_linear_map():
    rng = np.random.default_rng(14)
    x = Tensor(rng.standard_normal(8), requires_grad=True, dtype=np.float64)
    w = Tensor(rng.standard_normal(8), requires_grad=False, dtype=np.float64)
    err = finite_diff_check(lambda t: tsum(t * Tensor(w.data)), [x])
    assert err < 1e-9


def test_finite_diff_composite_conv_bn_relu():
    rng = np.random.default_rng(15)

    def build(dtype):
        x = Tensor(rng.standard_normal((2, 3, 12)), requires_grad=True, dtype=dtype)
        w = Tensor(0.5 * rng.standard_normal((4, 3, 3)), requires_grad=True, dtype=dtype)
        b = Tensor(0.1 * rng.standard_normal(4), requires_grad=True, dtype=dtype)
        gamma, beta, running_mean, running_var = fresh_bn(4, dtype)

        def f(xi, wi, bi, gi, bti):
            y = conv1d(xi, wi, bi, stride=1, padding=1)
            return tsum(batch_norm(y, gi, bti, running_mean, running_var))

        return f, [x, w, b, gamma, beta]

    f32, inputs32 = build(np.float32)
    assert finite_diff_check(f32, inputs32) < 1e-3
    f64, inputs64 = build(np.float64)
    assert finite_diff_check(f64, inputs64) < 1e-6


def test_finite_diff_flags_corrupted_gradient():
    rng = np.random.default_rng(16)
    x = Tensor(rng.standard_normal(6) + 2.0, requires_grad=True, dtype=np.float64)

    def doubled_grad_square(t):
        out = apply_op(t.data * t.data, (t,), lambda g, needs: (g * 4.0 * t.data,))
        return tsum(out)

    err = finite_diff_check(doubled_grad_square, [x])
    assert 0.5 < err < 1.5


@pytest.mark.parametrize(
    "op,stride,padding,groups",
    [("conv", 1, 0, 1), ("conv", 2, 1, 1), ("conv", 1, 1, 4), ("convt", 1, 0, 1), ("convt", 2, 1, 1)],
)
def test_finite_diff_conv_ops(op, stride, padding, groups):
    rng = np.random.default_rng(17)
    if op == "conv":
        x = Tensor(rng.standard_normal((2, 4, 10)), requires_grad=True, dtype=np.float64)
        w = Tensor(rng.standard_normal((4, 4 // groups, 3)), requires_grad=True, dtype=np.float64)
        b = Tensor(rng.standard_normal(4), requires_grad=True, dtype=np.float64)
        f = lambda *p: tsum(conv1d(*p, stride=stride, padding=padding, groups=groups))
    else:
        x = Tensor(rng.standard_normal((2, 3, 6)), requires_grad=True, dtype=np.float64)
        w = Tensor(rng.standard_normal((3, 4, 3)), requires_grad=True, dtype=np.float64)
        b = Tensor(rng.standard_normal(4), requires_grad=True, dtype=np.float64)
        f = lambda *p: tsum(conv_transpose1d(*p, stride=stride, padding=padding))
    assert finite_diff_check(f, [x, w, b]) < 1e-6


@pytest.mark.parametrize(
    "b,t,kw,padding",
    [(3, 23, 5, 2), (20, 4, 3, 1), (1, 50, 31, 15)],
    ids=["count-not-multiple-of-L", "count-below-L", "model-kernel"],
)
def test_finite_diff_depthwise_blocks(b, t, kw, padding):
    """Depthwise gradients where the blocks do not tile the output: 23
    outputs in blocks of L=8 (B=3), 4 outputs under one block of L=8 (B=20),
    and K=31 with 50 outputs in blocks of L=7, under a random upstream."""
    rng = np.random.default_rng(t * 10 + kw)
    x = Tensor(rng.standard_normal((b, 3, t)), requires_grad=True, dtype=np.float64)
    w = Tensor(rng.standard_normal((3, 1, kw)), requires_grad=True, dtype=np.float64)
    bias = Tensor(rng.standard_normal(3), requires_grad=True, dtype=np.float64)
    r = Tensor(rng.standard_normal((b, 3, t + 2 * padding - kw + 1)), dtype=np.float64)
    f = lambda *p: tsum(mul(conv1d(*p, padding=padding, groups=3), r))
    assert finite_diff_check(f, [x, w, bias]) < 1e-6


def test_finite_diff_nonlinear_composite_uses_squares():
    rng = np.random.default_rng(18)
    x = Tensor(rng.standard_normal((2, 3, 6)), requires_grad=True, dtype=np.float64)

    def f(t):
        y = sigmoid(t) * tanh(t)
        return tsum(y * y)

    assert finite_diff_check(f, [x]) < 1e-6
