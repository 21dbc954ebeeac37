"""Attention-view tests against naive per-sample oracles.

Each view gets a loop-based reimplementation plus hand cases small enough
to verify on paper. The block-level tests pin shapes, the gated residual,
and which parameters each ablation switch removes.
"""

import math
import tracemalloc

import numpy as np
import pytest

import manner.attention as attention
from manner.attention import (
    channel_attention,
    global_attention,
    init_channel_attention,
    init_global_attention,
    init_local_attention,
    init_ma_block,
    local_attention,
    local_kernel_size,
    ma_block,
)
from manner.chunker import chunk
from manner.nn import ParamInit
from manner.tensor import Tensor, finite_diff_check, tsum

# ---------------------------------------------------------------------
# oracles


def sigmoid_np(x):
    return 1.0 / (1.0 + np.exp(-x))


def channel_attention_loops(x, w0, w1):
    out = np.zeros_like(x)
    for n in range(x.shape[0]):
        avg = x[n].mean(axis=1)
        mx = x[n].max(axis=1)
        alpha = sigmoid_np((avg @ w0) @ w1 + (mx @ w0) @ w1)
        out[n] = x[n] * alpha[:, None]
    return out


def global_attention_loops(x, wq, wk, wv, wout):
    b, ch, p, c = x.shape
    out = np.zeros_like(x)
    for n in range(b):
        for cc in range(ch):
            m = x[n, cc]  # P x C
            scores = (m @ wq) @ (m @ wk).T / math.sqrt(c)
            e = np.exp(scores - scores.max(axis=-1, keepdims=True))
            alpha = e / e.sum(axis=-1, keepdims=True)
            out[n, cc] = (alpha @ (m @ wv)) @ wout
    return out


def local_attention_loops(x, dw_w, dw_b, fuse_w, fuse_b):
    b, ch, p, c = x.shape
    k = dw_w.shape[-1]
    pad = (k - 1) // 2
    fk = fuse_w.shape[-1]
    fpad = (fk - 1) // 2
    out = np.zeros_like(x)
    for n in range(b):
        for pi in range(p):
            m = x[n, :, pi, :]  # Ch x C
            mp = np.pad(m, ((0, 0), (pad, pad)))
            feats = np.zeros((ch, c))
            for cc in range(ch):
                for t in range(c):
                    feats[cc, t] = dw_b[cc] + sum(
                        dw_w[cc, 0, j] * mp[cc, t + j] for j in range(k)
                    )
            pooled = np.stack([feats.mean(axis=0), feats.max(axis=0)])
            pp = np.pad(pooled, ((0, 0), (fpad, fpad)))
            fused = np.zeros(c)
            for t in range(c):
                fused[t] = fuse_b[0] + sum(
                    fuse_w[0, i, j] * pp[i, t + j] for i in range(2) for j in range(fk)
                )
            out[n, :, pi, :] = m * sigmoid_np(fused)[None, :]
    return out


def registered(init_fn, rng, *args, dtype=np.float64, **kwargs):
    """The name -> Tensor map one init function registers under "b"."""
    init = ParamInit({}, rng, dtype)
    init_fn(init, "b", *args, **kwargs)
    return init.params


def weights(init_fn, rng, *args):
    """A view's weight tensors, in the order the view takes them."""
    return list(registered(init_fn, rng, *args).values())


def make_view(x):
    """Wrap a [B, Ch, P, C] array without going through chunk()."""
    return Tensor(x, requires_grad=True)


# ---------------------------------------------------------------------
# channel attention


def test_channel_attention_zero_weights_halves():
    """Zero squeeze weights give alpha = sigmoid(0) = 0.5 everywhere."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2, 4, 9))
    out = channel_attention(Tensor(x), Tensor(np.zeros((4, 2))), Tensor(np.zeros((2, 4))))
    np.testing.assert_allclose(out.data, 0.5 * x, rtol=1e-12)


def test_channel_attention_hand_case():
    """Two channels, three samples, weights small enough to work by hand.

    avg = [2, 0], max = [3, 1]; squeeze W0 = [.5, -1]^T, expand W1 = [1, 2]
    gives pre-activations [1.5, 3.0] and weights [sigm(1.5), sigm(3.0)].
    """
    x = np.array([[[1.0, 2.0, 3.0], [-1.0, 0.0, 1.0]]])
    w0 = Tensor(np.array([[0.5], [-1.0]]))
    w1 = Tensor(np.array([[1.0, 2.0]]))
    out = channel_attention(Tensor(x), w0, w1)
    a0, a1 = 0.8175744761936437, 0.9525741268224334
    expected = np.array([[[a0, 2 * a0, 3 * a0], [-a1, 0.0, a1]]])
    np.testing.assert_allclose(out.data, expected, rtol=1e-12)


def test_channel_attention_scales_each_channel_uniformly():
    """Output/input ratio is one constant in (0, 1) per channel."""
    rng = np.random.default_rng(1)
    x = rng.standard_normal((3, 6, 20)) + 0.5
    out = channel_attention(Tensor(x), *weights(init_channel_attention, rng, 6)).data
    ratio = out / x
    for n in range(3):
        for cc in range(6):
            r = ratio[n, cc]
            assert np.allclose(r, r[0], rtol=1e-10)
            assert 0.0 < r[0] < 1.0


@pytest.mark.parametrize("seed", range(4))
def test_channel_attention_matches_loops(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((2, 8, 13))
    w0, w1 = weights(init_channel_attention, rng, 8)
    out = channel_attention(Tensor(x), w0, w1)
    expected = channel_attention_loops(x, w0.data, w1.data)
    np.testing.assert_allclose(out.data, expected, rtol=1e-10)


def test_channel_attention_gradcheck():
    rng = np.random.default_rng(2)
    x = Tensor(rng.standard_normal((1, 4, 7)), requires_grad=True)
    err = finite_diff_check(
        lambda *t: tsum(channel_attention(*t)),
        [x] + weights(init_channel_attention, rng, 4),
    )
    assert err < 1e-6


def test_channel_attention_rejects_bad_rank_and_width():
    with pytest.raises(ValueError):
        channel_attention(Tensor(np.zeros((4, 7))), Tensor(np.zeros((4, 2))), Tensor(np.zeros((2, 4))))
    with pytest.raises(ValueError):
        weights(init_channel_attention, np.random.default_rng(0), 5)


# ---------------------------------------------------------------------
# global attention


def test_global_attention_single_chunk_is_value_path():
    """P = 1 makes softmax trivial: out = (x Wv) Wout, Q and K are moot."""
    rng = np.random.default_rng(3)
    x = rng.standard_normal((2, 3, 1, 8))
    wq, wk, wv, wout = weights(init_global_attention, rng, 8)
    out = global_attention(make_view(x), wq, wk, wv, wout).data
    expected = (x @ wv.data) @ wout.data
    np.testing.assert_allclose(out, expected, rtol=1e-10)


def test_global_attention_zero_keys_average_uniformly():
    """Wk = 0 flattens all scores, so every chunk sees the mean value."""
    rng = np.random.default_rng(4)
    x = rng.standard_normal((1, 2, 5, 8))
    wq, wk, wv, wout = weights(init_global_attention, rng, 8)
    wk.data[:] = 0.0
    out = global_attention(make_view(x), wq, wk, wv, wout).data
    v = x @ wv.data
    expected = np.broadcast_to(v.mean(axis=2, keepdims=True) @ wout.data, out.shape)
    np.testing.assert_allclose(out, expected, rtol=1e-10)


def test_global_attention_identical_chunks_stay_identical():
    """Equal chunks get equal attention rows, so outputs match chunk-wise."""
    rng = np.random.default_rng(5)
    one = rng.standard_normal((2, 3, 1, 8))
    x = np.repeat(one, 4, axis=2)
    wq, wk, wv, wout = weights(init_global_attention, rng, 8)
    out = global_attention(make_view(x), wq, wk, wv, wout).data
    single = (one @ wv.data) @ wout.data
    for i in range(4):
        np.testing.assert_allclose(out[:, :, i : i + 1, :], single, rtol=1e-10)


def block_budgets(p, itemsize):
    """SCORE_BLOCK_BYTES values that give each block shape attend() can take."""
    head = p * p * itemsize
    return {
        "one block": 1 << 40,
        "runs of 3 whole heads, then 1": 3 * head,
        "row runs of P-1, then 1": head - 1,
        "one row per block": 1,
    }


@pytest.mark.parametrize("seed,p", [(0, 2), (1, 3), (2, 7), (3, 31)])
def test_global_attention_matches_loops(seed, p, monkeypatch):
    rng = np.random.default_rng(seed + 40)
    x = rng.standard_normal((2, 2, p, 8))
    ws = weights(init_global_attention, rng, 8)
    expected = global_attention_loops(x, *(w.data for w in ws))
    for name, budget in block_budgets(p, 8).items():
        monkeypatch.setattr(attention, "SCORE_BLOCK_BYTES", budget)
        out = global_attention(make_view(x), *ws)
        np.testing.assert_allclose(out.data, expected, rtol=1e-9, err_msg=name)
    assert out.shape == x.shape


def test_global_attention_gradcheck(monkeypatch):
    rng = np.random.default_rng(6)
    x = rng.standard_normal((2, 2, 3, 4))  # four heads, so 3-head blocks split them
    ws = weights(init_global_attention, rng, 4)
    view = make_view(x)

    def f(xv, *w):
        return tsum(global_attention(xv, *w))

    for name, budget in block_budgets(3, 8).items():
        monkeypatch.setattr(attention, "SCORE_BLOCK_BYTES", budget)
        err = finite_diff_check(f, [view] + ws)
        assert err < 1e-6, name


def test_global_attention_score_memory_is_one_block():
    """A 1024-chunk head has 4 MiB of float32 scores; only one block is live."""
    rng = np.random.default_rng(7)
    x = Tensor(rng.standard_normal((1, 4, 1024, 64)).astype(np.float32))
    ws = registered(init_global_attention, rng, 64, dtype=np.float32).values()
    tracemalloc.start()
    try:
        out = global_attention(x, *ws)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == x.shape
    assert peak < 2 * attention.SCORE_BLOCK_BYTES + 8 * x.data.nbytes


# ---------------------------------------------------------------------
# local attention


@pytest.mark.parametrize("c,k", [(64, 31), (32, 15), (8, 3), (4, 1)])
def test_local_kernel_size_frozen(c, k):
    assert local_kernel_size(c) == k


@pytest.mark.parametrize("c", [2, 6, 10])
def test_local_attention_rejects_even_kernel_chunks(c):
    with pytest.raises(ValueError):
        weights(init_local_attention, np.random.default_rng(0), 4, c)


def test_local_attention_delta_kernel_hand_case():
    """Identity depthwise kernel + center-tap fuse gate by sigm(channel mean).

    With dw = [0, 1, 0] the features equal the input; a fuse kernel that is
    zero except for 1.0 on the avg row's center tap makes the gate
    sigm(mean over channels), applied to the original chunk.
    """
    x = np.array([[[[1.0, -2.0, 0.5, 3.0, -1.0, 2.0, 0.0, -0.5]],
                   [[2.0, 1.0, -0.5, -3.0, 1.5, 0.5, 1.0, 0.5]]]])  # 1 x 2 x 1 x 8
    dw_w = np.zeros((2, 1, 3))
    dw_w[:, 0, 1] = 1.0
    fuse_w = np.zeros((1, 2, 7))
    fuse_w[0, 0, 3] = 1.0
    out = local_attention(make_view(x), Tensor(dw_w), Tensor(np.zeros(2)),
                          Tensor(fuse_w), Tensor(np.zeros(1))).data
    gate = sigmoid_np(x.mean(axis=1, keepdims=True))
    np.testing.assert_allclose(out, x * gate, rtol=1e-12)


@pytest.mark.parametrize("seed,p", [(0, 1), (1, 2), (2, 5)])
def test_local_attention_matches_loops(seed, p):
    rng = np.random.default_rng(seed + 70)
    x = rng.standard_normal((2, 2, p, 8))
    ws = weights(init_local_attention, rng, 2, 8)
    out = local_attention(make_view(x), *ws)
    expected = local_attention_loops(x, *(w.data for w in ws))
    np.testing.assert_allclose(out.data, expected, rtol=1e-10)


def test_local_attention_gate_shrinks_magnitudes():
    """The sigmoid gate lies in (0, 1), so it can only shrink samples."""
    rng = np.random.default_rng(8)
    x = rng.standard_normal((1, 4, 3, 8))
    out = local_attention(make_view(x), *weights(init_local_attention, rng, 4, 8)).data
    assert np.all(np.abs(out) < np.abs(x) + 1e-15)
    assert np.all(np.sign(out) == np.sign(x))


def test_local_attention_gradcheck():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((1, 2, 2, 8))
    ws = weights(init_local_attention, rng, 2, 8)
    view = make_view(x)

    def f(xv, *w):
        return tsum(local_attention(xv, *w))

    err = finite_diff_check(f, [view] + ws)
    assert err < 1e-6


# ---------------------------------------------------------------------
# full block


def test_ma_block_preserves_shape():
    rng = np.random.default_rng(10)
    x = Tensor(rng.standard_normal((1, 60, 250)).astype(np.float32))
    params = registered(init_ma_block, rng, 60, 64, dtype=np.float32)
    out = ma_block(x, params, "b", 64)
    assert out.shape == (1, 60, 250)
    assert out.dtype == np.float32


def test_ma_block_rejects_indivisible_channels():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        registered(init_ma_block, rng, 8, 64)
    params = registered(init_ma_block, rng, 6, 8)
    with pytest.raises(ValueError):
        ma_block(Tensor(np.zeros((1, 8, 16))), params, "b", 8)


def test_ma_block_zero_exit_is_identity():
    """Zeroed exit conv kills z, the gated residual, and any change to x."""
    rng = np.random.default_rng(11)
    x = rng.standard_normal((2, 6, 20))
    params = registered(init_ma_block, rng, 6, 8)
    params["b.exit.weight"].data[:] = 0.0
    params["b.exit.bias"].data[:] = 0.0
    out = ma_block(Tensor(x), params, "b", 8)
    np.testing.assert_array_equal(out.data, x)


@pytest.mark.parametrize(
    "flag,removed",
    [
        ("use_channel", {"chan.w0", "chan.w1"}),
        ("use_global", {"glob.wq", "glob.wk", "glob.wv", "glob.wout"}),
        ("use_local", {"loc.dw.weight", "loc.dw.bias", "loc.fuse.weight", "loc.fuse.bias"}),
    ],
)
def test_ma_block_ablation_removes_only_its_view(flag, removed):
    rng = np.random.default_rng(12)
    full = registered(init_ma_block, rng, 6, 8)
    cut = registered(init_ma_block, np.random.default_rng(12), 6, 8, **{flag: False})
    assert set(full) - set(cut) == {f"b.{name}" for name in removed}


@pytest.mark.parametrize("flag", ["use_channel", "use_global", "use_local"])
def test_ma_block_runs_with_view_disabled(flag):
    rng = np.random.default_rng(13)
    params = registered(init_ma_block, rng, 6, 8, **{flag: False})
    x = Tensor(rng.standard_normal((1, 6, 20)))
    assert ma_block(x, params, "b", 8).shape == (1, 6, 20)


def test_ma_block_gradcheck():
    rng = np.random.default_rng(14)
    params = registered(init_ma_block, rng, 6, 8)
    x = Tensor(rng.standard_normal((1, 6, 16)), requires_grad=True)
    tensors = [x] + list(params.values())

    def f(*_):
        return tsum(ma_block(x, params, "b", 8))

    err = finite_diff_check(f, tensors, max_checks_per_input=6, rng=np.random.default_rng(0))
    assert err < 1e-6
