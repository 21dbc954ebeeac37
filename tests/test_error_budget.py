"""Per-op float32 error budgets at the shapes of a full-model training step.

Each row runs one op of a B=2 x 1 s full-model step (or, for the eval-only
batch-norm fold, of a B=1 x 1 s eval forward) in float32 and measures
its relative L2 error against the same op in float64. The bar is at most
twice the error of a reference formulation kept here: the formula the op
used when its row was added. A change that reorders an op's float32 sums
may move its error, but not by more than that; a less stable formula (a
one-pass E[x^2] - E[x]^2 variance, say) fails its row even where the
whole-model gradient error of demos/grad_precision.py cannot see it.
"""

import math

import numpy as np
import pytest

from manner.attention import attend
from manner.model import conv_bn_relu
from manner.nn import BATCH_NORM_EPS, BATCH_NORM_FIELDS, batch_norm, conv1d, conv_transpose1d, time_windows
from manner.tensor import Tape, Tensor, backward, mul, tsum


def rel_err(got, want):
    return float(np.linalg.norm(np.asarray(got, np.float64) - want) / np.linalg.norm(want))


def assert_within_budget(names, got, ref, exact):
    for name, a, r, w in zip(names, got, ref, exact):
        err, ref_err = rel_err(a, w), rel_err(r, w)
        assert err <= 2 * ref_err, f"{name}: {err:.2e} against the reference's {ref_err:.2e}"


# ---------------------------------------------------------------------
# batch norm


def batch_norm_reference(x, gamma, beta, running_mean, running_var, training, g):
    """(output, grad-x, grad-gamma, grad-beta) of batch norm, then ReLU,
    under upstream g: the formulas batch_norm used before it took the ReLU
    into its own op, in x's dtype. Training normalizes with the batch's
    statistics, eval with the running ones."""
    c = lambda a: a[None, :, None]
    m = x.shape[0] * x.shape[2]
    mean, var = (x.mean(axis=(0, 2)), x.var(axis=(0, 2))) if training else (running_mean, running_var)
    inv_std = 1.0 / np.sqrt(var + BATCH_NORM_EPS)
    xhat = (x - c(mean)) * c(inv_std)
    if training:
        y = c(gamma) * xhat + c(beta)
    else:
        y = x * c(gamma * inv_std)
        y += c(beta - gamma * mean * inv_std)
    y = np.maximum(y, 0.0)
    g = g * (y > 0)
    gxhat = g * c(gamma)
    if training:
        sum_g = gxhat.sum(axis=(0, 2), keepdims=True)
        sum_gx = (gxhat * xhat).sum(axis=(0, 2), keepdims=True)
        gx = (gxhat - sum_g / m - xhat * sum_gx / m) * c(inv_std)
    else:
        gx = gxhat * c(inv_std)
    return y, gx, (g * xhat).sum(axis=(0, 2)), g.sum(axis=(0, 2))


# every batch-norm input shape of a full-model training step at B=2 x 1 s
TRAIN_STEP_BATCH_NORM = [(2, 60, 16128), (2, 60, 4032), (2, 120, 4032), (2, 240, 4032), (2, 120, 1008),
                         (2, 240, 1008), (2, 480, 1008), (2, 240, 252), (2, 480, 252), (2, 960, 252),
                         (2, 480, 63), (2, 960, 63), (2, 1920, 63)]


# batch_norm's one form: training-mode statistics, then the ReLU
@pytest.mark.parametrize("mode", ["train-relu"])
@pytest.mark.parametrize("shape", TRAIN_STEP_BATCH_NORM, ids=lambda s: "x".join(map(str, s)))
def test_batch_norm_float32_error_at_most_twice_reference(shape, mode):
    """Inputs sit off zero as conv outputs do: per channel |mean|/std up to
    3, where a one-pass variance loses most."""
    _, ch, t = shape
    rng = np.random.default_rng(ch + t)
    std = rng.uniform(0.5, 2.0, ch)
    x = (std * rng.uniform(-3.0, 3.0, ch))[None, :, None] + std[None, :, None] * rng.standard_normal(shape)
    g = rng.standard_normal(shape)
    gamma, beta = rng.uniform(0.5, 1.5, ch), rng.uniform(-0.5, 0.5, ch)
    running_mean = x.mean(axis=(0, 2)) + 0.1 * rng.standard_normal(ch)
    running_var = x.var(axis=(0, 2)) * rng.uniform(0.5, 2.0, ch)
    x32, g32, *p32 = (a.astype(np.float32) for a in (x, g, gamma, beta, running_mean, running_var))

    xt, gt, bt = (Tensor(a, requires_grad=True) for a in (x32, p32[0], p32[1]))
    stats = (Tensor(p32[2].copy()), Tensor(p32[3].copy()))
    with Tape() as tape:
        y = batch_norm(xt, gt, bt, *stats)
        loss = tsum(mul(y, Tensor(g32)))
    backward(tape, loss)
    got = (y.data, xt.grad, gt.grad, bt.grad)
    ref = batch_norm_reference(x32, *p32, True, g32)
    exact = batch_norm_reference(x, gamma, beta, running_mean, running_var, True, g)
    assert_within_budget(("forward", "grad-x", "grad-gamma", "grad-beta"), got, ref, exact)


# ---------------------------------------------------------------------
# conv weight gradients


def weight_grad_reference(xp, g, kernel, stride):
    """[Cout, Cin*K] weight gradient of a dense correlation as one
    [Cin*K, B*T] @ [B*T, Cout] product, transposed: the formula
    _correlate_weight_grad used before it wrote C order."""
    cin, (cout, t) = xp.shape[1], g.shape[1:]
    win = time_windows(xp, kernel, stride, t)
    return np.matmul(win.transpose(1, 2, 0, 3).reshape(cin * kernel, -1),
                     g.transpose(0, 2, 1).reshape(-1, cout)).T


def pad_time(x, padding):
    return np.pad(x, ((0, 0), (0, 0), (padding, padding)))


# (B, Cin, Cout, T in, K, padding) of every dense stride-1 conv of the step:
# the 1x1 convs, and local attention's K=7 conv over chunk batches
TRAIN_STEP_DENSE = [
    (2, 1, 60, 16128, 1, 0), (2, 60, 1, 16128, 1, 0), (2, 60, 60, 16128, 1, 0), (2, 60, 20, 4032, 1, 0),
    (2, 60, 60, 4032, 1, 0), (2, 60, 120, 4032, 1, 0), (2, 120, 40, 4032, 1, 0),
    (2, 120, 60, 4032, 1, 0), (2, 120, 120, 4032, 1, 0), (2, 120, 240, 4032, 1, 0),
    (2, 240, 60, 4032, 1, 0), (2, 120, 40, 1008, 1, 0), (2, 120, 120, 1008, 1, 0),
    (2, 120, 240, 1008, 1, 0), (2, 240, 80, 1008, 1, 0), (2, 240, 120, 1008, 1, 0),
    (2, 240, 240, 1008, 1, 0), (2, 240, 480, 1008, 1, 0), (2, 480, 120, 1008, 1, 0),
    (2, 240, 80, 252, 1, 0), (2, 240, 240, 252, 1, 0), (2, 240, 480, 252, 1, 0),
    (2, 480, 160, 252, 1, 0), (2, 480, 240, 252, 1, 0), (2, 480, 480, 252, 1, 0),
    (2, 480, 960, 252, 1, 0), (2, 960, 240, 252, 1, 0), (2, 480, 160, 63, 1, 0),
    (2, 480, 480, 63, 1, 0), (2, 480, 960, 63, 1, 0), (2, 960, 320, 63, 1, 0), (2, 960, 480, 63, 1, 0),
    (2, 960, 960, 63, 1, 0), (2, 960, 1920, 63, 1, 0), (2, 1920, 480, 63, 1, 0), (250, 2, 1, 64, 7, 3),
    (62, 2, 1, 64, 7, 3), (14, 2, 1, 64, 7, 3), (2, 2, 1, 64, 7, 3),
]
# (B, C, T in) of the four stride-4, K=8 encoder convs; each decoder conv
# transposes one of them back
TRAIN_STEP_STRIDED = [(2, 60, 16128), (2, 120, 4032), (2, 240, 1008), (2, 480, 252)]


def conv_row(b, cin, cout, t, kernel, stride, padding, transposed):
    """[float32 tape grad-w], [float32 reference], [float64 reference] of one conv."""
    rng = np.random.default_rng(cin * 7 + cout + t + kernel)
    bound = 1.0 / np.sqrt(cin * kernel)
    if transposed:
        tout = (t - 1) * stride + kernel - 2 * padding
        w = rng.uniform(-bound, bound, (cin, cout, kernel))
    else:
        tout = (t + 2 * padding - kernel) // stride + 1
        w = rng.uniform(-bound, bound, (cout, cin, kernel))
    x, g = rng.standard_normal((b, cin, t)), rng.standard_normal((b, cout, tout))
    x32, w32, g32 = (a.astype(np.float32) for a in (x, w, g))
    xt, wt = Tensor(x32), Tensor(w32, requires_grad=True)
    op = conv_transpose1d if transposed else conv1d
    with Tape() as tape:
        y = op(xt, wt, Tensor(np.zeros(cout, np.float32)), stride=stride, padding=padding)
        loss = tsum(mul(y, Tensor(g32)))
    backward(tape, loss)

    def reference(xr, gr):
        if transposed:
            return weight_grad_reference(pad_time(gr, padding), xr, kernel, stride)
        return weight_grad_reference(pad_time(xr, padding), gr, kernel, stride)

    return [wt.grad.reshape(len(w), -1)], [reference(x32, g32)], [reference(x, g)]


@pytest.mark.parametrize("row", TRAIN_STEP_DENSE, ids=lambda r: "x".join(map(str, r)))
def test_dense_conv_weight_grad_float32_error_at_most_twice_reference(row):
    b, cin, cout, t, kernel, padding = row
    assert_within_budget(["grad-w"], *conv_row(b, cin, cout, t, kernel, 1, padding, False))


@pytest.mark.parametrize("transposed", [False, True], ids=["strided", "transposed"])
@pytest.mark.parametrize("shape", TRAIN_STEP_STRIDED, ids=lambda s: "x".join(map(str, s)))
def test_strided_conv_weight_grad_float32_error_at_most_twice_reference(shape, transposed):
    b, c, t = shape
    if transposed:
        t //= 4  # the decoder conv reads the encoder conv's output length
    assert_within_budget(["grad-w"], *conv_row(b, c, c, t, 8, 4, 2, transposed))


# ---------------------------------------------------------------------
# eval-mode conv -> batch norm -> ReLU, folded


def conv_output(x, w, b, transposed, stride, padding, groups):
    xt, wt, bt = (Tensor(a) for a in (x, w, b))
    if transposed:
        return conv_transpose1d(xt, wt, bt, stride=stride, padding=padding).data
    return conv1d(xt, wt, bt, stride=stride, padding=padding, groups=groups).data


def conv_bn_relu_reference(x, w, b, bn, *conv):
    """The output of conv then eval batch norm and ReLU as two ops: the
    path conv_bn_relu took before it folded the running stats into the
    conv, in x's dtype."""
    h = conv_output(x, w, b, *conv)
    return batch_norm_reference(h, *bn, False, np.zeros_like(h))[0]


# (Cin, Cout, T in, K, stride, padding, groups, transposed) of the 25
# normalised convs of a full-model eval forward at B=1 x 1 s: `first`, each
# encoder's down conv and ResCon pw1/dw, each decoder's ResCon pw1/dw and up conv
EVAL_FORWARD_CONV_BN = [
    (1, 60, 16128, 1, 1, 0, 1, False), (60, 60, 16128, 8, 4, 2, 1, False),
    (60, 120, 4032, 1, 1, 0, 1, False), (120, 120, 4032, 31, 1, 15, 120, False),
    (120, 120, 4032, 8, 4, 2, 1, False), (120, 240, 1008, 1, 1, 0, 1, False),
    (240, 240, 1008, 31, 1, 15, 240, False), (240, 240, 1008, 8, 4, 2, 1, False),
    (240, 480, 252, 1, 1, 0, 1, False), (480, 480, 252, 31, 1, 15, 480, False),
    (480, 480, 252, 8, 4, 2, 1, False), (480, 960, 63, 1, 1, 0, 1, False),
    (960, 960, 63, 31, 1, 15, 960, False), (960, 1920, 63, 1, 1, 0, 1, False),
    (1920, 1920, 63, 31, 1, 15, 1920, False), (480, 480, 63, 8, 4, 2, 1, True),
    (480, 960, 252, 1, 1, 0, 1, False), (960, 960, 252, 31, 1, 15, 960, False),
    (240, 240, 252, 8, 4, 2, 1, True), (240, 480, 1008, 1, 1, 0, 1, False),
    (480, 480, 1008, 31, 1, 15, 480, False), (120, 120, 1008, 8, 4, 2, 1, True),
    (120, 240, 4032, 1, 1, 0, 1, False), (240, 240, 4032, 31, 1, 15, 240, False),
    (60, 60, 4032, 8, 4, 2, 1, True),
]


@pytest.mark.parametrize("row", EVAL_FORWARD_CONV_BN, ids=lambda r: "x".join(map(str, r[:7])) + "tT"[r[7]])
def test_eval_conv_bn_relu_fold_float32_error_at_most_twice_unfolded(row):
    """The running stats sit near the conv output's own, as after training."""
    cin, cout, t, kernel, stride, padding, groups, transposed = row
    rng = np.random.default_rng(cin * 3 + cout + t + kernel)
    bound = 1.0 / np.sqrt(cin // groups * kernel)
    w = rng.uniform(-bound, bound, (cin, cout, kernel) if transposed else (cout, cin // groups, kernel))
    b, x = rng.uniform(-0.1, 0.1, cout), rng.standard_normal((1, cin, t))
    conv = (transposed, stride, padding, groups)
    h = conv_output(x, w, b, *conv)
    bn = (rng.uniform(0.5, 1.5, cout), rng.uniform(-0.5, 0.5, cout),
          h.mean(axis=(0, 2)) + 0.1 * rng.standard_normal(cout), h.var(axis=(0, 2)) * rng.uniform(0.5, 2.0, cout))
    x32, w32, b32, *bn32 = (a.astype(np.float32) for a in (x, w, b) + bn)
    params = {"c.weight": Tensor(w32), "c.bias": Tensor(b32)}
    params.update((f"bn.{field}", Tensor(a)) for field, a in zip(BATCH_NORM_FIELDS, bn32))
    op, kw = (conv_transpose1d, {}) if transposed else (conv1d, dict(groups=groups))
    got = conv_bn_relu(Tensor(x32), params, "c", "bn", False, op, stride=stride, padding=padding, **kw)
    ref = conv_bn_relu_reference(x32, w32, b32, bn32, *conv)
    exact = conv_bn_relu_reference(x, w, b, bn, *conv)
    assert_within_budget(["forward"], [got.data], [ref], [exact])


# ---------------------------------------------------------------------
# attend


def attend_reference(q, k, v, g):
    """(output, grad-q, grad-k, grad-v) of softmax(q k^T / sqrt(C)) v under
    upstream g, over whole heads: the formulas attend used when this row was
    added, which normalise the [P, P] probabilities, in q's dtype."""
    scale = 1.0 / math.sqrt(q.shape[-1])  # a Python float keeps float32 float32
    qs = q * scale
    s = np.matmul(qs, k.swapaxes(-1, -2))
    row_max = s.max(axis=-1, keepdims=True)
    s -= row_max
    np.exp(s, out=s)
    total = s.sum(axis=-1, keepdims=True)
    s /= total
    out = np.matmul(s, v)
    lse = row_max + np.log(total)
    d = np.einsum("hpc,hpc->hp", g, out)[..., None]
    prob = np.exp(np.matmul(qs, k.swapaxes(-1, -2)) - lse)
    ds = (np.matmul(g, v.swapaxes(-1, -2)) - d) * prob
    return out, np.matmul(ds, k) * scale, np.matmul(ds.swapaxes(-1, -2), qs), np.matmul(prob.swapaxes(-1, -2), g)


# [heads, P, C] of the global attention of a full-model B=2 x 1 s step: B
# times a third of each layer's width, by the chunk count of its length
TRAIN_STEP_ATTEND = [(80, 125, 64), (160, 31, 64), (320, 7, 64), (640, 1, 64)]


@pytest.mark.parametrize("shape", TRAIN_STEP_ATTEND, ids=lambda s: "x".join(map(str, s)))
def test_attend_float32_error_at_most_twice_reference(shape):
    rng = np.random.default_rng(sum(shape))
    q, k, v, g = (rng.standard_normal(shape) for _ in range(4))
    q32, k32, v32, g32 = (a.astype(np.float32) for a in (q, k, v, g))
    qt, kt, vt = (Tensor(a, requires_grad=True) for a in (q32, k32, v32))
    with Tape() as tape:
        y = attend(qt, kt, vt)
        loss = tsum(mul(y, Tensor(g32)))
    backward(tape, loss)
    assert_within_budget(("forward", "grad-q", "grad-k", "grad-v"), (y.data, qt.grad, kt.grad, vt.grad),
                         attend_reference(q32, k32, v32, g32), attend_reference(q, k, v, g))
