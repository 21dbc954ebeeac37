"""Convolution, linear, and batch-norm primitives over the tensor core.

Layouts follow the [batch, channels, time] convention; conv weights are
[out, in/groups, kernel] and transposed-conv weights [in, out, kernel].
"""

from __future__ import annotations

import math

import numpy as np

from .tensor import Tensor, apply_op

BATCH_NORM_FIELDS = ("gamma", "beta", "running_mean", "running_var")
BATCH_NORM_MOMENTUM = 0.1  # weight of the batch statistics in a running-stat update
BATCH_NORM_EPS = 1e-5


class ParamInit:
    """Registers named tensors into one ordered name -> Tensor map.

    Weights are drawn fan-in uniform, U(-1/sqrt(fan_in), +), at the moment
    they are registered, so one sequence of calls fixes both the RNG draws
    and the order of the map (and with it a checkpoint's layout). Without a
    generator, weights start at zero, for a caller that overwrites them.
    Biases start at zero; batch-norm running stats are buffers without
    gradients.
    """

    def __init__(self, params: dict, rng: np.random.Generator | None, dtype) -> None:
        self.params = params
        self.rng = rng
        self.dtype = dtype

    def _add(self, name: str, data: np.ndarray, trainable: bool) -> None:
        if name in self.params:
            raise ValueError(f"duplicate parameter name {name!r}")
        self.params[name] = Tensor(data.astype(self.dtype, copy=False), requires_grad=trainable)

    def weight(self, name: str, shape: tuple[int, ...], fan_in: int) -> None:
        bound = 1.0 / np.sqrt(fan_in)
        # float64 like uniform(): the freed buffers lift glibc's mmap threshold over forward temporaries
        data = np.zeros(shape) if self.rng is None else self.rng.uniform(-bound, bound, size=shape)
        self._add(name, data, True)

    def conv(self, name: str, cout: int, cin: int, kernel: int, groups: int = 1) -> None:
        """`name.weight` [Cout, Cin/groups, K] and `name.bias` for conv1d."""
        self.weight(f"{name}.weight", (cout, cin // groups, kernel), (cin // groups) * kernel)
        self._add(f"{name}.bias", np.zeros(cout, self.dtype), True)

    def conv_transpose(self, name: str, cin: int, cout: int, kernel: int) -> None:
        """`name.weight` [Cin, Cout, K] and `name.bias` for conv_transpose1d."""
        self.weight(f"{name}.weight", (cin, cout, kernel), cin * kernel)
        self._add(f"{name}.bias", np.zeros(cout, self.dtype), True)

    def batch_norm(self, name: str, channels: int) -> None:
        for field, fill in zip(BATCH_NORM_FIELDS, (1.0, 0.0, 0.0, 1.0)):
            self._add(f"{name}.{field}", np.full(channels, fill, self.dtype), field in ("gamma", "beta"))


def conv_tensors(params, name: str) -> tuple[Tensor, Tensor]:
    """(weight, bias) registered under `name`."""
    return params[f"{name}.weight"], params[f"{name}.bias"]


def batch_norm_tensors(params, name: str) -> tuple[Tensor, ...]:
    """(gamma, beta, running_mean, running_var) registered under `name`."""
    return tuple(params[f"{name}.{field}"] for field in BATCH_NORM_FIELDS)


def conv_out_length(t: int, kernel: int, stride: int, padding: int) -> int:
    return (t + 2 * padding - kernel) // stride + 1


def _pad_time(x: np.ndarray, padding: int) -> np.ndarray:
    if padding == 0:
        return x
    width = [(0, 0)] * (x.ndim - 1) + [(padding, padding)]
    return np.pad(x, width)


def time_windows(x: np.ndarray, kernel: int, stride: int, count: int) -> np.ndarray:
    """Read-only [..., kernel, count] view of sliding windows over the last
    axis: window t holds x[..., stride*t : stride*t + kernel]."""
    st = x.strides[-1]
    shape = x.shape[:-1] + (kernel, count)
    strides = x.strides[:-1] + (st, st * stride)
    return np.lib.stride_tricks.as_strided(x, shape, strides, writeable=False)


def num_windows(t: int, size: int, hop: int) -> int:
    """ceil(max(t - size, 0) / hop) + 1: the fewest windows that cover t samples."""
    return -(-max(t - size, 0) // hop) + 1


def pad_windows(x: np.ndarray, size: int, hop: int) -> np.ndarray:
    """time_windows over x's last axis, zero-padded at the tail so that
    num_windows(T, size, hop) windows cover every sample: [..., size, count]."""
    count = num_windows(x.shape[-1], size, hop)
    tail = (count - 1) * hop + size - x.shape[-1]
    if tail:
        x = np.pad(x, [(0, 0)] * (x.ndim - 1) + [(0, tail)])
    return time_windows(x, size, hop, count)


def overlap_add(y: np.ndarray, stride: int, length: int) -> np.ndarray:
    """Adjoint of time_windows: sums y[..., K, T] at k + stride*t onto [..., length].

    The buffer is in time order, [..., T + ceil(K/stride), stride]; each
    slice-add writes `stride` taps through its residue-major transpose, so
    it runs along T. Every position adds its taps in ascending k.
    """
    kw, t = y.shape[-2:]
    if kw == 1 and stride == 1:
        return y[..., 0, :length]
    lead = y.shape[:-2]
    qmax = -(-kw // stride)
    buf = np.zeros(lead + (t + qmax, stride), dtype=y.dtype)
    residues = buf.swapaxes(-1, -2)
    for q, k in enumerate(range(0, kw, stride)):
        residues[..., : min(stride, kw - k), q : q + t] += y[..., k : k + stride, :]
    return buf.reshape(lead + (-1,))[..., :length]


def _correlate(xp: np.ndarray, w2: np.ndarray, kernel: int, stride: int, count: int) -> np.ndarray:
    """Dense correlation w2[Cout, Cin*K] @ windows: [B, Cin, Tp] -> [B, Cout, count]."""
    return np.matmul(w2, time_windows(xp, kernel, stride, count).reshape(len(xp), -1, count))


def _correlate_adjoint(g: np.ndarray, w2: np.ndarray, kernel: int, stride: int,
                       length: int) -> np.ndarray:
    """Input-adjoint of _correlate: overlap-adds w2^T g, [B, Cout, T] -> [B, Cin, length]."""
    b, _, t = g.shape
    taps = np.matmul(w2.T, g).reshape(b, w2.shape[1] // kernel, kernel, t)
    return overlap_add(taps, stride, length)


def _correlate_weight_grad(xp: np.ndarray, g: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    """Weight-adjoint of _correlate: [Cout, Cin*K] from input xp and output gradient g.

    One [Cin*K, B*T] @ [B*T, Cout] gemm, the product einsum(optimize=True)
    picks, so it rounds alike; per-batch matmuls summed over B would not."""
    cin, (cout, t) = xp.shape[1], g.shape[1:]
    win = time_windows(xp, kernel, stride, t)
    gw = np.matmul(win.transpose(1, 2, 0, 3).reshape(cin * kernel, -1),
                   g.transpose(0, 2, 1).reshape(-1, cout))
    return gw.T


def _blocks(x: np.ndarray, padding: int, kernel: int, count: int) -> np.ndarray:
    """x [B, C, T] zero-padded by `padding` at the head, as nb blocks of L
    outputs with their K-1 halo samples: a contiguous [C, B*nb, L+K-1] copy.
    L = min(32, isqrt(B*count)), so a short input gets a small band."""
    b, c, t = x.shape
    length = min(32, math.isqrt(b * count))
    nb = -(-count // length)
    xp = np.zeros((b, c, nb * length + kernel - 1), x.dtype)
    xp[..., padding : padding + t] = x
    blk = time_windows(xp, length + kernel - 1, length, nb).transpose(1, 0, 3, 2)
    return np.ascontiguousarray(blk).reshape(c, b * nb, -1)


def _depthwise(x: np.ndarray, taps: np.ndarray, padding: int, count: int) -> np.ndarray:
    """Stride-1 per-channel correlation of x [B, C, T], zero-padded by
    `padding` at the head, with taps [C, K]: [B, C, count]. Each block of L
    outputs is one product with its channel's band [L+K-1, L], band[c, j+k, j]
    = taps[c, k], copied from a negative-stride view of a zero-padded tap row."""
    b, (c, kw) = len(x), taps.shape
    blk = _blocks(x, padding, kw, count)
    width, length = blk.shape[2], blk.shape[2] - kw + 1
    row = np.zeros((c, length + width - 1), taps.dtype)
    row[:, length - 1 : length - 1 + kw] = taps
    band = time_windows(row[:, length - 1 :], width, -1, length).copy()
    out = np.empty((b, c, blk.shape[1] // b, length), np.result_type(blk, band))
    np.matmul(blk.reshape(c, b, -1, width), band[:, None], out=out.transpose(1, 0, 2, 3))
    return out.reshape(b, c, -1)[..., :count]


def _depthwise_weight_grad(x: np.ndarray, g: np.ndarray, padding: int, kernel: int) -> np.ndarray:
    """Taps-adjoint of _depthwise, [C, K] from x and the output gradient g: one
    per-channel [L, B*nb] @ [B*nb, L+K-1] product, then its K band diagonal sums."""
    c, count = g.shape[1:]
    # g's blocks share x's L and are zero past count
    prod = np.matmul(_blocks(g, 0, 1, count).swapaxes(1, 2), _blocks(x, padding, kernel, count))
    length, width = prod.shape[1:]
    # diagonal k of row j sits at flat offset j*(width+1) + k
    return time_windows(prod.reshape(c, -1), kernel, width + 1, length).sum(axis=-1)


def conv1d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor,
    stride: int = 1,
    padding: int = 0,
    groups: int = 1,
) -> Tensor:
    """Dense, or stride-1 depthwise (groups == Cin == Cout), cross-correlation
    over the last axis of a [B, Cin, T] tensor."""
    if x.ndim != 3:
        raise ValueError(f"conv1d input must be [B, Cin, T], got {x.shape}")
    if weight.ndim != 3:
        raise ValueError(f"conv1d weight must be [Cout, Cin/groups, K], got {weight.shape}")
    _, cin, t = x.shape
    cout, cin_g, kw = weight.shape
    if stride < 1 or padding < 0 or groups < 1:
        raise ValueError("conv1d needs stride >= 1, padding >= 0, groups >= 1")
    if groups not in (1, cin) or (groups > 1 and cout != cin):
        raise ValueError(f"conv1d is dense (groups=1) or depthwise (groups=Cin=Cout), "
                         f"got groups={groups} for {cin} -> {cout} channels")
    if groups > 1 and stride != 1:
        raise ValueError(f"depthwise conv1d runs at stride 1 only, got stride={stride}")
    if cin_g != cin // groups:
        raise ValueError(f"weight expects {cin_g * groups} input channels, input has {cin}")
    if bias.shape != (cout,):
        raise ValueError(f"bias must be [Cout]={cout}, got {bias.shape}")
    tout = conv_out_length(t, kw, stride, padding)
    if tout < 1:
        raise ValueError(f"conv1d output length {tout} < 1 (T={t}, K={kw}, S={stride}, P={padding})")

    xd = x.data
    wd = weight.data
    w2 = wd.reshape(cout, cin_g * kw)
    if groups == 1:
        out = _correlate(_pad_time(xd, padding), w2, kw, stride, tout)
    else:
        out = _depthwise(xd, wd[:, 0], padding, tout)
    out += bias.data[None, :, None]

    def bwd(g, needs):
        gx = None
        if needs[0]:
            if groups == 1:
                gxp = _correlate_adjoint(g, w2, kw, stride, t + 2 * padding)
            else:  # full correlation of the gradient with the flipped taps
                gxp = _depthwise(g, wd[:, 0, ::-1], kw - 1, t + 2 * padding)
            gx = gxp[..., padding : padding + t] if padding else gxp
        gw = None
        if needs[1]:
            if groups == 1:
                # pad x again rather than keep a padded copy beside the input
                # array, which the op before (a relu, a mul) usually keeps too
                gw = _correlate_weight_grad(_pad_time(xd, padding), g, kw, stride).reshape(wd.shape)
            else:
                gw = _depthwise_weight_grad(xd, g, padding, kw)[:, None, :]
        gb = g.sum(axis=(0, 2)) if needs[2] else None
        return (gx, gw, gb)

    return apply_op(out, (x, weight, bias), bwd)


def conv_transpose1d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """Adjoint of conv1d; weight layout [Cin, Cout, K]."""
    if x.ndim != 3:
        raise ValueError(f"conv_transpose1d input must be [B, Cin, T], got {x.shape}")
    if weight.ndim != 3:
        raise ValueError(f"conv_transpose1d weight must be [Cin, Cout, K], got {weight.shape}")
    _, cin, t = x.shape
    wcin, cout, kw = weight.shape
    if wcin != cin:
        raise ValueError(f"weight expects {wcin} input channels, input has {cin}")
    if stride < 1 or padding < 0:
        raise ValueError("conv_transpose1d needs stride >= 1, padding >= 0")
    if bias.shape != (cout,):
        raise ValueError(f"bias must be [Cout]={cout}, got {bias.shape}")
    tfull = (t - 1) * stride + kw
    tout = tfull - 2 * padding
    if tout < 1:
        raise ValueError(f"conv_transpose1d output length {tout} < 1")

    # the input-adjoint of a conv1d with weight w2: forward and backward swap roles
    w2 = weight.data.reshape(cin, cout * kw)
    full = _correlate_adjoint(x.data, w2, kw, stride, tfull)
    out = np.ascontiguousarray(full[..., padding : padding + tout])
    out += bias.data[None, :, None]
    xd = x.data

    def bwd(g, needs):
        gp = _pad_time(g, padding)
        gx = _correlate(gp, w2, kw, stride, t) if needs[0] else None
        gw = _correlate_weight_grad(gp, xd, kw, stride).reshape(cin, cout, kw) if needs[1] else None
        gb = g.sum(axis=(0, 2)) if needs[2] else None
        return (gx, gw, gb)

    return apply_op(out, (x, weight, bias), bwd)


def linear(x: Tensor, weight: Tensor) -> Tensor:
    """x[..., Din] @ weight[Din, Dout]."""
    if weight.ndim != 2:
        raise ValueError(f"linear weight must be [Din, Dout], got {weight.shape}")
    din, dout = weight.shape
    if x.shape[-1] != din:
        raise ValueError(f"linear expects last dim {din}, got {x.shape}")
    xd, wd = x.data, weight.data

    def bwd(g, needs):
        gx = np.matmul(g, wd.T) if needs[0] else None
        gw = np.tensordot(xd.reshape(-1, din), g.reshape(-1, dout), axes=([0], [0])) if needs[1] else None
        return (gx, gw)

    return apply_op(np.matmul(xd, wd), (x, weight), bwd)


def batch_norm(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: Tensor,
    running_var: Tensor,
    training: bool,
) -> Tensor:
    """Per-channel normalization of a [B, Ch, T] tensor.

    Training mode normalizes with batch statistics and updates the running
    buffers in place (a side effect outside the tape); eval mode reads the
    buffers as constants.
    """
    if x.ndim != 3:
        raise ValueError(f"batch_norm input must be [B, Ch, T], got {x.shape}")
    ch = x.shape[1]
    for name, tns in (("gamma", gamma), ("beta", beta), ("running_mean", running_mean), ("running_var", running_var)):
        if tns.shape != (ch,):
            raise ValueError(f"batch_norm {name} must be [{ch}], got {tns.shape}")

    xd = x.data
    if training:
        mean = xd.mean(axis=(0, 2))
        var = xd.var(axis=(0, 2))
        mom = BATCH_NORM_MOMENTUM
        running_mean.data[...] = (1.0 - mom) * running_mean.data + mom * mean
        running_var.data[...] = (1.0 - mom) * running_var.data + mom * var
    else:
        mean = running_mean.data
        var = running_var.data

    inv_std = 1.0 / np.sqrt(var + BATCH_NORM_EPS)
    m = xd.shape[0] * xd.shape[2]
    if training:
        xhat = (xd - mean[None, :, None]) * inv_std[None, :, None]
        out = gamma.data[None, :, None] * xhat + beta.data[None, :, None]
        saved = xhat
    else:
        # Eval stats are constants, so the whole op folds to one affine map.
        scale = (gamma.data * inv_std).astype(xd.dtype)
        shift = (beta.data - gamma.data * mean * inv_std).astype(xd.dtype)
        out = xd * scale[None, :, None]
        out += shift[None, :, None]
        saved = xd  # xhat is rebuilt from x only if gamma needs a gradient

    def bwd(g, needs):
        xh = saved
        if not training and needs[1]:
            xh = (saved - mean[None, :, None]) * inv_std[None, :, None]
        gb = g.sum(axis=(0, 2)) if needs[2] else None
        gg = (g * xh).sum(axis=(0, 2)) if needs[1] else None
        gx = None
        if needs[0]:
            gxhat = g * gamma.data[None, :, None]
            if training:
                # Batch statistics depend on x, so the mean/var paths
                # contribute too.
                sum_g = gxhat.sum(axis=(0, 2), keepdims=True)
                sum_gx = (gxhat * xh).sum(axis=(0, 2), keepdims=True)
                gx = (gxhat - sum_g / m - xh * sum_gx / m) * inv_std[None, :, None]
            else:
                gx = gxhat * inv_std[None, :, None]
        return (gx, gg, gb, None, None)

    return apply_op(out, (x, gamma, beta, running_mean, running_var), bwd)
