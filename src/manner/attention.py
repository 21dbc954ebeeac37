"""Multi-view attention: channel, global, and local paths over one input.

The block splits its input three ways with pointwise convolutions, applies
one attention view per branch, concatenates, and adds a gated residual.
Global and local views run on half-overlapping chunks of the time axis.
"""

from __future__ import annotations

import math

import numpy as np

from .chunker import chunk, merge
from .nn import ParamInit, conv1d, conv_tensors, linear
from .tensor import (
    Tensor,
    add,
    apply_op,
    concat,
    mul,
    relu,
    reshape,
    sigmoid,
    tanh,
    tmax,
    tmean,
    transpose,
)
# Unused here; perfbench/worker.py wraps both names on this module when tracing.
from .tensor import matmul, softmax  # noqa: F401

LOCAL_FUSE_KERNEL = 7
GLOBAL_WEIGHTS = ("wq", "wk", "wv", "wout")
# Largest score block attend() materialises, so its score memory stays
# fixed however long the input is.
SCORE_BLOCK_BYTES = 4 * 2**20


def local_kernel_size(chunk_size: int) -> int:
    """Depthwise kernel of the local view; odd whenever C % 4 == 0."""
    return chunk_size // 2 - 1


def init_channel_attention(init: ParamInit, prefix: str, channels: int) -> None:
    """Shared two-layer bottleneck, bias-free: Ch -> Ch/2 -> Ch."""
    if channels % 2:
        raise ValueError(f"channel attention needs an even width, got {channels}")
    half = channels // 2
    init.weight(f"{prefix}.w0", (channels, half), channels)
    init.weight(f"{prefix}.w1", (half, channels), half)


def init_global_attention(init: ParamInit, prefix: str, chunk_size: int) -> None:
    """Square Q/K/V/out projections over the chunk axis, bias-free."""
    for name in GLOBAL_WEIGHTS:
        init.weight(f"{prefix}.{name}", (chunk_size, chunk_size), chunk_size)


def init_local_attention(init: ParamInit, prefix: str, channels: int, chunk_size: int) -> None:
    """Depthwise conv over chunk contents plus a 2->1 fuse conv."""
    k = local_kernel_size(chunk_size)
    if k < 1 or k % 2 == 0:
        raise ValueError(f"chunk size {chunk_size} gives invalid local kernel {k}")
    init.conv(f"{prefix}.dw", channels, channels, k, groups=channels)
    init.conv(f"{prefix}.fuse", 1, 2, LOCAL_FUSE_KERNEL)


def init_ma_block(
    init: ParamInit,
    prefix: str,
    channels: int,
    chunk_size: int,
    use_channel: bool = True,
    use_global: bool = True,
    use_local: bool = True,
) -> None:
    """Entry/exit plumbing plus the three optional attention views."""
    if channels % 6:
        raise ValueError(f"multi-view block needs channels % 6 == 0, got {channels}")
    third = channels // 3
    for name in ("entry_c", "entry_g", "entry_l"):
        init.conv(f"{prefix}.{name}", third, channels, 1)
    if use_channel:
        init_channel_attention(init, f"{prefix}.chan", third)
    if use_global:
        init_global_attention(init, f"{prefix}.glob", chunk_size)
    if use_local:
        init_local_attention(init, f"{prefix}.loc", third, chunk_size)
    for name in ("exit", "gate_a", "gate_b"):
        init.conv(f"{prefix}.{name}", channels, channels, 1)


def channel_attention(x: Tensor, w0: Tensor, w1: Tensor) -> Tensor:
    """Scale each channel by a sigmoid weight pooled from the whole axis.

    alpha = sigmoid(W1 W0 avg + W1 W0 max), applied per channel over time.
    """
    if x.ndim != 3:
        raise ValueError(f"channel attention input must be [B, Ch, T], got {x.shape}")
    b, ch, _ = x.shape
    x_avg = tmean(x, axis=2)  # B x Ch
    x_max = tmax(x, axis=2)  # B x Ch
    squeezed = add(linear(linear(x_avg, w0), w1), linear(linear(x_max, w0), w1))
    alpha = sigmoid(squeezed)  # B x Ch
    return mul(x, reshape(alpha, (b, ch, 1)))


def _score_blocks(heads: int, p: int, itemsize: int):
    """(head slice, query-row slice) pairs whose scores fit SCORE_BLOCK_BYTES.

    Whole heads share a block while one head's P x P scores fit the budget;
    past that, each head is split into runs of query rows (at least one).
    """
    head_bytes = p * p * itemsize
    if head_bytes <= SCORE_BLOCK_BYTES:
        step = SCORE_BLOCK_BYTES // head_bytes
        for h in range(0, heads, step):
            yield slice(h, h + step), slice(0, p)
    else:
        rows = max(1, SCORE_BLOCK_BYTES // (p * itemsize))
        for h in range(heads):
            for r in range(0, p, rows):
                yield slice(h, h + 1), slice(r, r + rows)


def attend(q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    """softmax(q k^T / sqrt(C)) v over [..., P, C], scores built block by block.

    Leading axes are heads. The forward keeps only each row's log-sum-exp;
    the backward recomputes every block's probabilities from it, so score
    memory is one block (two in the backward) at any input length.
    """
    if not q.shape == k.shape == v.shape or q.ndim < 2:
        raise ValueError(f"attend needs equal [..., P, C] shapes, got {q.shape}, {k.shape}, {v.shape}")
    shape = q.shape
    p, c = shape[-2:]
    qf, kf, vf = (t.data.reshape(-1, p, c) for t in (q, k, v))
    heads = qf.shape[0]
    scale = 1.0 / math.sqrt(c)
    blocks = list(_score_blocks(heads, p, qf.dtype.itemsize))

    out = np.empty_like(vf)
    lse = np.empty((heads, p, 1), dtype=qf.dtype)
    for hs, rs in blocks:
        s = np.matmul(qf[hs, rs] * scale, kf[hs].swapaxes(-1, -2))
        row_max = s.max(axis=-1, keepdims=True)
        s -= row_max
        np.exp(s, out=s)
        total = s.sum(axis=-1, keepdims=True)
        s /= total
        np.matmul(s, vf[hs], out=out[hs, rs])
        lse[hs, rs] = row_max + np.log(total)
        del s  # free this block before the next is built

    def bwd(g, needs):
        gf = g.reshape(-1, p, c)
        d = np.einsum("hpc,hpc->hp", gf, out)[..., None]  # rowsum(dP * P)
        gq = np.empty_like(qf)
        gk = np.empty_like(kf)
        gv = np.empty_like(vf)
        for hs, rs in blocks:
            qs = qf[hs, rs] * scale
            prob = np.matmul(qs, kf[hs].swapaxes(-1, -2))
            prob -= lse[hs, rs]
            np.exp(prob, out=prob)
            ds = np.matmul(gf[hs, rs], vf[hs].swapaxes(-1, -2))
            ds -= d[hs, rs]
            ds *= prob
            if rs.start == 0:  # a head's first row run writes gk and gv, later runs add
                np.matmul(prob.swapaxes(-1, -2), gf[hs, rs], out=gv[hs])
                np.matmul(ds.swapaxes(-1, -2), qs, out=gk[hs])
            else:
                gv[hs] += np.matmul(prob.swapaxes(-1, -2), gf[hs, rs])
                gk[hs] += np.matmul(ds.swapaxes(-1, -2), qs)
            np.matmul(ds, kf[hs], out=gq[hs, rs])
            del prob, ds
        gq *= scale
        grads = (gq, gk, gv)
        return tuple(gr.reshape(shape) if need else None for gr, need in zip(grads, needs))

    return apply_op(out.reshape(shape), (q, k, v), bwd)


def global_attention(x: Tensor, wq: Tensor, wk: Tensor, wv: Tensor, wout: Tensor) -> Tensor:
    """Single-head dot-product attention across the chunk axis of [B, Ch, P, C]."""
    return linear(attend(linear(x, wq), linear(x, wk), linear(x, wv)), wout)


def local_attention(x: Tensor, dw_weight: Tensor, dw_bias: Tensor,
                    fuse_weight: Tensor, fuse_bias: Tensor) -> Tensor:
    """Per-chunk positional gating from channel-pooled depthwise features."""
    if x.ndim != 4:
        raise ValueError(f"local attention expects [B, Ch, P, C], got {x.shape}")
    b, ch, p, c = x.shape
    folded = reshape(transpose(x, (0, 2, 1, 3)), (b * p, ch, c))  # chunks as batch
    k = dw_weight.shape[-1]
    feats = conv1d(folded, dw_weight, dw_bias, padding=(k - 1) // 2, groups=ch)
    pooled = concat(
        [tmean(feats, axis=1, keepdims=True), tmax(feats, axis=1, keepdims=True)],
        axis=1,
    )  # (B*P) x 2 x C
    fk = fuse_weight.shape[-1]
    alpha = sigmoid(conv1d(pooled, fuse_weight, fuse_bias, padding=(fk - 1) // 2))
    gated = mul(folded, alpha)  # alpha broadcasts over channels
    return transpose(reshape(gated, (b, p, ch, c)), (0, 2, 1, 3))


def gated_unit(h: Tensor, params, name_a: str, name_b: str) -> Tensor:
    """relu(sigmoid(conv_a(h)) * tanh(conv_b(h))), in [0, 1), from the 1x1
    convs registered under `name_a` and `name_b`: the multi-view block's
    residual gate and the decoder's mask."""
    # no locals: both halves are freed once their product exists
    return relu(mul(sigmoid(conv1d(h, *conv_tensors(params, name_a))),
                    tanh(conv1d(h, *conv_tensors(params, name_b)))))


def ma_block(x: Tensor, params, prefix: str, chunk_size: int) -> Tensor:
    """Three-view attention block with a gated residual connection.

    Reads the tensors `init_ma_block` registered under `prefix`; a view
    whose tensors are absent is switched off and passes its branch through.
    """
    if x.ndim != 3:
        raise ValueError(f"ma_block input must be [B, Ch, T], got {x.shape}")
    if x.shape[1] % 6:
        raise ValueError(f"ma_block needs channels % 6 == 0, got {x.shape[1]}")

    def conv(h: Tensor, name: str) -> Tensor:
        return conv1d(h, *conv_tensors(params, f"{prefix}.{name}"))

    x_c = conv(x, "entry_c")
    x_g = conv(x, "entry_g")
    x_l = conv(x, "entry_l")

    out_c = x_c
    if f"{prefix}.chan.w0" in params:
        out_c = channel_attention(x_c, params[f"{prefix}.chan.w0"], params[f"{prefix}.chan.w1"])

    out_g = x_g
    if f"{prefix}.glob.wq" in params:
        weights = [params[f"{prefix}.glob.{name}"] for name in GLOBAL_WEIGHTS]
        out_g = merge(global_attention(chunk(x_g, chunk_size), *weights), x.shape[-1])

    out_l = x_l
    if f"{prefix}.loc.dw.weight" in params:
        weights = conv_tensors(params, f"{prefix}.loc.dw") + conv_tensors(params, f"{prefix}.loc.fuse")
        out_l = merge(local_attention(chunk(x_l, chunk_size), *weights), x.shape[-1])

    z = conv(concat([out_c, out_g, out_l], axis=1), "exit")
    return add(x, mul(z, gated_unit(z, params, f"{prefix}.gate_a", f"{prefix}.gate_b")))
