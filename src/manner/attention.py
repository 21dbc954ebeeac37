"""Multi-view attention: channel, global, and local paths over one input.

The block splits its input three ways with pointwise convolutions, applies
one attention view per branch, concatenates, and adds a gated residual.
Global and local views run on half-overlapping chunks of the time axis.
"""

from __future__ import annotations

import math

from .chunker import ChunkedView, chunk, merge
from .nn import ParamInit, conv1d, conv_tensors, linear
from .tensor import (
    Tensor,
    add,
    concat,
    matmul,
    mul,
    relu,
    reshape,
    sigmoid,
    softmax,
    tanh,
    tmax,
    tmean,
    transpose,
)

LOCAL_FUSE_KERNEL = 7
GLOBAL_WEIGHTS = ("wq", "wk", "wv", "wout")


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


def global_attention(view: ChunkedView, wq: Tensor, wk: Tensor, wv: Tensor,
                     wout: Tensor) -> ChunkedView:
    """Single-head dot-product attention across the chunk axis."""
    x = view.data  # B x Ch x P x C
    c = view.chunk_size
    q = linear(x, wq)
    k = linear(x, wk)
    v = linear(x, wv)
    scores = mul(matmul(q, transpose(k, (0, 1, 3, 2))), 1.0 / math.sqrt(c))
    alpha = softmax(scores, axis=-1)  # rows sum to 1 over chunks
    out = linear(matmul(alpha, v), wout)
    return ChunkedView(out, view.original_length, view.chunk_size, view.hop)


def local_attention(view: ChunkedView, dw_weight: Tensor, dw_bias: Tensor,
                    fuse_weight: Tensor, fuse_bias: Tensor) -> ChunkedView:
    """Per-chunk positional gating from channel-pooled depthwise features."""
    x = view.data
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
    out = transpose(reshape(gated, (b, p, ch, c)), (0, 2, 1, 3))
    return ChunkedView(out, view.original_length, view.chunk_size, view.hop)


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
        out_g = merge(global_attention(chunk(x_g, chunk_size), *weights))

    out_l = x_l
    if f"{prefix}.loc.dw.weight" in params:
        weights = conv_tensors(params, f"{prefix}.loc.dw") + conv_tensors(params, f"{prefix}.loc.fuse")
        out_l = merge(local_attention(chunk(x_l, chunk_size), *weights))

    z = conv(concat([out_c, out_g, out_l], axis=1), "exit")
    gate = relu(mul(sigmoid(conv(z, "gate_a")), tanh(conv(z, "gate_b"))))
    return add(x, mul(z, gate))
