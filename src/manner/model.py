"""Conv U-net for time-domain enhancement with multi-view attention blocks.

The encoder halves time by `stride` per layer while doubling channels; the
decoder mirrors it with skip sums. A sigmoid/tanh gate masks the first
convolution's output before the final 1-channel projection.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .attention import gated_unit, init_ma_block, ma_block
from .nn import BATCH_NORM_EPS, ParamInit, batch_norm, batch_norm_tensors, conv1d, conv_tensors, conv_transpose1d
from .tensor import Tensor, add, div, mul, narrow, pad_end, relu, reshape, sub, tsqrt

# ResCon internals fixed across the model family.
RESCON_GROWTH = 2
RESCON_KERNEL = 31

VARIANTS = ("full", "small")


@dataclass
class ModelConfig:
    """Architecture hyperparameters; `validate()` enforces the invariants."""

    kernel_size: int = 8
    stride: int = 4
    base_channels: int = 60
    depth: int = 4
    chunk_size: int = 64
    variant: str = "full"
    channel_attention: bool = True
    global_attention: bool = True
    local_attention: bool = True

    def validate(self) -> "ModelConfig":
        if self.stride < 1 or self.kernel_size < self.stride:
            raise ValueError(f"need kernel_size >= stride >= 1, got K={self.kernel_size} S={self.stride}")
        if (self.kernel_size - self.stride) % 2:
            raise ValueError("kernel_size - stride must be even for same-ratio down/up sampling")
        if self.depth < 1:
            raise ValueError(f"depth must be >= 1, got {self.depth}")
        if self.base_channels < 6 or self.base_channels % 6:
            raise ValueError(f"base_channels must be a positive multiple of 6, got {self.base_channels}")
        if self.chunk_size < 4 or self.chunk_size % 4:
            raise ValueError(f"chunk_size must be a multiple of 4 and >= 4, got {self.chunk_size}")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        return self

    @property
    def down_padding(self) -> int:
        return (self.kernel_size - self.stride) // 2

    def encoder_channels(self, layer: int) -> int:
        """Channel width after the ResCon of encoder layer `layer` (1-based)."""
        return self.base_channels * (2 ** layer)

    def has_attention(self, layer: int) -> bool:
        return self.variant == "full" or layer == self.depth

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(**d).validate()


class ModelParams(dict):
    """Every model tensor by name, in manifest order, plus the config.

    `build_model` registers each tensor once, and that one order fixes both
    the RNG draws and the checkpoint layout. Trainable tensors have
    requires_grad set; batch-norm running stats ride along as buffers so
    checkpoints capture them.
    """

    def __init__(self, config: ModelConfig) -> None:
        super().__init__()
        self.config = config


def trainable(params) -> dict[str, Tensor]:
    """The tensors of a name -> Tensor map that take gradients, in order."""
    return {name: t for name, t in params.items() if t.requires_grad}


def num_params(params) -> int:
    return sum(t.size for t in trainable(params).values())


def init_rescon(init: ParamInit, prefix: str, cin: int, cout: int) -> None:
    """Pointwise expand, depthwise mix, pointwise project, conv residual."""
    mid = cin * RESCON_GROWTH
    init.conv(f"{prefix}.pw1", mid, cin, 1)
    init.batch_norm(f"{prefix}.bn1", mid)
    init.conv(f"{prefix}.dw", mid, mid, RESCON_KERNEL, groups=mid)
    init.batch_norm(f"{prefix}.bn2", mid)
    init.conv(f"{prefix}.pw2", cout, mid, 1)
    init.conv(f"{prefix}.res", cout, cin, 1)


def build_model(config: ModelConfig, seed: int | None, dtype=np.float32) -> ModelParams:
    """Create a model with fan-in uniform weights; same seed, same bits.

    `seed=None` draws nothing and leaves every weight at zero, for a caller
    (a checkpoint load) that overwrites them all.

    Encoder layer i is `enc{i}.down` (strided conv + BN), `enc{i}.rescon`
    and, where the variant has attention, `enc{i}.ma`; decoder layers are
    registered deepest first as `dec{i}.rescon`, `dec{i}.ma`, `dec{i}.up`.
    """
    config.validate()
    rng = None if seed is None else np.random.default_rng(seed)
    init = ParamInit(ModelParams(config), rng, dtype)
    n = config.base_channels
    k = config.kernel_size

    def ma(prefix: str, layer: int, channels: int) -> None:
        if config.has_attention(layer):
            init_ma_block(init, prefix, channels, config.chunk_size,
                          use_channel=config.channel_attention,
                          use_global=config.global_attention,
                          use_local=config.local_attention)

    init.conv("first.conv", n, 1, 1)
    init.batch_norm("first.bn", n)
    for layer in range(1, config.depth + 1):
        cin = config.encoder_channels(layer - 1)
        cout = config.encoder_channels(layer)
        init.conv(f"enc{layer}.down.conv", cin, cin, k)
        init.batch_norm(f"enc{layer}.down.bn", cin)
        init_rescon(init, f"enc{layer}.rescon", cin, cout)
        ma(f"enc{layer}.ma", layer, cout)

    deep = config.encoder_channels(config.depth)
    init.conv("bottleneck", deep, deep, 1)

    for layer in range(config.depth, 0, -1):
        cin = config.encoder_channels(layer)
        cout = config.encoder_channels(layer - 1)
        init_rescon(init, f"dec{layer}.rescon", cin, cout)
        ma(f"dec{layer}.ma", layer, cout)
        init.conv_transpose(f"dec{layer}.up.conv", cout, cout, k)
        init.batch_norm(f"dec{layer}.up.bn", cout)

    for name, cout in (("mask.a", n), ("mask.b", n), ("out", 1)):
        init.conv(name, cout, n, 1)
    return init.params


def conv_bn_relu(x: Tensor, params, conv: str, bn: str, training: bool, op, **kw) -> Tensor:
    """ReLU of batch norm of op(x), the unit of every normalised conv. Callers
    pass `op` (conv1d or conv_transpose1d) by name, so that it is looked up
    at call time, like batch_norm, and a wrapper put on this module sees it.

    Training runs both in batch_norm's one tape op. Eval folds the
    running stats into the conv (Jacob et al., arXiv 1712.05877, §3.2):
    scale = gamma / sqrt(running_var + eps) multiplies the weight's output
    axis, and the bias becomes (b - running_mean) * scale + beta, built
    from tape ops on the small parameters so that their gradients flow."""
    weight, bias = conv_tensors(params, conv)
    if training:
        return batch_norm(op(x, weight, bias, **kw), *batch_norm_tensors(params, bn))
    gamma, beta, mean, var = batch_norm_tensors(params, bn)
    scale = div(gamma, tsqrt(add(var, BATCH_NORM_EPS)))
    axes = (1, -1, 1) if op is conv_transpose1d else (-1, 1, 1)  # Cout: axis 1 of [Cin, Cout, K]
    h = op(x, mul(weight, reshape(scale, axes)), add(mul(sub(bias, mean), scale), beta), **kw)
    # In place: h's buffer is the conv's fresh output, which no one else
    # holds, and neither conv's backward reads its own output.
    return relu(h, inplace=True)


def rescon(x: Tensor, params, prefix: str, training: bool) -> Tensor:
    """Residual conv block; net channel change is cout/cin."""
    mid = params[f"{prefix}.pw1.weight"].shape[0]
    h = conv_bn_relu(x, params, f"{prefix}.pw1", f"{prefix}.bn1", training, conv1d)
    h = conv_bn_relu(h, params, f"{prefix}.dw", f"{prefix}.bn2", training, conv1d,
                     padding=(RESCON_KERNEL - 1) // 2, groups=mid)
    h = conv1d(h, *conv_tensors(params, f"{prefix}.pw2"))
    return add(h, conv1d(x, *conv_tensors(params, f"{prefix}.res")))


def manner_forward(noisy: Tensor, params: ModelParams, config: ModelConfig,
                   training: bool = False) -> Tensor:
    """Enhance a [B, 1, T] waveform; output matches the input length.

    Time is zero-padded up to a multiple of stride**depth so every layer
    divides evenly, and trimmed back at the end.
    """
    if noisy.ndim != 3 or noisy.shape[1] != 1:
        raise ValueError(f"input must be [B, 1, T], got {noisy.shape}")
    t_raw = noisy.shape[-1]
    if t_raw < 1:
        raise ValueError("input length must be >= 1")

    block = config.stride ** config.depth
    x = pad_end(noisy, (-t_raw) % block)
    resample = dict(stride=config.stride, padding=config.down_padding)

    x0 = conv_bn_relu(x, params, "first.conv", "first.bn", training, conv1d)  # B x N x Tp

    h = x0
    skips: list[Tensor] = []
    for layer in range(1, config.depth + 1):
        h = conv_bn_relu(h, params, f"enc{layer}.down.conv", f"enc{layer}.down.bn",
                         training, conv1d, **resample)
        h = rescon(h, params, f"enc{layer}.rescon", training)
        if config.has_attention(layer):
            h = ma_block(h, params, f"enc{layer}.ma", config.chunk_size)
        skips.append(h)

    h = conv1d(h, *conv_tensors(params, "bottleneck"))

    for layer in range(config.depth, 0, -1):
        h = add(h, skips.pop())  # each skip is freed once it is added
        h = rescon(h, params, f"dec{layer}.rescon", training)
        if config.has_attention(layer):
            h = ma_block(h, params, f"dec{layer}.ma", config.chunk_size)
        h = conv_bn_relu(h, params, f"dec{layer}.up.conv", f"dec{layer}.up.bn",
                         training, conv_transpose1d, **resample)

    masked = mul(gated_unit(h, params, "mask.a", "mask.b"), x0)
    y = conv1d(masked, *conv_tensors(params, "out"))
    return narrow(y, 0, t_raw)
