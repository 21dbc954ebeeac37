# -*- coding: utf-8 -*-
"""
==========================================
Three views of attention over one signal
==========================================

Walk through the pieces the enhancement model is built from: the
chunking that turns a long sequence into overlapped frames, the
channel / global / local attention paths that inspect it, and what
switching each path off does to the parameter count.
"""

import numpy as np

from manner import ModelConfig, Tensor, build_model, chunk, merge, num_params
from manner.attention import (
    channel_attention,
    init_channel_attention,
    init_ma_block,
    ma_block,
)
from manner.nn import ParamInit

################################################################################
# Chunking. A (batch, channels, time) tensor becomes (batch, channels,
# chunks, chunk_size) with 50% overlap, and merging averages the
# overlapped samples back so the round trip is exact.

rng = np.random.default_rng(3)
x = Tensor(rng.standard_normal((1, 4, 100)).astype(np.float32))

parts = chunk(x, 16)
print(f"chunked {x.shape} -> {parts.shape} (hop {parts.shape[-1] // 2})")

back = merge(parts, x.shape[-1])
print(f"merge round-trip error: {np.abs(back.data - x.data).max():.2e}")

################################################################################
# Channel attention squeezes time away (average and max pool), runs the
# pooled vectors through a shared bottleneck, and gates each channel.
# The output keeps the input shape. Every weight lives in one ordered
# name -> Tensor map; `ParamInit` draws each tensor as it registers it,
# and the views take their weights as plain arguments.

init = ParamInit({}, rng, np.float32)
init_channel_attention(init, "ca", 4)
gated = channel_attention(x, init.params["ca.w0"], init.params["ca.w1"])
print(f"channel attention: {x.shape} -> {gated.shape}")

################################################################################
# The full multi-view block splits channels three ways, applies channel,
# global, and local attention to the thirds, concatenates, and adds a
# gated residual. Channel count must be divisible by 6 because the
# local path halves its third internally.

init_ma_block(init, "mv", 6, 16)
y = ma_block(Tensor(rng.standard_normal((1, 6, 64)).astype(np.float32)), init.params, "mv", 16)
print(f"multi-view block: (1, 6, 64) -> {y.shape}")
names = [n for n in init.params if n.startswith("mv.")]
print(f"its {len(names)} tensors, by part: {', '.join(dict.fromkeys(n.split('.')[1] for n in names))}")

################################################################################
# Ablation switches remove exactly one path's parameters at a time.
# The split, concatenation, and residual gate stay in place.

base = ModelConfig(base_channels=12, depth=2, chunk_size=16)
full = num_params(build_model(base, seed=0))
print(f"\nall paths on: {full:,} parameters")

for name in ("channel_attention", "global_attention", "local_attention"):
    cfg = ModelConfig(base_channels=12, depth=2, chunk_size=16, **{name: False})
    n = num_params(build_model(cfg, seed=0))
    print(f"{name} off: {n:,} ({full - n:,} fewer)")
