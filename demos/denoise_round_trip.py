# -*- coding: utf-8 -*-
"""
=========================================
Denoising round trip on a synthetic voice
=========================================

Train a small model on one noisy/clean pair, then run the trained
model over the noisy signal and report the SI-SNR before and after.
A single pair and a reduced configuration will not give broadcast
quality, but a couple of dB of gain shows up within two minutes on a
laptop CPU, with no data download.
"""

import time

import numpy as np

from manner import (
    AudioClip,
    ModelConfig,
    Tensor,
    TrainSettings,
    build_model,
    manner_forward,
    num_params,
    si_snr,
    train,
)
from manner.audio import CorpusPair

################################################################################
# Build a voice-like test signal: a 110 Hz harmonic stack with a slow
# amplitude wobble plus a broadband floor, then add white noise on top.

rate = 16000
rng = np.random.default_rng(0)
grid = np.arange(rate) / rate

voiced = np.zeros(rate)
for k in range(1, 16):
    voiced += (1.0 / k) * np.sin(2 * np.pi * 110.0 * k * grid + rng.uniform(0, 2 * np.pi))
voiced *= 0.6 + 0.4 * np.sin(2 * np.pi * 3.0 * grid)

clean = voiced + 0.35 * rng.standard_normal(rate)
clean = (0.2 * clean / np.sqrt((clean ** 2).mean())).astype(np.float32)
noisy = clean + 0.05 * rng.standard_normal(rate).astype(np.float32)

pair = CorpusPair("demo", AudioClip(noisy), AudioClip(clean))
print(f"input SI-SNR: {si_snr(noisy, clean):.2f} dB")

################################################################################
# Train a reduced configuration on that single pair. One pair, one
# segment per epoch, six hundred steps of one-cycle schedule.

config = ModelConfig(base_channels=12, depth=2, chunk_size=16)
params = build_model(config, seed=1)
print(f"model parameters: {num_params(params):,}")

settings = TrainSettings(
    epochs=600,
    batch_size=1,
    seed=0,
    segment_seconds=1.0,
    hop_seconds=1.0,
    tempo_augment=False,
    weighted_loss=True,
    lr_min=1e-5,
    lr_max=2e-3,
    warmup_frac=0.3,
    val_every=600,
)

t0 = time.perf_counter()
result = train(params, [pair], settings)
print(f"trained {result.steps} steps in {time.perf_counter() - t0:.0f} s")
print(f"first loss {result.train_losses[0]:.4f}, last loss {result.train_losses[-1]:.4f}")

################################################################################
# Inference is a single forward pass in eval mode. The model pads the
# input up to a multiple of its downsampling block internally and trims
# the output back, so any length goes.

x = Tensor(noisy[None, None, :])
enhanced = manner_forward(x, params, config, training=False).data[0, 0]

print(f"enhanced SI-SNR: {si_snr(enhanced, clean):.2f} dB")
print(f"residual RMS ratio: "
      f"{np.sqrt(((enhanced - clean) ** 2).mean() / (clean ** 2).mean()):.3f}")
