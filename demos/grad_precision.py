# -*- coding: utf-8 -*-
"""
===========================================
Float32 gradient error against float64
===========================================

Run one training step of the full default model in float32 and again in
float64 from the same weights and inputs, and report the relative L2 error
of the float32 gradients over all trainable tensors together, per input
seed and as the median over seeds. This is the precision figure a change
that moves float32 rounding must not make worse.

    python demos/grad_precision.py --seeds 12
"""

import argparse

import numpy as np

from manner import ModelConfig, Tensor, build_model
from manner.audio import TARGET_RATE
from manner.loss import weighted_total_loss
from manner.model import manner_forward, trainable
from manner.tensor import Tape, backward, reshape

################################################################################
# `build_model(seed=0)` draws its weights in float64 and rounds them to the
# dtype asked for; the inputs are treated alike. Each input seed draws a
# B=2 x 0.5 s batch of clean signal plus noise, which each run rounds to
# its own precision, so the error counts storage as well as arithmetic.

def batch(seed, batch_size=2, seconds=0.5):
    rng = np.random.default_rng(seed)
    shape = (batch_size, int(seconds * TARGET_RATE))
    clean = 0.1 * rng.standard_normal(shape)
    return clean + 0.05 * rng.standard_normal(shape), clean


def gradients(params, noisy, clean, dtype):
    noisy, clean = noisy.astype(dtype), clean.astype(dtype)
    for t in params.values():
        t.grad = None
    with Tape() as tape:
        est = manner_forward(Tensor(noisy[:, None, :]), params, params.config, training=True)
        loss, _ = weighted_total_loss(Tensor(noisy), Tensor(clean), reshape(est, noisy.shape))
    backward(tape, loss)
    return np.concatenate([t.grad.astype(np.float64).ravel() for t in trainable(params).values()])


def relative_error(seed, p32, p64):
    noisy, clean = batch(seed)
    g32 = gradients(p32, noisy, clean, np.float32)
    g64 = gradients(p64, noisy, clean, np.float64)
    return float(np.linalg.norm(g32 - g64) / np.linalg.norm(g64))


################################################################################
# One line per seed, then the median. Training-mode batch norm updates the
# running statistics as a side effect, which leaves the gradients of later
# seeds unchanged.

def main(argv=None):
    parser = argparse.ArgumentParser(description="float32 vs float64 gradient error of one training step")
    parser.add_argument("--seeds", type=int, default=12, help="input seeds 0..N-1")
    args = parser.parse_args(argv)
    p32, p64 = (build_model(ModelConfig(), seed=0, dtype=dt) for dt in (np.float32, np.float64))
    errors = []
    for seed in range(args.seeds):
        errors.append(relative_error(seed, p32, p64))
        print(f"seed {seed:3d}: {100 * errors[-1]:.4f}%", flush=True)
    print(f"median over {args.seeds} seeds: {100 * float(np.median(errors)):.4f}%")


if __name__ == "__main__":
    main()
