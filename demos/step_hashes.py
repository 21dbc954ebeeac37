# -*- coding: utf-8 -*-
"""
===========================================
Step and eval hashes for bit identity
===========================================

Print the loss of one full-model training step and two sha256 digests, so
that a change meant to keep every output and gradient bit-identical can be
compared with its parent by running this script on both trees:

    MANNER_THREADS=1 python demos/step_hashes.py

Hashing order:

* Step: `build_model(ModelConfig(), seed=0)` and `rng = default_rng(5)`.
  x and y are two draws of `0.1 * standard_normal((2, 16000))`, scaled in
  float64 and then cast to float32 (casting first rounds differently and
  changes every digest). One taped training forward of x as [B, 1, T],
  reshaped to [B, T], then `weighted_total_loss(Tensor(x), Tensor(y), est)`
  at the default resolutions, then `backward`. The digest walks the
  parameter map in its order (running stats included, as the forward
  updated them) and adds, per tensor, `data.tobytes()`, then
  `grad.tobytes()` if a grad is set.
* Eval: `build_model(ModelConfig(variant="small"), seed=1)` runs in eval
  mode on the next draw from the same rng, `0.1 * standard_normal((1, 1,
  40000))`, scaled and then cast to float32. The digest is the sha256 of
  the output's `data.tobytes()`.

Results are only comparable at one BLAS thread count.
"""

import hashlib

import numpy as np

from manner import ModelConfig, Tensor, build_model
from manner.loss import weighted_total_loss
from manner.model import manner_forward
from manner.tensor import Tape, backward, reshape


def step_hash(rng):
    params = build_model(ModelConfig(), seed=0)
    x, y = ((0.1 * rng.standard_normal((2, 16000))).astype(np.float32) for _ in range(2))
    with Tape() as tape:
        est = manner_forward(Tensor(x[:, None, :]), params, params.config, training=True)
        loss, _ = weighted_total_loss(Tensor(x), Tensor(y), reshape(est, x.shape))
    backward(tape, loss)
    digest = hashlib.sha256()
    for t in params.values():
        digest.update(t.data.tobytes())
        if t.grad is not None:
            digest.update(t.grad.tobytes())
    return loss.item(), digest.hexdigest()


def eval_hash(rng):
    params = build_model(ModelConfig(variant="small"), seed=1)
    noisy = (0.1 * rng.standard_normal((1, 1, 40000))).astype(np.float32)
    out = manner_forward(Tensor(noisy), params, params.config, training=False)
    return hashlib.sha256(out.data.tobytes()).hexdigest()


def main():
    rng = np.random.default_rng(5)
    loss, step = step_hash(rng)
    print(f"loss {loss!r}")
    print(f"step {step}")
    print(f"eval {eval_hash(rng)}")


if __name__ == "__main__":
    main()
