# -*- coding: utf-8 -*-
"""
===========================================
Step and eval hashes for bit identity
===========================================

Print the loss of one full-model training step, its step and eval sha256
digests, and the digests of the files a toy `manner train` run writes, so
that a change meant to keep every output, gradient, log and checkpoint
bit-identical can be compared with its parent by running this script on
both trees:

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
* CLI: three 1 s tones (330, 440, 550 Hz, amplitude 0.3) at 16 kHz, each
  plus `0.05 * standard_normal(16000)` cast to float32, drawn in that order
  from `default_rng(0)`, written as PCM16 noisy/clean pairs with
  `scipy.io.wavfile` (so the script needs nothing from `manner.audio` and
  runs unchanged on both trees). `manner.cli.main(["train", ...])` trains
  the toy model (base_channels 6, depth 2, chunk 8) for 3 epochs at
  batch 2, segment 0.5 s, hop 0.25 s, seed 0, the other `[trainer]` keys
  at their defaults, `[loss] resolutions = 64:16:32,128:32:64`, once with
  `tempo_augment = no` and once with `yes`.
  Each run prints the sha256 of `train_log.txt`, `last.ckpt` and
  `best.ckpt`.

Results are only comparable at one BLAS thread count.
"""

import contextlib
import hashlib
import io
import tempfile
from pathlib import Path

import numpy as np
from scipy.io import wavfile

from manner import ModelConfig, Tensor, build_model
from manner.cli import main as cli_main
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


TOY_RUN = """[model]
base_channels = 6
depth = 2
chunk_size = 8
[trainer]
epochs = 3
batch_size = 2
seed = 0
segment_seconds = 0.5
hop_seconds = 0.25
tempo_augment = {tempo}
[data]
noisy_dir = {root}/noisy
clean_dir = {root}/clean
[loss]
resolutions = 64:16:32,128:32:64
"""


def cli_hashes(root: Path, tempo: str) -> dict[str, str]:
    rng = np.random.default_rng(0)
    n = 16000
    for d in ("noisy", "clean"):
        (root / d).mkdir(exist_ok=True)
    for i, freq in enumerate((330.0, 440.0, 550.0)):
        clean = (0.3 * np.sin(2 * np.pi * freq * np.arange(n) / n)).astype(np.float32)
        noisy = clean + 0.05 * rng.standard_normal(n).astype(np.float32)
        for d, x in (("noisy", noisy), ("clean", clean)):
            pcm = np.clip(np.round(x.astype(np.float64) * 32768.0), -32768, 32767)
            wavfile.write(root / d / f"utt{i}.wav", n, pcm.astype(np.int16))
    cfg = root / f"tempo_{tempo}.cfg"
    cfg.write_text(TOY_RUN.format(tempo=tempo, root=root))
    out = root / f"run_{tempo}"
    with contextlib.redirect_stdout(io.StringIO()):
        status = cli_main(["train", "--config", str(cfg), "--out", str(out)])
    if status != 0:
        raise SystemExit(f"toy training run with tempo_augment = {tempo} failed")
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("train_log.txt", "last.ckpt", "best.ckpt")}


def main():
    rng = np.random.default_rng(5)
    loss, step = step_hash(rng)
    print(f"loss {loss!r}")
    print(f"step {step}")
    print(f"eval {eval_hash(rng)}")
    with tempfile.TemporaryDirectory() as tmp:
        for tempo in ("no", "yes"):
            for name, digest in cli_hashes(Path(tmp), tempo).items():
                print(f"tempo={tempo} {name} {digest}")


if __name__ == "__main__":
    main()
