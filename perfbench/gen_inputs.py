"""Seeded input generator for the benchmark workloads.

Writes everything a workload reads into one directory; the program under
test sees only these files:

- speech-like clean signals (a harmonic series on a gliding pitch, shaped
  by a syllable-rate envelope, with pauses) mixed with white or brown noise
  at fixed SNRs, as 16 kHz PCM16 WAV pairs;
- for the enhance workloads, a checkpoint from `build_model(seed)` +
  `save_checkpoint`;
- for train-step, a run configuration pointing at the corpus.

The same seed gives byte-identical files.

    python3 perfbench/gen_inputs.py --workload enhance-short --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np
from scipy.io import wavfile

RATE = 16000
SNRS_DB = (0.0, 5.0, 10.0, 15.0)

# Per workload: model variant, seconds per file, noisy files enhanced per CLI
# invocation (enhance) or training pairs (train-step).
ENHANCE = {"enhance-long": ("full", 10.0, 4), "enhance-short": ("small", 1.0, 16)}
TRAIN_VARIANT = "full"
TRAIN_PAIRS = 2
# Tempo augmentation stretches a clip by 0.9-1.1x; at 1.5 s every stretch
# still cuts into exactly two 1 s segments, so each epoch is two batches of 2
# whatever rates the seed draws.
TRAIN_SECONDS = 1.5
VAL_SECONDS = 1.0
TRAIN_EPOCHS = 2
TRAIN_STEPS = TRAIN_EPOCHS * TRAIN_PAIRS  # two segments per pair, two per batch


def speech_like(rng: np.random.Generator, seconds: float) -> np.ndarray:
    """Voiced syllables at ~4 Hz with pauses; peak 0.5."""
    n = int(round(seconds * RATE))
    out = np.zeros(n)
    harmonics = np.arange(1, 11)
    pos = int(rng.uniform(0.0, 0.1) * RATE)
    while pos < n:
        if rng.random() < 0.2:
            pos += int(rng.uniform(0.1, 0.35) * RATE)  # pause
            continue
        dur = min(int(rng.uniform(0.12, 0.3) * RATE), n - pos)
        t = np.arange(dur) / RATE
        f0 = rng.uniform(90.0, 220.0) * (1.0 + rng.uniform(-0.15, 0.15) * t / max(t[-1], 1e-3))
        phase = 2.0 * np.pi * np.cumsum(f0) / RATE
        formant = rng.uniform(300.0, 900.0)
        amps = 1.0 / harmonics * np.exp(-((harmonics * f0.mean() - formant) / 600.0) ** 2)
        voiced = np.sin(np.outer(phase, harmonics)) @ amps
        out[pos : pos + dur] += voiced * np.sin(np.pi * t / t[-1]) ** 2
        pos += dur + int(rng.uniform(0.0, 0.05) * RATE)
    return 0.5 * out / max(np.abs(out).max(), 1e-9)


def noise(rng: np.random.Generator, n: int, kind: int) -> np.ndarray:
    white = rng.standard_normal(n)
    if kind % 2 == 0:
        return white
    brown = np.cumsum(white)
    return brown - np.convolve(brown, np.ones(401) / 401, mode="same")  # drop the drift


def mix(clean: np.ndarray, noise_sig: np.ndarray, snr_db: float) -> tuple[np.ndarray, np.ndarray]:
    """Scale noise to the SNR, then both signals so the mix peaks at 0.9."""
    gain = np.sqrt(np.sum(clean ** 2) / (np.sum(noise_sig ** 2) * 10.0 ** (snr_db / 10.0)))
    noisy = clean + gain * noise_sig
    scale = 0.9 / max(np.abs(noisy).max(), 1e-9)
    return noisy * scale, clean * scale


def write_pcm16(path: Path, samples: np.ndarray) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    data = np.clip(np.round(samples * 32768.0), -32768, 32767).astype(np.int16)
    wavfile.write(path, RATE, data)


def write_pairs(rng, noisy_dir: Path, clean_dir: Path | None, count: int, seconds: float) -> None:
    for i in range(count):
        clean = speech_like(rng, seconds)
        noisy, clean = mix(clean, noise(rng, len(clean), i), SNRS_DB[i % len(SNRS_DB)])
        write_pcm16(noisy_dir / f"utt{i:03d}.wav", noisy)
        if clean_dir is not None:
            write_pcm16(clean_dir / f"utt{i:03d}.wav", clean)


def train_config(out: Path, seed: int) -> str:
    return "\n".join([
        "[model]",
        f"variant = {TRAIN_VARIANT}",
        "[trainer]",
        f"epochs = {TRAIN_EPOCHS}",
        "batch_size = 2",
        f"seed = {seed}",
        "segment_seconds = 1.0",
        "hop_seconds = 1.0",
        "tempo_augment = true",
        "weighted_loss = true",
        "val_every = 1",
        "[data]",
        f"noisy_dir = {out / 'train' / 'noisy'}",
        f"clean_dir = {out / 'train' / 'clean'}",
        f"val_noisy_dir = {out / 'val' / 'noisy'}",
        f"val_clean_dir = {out / 'val' / 'clean'}",
        "",
    ])


def generate(workload: str, seed: int, out: Path) -> None:
    rng = np.random.default_rng(np.random.SeedSequence([seed, 20220304]))
    out = out.resolve()
    out.mkdir(parents=True, exist_ok=True)
    if workload in ENHANCE:
        from manner.checkpoint import save_checkpoint
        from manner.model import ModelConfig, build_model

        variant, seconds, count = ENHANCE[workload]
        write_pairs(rng, out / "noisy", None, count, seconds)
        params = build_model(ModelConfig(variant=variant).validate(), seed=seed)
        save_checkpoint(out / f"{variant}.ckpt", params)
    elif workload == "train-step":
        write_pairs(rng, out / "train" / "noisy", out / "train" / "clean", TRAIN_PAIRS, TRAIN_SECONDS)
        write_pairs(rng, out / "val" / "noisy", out / "val" / "clean", 1, VAL_SECONDS)
        (out / "train.cfg").write_text(train_config(out, seed))
    else:
        raise ValueError(f"unknown workload {workload!r}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    generate(args.workload, args.seed, Path(args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
