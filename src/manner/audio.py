"""Mono 16 kHz WAV handling, segmentation, pairing, and tempo augmentation."""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.io import wavfile

from .errors import DataError
from .nn import pad_windows

log = logging.getLogger(__name__)

TARGET_RATE = 16000
PCM_SCALE = 32768.0


@dataclass
class AudioClip:
    """1-D float32 samples in [-1, 1] at TARGET_RATE."""

    samples: np.ndarray

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float32)
        if self.samples.ndim != 1:
            raise DataError(f"clip must be mono 1-D, got shape {self.samples.shape}")

    @property
    def duration(self) -> float:
        return len(self.samples) / TARGET_RATE


@dataclass
class CorpusPair:
    name: str
    noisy: AudioClip
    clean: AudioClip


def read_wav(path) -> AudioClip:
    """Read a non-empty mono 16 kHz PCM16 or finite float32 WAV; anything else is rejected."""
    path = Path(path)
    try:
        rate, data = wavfile.read(path)
    except FileNotFoundError:
        raise DataError(f"{path}: no such file")
    except Exception as exc:  # scipy raises plain ValueError on bad RIFF
        raise DataError(f"{path}: malformed or unsupported WAV ({exc})") from exc
    if data.ndim != 1:
        raise DataError(f"{path}: expected mono, got {data.shape[1]} channels")
    if data.size == 0:
        raise DataError(f"{path}: no samples")
    if data.dtype == np.int16:
        samples = data.astype(np.float32) / PCM_SCALE
    elif data.dtype == np.float32:
        samples = data
    else:
        raise DataError(f"{path}: unsupported sample encoding {data.dtype}; need PCM16 or float32")
    if not np.all(np.isfinite(samples)):
        raise DataError(f"{path}: non-finite samples (NaN or Inf)")
    if rate != TARGET_RATE:
        raise DataError(f"{path}: sample rate {rate} Hz, expected {TARGET_RATE} Hz")
    return AudioClip(samples)


def write_wav(path, clip: AudioClip) -> None:
    """Write PCM16, clipping samples to the representable range."""
    scaled = np.round(clip.samples.astype(np.float64) * PCM_SCALE)
    data = np.clip(scaled, -32768, 32767).astype(np.int16)
    wavfile.write(Path(path), TARGET_RATE, data)


def segment(samples: np.ndarray, seg: int, hop: int) -> list[np.ndarray]:
    """Fixed windows every `hop` samples; the last one is zero-padded."""
    if seg < 1 or not 1 <= hop <= seg:
        raise ValueError(f"need seg >= 1 and 1 <= hop <= seg, got seg={seg} hop={hop}")
    if len(samples) < 1:
        raise ValueError("cannot segment an empty signal")
    return list(pad_windows(samples, seg, hop).T)


def tempo_perturb(clip: AudioClip, rate: float) -> AudioClip:
    """Playback-speed change by linear resampling; length becomes round(T/rate).

    rate == 1.0 returns the samples bit-exactly.
    """
    if not 0.9 <= rate <= 1.1:
        raise ValueError(f"tempo rate must lie in [0.9, 1.1], got {rate}")
    t = len(clip.samples)
    n_out = int(round(t / rate))
    positions = np.arange(n_out, dtype=np.float64) * rate
    resampled = np.interp(positions, np.arange(t, dtype=np.float64), clip.samples)
    return AudioClip(resampled.astype(np.float32))


def pair_corpus(noisy_dir, clean_dir) -> list[CorpusPair]:
    """Match WAVs by filename; orphans warn, mismatched lengths are errors."""
    noisy_dir, clean_dir = Path(noisy_dir), Path(clean_dir)
    for d in (noisy_dir, clean_dir):
        if not d.is_dir():
            raise DataError(f"{d}: not a directory")
    noisy_files = {p.name: p for p in sorted(noisy_dir.glob("*.wav"))}
    clean_files = {p.name: p for p in sorted(clean_dir.glob("*.wav"))}
    for name in sorted(set(noisy_files) - set(clean_files)):
        log.warning("noisy file %s has no clean counterpart; skipping", name)
    for name in sorted(set(clean_files) - set(noisy_files)):
        log.warning("clean file %s has no noisy counterpart; skipping", name)
    shared = sorted(set(noisy_files) & set(clean_files))
    if not shared:
        raise DataError(f"no paired WAV files between {noisy_dir} and {clean_dir}")

    pairs = []
    for name in shared:
        noisy = read_wav(noisy_files[name])
        clean = read_wav(clean_files[name])
        if len(noisy.samples) != len(clean.samples):
            raise DataError(
                f"{name}: length mismatch (noisy {len(noisy.samples)} vs clean {len(clean.samples)})"
            )
        pairs.append(CorpusPair(name=name, noisy=noisy, clean=clean))
    return pairs
