"""Waveform L1 plus multi-resolution STFT losses, optionally noise-weighted.

The STFT magnitude is a single differentiable primitive: frame, apply a
periodic Hann window, zero-pad to fft_size, rfft, magnitude. Its backward
pushes the half-spectrum gradient through an irfft and overlap-adds the
frames back onto the signal.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .nn import overlap_add, time_windows
from .tensor import (
    GRAD_TINY,
    Tensor,
    apply_op,
    div,
    maximum,
    mul,
    sub,
    tabs,
    tlog,
    tmean,
    tsqrt,
    tsum,
)

log = logging.getLogger(__name__)

LOG_EPS = 1e-8

DEFAULT_RESOLUTIONS = (
    (512, 50, 240),
    (1024, 120, 600),
    (2048, 240, 1200),
)


@dataclass(frozen=True)
class StftConfig:
    fft_size: int
    hop: int
    win_length: int

    def validate(self) -> "StftConfig":
        if self.fft_size < 2 or self.fft_size % 2:
            raise ValueError(f"fft_size must be even and >= 2, got {self.fft_size}")
        if not 1 <= self.win_length <= self.fft_size:
            raise ValueError(f"need 1 <= win_length <= fft_size, got {self.win_length}/{self.fft_size}")
        if not 1 <= self.hop < self.win_length:
            raise ValueError(f"need 1 <= hop < win_length, got {self.hop}/{self.win_length}")
        return self

    @property
    def bins(self) -> int:
        return self.fft_size // 2 + 1


def default_resolutions() -> tuple[StftConfig, ...]:
    return tuple(StftConfig(*r).validate() for r in DEFAULT_RESOLUTIONS)


def hann_window(n: int, dtype=np.float64) -> np.ndarray:
    """Periodic Hann, the STFT convention."""
    return (0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)).astype(dtype)


def num_frames(t: int, cfg: StftConfig) -> int:
    return (t - cfg.win_length) // cfg.hop + 1


def stft_magnitude(x: Tensor, cfg: StftConfig) -> Tensor:
    """[..., T] -> magnitudes [..., frames, bins]; needs T >= win_length."""
    cfg.validate()
    t = x.shape[-1]
    if t < cfg.win_length:
        raise ValueError(f"signal length {t} is shorter than window {cfg.win_length}")
    frames = num_frames(t, cfg)
    window = hann_window(cfg.win_length, x.dtype)
    framed = time_windows(x.data, cfg.win_length, cfg.hop, frames).swapaxes(-1, -2) * window
    spec = np.fft.rfft(framed, n=cfg.fft_size, axis=-1)
    mag = np.abs(spec).astype(x.dtype, copy=False)

    def bwd(g, needs):
        # dL/d(frame_n) = sum_k Re((g * X/|X|)_k e^{+2pi i kn/N}); interior
        # bins carry half weight because each represents a conjugate pair.
        ratio = spec / np.maximum(mag, GRAD_TINY)
        half = g * ratio
        half[..., 1:-1] *= 0.5
        gframes = np.fft.irfft(half, n=cfg.fft_size, axis=-1) * cfg.fft_size
        # numpy 1.x transforms float32 in float64; the gradient keeps x's dtype
        gframes = (gframes[..., : cfg.win_length] * window).astype(window.dtype, copy=False)
        return (overlap_add(gframes.swapaxes(-1, -2), cfg.hop, t),)

    return apply_op(mag, (x,), bwd)


def stft_loss(clean: Tensor, estimate: Tensor, cfg: StftConfig) -> tuple[Tensor, Tensor]:
    """Spectral convergence and log-magnitude L1 at one resolution.

    Inputs are [T] or [B, T]; outputs are scalars or [B] vectors. The log
    term averages over the magnitude matrix's element count.
    """
    if clean.shape != estimate.shape:
        raise ValueError(f"shape mismatch: {clean.shape} vs {estimate.shape}")
    m_clean = stft_magnitude(clean, cfg)
    m_est = stft_magnitude(estimate, cfg)
    axes = (-2, -1)  # magnitudes are [frames, bins] or [B, frames, bins]

    diff = sub(m_clean, m_est)
    num = tsqrt(tsum(mul(diff, diff), axis=axes))
    den = tsqrt(tsum(mul(m_clean, m_clean), axis=axes))
    # The floor only guards an all-zero target; otherwise sc is exact.
    sc = div(num, maximum(den, GRAD_TINY))

    log_diff = sub(tlog(maximum(m_clean, LOG_EPS)), tlog(maximum(m_est, LOG_EPS)))
    mag = tmean(tabs(log_diff), axis=axes)
    return sc, mag


def _branch_loss(clean: Tensor, estimate: Tensor,
                 resolutions: tuple[StftConfig, ...]) -> tuple[Tensor, float, list]:
    """Waveform L1 plus the mean of (sc + mag) over the resolutions that fit
    the signal: the [B] loss, the L1 mean, and per-resolution (sc, mag)
    means for reporting, NaN where a resolution was skipped."""
    t = clean.shape[-1]
    l1 = tmean(tabs(sub(clean, estimate)), axis=-1)
    spectral, used, terms = None, 0, []
    for cfg in resolutions:
        if t < cfg.win_length:
            log.warning("skipping STFT resolution win=%d: signal length %d too short", cfg.win_length, t)
            terms.append((float("nan"), float("nan")))
            continue
        sc, mag = stft_loss(clean, estimate, cfg)
        term = sc + mag
        spectral = term if spectral is None else spectral + term
        used += 1
        terms.append((float(np.mean(sc.data)), float(np.mean(mag.data))))
    if spectral is None:
        log.warning("all STFT resolutions skipped for signal length %d", t)
        spectral = Tensor(np.zeros(clean.shape[:-1], dtype=clean.dtype))
    else:
        spectral = mul(spectral, 1.0 / used)
    return l1 + spectral, float(np.mean(l1.data)), terms


@dataclass
class LossReport:
    """Scalar summary of one loss evaluation; serializes to one log line."""

    total: float
    l1: float
    sc: tuple[float, ...]
    mag: tuple[float, ...]
    alpha: float

    def log_line(self, step: int, epoch: int, lr: float) -> str:
        fields = [f"step={step}", f"epoch={epoch}", f"lr={lr:.8g}"]
        fields.append(f"total={self.total:.6g}")
        fields.append(f"l1={self.l1:.6g}")
        for i, (s, m) in enumerate(zip(self.sc, self.mag), 1):
            fields.append(f"sc{i}={s:.6g}")
            fields.append(f"mag{i}={m:.6g}")
        fields.append(f"alpha={self.alpha:.6g}")
        return " ".join(fields)


def _as_batch(x: Tensor) -> Tensor:
    if x.ndim == 1:
        return x.reshape((1, x.shape[0]))
    if x.ndim == 2:
        return x
    raise ValueError(f"loss signals must be [T] or [B, T], got {x.shape}")


def weighted_total_loss(
    noisy: Tensor,
    clean: Tensor,
    estimate: Tensor,
    resolutions: tuple[StftConfig, ...] | None = None,
    weighted: bool = True,
) -> tuple[Tensor, LossReport]:
    """Energy-weighted sum of speech- and noise-branch losses, batch meaned.

    alpha = ||y||^2 / (||y||^2 + ||n||^2) per example (0.5 when both are
    silent); the noise branch compares x - y against x - y_hat.
    """
    noisy, clean, estimate = _as_batch(noisy), _as_batch(clean), _as_batch(estimate)
    if not noisy.shape == clean.shape == estimate.shape:
        raise ValueError(
            f"shape mismatch: noisy {noisy.shape}, clean {clean.shape}, estimate {estimate.shape}"
        )

    resolutions = default_resolutions() if resolutions is None else resolutions
    clean_vec, l1, terms = _branch_loss(clean, estimate, resolutions)
    if weighted:
        noise = sub(noisy, clean)
        noise_est = sub(noisy, estimate)
        noise_vec = _branch_loss(noise, noise_est, resolutions)[0]

        # alpha depends only on fixed signals, so it is a constant weight.
        e_clean = np.sum(clean.data.astype(np.float64) ** 2, axis=-1)
        e_noise = np.sum(noise.data.astype(np.float64) ** 2, axis=-1)
        denom = e_clean + e_noise
        alpha = np.where(denom > 0.0, e_clean / np.maximum(denom, GRAD_TINY), 0.5)
        alpha_t = Tensor(alpha.astype(clean.dtype))
        rest_t = Tensor((1.0 - alpha).astype(clean.dtype))
        total = tmean(mul(alpha_t, clean_vec) + mul(rest_t, noise_vec))
        mean_alpha = float(np.mean(alpha))
    else:
        total, mean_alpha = tmean(clean_vec), 1.0
    sc, mag = tuple(s for s, _ in terms), tuple(m for _, m in terms)
    return total, LossReport(total.item(), l1, sc, mag, mean_alpha)
