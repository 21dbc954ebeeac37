"""Desk-scale training loop: Adam, one-cycle LR, segmentation, checkpoints.

Per-epoch RNG streams are derived from (seed, epoch), so resuming from an
epoch-boundary checkpoint replays the uninterrupted run exactly.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .audio import TARGET_RATE, CorpusPair, segment, tempo_perturb
from .checkpoint import save_checkpoint
from .errors import TrainingDiverged
from .loss import StftConfig, weighted_total_loss
from .model import ModelParams, manner_forward, trainable
from .tensor import Tape, Tensor, backward, reshape

log = logging.getLogger(__name__)


@dataclass
class AdamState:
    """First/second moment estimates per trainable parameter."""

    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def init_adam(params) -> AdamState:
    state = AdamState()
    for name, t in trainable(params).items():
        state.m[name] = np.zeros_like(t.data)
        state.v[name] = np.zeros_like(t.data)
    return state


def zero_grads(params) -> None:
    for t in trainable(params).values():
        t.grad = None


def adam_step(params, state: AdamState, lr: float) -> None:
    """Bias-corrected Adam update, in place on the map's trainable tensors,
    from the `.grad` each holds after `backward`."""
    state.t += 1
    bc1 = 1.0 - state.beta1 ** state.t
    bc2 = 1.0 - state.beta2 ** state.t
    tensors = trainable(params)
    # two scratch buffers for the step: each update runs the ops of
    # p -= lr * (m / bc1) / (sqrt(v / bc2) + eps) in order, into them
    scratch = np.empty((2, max(p.size for p in tensors.values())), next(iter(tensors.values())).dtype)
    for name, p in tensors.items():
        g = p.grad
        if g is None or g.shape != p.shape:
            raise ValueError(f"{name}: no gradient of shape {p.shape}")
        m, v = state.m[name], state.v[name]
        a, b = (buf[: p.size].reshape(p.shape) for buf in scratch)
        m *= state.beta1
        m += np.multiply(g, 1.0 - state.beta1, out=a)
        v *= state.beta2
        v += np.multiply(np.multiply(g, g, out=a), 1.0 - state.beta2, out=a)
        np.multiply(np.divide(m, bc1, out=a), lr, out=a)
        np.sqrt(np.divide(v, bc2, out=b), out=b)
        b += state.eps
        p.data -= np.divide(a, b, out=a)


@dataclass
class TrainSettings:
    epochs: int = 1
    batch_size: int = 4
    seed: int = 0
    segment_seconds: float = 4.0
    hop_seconds: float = 3.0
    tempo_augment: bool = True
    weighted_loss: bool = True
    lr_min: float = 1e-5
    lr_max: float = 1e-2
    warmup_frac: float = 0.3
    cycle_per_epoch: bool = False
    val_every: int = 1
    max_steps: int = 0  # 0 means no cap

    def validate(self) -> "TrainSettings":
        if self.epochs < 1 or self.batch_size < 1 or self.val_every < 1:
            raise ValueError("epochs, batch_size, and val_every must be >= 1")
        if not 0.0 < self.hop_seconds <= self.segment_seconds:
            raise ValueError(f"need 0 < hop <= segment, got {self.hop_seconds}/{self.segment_seconds}")
        if round(self.hop_seconds * TARGET_RATE) < 1:  # hop <= segment, so this bounds both
            raise ValueError(f"hop and segment must each be at least one sample at {TARGET_RATE} Hz, "
                             f"got {self.hop_seconds}/{self.segment_seconds}")
        if self.max_steps < 0:
            raise ValueError("max_steps must be >= 0")
        if not 0.0 < self.lr_min < self.lr_max:
            raise ValueError(f"need 0 < lr_min < lr_max, got {self.lr_min}/{self.lr_max}")
        if not 0.0 < self.warmup_frac < 1.0:
            raise ValueError(f"warmup_frac must be in (0, 1), got {self.warmup_frac}")
        return self


def onecycle_lr(step: int, settings: TrainSettings, steps_per_epoch: int) -> float:
    """One-cycle LR at `step`: cosine ramp to lr_max, cosine anneal back to lr_min.

    The cycle spans epochs * steps_per_epoch steps, or one epoch with
    cycle_per_epoch; endpoints hit lr_min/lr_max exactly.
    """
    if settings.cycle_per_epoch:
        if step < 0:
            raise ValueError(f"step {step} out of range")
        horizon = steps_per_epoch
        s = step % horizon
    else:
        horizon = max(1, settings.epochs * steps_per_epoch)
        if not 0 <= step <= horizon:
            raise ValueError(f"step {step} out of range [0, {horizon}]")
        s = step
    span = settings.lr_max - settings.lr_min
    warm = settings.warmup_frac * horizon
    if s <= warm and warm > 0:
        return settings.lr_min + span * 0.5 * (1.0 - math.cos(math.pi * s / warm))
    if horizon == warm:
        return settings.lr_max
    frac = (s - warm) / (horizon - warm)
    return settings.lr_min + span * 0.5 * (1.0 + math.cos(math.pi * frac))


@dataclass
class TrainResult:
    steps: int = 0
    log_lines: list[str] = field(default_factory=list)
    train_losses: list[float] = field(default_factory=list)
    val_history: list[tuple[int, float]] = field(default_factory=list)  # (epoch, mean validation loss)
    best_val: float = math.inf
    best_path: Path | None = None
    last_path: Path | None = None


def _epoch_rng(seed: int, epoch: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, epoch]))


def _segment_pairs(corpus: list[CorpusPair], seg: int, hop: int,
                   rng: np.random.Generator, augment: bool) -> list[tuple[np.ndarray, np.ndarray]]:
    pieces = []
    for pair in corpus:
        if augment:
            rate = float(rng.uniform(0.9, 1.1))
            noisy = tempo_perturb(pair.noisy, rate)
            clean = tempo_perturb(pair.clean, rate)
        else:
            noisy, clean = pair.noisy, pair.clean
        pieces.extend(zip(segment(noisy.samples, seg, hop), segment(clean.samples, seg, hop)))
    return pieces


def _evaluate(params: ModelParams, corpus: list[CorpusPair],
              resolutions: tuple[StftConfig, ...] | None, weighted: bool) -> float:
    losses = []
    for pair in corpus:
        x = Tensor(pair.noisy.samples[None, None, :])
        est = manner_forward(x, params, params.config, training=False)
        est = reshape(est, (1, est.shape[-1]))
        loss, _ = weighted_total_loss(
            Tensor(pair.noisy.samples[None, :]),
            Tensor(pair.clean.samples[None, :]),
            est,
            resolutions,
            weighted,
        )
        losses.append(loss.item())
    return float(np.mean(losses))


def train(
    params: ModelParams,
    corpus: list[CorpusPair],
    settings: TrainSettings,
    out_dir: str | Path | None = None,
    val_corpus: list[CorpusPair] | None = None,
    resolutions: tuple[StftConfig, ...] | None = None,
    adam_state: AdamState | None = None,
    start_epoch: int = 0,
) -> TrainResult:
    """Train in place; returns the per-step log and checkpoint locations.

    Same seed, same corpus, same settings give identical logs. Passing the
    saved Adam state plus start_epoch continues a run exactly.
    """
    settings.validate()
    if not corpus:
        raise ValueError("empty training corpus")
    val_corpus = val_corpus or corpus

    seg = int(round(settings.segment_seconds * TARGET_RATE))
    hop = int(round(settings.hop_seconds * TARGET_RATE))

    state = adam_state if adam_state is not None else init_adam(params)

    out_path = Path(out_dir) if out_dir is not None else None
    log_file = None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)
        log_file = open(out_path / "train_log.txt", "a" if start_epoch else "w")

    result = TrainResult()
    stop = False

    def emit(line: str) -> None:
        result.log_lines.append(line)
        log.info("%s", line)
        if log_file is not None:
            log_file.write(line + "\n")
            log_file.flush()

    try:
        for epoch in range(start_epoch, settings.epochs):
            rng = _epoch_rng(settings.seed, epoch)
            pieces = _segment_pairs(corpus, seg, hop, rng, settings.tempo_augment)
            order = rng.permutation(len(pieces))
            # sized from this epoch's pieces, which tempo augmentation can add to
            steps = math.ceil(len(pieces) / settings.batch_size)
            for k, b0 in enumerate(range(0, len(order), settings.batch_size)):
                batch = [pieces[i] for i in order[b0 : b0 + settings.batch_size]]
                x = np.stack([n for n, _ in batch])
                y = np.stack([c for _, c in batch])
                lr = onecycle_lr(epoch * steps + k, settings, steps)

                with Tape() as tape:
                    est = manner_forward(Tensor(x[:, None, :]), params, params.config, training=True)
                    est = reshape(est, x.shape)
                    loss, report = weighted_total_loss(
                        Tensor(x), Tensor(y), est, resolutions, settings.weighted_loss
                    )
                value = loss.item()
                if not math.isfinite(value):
                    raise TrainingDiverged(f"loss became {value} at step {state.t + 1}")
                zero_grads(params)
                backward(tape, loss)
                adam_step(params, state, lr)

                result.train_losses.append(value)
                emit(report.log_line(step=state.t, epoch=epoch + 1, lr=lr))
                if settings.max_steps and state.t >= settings.max_steps:
                    stop = True
                    break

            run_val = (epoch + 1) % settings.val_every == 0 or epoch + 1 == settings.epochs or stop
            improved = False
            if run_val:
                val = _evaluate(params, val_corpus, resolutions, settings.weighted_loss)
                result.val_history.append((epoch + 1, val))
                emit(f"val epoch={epoch + 1} loss={val:.6g}")
                improved = val < result.best_val
                result.best_val = min(result.best_val, val)
            if out_path is not None:
                result.last_path = out_path / "last.ckpt"
                save_checkpoint(result.last_path, params, state, step=state.t, epoch=epoch + 1)
                if improved:
                    result.best_path = out_path / "best.ckpt"
                    save_checkpoint(result.best_path, params, state, step=state.t, epoch=epoch + 1)
            if stop:
                break
    finally:
        if log_file is not None:
            log_file.close()
    result.steps = state.t
    return result
