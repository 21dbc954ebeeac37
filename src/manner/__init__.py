"""Time-domain speech enhancement with multi-view attention.

MANNER_THREADS caps intra-op parallelism. It must take effect before the
BLAS backend initializes, so it is applied here, ahead of any numpy import
from this package. If numpy was already imported by the host process the
cap is best effort.
"""

import os as _os

_threads = _os.environ.get("MANNER_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        _os.environ.setdefault(_var, _threads)
del _os, _threads

from .tensor import Tape, Tensor, backward, finite_diff_check  # noqa: E402
from .nn import batch_norm, conv1d, conv_transpose1d, linear  # noqa: E402
from .chunker import chunk, merge  # noqa: E402
from .model import ModelConfig, build_model, manner_forward, num_params  # noqa: E402
from .loss import StftConfig, combined_loss, multires_stft_loss, stft_loss, weighted_total_loss  # noqa: E402
from .audio import AudioClip, pair_corpus, read_wav, segment, tempo_perturb, write_wav  # noqa: E402
from .metrics import si_snr  # noqa: E402
from .trainer import TrainSettings, adam_step, init_adam, onecycle_lr, train  # noqa: E402
from .checkpoint import load_checkpoint, save_checkpoint  # noqa: E402

__version__ = "0.1.0"

__all__ = [
    "AudioClip",
    "ModelConfig",
    "StftConfig",
    "Tape",
    "Tensor",
    "TrainSettings",
    "adam_step",
    "backward",
    "batch_norm",
    "build_model",
    "chunk",
    "combined_loss",
    "conv1d",
    "conv_transpose1d",
    "finite_diff_check",
    "init_adam",
    "linear",
    "load_checkpoint",
    "manner_forward",
    "merge",
    "multires_stft_loss",
    "num_params",
    "onecycle_lr",
    "pair_corpus",
    "read_wav",
    "save_checkpoint",
    "segment",
    "si_snr",
    "stft_loss",
    "tempo_perturb",
    "train",
    "weighted_total_loss",
    "write_wav",
]
