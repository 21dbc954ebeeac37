"""Time-domain speech enhancement with multi-view attention.

MANNER_THREADS caps intra-op parallelism. It fills in the BLAS and OpenMP
thread variables the backends read as they start, leaving any already set.
If the host process loaded numpy first, its OpenBLAS has read them, so the
cap goes to that library through its own setter, unless
OPENBLAS_NUM_THREADS was set. A value that is not a positive whole number
is ignored with a warning.
"""

import os as _os
import sys as _sys
import warnings as _warnings


def _cap_threads(value: str) -> None:
    threads = value.strip()
    if not (threads.isascii() and threads.isdecimal() and int(threads) > 0):
        _warnings.warn(f"MANNER_THREADS={value!r} is not a positive whole number; ignored")
        return
    if "numpy" in _sys.modules and "OPENBLAS_NUM_THREADS" not in _os.environ:
        import ctypes
        import glob

        libs = _os.path.join(_os.path.dirname(_sys.modules["numpy"].__file__), _os.pardir, "numpy.libs")
        for path in glob.glob(_os.path.join(libs, "lib*openblas*.so*")):
            try:  # RTLD_NOLOAD: only the copy numpy loaded, never a new one
                lib = ctypes.CDLL(path, mode=_os.RTLD_NOLOAD | _os.RTLD_LAZY)
            except OSError:
                continue
            for name in ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_"):
                if hasattr(lib, name):  # numpy 2.x and 1.x wheels
                    getattr(lib, name)(int(threads))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        _os.environ.setdefault(var, threads)


if _os.environ.get("MANNER_THREADS"):
    _cap_threads(_os.environ["MANNER_THREADS"])
del _os, _sys, _warnings, _cap_threads

from .tensor import Tape, Tensor, backward, finite_diff_check  # noqa: E402
from .nn import batch_norm, conv1d, conv_transpose1d, linear  # noqa: E402
from .chunker import chunk, merge  # noqa: E402
from .model import ModelConfig, build_model, manner_forward, num_params  # noqa: E402
from .loss import StftConfig, stft_loss, weighted_total_loss  # noqa: E402
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
    "conv1d",
    "conv_transpose1d",
    "finite_diff_check",
    "init_adam",
    "linear",
    "load_checkpoint",
    "manner_forward",
    "merge",
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
