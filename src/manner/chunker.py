"""Split a time axis into half-overlapping chunks and merge back exactly.

Chunks of size C advance by C/2; the tail is zero-padded. A chunked tensor
is a plain [..., P, C] Tensor: its hop is C/2, so merge() needs only the
original length. merge() averages samples by how many chunks cover them,
so merge(chunk(x), T) == x.
"""

from __future__ import annotations

import numpy as np

from .nn import num_windows, overlap_add, pad_windows
from .tensor import Tensor, apply_op


def _check_chunk_size(chunk_size: int) -> int:
    if chunk_size < 2 or chunk_size % 2:
        raise ValueError(f"chunk size must be even and >= 2, got {chunk_size}")
    return chunk_size // 2


def chunk(x: Tensor, chunk_size: int) -> Tensor:
    """[..., T] -> [..., P, C] chunks with 50% overlap."""
    hop = _check_chunk_size(chunk_size)
    t = x.shape[-1]
    if t < 1:
        raise ValueError("cannot chunk an empty time axis")
    win = pad_windows(x.data, chunk_size, hop)  # [..., C, P]
    if win.shape[-1] == 1:  # one chunk keeps a gather's time-major layout, and with it
        # the float32 rounding of its per-row gemv calls (see the README)
        out = np.moveaxis(np.ascontiguousarray(np.moveaxis(win[..., 0], -1, 0)), 0, -1)[..., None, :]
    else:  # contiguous, so that matmuls over the chunks take the BLAS path
        out = np.ascontiguousarray(win.swapaxes(-1, -2))

    def bwd(g, needs):
        return (overlap_add(g.swapaxes(-1, -2), hop, t),)

    return apply_op(out, (x,), bwd)


def merge(x: Tensor, length: int) -> Tensor:
    """Invert chunk(): [..., P, C] -> [..., length], overlapped samples
    averaged by coverage count."""
    if x.ndim < 2:
        raise ValueError(f"chunked data must be [..., P, C], got {x.shape}")
    p, c = x.shape[-2:]
    hop = _check_chunk_size(c)
    if length < 1 or num_windows(length, c, hop) != p:
        raise ValueError(f"original length {length} inconsistent with {p} chunks of {c}")

    cover = overlap_add(np.ones((c, p), dtype=x.dtype), hop, length)
    out = overlap_add(x.data.swapaxes(-1, -2), hop, length) / cover

    def bwd(g, needs):
        return (np.ascontiguousarray(pad_windows(g / cover, c, hop).swapaxes(-1, -2)),)

    return apply_op(out, (x,), bwd)
