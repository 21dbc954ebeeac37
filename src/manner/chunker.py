"""Split a time axis into half-overlapping chunks and merge back exactly.

Chunks of size C advance by C/2; the tail is zero-padded. merge() averages
samples by how many chunks cover them, so merge(chunk(x)) == x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .nn import overlap_add, time_windows
from .tensor import Tensor, apply_op


@dataclass
class ChunkedView:
    """Chunked tensor [..., P, C] plus what is needed to invert it."""

    data: Tensor
    original_length: int
    chunk_size: int
    hop: int

    @property
    def num_chunks(self) -> int:
        return self.data.shape[-2]


def num_chunks(t: int, chunk_size: int) -> int:
    """P = ceil(max(T - C, 0) / (C/2)) + 1."""
    hop = chunk_size // 2
    return math.ceil(max(t - chunk_size, 0) / hop) + 1


def _check_chunk_size(chunk_size: int) -> int:
    if chunk_size < 2 or chunk_size % 2:
        raise ValueError(f"chunk size must be even and >= 2, got {chunk_size}")
    return chunk_size // 2


def chunk(x: Tensor, chunk_size: int) -> ChunkedView:
    """[..., T] -> view of [..., P, C] chunks with 50% overlap."""
    hop = _check_chunk_size(chunk_size)
    t = x.shape[-1]
    if t < 1:
        raise ValueError("cannot chunk an empty time axis")
    p = num_chunks(t, chunk_size)
    padded = (p - 1) * hop + chunk_size

    xd = x.data
    if padded > t:
        width = [(0, 0)] * (xd.ndim - 1) + [(0, padded - t)]
        xd = np.pad(xd, width)
    if p == 1:  # one chunk keeps a gather's time-major layout, and with it the
        # float32 rounding of its per-row gemv calls (see the README)
        out = np.moveaxis(np.ascontiguousarray(np.moveaxis(xd, -1, 0)), 0, -1)[..., None, :]
    else:  # contiguous, so that matmuls over the chunks take the BLAS path
        out = np.ascontiguousarray(time_windows(xd, chunk_size, hop, p).swapaxes(-1, -2))

    def bwd(g, needs):
        return (overlap_add(g.swapaxes(-1, -2), hop, padded)[..., :t],)

    data = apply_op(out, (x,), bwd)
    return ChunkedView(data=data, original_length=t, chunk_size=chunk_size, hop=hop)


def merge(view: ChunkedView) -> Tensor:
    """Invert chunk(): overlapped samples average by coverage count."""
    x = view.data
    if x.ndim < 2:
        raise ValueError(f"chunked data must be [..., P, C], got {x.shape}")
    p, c = x.shape[-2], x.shape[-1]
    if c != view.chunk_size or view.hop != c // 2:
        raise ValueError("chunked view metadata does not match its data")
    t, hop = view.original_length, view.hop
    padded = (p - 1) * hop + c
    lower = 1 if p == 1 else padded - hop + 1
    if not lower <= t <= padded:
        raise ValueError(f"original length {t} inconsistent with {p} chunks of {c}")

    cover = overlap_add(np.ones((c, p), dtype=x.dtype), hop, padded)[:t]
    out = overlap_add(x.data.swapaxes(-1, -2), hop, padded)[..., :t] / cover

    def bwd(g, needs):
        gpad = g / cover
        if padded > t:
            width = [(0, 0)] * (g.ndim - 1) + [(0, padded - t)]
            gpad = np.pad(gpad, width)
        return (np.ascontiguousarray(time_windows(gpad, c, hop, p).swapaxes(-1, -2)),)

    return apply_op(out, (x,), bwd)
