"""Chunk/merge tests against a naive per-sample oracle.

The oracle walks every sample index explicitly so it cannot share the
slicing tricks the implementation uses for overlap-add.
"""

import math

import numpy as np
import pytest

from manner.chunker import chunk, merge
from manner.nn import num_windows
from manner.tensor import Tape, Tensor, backward, tsum

# ---------------------------------------------------------------------
# oracles


def chunk_loops(x, chunk_size):
    """[..., T] -> [..., P, C] by copying one sample at a time."""
    hop = chunk_size // 2
    t = x.shape[-1]
    p = math.ceil(max(t - chunk_size, 0) / hop) + 1
    out = np.zeros(x.shape[:-1] + (p, chunk_size), dtype=np.float64)
    for i in range(p):
        for j in range(chunk_size):
            src = i * hop + j
            if src < t:
                out[..., i, j] = x[..., src]
    return out


def merge_loops(parts, t):
    """[..., P, C] -> [..., T] averaging each sample by its coverage."""
    p, c = parts.shape[-2], parts.shape[-1]
    hop = c // 2
    out = np.zeros(parts.shape[:-2] + (t,), dtype=np.float64)
    cover = np.zeros(t, dtype=np.float64)
    for i in range(p):
        for j in range(c):
            dst = i * hop + j
            if dst < t:
                out[..., dst] += parts[..., i, j]
                cover[dst] += 1.0
    return out / cover


# ---------------------------------------------------------------------
# chunk count and shapes


@pytest.mark.parametrize(
    "t,c,expected_p",
    [
        (1000, 64, 31),
        (96, 64, 2),
        (64, 64, 1),
        (65, 64, 2),
        (63, 64, 1),
        (1, 64, 1),
        (32, 64, 1),
        (128, 64, 3),
        (129, 64, 4),
        (16000, 64, 499),
    ],
)
def test_num_chunks_frozen(t, c, expected_p):
    assert num_windows(t, c, c // 2) == expected_p


@pytest.mark.parametrize("t", [1, 2, 31, 32, 33, 63, 64, 65, 95, 96, 97, 1000])
@pytest.mark.parametrize("c", [4, 8, 64])
def test_num_chunks_matches_formula(t, c):
    assert num_windows(t, c, c // 2) == math.ceil(max(t - c, 0) / (c // 2)) + 1


@pytest.mark.parametrize("t", list(range(1, 200)) + [999, 1000, 1024, 4096, 64000])
def test_chunk_memory_bound(t):
    """P * C never exceeds 2T + C, so chunking at most doubles the data."""
    c = 64
    assert num_windows(t, c, c // 2) * c <= 2 * t + c


def test_chunk_shape_keeps_leading_dims():
    x = Tensor(np.zeros((2, 60, 250), dtype=np.float32))
    assert chunk(x, 64).shape == (2, 60, num_windows(250, 64, 32), 64)


def test_chunk_1000_by_64_layout():
    """1000 samples pad to 1024 and split into 31 half-overlapped chunks."""
    x = Tensor(np.arange(1000, dtype=np.float64))
    parts = chunk(x, 64).data
    assert parts.shape == (31, 64)
    # chunk i starts at 32*i; the final 24 slots are padding
    assert np.array_equal(parts[7, :], np.arange(7 * 32, 7 * 32 + 64))
    tail = parts[30, :]
    assert np.array_equal(tail[:40], np.arange(960, 1000))
    assert np.all(tail[40:] == 0.0)


def test_chunk_overlap_region():
    """96 samples in chunks of 64: [32, 64) is covered by both chunks."""
    x = Tensor(np.arange(96, dtype=np.float64))
    parts = chunk(x, 64).data
    assert parts.shape == (2, 64)
    first, second = parts[0], parts[1]
    assert np.array_equal(first, np.arange(64))
    assert np.array_equal(second, np.arange(32, 96))
    assert np.array_equal(first[32:], second[:32])


@pytest.mark.parametrize("t", [1, 5, 63, 64, 65, 96, 250, 1000])
@pytest.mark.parametrize("c", [8, 64])
def test_chunk_matches_loops(t, c):
    rng = np.random.default_rng(t * 131 + c)
    x = rng.standard_normal((2, 3, t))
    np.testing.assert_array_equal(chunk(Tensor(x), c).data, chunk_loops(x, c))


# ---------------------------------------------------------------------
# merge: exact inversion


@pytest.mark.parametrize("t", [1, 2, 31, 32, 33, 63, 64, 65, 96, 100, 250, 999, 1000])
def test_roundtrip_recovers_input(t):
    """merge(chunk(x)) == x: coverage counts are 1 or 2, both exact."""
    rng = np.random.default_rng(t)
    x = rng.standard_normal((2, t)).astype(np.float32)
    out = merge(chunk(Tensor(x), 64), x.shape[-1])
    assert out.shape == x.shape
    np.testing.assert_allclose(out.data, x, atol=1e-6)


def test_roundtrip_is_bit_exact():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((3, 5, 1000)).astype(np.float32)
    out = merge(chunk(Tensor(x), 64), x.shape[-1])
    assert np.array_equal(out.data, x)


def test_merge_of_ones_is_ones():
    """Overlapped samples sum to 2 and divide by 2, padded ones stay 1."""
    for t in (1, 40, 64, 96, 1000):
        out = merge(chunk(Tensor(np.ones(t)), 64), t)
        np.testing.assert_array_equal(out.data, np.ones(t))


@pytest.mark.parametrize("t", [1, 63, 64, 65, 96, 250])
def test_merge_matches_loops(t):
    rng = np.random.default_rng(t + 9000)
    parts = rng.standard_normal((2, num_windows(t, 64, 32), 64))
    np.testing.assert_allclose(merge(Tensor(parts), t).data, merge_loops(parts, t), rtol=1e-12)


def test_merge_averages_disagreeing_chunks():
    """Hand case: two chunks disagree on the overlap, merge takes the mean."""
    c = 4
    parts = np.zeros((2, c))
    parts[0] = [1.0, 2.0, 3.0, 4.0]
    parts[1] = [5.0, 6.0, 7.0, 8.0]
    out = merge(Tensor(parts), 6).data
    np.testing.assert_array_equal(out, [1.0, 2.0, 4.0, 5.0, 7.0, 8.0])


# ---------------------------------------------------------------------
# gradients


def test_roundtrip_gradient_is_identity():
    """d merge(chunk(x)) / dx is the identity, so grads pass through."""
    rng = np.random.default_rng(11)
    x = Tensor(rng.standard_normal((2, 100)), requires_grad=True)
    r = rng.standard_normal((2, 100))
    with Tape() as tape:
        out = merge(chunk(x, 64), 100)
        loss = tsum(out * Tensor(r))
    backward(tape, loss)
    np.testing.assert_allclose(x.grad, r, rtol=1e-12)


def test_chunk_gradient_counts_coverage():
    """Summing all chunk entries sends each sample its coverage count."""
    t, c = 96, 64
    x = Tensor(np.zeros(t), requires_grad=True)
    with Tape() as tape:
        loss = tsum(chunk(x, c))
    backward(tape, loss)
    expected = np.ones(t)
    expected[32:64] = 2.0
    np.testing.assert_array_equal(x.grad, expected)


def test_merge_gradient_splits_by_coverage():
    """Each chunk entry receives its sample's upstream grad / coverage."""
    t, c = 96, 64
    rng = np.random.default_rng(3)
    parts = Tensor(rng.standard_normal((2, c)), requires_grad=True)
    r = rng.standard_normal(t)
    with Tape() as tape:
        loss = tsum(merge(parts, t) * Tensor(r))
    backward(tape, loss)
    scaled = r / np.concatenate([np.ones(32), 2 * np.ones(32), np.ones(32)])
    np.testing.assert_allclose(parts.grad[0], scaled[:64], rtol=1e-12)
    np.testing.assert_allclose(parts.grad[1], scaled[32:], rtol=1e-12)


def test_chunk_and_merge_gradient_are_c_contiguous():
    """Chunks feed matmuls, which take the BLAS path only on a plain
    layout; a gathered [P, C, B, Ch]-major array falls to the slow loop.
    T=50 gives a single chunk (P=1)."""
    for t in (1000, 50):
        rng = np.random.default_rng(5)
        x = Tensor(rng.standard_normal((2, 40, t)).astype(np.float32))
        chunks = chunk(x, 64)
        assert chunks.data.flags.c_contiguous, t
        p = chunks.shape[-2]
        parts = Tensor(rng.standard_normal((2, 3, p, 64)).astype(np.float32), requires_grad=True)
        with Tape() as tape:
            loss = tsum(merge(parts, t) * Tensor(rng.standard_normal((2, 3, t)).astype(np.float32)))
        backward(tape, loss)
        assert parts.grad.shape == parts.shape
        assert parts.grad.flags.c_contiguous, t


# ---------------------------------------------------------------------
# rejects


@pytest.mark.parametrize("bad", [0, 1, 3, 7, -4])
def test_chunk_rejects_bad_size(bad):
    with pytest.raises(ValueError):
        chunk(Tensor(np.zeros(10)), bad)


def test_chunk_rejects_empty_axis():
    with pytest.raises(ValueError):
        chunk(Tensor(np.zeros((2, 0))), 4)


def test_merge_rejects_inconsistent_length():
    parts = Tensor(np.zeros((2, 4)))
    with pytest.raises(ValueError):
        merge(parts, 20)
    with pytest.raises(ValueError):
        merge(Tensor(np.zeros((1, 4))), 0)


def test_merge_rejects_odd_chunk_size():
    parts = Tensor(np.zeros((2, 5)))
    with pytest.raises(ValueError, match="even"):
        merge(parts, 7)
