"""Forward-pass efficiency measurements: wall-clock and peak allocated memory."""

from __future__ import annotations

import csv
import statistics
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .audio import TARGET_RATE
from .model import ModelParams, manner_forward
from .tensor import Tensor


@dataclass
class BenchRow:
    length_s: int
    median_ms: float
    peak_bytes: int


@dataclass
class BenchReport:
    variant: str
    rows: list[BenchRow]

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["length_s", "median_ms", "peak_bytes"])
            for row in self.rows:
                writer.writerow([row.length_s, f"{row.median_ms:.3f}", row.peak_bytes])


def forward_peak_bytes(params: ModelParams, x: Tensor) -> int:
    """The parameter map's bytes plus the tracemalloc peak of one eval
    forward of `x` above what was live before it; numpy reports every buffer
    to tracemalloc. Tracing stops again unless the caller was tracing."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        manner_forward(x, params, params.config, training=False)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    return sum(t.data.nbytes for t in params.values()) + peak


def run_bench(
    params: ModelParams,
    lengths_s: list[int],
    runs: int = 5,
    seed: int = 0,
) -> BenchReport:
    """Median forward time and peak memory per input length.

    One untimed warmup, the only traced forward, precedes the measured runs.
    Measurement is sequential; cap BLAS threads with MANNER_THREADS for
    stable numbers.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    if not lengths_s or any(s < 1 for s in lengths_s):
        raise ValueError("lengths must be positive seconds")
    rng = np.random.default_rng(seed)
    rows = []
    for s in lengths_s:
        t = s * TARGET_RATE
        x = Tensor(0.1 * rng.standard_normal(t).astype(np.float32)[None, None, :])
        peak = forward_peak_bytes(params, x)  # the warmup
        times = []
        for _ in range(runs):
            t0 = time.perf_counter()
            out = manner_forward(x, params, params.config, training=False)
            times.append((time.perf_counter() - t0) * 1000.0)
            del out
        rows.append(BenchRow(length_s=s, median_ms=statistics.median(times), peak_bytes=peak))
    return BenchReport(variant=params.config.variant, rows=rows)


def format_table(reports: list[BenchReport]) -> str:
    """Human-readable summary, variants side by side; all reports share one list of lengths."""
    lines = []
    header = f"{'length_s':>8}"
    for rep in reports:
        header += f" | {rep.variant + ' ms':>12} {rep.variant + ' MiB':>12}"
    lines.append(header)
    lines.append("-" * len(header))
    for rows in zip(*(rep.rows for rep in reports)):
        line = f"{rows[0].length_s:>8}"
        for row in rows:
            line += f" | {row.median_ms:>12.1f} {row.peak_bytes / 2**20:>12.1f}"
        lines.append(line)
    return "\n".join(lines)
