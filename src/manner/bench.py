"""Forward-pass efficiency measurements: wall-clock and peak tensor memory."""

from __future__ import annotations

import csv
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .audio import TARGET_RATE
from .model import ModelParams, manner_forward
from .tensor import Tensor, meter


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


def run_bench(
    params: ModelParams,
    lengths_s: list[int],
    runs: int = 5,
    seed: int = 0,
) -> BenchReport:
    """Median forward time and allocator high-water mark per input length.

    One untimed warmup precedes the measured runs. Measurement itself is
    sequential; cap BLAS threads with MANNER_THREADS for stable numbers.
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
        out = manner_forward(x, params, params.config, training=False)  # warmup
        del out
        times = []
        peak = 0
        for _ in range(runs):
            meter.reset_peak()
            t0 = time.perf_counter()
            out = manner_forward(x, params, params.config, training=False)
            times.append((time.perf_counter() - t0) * 1000.0)
            peak = max(peak, meter.peak)
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
