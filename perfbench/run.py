"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload enhance-short --seed 1 --seconds 20 --trace 0

Run from the repository root. It generates the workload's inputs from the
seed (gen_inputs.py), times the set-up of a few CLI invocations that stop
once set-up is done, then runs jobs, each a fresh process executing one
`manner` CLI invocation (worker.py), until --seconds have passed; every job
is closed loop with one client. The outputs are checked in a last process.
With --trace 1 jobs run untraced for half the time and traced for the
other half, and the result holds the per-layer metrics and the tracing
overhead instead of the end-to-end ones. Scratch files live under
.perfbench/ and are removed at the end, except the span file of a traced
run.

The last line of stdout is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKLOADS = ("enhance-long", "enhance-short", "train-step")
# Every run, its set-up and checks included, must end well inside 180 s.
RUN_LIMIT_S = 170.0
# One BLAS thread. On 2 vCPUs a second thread gains ~7% on a 10 s full
# forward, but when anything else takes a CPU, two threads spinning on each
# other slowed the same forward 3-4x while one thread lost ~15%.
THREADS = "1"
# Set-up-only CLI invocations per untraced run; each job adds one more sample.
SETUP_INVOCATIONS = 2
# Fewest jobs per run: train-step's determinism check compares the logs of
# two same-seed jobs.
LEAST_JOBS = {"enhance-long": 1, "enhance-short": 1, "train-step": 2}

END_TO_END = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("throughput_audio_s_per_s", "audio_s/s"),
    ("peak_rss_mib", "MiB"),
    ("success_rate", "ratio"),
]


class BenchError(RuntimeError):
    pass


class Runner:
    """Starts each child process, waits for it, and bounds the run's time."""

    def __init__(self, work: Path, t0: float):
        self.work = work
        self.t0 = t0
        self.env = dict(os.environ, MANNER_THREADS=THREADS, OPENBLAS_NUM_THREADS=THREADS,
                        OMP_NUM_THREADS=THREADS, MKL_NUM_THREADS=THREADS, PYTHONHASHSEED="0")
        self.count = 0

    def elapsed(self) -> float:
        return time.perf_counter() - self.t0

    def python(self, script: str, *args: str) -> None:
        self.count += 1
        log = self.work / f"child{self.count}.log"
        with open(log, "w") as f:
            try:
                proc = subprocess.run([sys.executable, str(HERE / script), *args], stdout=f,
                                      stderr=subprocess.STDOUT, env=self.env, cwd=ROOT,
                                      timeout=max(1.0, RUN_LIMIT_S - self.elapsed()))
            except subprocess.TimeoutExpired:
                raise BenchError(f"{script} {' '.join(args[:2])} ran past {RUN_LIMIT_S:.0f} s")
        if proc.returncode != 0:
            tail = log.read_text().splitlines()[-15:]
            raise BenchError(f"{script} exited {proc.returncode}:\n" + "\n".join(tail))

    def job(self, workload: str, tag: str, traced: bool = False, setup_only: bool = False) -> dict:
        out, result = self.work / tag, self.work / f"{tag}.json"
        args = ["measure", "--workload", workload, "--work", str(self.work / "in"),
                "--out", str(out), "--result", str(result)]
        if traced:
            args += ["--trace", str(self.work / f"{tag}.spans")]
        if setup_only:
            args.append("--setup-only")
        self.python("worker.py", *args)
        data = json.loads(result.read_text())
        data["out"] = str(out)
        data["spans"] = str(self.work / f"{tag}.spans") if traced else None
        return data

    def jobs(self, workload: str, seconds: float, traced: bool) -> list[dict]:
        """Jobs back to back until `seconds` have passed and the workload's
        fewest jobs ran."""
        start = time.perf_counter()
        done = []
        while True:
            j0 = time.perf_counter()
            done.append(self.job(workload, f"{'traced' if traced else 'job'}{len(done)}", traced))
            took = time.perf_counter() - j0
            enough = len(done) >= LEAST_JOBS[workload] and time.perf_counter() - start >= seconds
            if enough or self.elapsed() + 2 * took > RUN_LIMIT_S:
                return done


def latencies_ms(jobs: list[dict]) -> list[float]:
    return [1000.0 * (end - start) for job in jobs for start, end, _ in job["ops"]]


def end_to_end(jobs: list[dict], setups: list[float], attempted: int,
               failed: int) -> tuple[dict, list[str]]:
    """The end-to-end metrics, from the operations and set-ups that completed.
    A metric with no sample to take it from is left out; the run then has
    failures and reports correct = false."""
    lat = latencies_ms(jobs)
    values = {}
    if setups:
        values["setup_s"] = statistics.median(setups)
    notes = [
        f"machine: {jobs[0]['machine']}",
        f"operations: {len(lat)} in {len(jobs)} job(s); set-up samples: {len(setups)}",
    ]
    if lat:
        pct, tail, beyond = tracing.tail_percentile(lat)
        values["latency_p50_ms"] = statistics.median(lat)
        values["latency_tail_ms"] = tail
        notes.append(f"latency_tail_ms is p{pct:.1f} with {beyond} of {len(lat)} samples beyond it"
                     + ("" if beyond else " (under 20 samples: the maximum)"))
    rates = [audio / wall for job in jobs for audio, wall in job["cycles"]]
    if rates:
        values["throughput_audio_s_per_s"] = statistics.median(rates)
        notes.append(f"throughput_audio_s_per_s is the median of {len(rates)} cycles "
                     f"({min(rates):.4g} to {max(rates):.4g})")
    values["peak_rss_mib"] = max(job["peak_rss_mib"] for job in jobs)
    values["success_rate"] = (attempted - failed) / attempted
    notes.append(f"error_rate: {failed}/{attempted} = {failed / attempted:.4g}")
    return values, notes


def per_layer(untraced: list[dict], traced: list[dict]) -> tuple[dict, list[tracing.Span]]:
    """Per-layer metrics of the traced jobs; none if no traced operation
    completed (the run then has failures)."""
    spans: list[tracing.Span] = []
    ops = 0
    for job in traced:
        offset = len(spans)
        for s in tracing.read_spans(job["spans"]):
            s.parent = s.parent + offset if s.parent >= 0 else -1
            s.request = s.request + ops if s.request >= 0 else -1
            spans.append(s)
        ops += len(job["ops"])
    if ops == 0 or not latencies_ms(untraced):
        return {}, spans
    extras = [job["extra"] for job in traced]
    overhead = statistics.median(latencies_ms(traced)) - statistics.median(latencies_ms(untraced))
    extra = {
        "meter_peak_bytes": max(e["meter_peak_bytes"] for e in extras),
        "tracemalloc_peak_bytes": max(e["tracemalloc_peak_bytes"] for e in extras),
        "gc_pause_s": sum(e["gc_pause_s"] for e in extras),
        "gc_gen2": sum(e["gc_gen2"] for e in extras),
        "final_loss": extras[-1]["final_loss"],
        "trace_overhead_ms": overhead,
    }
    values = tracing.layer_metrics(spans, ops, extra)
    return values, spans


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="manner benchmark: one workload, one result line")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "manner" / "__init__.py").is_file():
        print(f"error: no manner package under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    t0 = time.perf_counter()
    work = ROOT / ".perfbench" / f"work-{args.workload}-s{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    runner = Runner(work, t0)
    try:
        runner.python("gen_inputs.py", "--workload", args.workload, "--seed", str(args.seed),
                      "--out", str(work / "in"))
        if args.trace:
            # Half the time untraced, half traced: the overhead is their difference.
            starts = []
            jobs = runner.jobs(args.workload, args.seconds / 2, traced=False)
            traced = runner.jobs(args.workload, args.seconds / 2, traced=True)
        else:
            starts = [runner.job(args.workload, f"setup{i}", setup_only=True)
                      for i in range(SETUP_INVOCATIONS)]
            jobs = runner.jobs(args.workload, args.seconds, traced=False)
            traced = []
        check = work / "check.json"
        check_args = ["check", "--workload", args.workload, "--work", str(work / "in"),
                      "--result", str(check)]
        for job in jobs + traced:
            check_args += ["--out", job["out"]]
        probes = [job["probe"] for job in jobs if job["probe"]]
        if probes:
            check_args += ["--probe", probes[0]]
        runner.python("worker.py", *check_args)
        verdict = json.loads(check.read_text())
        # Each CLI invocation's exit code is one more checked outcome, and a
        # set-up-only invocation must also have reached the end of set-up.
        invocations = starts + jobs + traced
        attempted = verdict["attempted"] + len(invocations)
        failed = (verdict["failed"] + sum(job["exit_code"] != 0 for job in jobs + traced)
                  + sum(s["exit_code"] != 0 or s["setup_s"] is None for s in starts))

        if args.trace:
            values, spans = per_layer(jobs, traced)
            units = dict(tracing.PER_LAYER)
            span_file = ROOT / ".perfbench" / f"trace-{args.workload}-s{args.seed}.jsonl"
            tracing.write_spans(span_file, spans)
            notes = [f"machine: {jobs[0]['machine']}",
                     f"spans: {len(spans)} written to {span_file.relative_to(ROOT)}",
                     tracing.format_split(tracing.op_split(spans))]
        else:
            setups = [job["setup_s"] for job in invocations if job["setup_s"] is not None]
            values, notes = end_to_end(jobs, setups, attempted, failed)
            units = dict(END_TO_END)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for line in verdict["notes"] + notes:
        print(line)
    for name, value in values.items():
        print(f"{name:<34} {value:>14.6g} {units[name]}")
    print(f"wall time {time.perf_counter() - t0:.1f} s")
    result = {
        "correct": failed == 0 and values.keys() == units.keys(),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
