"""One benchmark job in its own process, and the output checks.

`measure` runs one user invocation of the `manner` CLI in-process
(`manner enhance DIR` or `manner train --config`), so the process's
`ru_maxrss` is that job's peak and nothing else's. Thin wrappers at the
CLI's and trainer's import sites timestamp each operation:

- enhance: one file, from `read_wav` entry to `write_wav` return;
- train: one step, from the training-mode `manner_forward` entry to the
  `adam_step` return (forward, loss, backward, Adam).

Set-up is timed from CLI entry to the start of the first operation
(enhance: at the first `read_wav`; train: at the `init_adam` return). With
`--setup-only` the invocation is stopped right there, which gives a run
more set-up samples of the same code path at little cost. With `--trace`,
every traced layer is wrapped as well (see tracing.py), with tracemalloc,
the meter peak and gc callbacks switched on.

An enhance job also keeps the float32 samples of its first output, as the
CLI handed them to `write_wav`, for the float64 probe of `check`.

`check` verifies the outputs of the measured jobs and reports how many
checked operations failed.

The parent (run.py) sets MANNER_THREADS and friends before starting this
process, so manner is imported before numpy here.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import manner  # noqa: E402  (applies MANNER_THREADS before numpy loads)
import numpy as np  # noqa: E402

import gen_inputs  # noqa: E402
import tracing as tr  # noqa: E402

# Relative L2 distance allowed between the float32 output of the CLI and a
# float64 forward of the same file. float32 rounding through the U-net
# measures ~4e-7 on 1 s and 10 s files.
PROBE_RTOL = 1e-4


class SetupDone(BaseException):
    """Stops a --setup-only invocation once its set-up is timed. A
    BaseException, so that no handler in the program catches it."""


class OpClock:
    """Start/end timestamps of each operation and the end of set-up."""

    def __init__(self, tracer: tr.Tracer | None, setup_only: bool = False):
        self.tracer = tracer
        self.setup_only = setup_only
        self.ops: list[list[float]] = []  # [start, end, audio seconds]
        self.entry = 0.0
        self.setup_end = None
        self.first_output = None  # (input path, float32 samples) of the first file

    def start(self, audio_s: float = 0.0) -> None:
        self.ops.append([time.perf_counter(), math.nan, audio_s])
        if self.tracer is not None:
            self.tracer.request = len(self.ops) - 1

    def finish(self) -> None:
        self.ops[-1][1] = time.perf_counter()

    def setup_done(self) -> None:
        if self.setup_end is None:
            self.setup_end = time.perf_counter()
            if self.setup_only:
                raise SetupDone


def install_op_clock(workload: str, clock: OpClock) -> None:
    import manner.cli as cli
    import manner.trainer as trainer

    if workload in gen_inputs.ENHANCE:
        def file_start(args, kwargs):
            clock.setup_done()
            clock.start()

        def file_read(_, args, kwargs, clip):
            clock.ops[-1][2] = clip.duration
            if len(clock.ops) == 1:
                clock.first_output = (str(args[0]), None)

        def file_written(_, args, kwargs, out):
            clock.finish()
            if len(clock.ops) == 1:
                clock.first_output = (clock.first_output[0], args[1].samples)

        tr.patch(cli, "read_wav", file_start, file_read)
        tr.patch(cli, "write_wav", after=file_written)
    else:
        def step_start(args, kwargs):
            if kwargs.get("training"):
                x = args[0]
                clock.start(x.shape[0] * x.shape[-1] / gen_inputs.RATE)

        tr.patch(trainer, "manner_forward", step_start)
        tr.patch(trainer, "adam_step", after=lambda *_: clock.finish())
        tr.patch(trainer, "init_adam", after=lambda *_: clock.setup_done())


def install_tracer(tracer: tr.Tracer) -> None:
    """Wrap every traced layer at each module that imported it."""
    import manner.attention as attention
    import manner.audio as audio
    import manner.cli as cli
    import manner.loss as loss
    import manner.model as model
    import manner.tensor as tensor
    import manner.trainer as trainer

    def wrap(module, name, label, backward=False, after=None):
        fn = getattr(module, name)
        setattr(module, name, tr.traced(tracer, fn, label, backward, after))

    for module in (tensor, attention, model, loss):
        for name in tr.POINTWISE:
            if hasattr(module, name):
                wrap(module, name, "tensor.pointwise", backward=True)
    wrap(attention, "matmul", "tensor.matmul", backward=True)
    wrap(attention, "softmax", "tensor.softmax", backward=True)

    def conv_label(args, kwargs):
        x, w, *rest = args
        opts = dict(zip(("bias", "stride", "padding", "groups"), rest), **kwargs)
        stride, padding, groups = opts.get("stride", 1), opts.get("padding", 0), opts.get("groups", 1)
        kind = tr.conv_kind(w.shape, stride, groups)
        attrs = None
        if kind in tr.FLOP_KINDS:
            attrs = {"gflop": tr.conv_gflop(x.shape, w.shape, stride, padding, groups)}
        return f"nn.{kind}", attrs

    for module in (model, attention):
        wrap(module, "conv1d", conv_label, backward=True)
    wrap(model, "conv_transpose1d", "nn.conv_transpose", backward=True)
    wrap(model, "batch_norm", "nn.batch_norm", backward=True)
    wrap(attention, "linear", "nn.linear", backward=True)

    wrap(attention, "chunk", "chunker.chunk", backward=True)
    wrap(attention, "merge", "chunker.merge", backward=True)

    def global_label(args, kwargs):
        b, ch, p, _ = args[0].data.shape
        scores = b * ch * p * p * args[0].data.dtype.itemsize / tr.MIB
        return "attention.global", {"scores_mib": scores}

    wrap(model, "ma_block", "attention.ma_block")
    wrap(attention, "channel_attention", "attention.channel")
    wrap(attention, "global_attention", global_label)
    wrap(attention, "local_attention", "attention.local")

    def forward_label(args, kwargs):
        return "model.forward", {"training": bool(kwargs.get("training"))}

    wrap(cli, "manner_forward", forward_label)
    wrap(trainer, "manner_forward", forward_label)
    wrap(model, "rescon", "model.rescon")

    wrap(trainer, "weighted_total_loss", "loss.weighted_total_loss")
    wrap(loss, "stft_magnitude", "loss.stft_magnitude", backward=True)

    wrap(trainer, "backward", lambda a, k: ("tensor.backward", {"nodes": len(a[0])}))
    wrap(trainer, "adam_step", "trainer.step.adam")
    wrap(trainer, "_evaluate", "trainer.val")
    wrap(trainer, "tempo_perturb", "audio.tempo_perturb")
    wrap(trainer, "segment", "audio.segment")

    def sized(name):
        return lambda args, kwargs: (name, {"bytes": os.path.getsize(args[0])})

    def written(args, kwargs, out):
        return {"bytes": os.path.getsize(args[0])}

    wrap(cli, "read_wav", sized("audio.read_wav"))
    wrap(audio, "read_wav", sized("audio.read_wav"))
    wrap(cli, "write_wav", "audio.write_wav", after=written)
    wrap(cli, "pair_corpus", "audio.pair_corpus")
    wrap(trainer, "save_checkpoint", "checkpoint.save", after=written)
    wrap(cli, "load_checkpoint", sized("checkpoint.load"))


def _checkpoint(workload: str, work: Path) -> Path:
    return work / f"{gen_inputs.ENHANCE[workload][0]}.ckpt"


def cli_args(workload: str, work: Path, out: Path) -> list[str]:
    if workload in gen_inputs.ENHANCE:
        return ["enhance", str(work / "noisy"), "--checkpoint", str(_checkpoint(workload, work)),
                "--out", str(out)]
    return ["train", "--config", str(work / "train.cfg"), "--out", str(out)]


def measure(workload: str, work: Path, out: Path, result_path: Path,
            trace_path: Path | None, setup_only: bool) -> dict:
    import gc
    import tracemalloc

    from manner import cli
    from manner.tensor import meter

    tracer = tr.Tracer() if trace_path is not None else None
    clock = OpClock(tracer, setup_only)
    if tracer is not None:
        install_tracer(tracer)
        gc.callbacks.append(tracer.on_gc)
        tracemalloc.start()
        meter.reset_peak()
    install_op_clock(workload, clock)

    clock.entry = time.perf_counter()
    try:
        code = cli.main(cli_args(workload, work, out))
    except SetupDone:
        code = 0
    end = time.perf_counter()
    ops = [op for op in clock.ops if not math.isnan(op[1])]
    result = {
        "exit_code": code,
        "ops": ops,
        "setup_s": clock.setup_end - clock.entry if clock.setup_end is not None else None,
        "cycles": cycles(workload, ops, end),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "machine": fingerprint(),
        "probe": None,
    }
    if clock.first_output is not None and clock.first_output[1] is not None:
        result["probe"] = str(result_path.with_suffix(".npz"))
        np.savez(result["probe"], input=clock.first_output[0], samples=clock.first_output[1])
    if tracer is not None:
        log = out / "train_log.txt"
        result["extra"] = {
            "tracemalloc_peak_bytes": tracemalloc.get_traced_memory()[1],
            "meter_peak_bytes": meter.peak,
            "gc_pause_s": tracer.gc_pause,
            "gc_gen2": tracer.gc_gen2,
            "final_loss": _logged_losses(out)[-1] if log.is_file() and ops else 0.0,
        }
        tracer.close_all()
        tr.write_spans(trace_path, tracer.spans)
    return result


def cycles(workload: str, ops: list[list[float]], end: float) -> list[tuple[float, float]]:
    """(audio seconds, wall seconds) of each complete cycle of work: one file
    for enhance, one epoch for train. A cycle runs from its first operation's
    start to the next cycle's (or the invocation's end), so what the program
    does between operations (validation, checkpoints, data preparation)
    counts against it."""
    per = 1 if workload in gen_inputs.ENHANCE else gen_inputs.TRAIN_STEPS // gen_inputs.TRAIN_EPOCHS
    starts = [op[0] for op in ops] + [end]
    return [(sum(op[2] for op in ops[i : i + per]), starts[i + per] - starts[i])
            for i in range(0, len(ops) - per + 1, per)]


def fingerprint() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"nproc {os.cpu_count()}, Python {sys.version.split()[0]}, numpy {np.__version__}, "
            f"{blas['name']} {blas['version']}, MANNER_THREADS={os.environ.get('MANNER_THREADS')}")


def _logged_losses(out: Path) -> list[float]:
    lines = (out / "train_log.txt").read_text().splitlines()
    return [float(line.split("total=")[1].split()[0]) for line in lines if line.startswith("step=")]


# ---------------------------------------------------------------------
# output checks


def check_enhance(workload: str, work: Path, outs: list[Path],
                  probe: Path | None) -> tuple[int, int, list[str]]:
    from scipy.io import wavfile

    from manner.audio import read_wav
    from manner.checkpoint import load_checkpoint
    from manner.model import manner_forward
    from manner.tensor import Tensor

    attempted = failed = 0
    notes = []
    inputs = sorted((work / "noisy").glob("*.wav"))
    for out in outs:
        for path in inputs:
            attempted += 1
            target = out / path.name
            problem = None
            try:
                _, x = wavfile.read(path)
                _, y = wavfile.read(target)
            except (OSError, ValueError) as exc:
                problem = f"unreadable ({exc})"
            else:
                if y.shape != x.shape:
                    problem = f"length {y.shape} != input {x.shape}"
                elif not np.all(np.isfinite(y.astype(np.float64))):
                    problem = "non-finite samples"
            if problem:
                failed += 1
                notes.append(f"{target}: {problem}")

    # Probe: the float32 samples a timed job's CLI wrote for its first file,
    # against a float64 forward of the same (full-length) file.
    attempted += 1
    if probe is None:
        failed += 1
        notes.append("probe: no job enhanced a file")
        return attempted, failed, notes
    with np.load(probe) as saved:
        source, y32 = Path(str(saved["input"])), saved["samples"].astype(np.float64)
    params64, _, _, _ = load_checkpoint(_checkpoint(workload, work), dtype=np.float64)
    x64 = Tensor(read_wav(source).samples.astype(np.float64)[None, None, :])
    y64 = manner_forward(x64, params64, params64.config, training=False).data[0, 0]
    y64 = np.clip(y64, -1.0, 1.0)
    rel = float(np.linalg.norm(y32 - y64) / max(np.linalg.norm(y64), 1e-30))
    notes.append(f"probe {source.name} ({y64.size / gen_inputs.RATE:g} s): float32 vs float64 "
                 f"relative L2 {rel:.3g} (tolerance {PROBE_RTOL:g})")
    if not rel <= PROBE_RTOL:
        failed += 1
    return attempted, failed, notes


def check_train(outs: list[Path]) -> tuple[int, int, list[str]]:
    """Finite losses, a reloadable last.ckpt at the logged step, and a
    train_log.txt byte-identical to the first job's (same seed)."""
    from manner.checkpoint import load_checkpoint
    from manner.errors import MannerError

    def log_of(out):
        path = out / "train_log.txt"
        return path.read_bytes() if path.is_file() else b""

    reference = log_of(outs[0])
    attempted = failed = 0
    notes = []
    for out in outs:
        losses = _logged_losses(out) if log_of(out) else []
        attempted += gen_inputs.TRAIN_STEPS
        bad = gen_inputs.TRAIN_STEPS - sum(math.isfinite(v) for v in losses[: gen_inputs.TRAIN_STEPS])
        if bad or len(losses) != gen_inputs.TRAIN_STEPS:
            notes.append(f"{out.name}: {len(losses)} logged steps, {bad} missing or non-finite")
        failed += bad

        attempted += 1
        try:
            _, _, step, _ = load_checkpoint(out / "last.ckpt")
        except MannerError as exc:
            step = f"unreadable ({exc})"
        if step != len(losses):
            failed += 1
            notes.append(f"{out.name}: last.ckpt step {step} != {len(losses)} logged steps")

        if out != outs[0]:
            attempted += 1
            if not reference or log_of(out) != reference:
                failed += 1
                notes.append(f"{out.name}: train_log.txt differs from {outs[0].name}'s")
    notes.append(f"train_log.txt of {len(outs)} same-seed jobs compared byte for byte")
    return attempted, failed, notes


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="one benchmark job, or the output checks")
    p.add_argument("mode", choices=["measure", "check"])
    p.add_argument("--workload", required=True)
    p.add_argument("--work", required=True, help="directory gen_inputs.py wrote")
    p.add_argument("--out", action="append", required=True,
                   help="job output directory (check accepts several)")
    p.add_argument("--trace", default=None, help="measure: write spans here and trace layers")
    p.add_argument("--setup-only", action="store_true",
                   help="measure: stop the invocation when its set-up is done")
    p.add_argument("--probe", default=None, help="check: float32 output a job kept (.npz)")
    p.add_argument("--result", required=True, help="JSON file for the result")
    args = p.parse_args(argv)
    work = Path(args.work)
    outs = [Path(o) for o in args.out]
    if args.mode == "measure":
        result = measure(args.workload, work, outs[0], Path(args.result),
                         Path(args.trace) if args.trace else None, args.setup_only)
    else:
        if args.workload == "train-step":
            attempted, failed, notes = check_train(outs)
        else:
            attempted, failed, notes = check_enhance(args.workload, work, outs,
                                                     Path(args.probe) if args.probe else None)
        result = {"attempted": attempted, "failed": failed, "notes": notes}
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
