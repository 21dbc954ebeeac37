"""Span tracer for the traced benchmark run, and the arithmetic behind it.

The traced run wraps manner's public functions at the modules that import
them (patching `manner.model.conv1d` as well as `manner.nn.conv1d`, since a
`from ... import` copies the reference). Each call becomes a span: name,
start, end, parent span, and the id of the operation (file or training
step) it served. Primitive ops also get their recorded tape node's
`backward_fn` wrapped, so backward time lands on the same op kind.

Spans stay in memory and are written once, at the end. Per-layer metrics
are computed from them here: every additive figure (seconds, calls, bytes,
GFLOP, tape nodes) is divided by the number of operations the run
completed, so runs that fit a different number of operations compare.

Run as a script on a written span file to print the op-kind split:

    python3 perfbench/tracing.py .perfbench/trace-train-step-s1.jsonl
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

MIB = 2.0 ** 20

POINTWISE = ("add", "sub", "mul", "div", "neg", "tabs", "tlog", "tsqrt", "maximum",
             "relu", "sigmoid", "tanh")
NN_KINDS = ("conv_depthwise", "conv_pointwise", "conv_strided", "conv_other",
            "conv_transpose", "batch_norm", "linear")
FLOP_KINDS = ("conv_depthwise", "conv_pointwise")

# (metric, unit); the order is the order printed and listed in BENCHMARK.json.
PER_LAYER: list[tuple[str, str]] = [
    ("tensor.backward.self_s", "s"),
    ("tensor.tape_nodes", "count"),
    ("tensor.pointwise.fwd_s", "s"),
    ("tensor.pointwise.bwd_s", "s"),
    ("tensor.pointwise.calls", "count"),
    ("tensor.matmul.fwd_s", "s"),
    ("tensor.matmul.bwd_s", "s"),
    ("tensor.softmax.fwd_s", "s"),
    ("tensor.softmax.bwd_s", "s"),
    ("tensor.meter_peak_mib", "MiB"),
    ("tensor.tracemalloc_peak_mib", "MiB"),
    ("tensor.meter_coverage", "ratio"),
    ("tensor.gc_pause_s", "s"),
    ("tensor.gc_gen2_collections", "count"),
]
for _kind in NN_KINDS:
    PER_LAYER += [(f"nn.{_kind}.fwd_s", "s"), (f"nn.{_kind}.bwd_s", "s"),
                  (f"nn.{_kind}.calls", "count")]
    if _kind in FLOP_KINDS:
        PER_LAYER.append((f"nn.{_kind}.gflop", "GFLOP"))
PER_LAYER += [
    ("chunker.chunk.fwd_s", "s"),
    ("chunker.chunk.bwd_s", "s"),
    ("chunker.merge.fwd_s", "s"),
    ("chunker.merge.bwd_s", "s"),
    ("attention.ma_block.s", "s"),
    ("attention.ma_block.self_s", "s"),
    ("attention.channel.s", "s"),
    ("attention.global.s", "s"),
    ("attention.local.s", "s"),
    ("attention.global.scores_mib", "MiB"),
    ("model.forward.s", "s"),
    ("model.forward.self_s", "s"),
    ("model.rescon.s", "s"),
    ("loss.weighted_total_loss.s", "s"),
    ("loss.stft_magnitude.fwd_s", "s"),
    ("loss.stft_magnitude.bwd_s", "s"),
    ("loss.stft_magnitude.calls", "count"),
    ("trainer.step.forward_s", "s"),
    ("trainer.step.loss_s", "s"),
    ("trainer.step.backward_s", "s"),
    ("trainer.step.adam_s", "s"),
    ("trainer.data_s", "s"),
    ("trainer.val_s", "s"),
    ("trainer.final_loss", "loss"),
    ("audio.read_wav.s", "s"),
    ("audio.read_wav.calls", "count"),
    ("audio.read_wav.bytes", "bytes"),
    ("audio.write_wav.s", "s"),
    ("audio.write_wav.calls", "count"),
    ("audio.write_wav.bytes", "bytes"),
    ("audio.tempo_perturb.s", "s"),
    ("audio.segment.s", "s"),
    ("audio.pair_corpus.s", "s"),
    ("checkpoint.save.s", "s"),
    ("checkpoint.save.bytes", "bytes"),
    ("checkpoint.save.calls", "count"),
    ("checkpoint.load.s", "s"),
    ("checkpoint.load.bytes", "bytes"),
    ("bench.trace_overhead_ms", "ms"),
]


# ---------------------------------------------------------------------
# pure arithmetic, unit-tested


def tail_percentile(samples) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it) for the latency tail.

    The tail is the highest percentile that still has at least ten samples
    beyond it: the 11th-largest sample, at percentile 100 * (n - 10) / n.
    Below 20 samples that percentile would fall under the median, so the
    maximum is reported instead, with no samples beyond it.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    if n < 20:
        return 100.0, xs[-1], 0
    return 100.0 * (n - 10) / n, xs[n - 11], 10


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans are `Span`s whose `parent` indexes into the same list. Children of
    one parent run one after another, so their durations simply add.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


def conv_kind(weight_shape, stride: int = 1, groups: int = 1) -> str:
    """Classify a conv1d call by weight [Cout, Cin/groups, K], stride, groups."""
    cout, cin_g, k = weight_shape
    if groups > 1 and cin_g == 1 and groups == cout:
        return "conv_depthwise"
    if groups == 1 and k == 1 and stride == 1:
        return "conv_pointwise"
    if stride > 1:
        return "conv_strided"
    return "conv_other"


def conv_gflop(x_shape, weight_shape, stride: int = 1, padding: int = 0, groups: int = 1) -> float:
    """Multiply-adds of one conv1d forward, counted as 2 flops each."""
    b, _, t = x_shape
    cout, cin_g, k = weight_shape
    tout = (t + 2 * padding - k) // stride + 1
    return 2.0 * b * cout * cin_g * k * tout / 1e9


# ---------------------------------------------------------------------
# recording


class Span:
    __slots__ = ("name", "start", "end", "parent", "request", "attrs")

    def __init__(self, name, start, end, parent, request, attrs):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.request = request
        self.attrs = attrs

    def to_json(self) -> str:
        return json.dumps({"name": self.name, "start": self.start, "end": self.end,
                           "parent": self.parent, "request": self.request, "attrs": self.attrs})

    @classmethod
    def from_json(cls, line: str) -> "Span":
        d = json.loads(line)
        return cls(d["name"], d["start"], d["end"], d["parent"], d["request"], d["attrs"])


class Tracer:
    """In-memory span recorder with a stack for parent links."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.request = -1  # -1 until the first operation starts
        self.gc_pause = 0.0
        self.gc_gen2 = 0
        self._gc_t0 = 0.0

    def begin(self, name: str, attrs=None) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(Span(name, self.clock(), 0.0, parent, self.request, attrs))
        idx = len(self.spans) - 1
        self.stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        """Close span `idx` and any span opened inside it that a raised
        exception left open."""
        if idx not in self.stack:
            raise RuntimeError(f"span {self.spans[idx].name} is not open")
        now = self.clock()
        while True:
            top = self.stack.pop()
            self.spans[top].end = now
            if top == idx:
                return

    def close_all(self) -> None:
        while self.stack:
            self.end(self.stack[0])

    def on_gc(self, phase: str, info: dict) -> None:
        """gc.callbacks hook: total collector pause and full collections."""
        if phase == "start":
            self._gc_t0 = self.clock()
        else:
            self.gc_pause += self.clock() - self._gc_t0
            if info.get("generation") == 2:
                self.gc_gen2 += 1



def write_spans(path, spans) -> None:
    with open(path, "w") as f:
        for s in spans:
            f.write(s.to_json() + "\n")


def around(fn, before=None, after=None):
    """Wrap `fn`: `before(args, kwargs)` runs ahead of each call and its
    result, the token, goes to `after(token, args, kwargs, out)` once `fn`
    has returned. If `fn` raises, `after` is skipped."""

    def wrapper(*args, **kwargs):
        token = before(args, kwargs) if before is not None else None
        out = fn(*args, **kwargs)
        if after is not None:
            after(token, args, kwargs, out)
        return out

    return wrapper


def patch(module, name: str, before=None, after=None) -> None:
    """Replace `module.name` with `around(module.name, before, after)`."""
    setattr(module, name, around(getattr(module, name), before, after))


def traced(tracer: Tracer, fn, label, backward: bool = False, after=None):
    """Wrap `fn` in a span.

    `label` is a name or a callable(args, kwargs) returning (name, attrs);
    `after(args, kwargs, out)` returns attrs known only once `fn` returned.
    With `backward`, the output's tape node gets its backward_fn timed under
    `<name>.bwd`.
    """

    def begin(args, kwargs):
        name, attrs = label(args, kwargs) if callable(label) else (label, None)
        return tracer.begin(name, attrs)

    def end(idx, args, kwargs, out):
        tracer.end(idx)
        span = tracer.spans[idx]
        if after is not None:
            span.attrs = {**(span.attrs or {}), **after(args, kwargs, out)}
        if backward:
            _trace_backward(tracer, out, span.name + ".bwd")

    return around(fn, begin, end)


def _trace_backward(tracer: Tracer, out, name: str) -> None:
    tensor = out if hasattr(out, "node") else out.data  # chunk() returns a ChunkedView
    node = getattr(tensor, "node", None)
    if node is not None:
        node.backward_fn = around(node.backward_fn, lambda args, kwargs: tracer.begin(name),
                                  lambda idx, args, kwargs, out: tracer.end(idx))


# ---------------------------------------------------------------------
# aggregation


def _ancestors(spans, i) -> list[str]:
    names = []
    p = spans[i].parent
    while p >= 0:
        names.append(spans[p].name)
        p = spans[p].parent
    return names


def layer_metrics(spans, ops: int, extra: dict) -> dict[str, float]:
    """Per-layer metrics from the spans of a run that completed `ops` operations.

    `extra` supplies what spans cannot: meter/tracemalloc peaks (bytes),
    gc figures, the final training loss and the tracing overhead (ms).
    """
    if ops < 1:
        raise ValueError("a traced run must complete at least one operation")
    selfs = self_times(spans)
    total = defaultdict(float)
    self_total = defaultdict(float)
    calls = defaultdict(int)
    attr = defaultdict(float)
    scores_peak = 0.0
    step_fwd = step_loss = 0.0
    for i, s in enumerate(spans):
        d = s.end - s.start
        total[s.name] += d
        self_total[s.name] += selfs[i]
        calls[s.name] += 1
        for key, val in (s.attrs or {}).items():
            if key == "scores_mib":
                scores_peak = max(scores_peak, val)
            else:
                attr[(s.name, key)] += val
        if s.name == "model.forward" and s.attrs["training"]:
            step_fwd += d
        elif s.name == "loss.weighted_total_loss" and "trainer.val" not in _ancestors(spans, i):
            step_loss += d

    per_op = {}

    def put(name, value):
        per_op[name] = value / ops

    put("tensor.backward.self_s", self_total["tensor.backward"])
    put("tensor.tape_nodes", attr[("tensor.backward", "nodes")])
    for kind in ("pointwise", "matmul", "softmax"):
        put(f"tensor.{kind}.fwd_s", total[f"tensor.{kind}"])
        put(f"tensor.{kind}.bwd_s", total[f"tensor.{kind}.bwd"])
    put("tensor.pointwise.calls", calls["tensor.pointwise"])
    put("tensor.gc_pause_s", extra.get("gc_pause_s", 0.0))
    put("tensor.gc_gen2_collections", extra.get("gc_gen2", 0))
    for kind in NN_KINDS:
        put(f"nn.{kind}.fwd_s", total[f"nn.{kind}"])
        put(f"nn.{kind}.bwd_s", total[f"nn.{kind}.bwd"])
        put(f"nn.{kind}.calls", calls[f"nn.{kind}"])
        if kind in FLOP_KINDS:
            put(f"nn.{kind}.gflop", attr[(f"nn.{kind}", "gflop")])
    for part in ("chunk", "merge"):
        put(f"chunker.{part}.fwd_s", total[f"chunker.{part}"])
        put(f"chunker.{part}.bwd_s", total[f"chunker.{part}.bwd"])
    put("attention.ma_block.s", total["attention.ma_block"])
    put("attention.ma_block.self_s", self_total["attention.ma_block"])
    for view in ("channel", "global", "local"):
        put(f"attention.{view}.s", total[f"attention.{view}"])
    put("model.forward.s", total["model.forward"])
    put("model.forward.self_s", self_total["model.forward"])
    put("model.rescon.s", total["model.rescon"])
    put("loss.weighted_total_loss.s", total["loss.weighted_total_loss"])
    put("loss.stft_magnitude.fwd_s", total["loss.stft_magnitude"])
    put("loss.stft_magnitude.bwd_s", total["loss.stft_magnitude.bwd"])
    put("loss.stft_magnitude.calls", calls["loss.stft_magnitude"])
    put("trainer.step.forward_s", step_fwd)
    put("trainer.step.loss_s", step_loss)
    put("trainer.step.backward_s", total["tensor.backward"])
    put("trainer.step.adam_s", total["trainer.step.adam"])
    put("trainer.data_s", total["audio.tempo_perturb"] + total["audio.segment"])
    put("trainer.val_s", total["trainer.val"])
    for io in ("read_wav", "write_wav"):
        put(f"audio.{io}.s", total[f"audio.{io}"])
        put(f"audio.{io}.calls", calls[f"audio.{io}"])
        put(f"audio.{io}.bytes", attr[(f"audio.{io}", "bytes")])
    for name in ("tempo_perturb", "segment", "pair_corpus"):
        put(f"audio.{name}.s", total[f"audio.{name}"])
    put("checkpoint.save.s", total["checkpoint.save"])
    put("checkpoint.save.bytes", attr[("checkpoint.save", "bytes")])
    put("checkpoint.save.calls", calls["checkpoint.save"])
    put("checkpoint.load.s", total["checkpoint.load"])
    put("checkpoint.load.bytes", attr[("checkpoint.load", "bytes")])

    meter = extra.get("meter_peak_bytes", 0) / MIB
    traced_peak = extra.get("tracemalloc_peak_bytes", 0) / MIB
    per_op.update({
        "tensor.meter_peak_mib": meter,
        "tensor.tracemalloc_peak_mib": traced_peak,
        "tensor.meter_coverage": meter / traced_peak if traced_peak else 0.0,
        "attention.global.scores_mib": scores_peak,
        "trainer.final_loss": extra.get("final_loss", 0.0),
        "bench.trace_overhead_ms": extra.get("trace_overhead_ms", 0.0),
    })
    return {name: per_op[name] for name, _ in PER_LAYER}


def op_split(spans) -> list[tuple[str, float, float]]:
    """(op kind, forward s, backward s) over nn kinds, attention matmul and
    softmax, pointwise ops and the STFT magnitude, largest first."""
    kinds = [f"nn.{k}" for k in NN_KINDS] + [
        "tensor.matmul", "tensor.softmax", "tensor.pointwise", "loss.stft_magnitude"]
    fwd = defaultdict(float)
    bwd = defaultdict(float)
    for s in spans:
        base = s.name[:-4] if s.name.endswith(".bwd") else s.name
        if base in kinds:
            (bwd if s.name.endswith(".bwd") else fwd)[base] += s.end - s.start
    rows = [(k, fwd[k], bwd[k]) for k in kinds if fwd[k] or bwd[k]]
    return sorted(rows, key=lambda r: -(r[1] + r[2]))


def format_split(rows) -> str:
    grand = sum(f + b for _, f, b in rows) or 1.0
    lines = [f"{'op kind':<22} {'fwd s':>9} {'bwd s':>9} {'share':>7}"]
    for kind, f, b in rows:
        lines.append(f"{kind:<22} {f:>9.3f} {b:>9.3f} {100.0 * (f + b) / grand:>6.1f}%")
    return "\n".join(lines)


def read_spans(path) -> list[Span]:
    with open(path) as f:
        return [Span.from_json(line) for line in f if line.strip()]


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python3 perfbench/tracing.py <spans.jsonl>")
    print(format_split(op_split(read_spans(sys.argv[1]))))
