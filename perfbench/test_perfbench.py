"""Unit tests for the benchmark's own arithmetic and inputs.

    python3 -m pytest perfbench -q
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import gen_inputs  # noqa: E402
import tracing as tr  # noqa: E402
from manner.tensor import Tape, Tensor, backward, mul, tsum  # noqa: E402


def test_tail_is_the_maximum_below_twenty_samples():
    assert tr.tail_percentile([3.0, 1.0, 2.0]) == (100.0, 3.0, 0)
    assert tr.tail_percentile(list(range(19))) == (100.0, 18, 0)


def test_tail_keeps_ten_samples_beyond_it():
    pct, value, beyond = tr.tail_percentile(list(range(20)))
    assert (pct, value, beyond) == (50.0, 9, 10)
    xs = list(range(100, 0, -1))  # order must not matter
    pct, value, beyond = tr.tail_percentile(xs)
    assert (pct, value, beyond) == (90.0, 90, 10)
    assert sum(x > value for x in xs) == 10


def test_tail_needs_samples():
    with pytest.raises(ValueError):
        tr.tail_percentile([])


def span(name, start, end, parent=-1):
    return tr.Span(name, start, end, parent, 0, None)


def test_self_time_subtracts_direct_children_only():
    spans = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 3.0, parent=0),
        span("b", 4.0, 8.0, parent=0),
        span("b.child", 5.0, 6.0, parent=2),
    ]
    assert tr.self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0])


def test_tracer_links_parents_and_closes_spans_a_raise_left_open():
    ticks = iter(range(100))
    tracer = tr.Tracer(clock=lambda: float(next(ticks)))
    outer = tracer.begin("outer")
    inner = tracer.begin("inner")
    tracer.end(inner)
    tracer.end(outer)
    assert [s.parent for s in tracer.spans] == [-1, 0]
    assert tr.self_times(tracer.spans) == [2.0, 1.0]
    with pytest.raises(RuntimeError):
        tracer.end(inner)  # already closed
    a = tracer.begin("a")
    tracer.begin("b")
    tracer.end(a)  # "b" raised and was never closed: it ends with "a"
    assert tracer.stack == []
    assert tracer.spans[3].end == tracer.spans[2].end
    tracer.begin("c")
    tracer.close_all()
    assert tracer.stack == [] and tracer.spans[4].end > tracer.spans[4].start


def test_around_skips_after_when_the_call_raises():
    seen = []

    def fail():
        raise KeyError("x")

    wrapped = tr.around(fail, lambda a, k: seen.append("before") or 7,
                        lambda token, a, k, out: seen.append(("after", token)))
    with pytest.raises(KeyError):
        wrapped()
    assert seen == ["before"]
    ok = tr.around(lambda x: x + 1, lambda a, k: a[0], lambda token, a, k, out: seen.append((token, out)))
    assert ok(1) == 2 and seen[-1] == (1, 2)


@pytest.mark.parametrize(
    "weight, stride, groups, kind",
    [
        ((240, 1, 31), 1, 240, "conv_depthwise"),  # ResCon depthwise, k=31
        ((40, 1, 31), 1, 40, "conv_depthwise"),  # local attention, chunk 64
        ((120, 60, 1), 1, 1, "conv_pointwise"),  # ResCon / entry / gate 1x1
        ((60, 1, 1), 1, 1, "conv_pointwise"),  # first conv from 1 channel
        ((60, 60, 8), 4, 1, "conv_strided"),  # down-sampling conv
        ((1, 2, 7), 1, 1, "conv_other"),  # local attention fuse conv
        ((6, 2, 3), 1, 3, "conv_other"),  # grouped, not depthwise
    ],
)
def test_conv_kind(weight, stride, groups, kind):
    assert tr.conv_kind(weight, stride, groups) == kind


def test_conv_gflop_counts_multiply_adds_twice():
    # depthwise: B*C*Tout*K; pointwise: B*Cout*Cin*T
    assert tr.conv_gflop((2, 8, 100), (8, 1, 31), padding=15, groups=8) == pytest.approx(2 * 2 * 8 * 100 * 31 / 1e9)
    assert tr.conv_gflop((1, 4, 50), (6, 4, 1)) == pytest.approx(2 * 6 * 4 * 50 / 1e9)


def test_traced_op_times_its_backward_under_the_backward_span():
    tracer = tr.Tracer()
    traced_mul = tr.traced(tracer, mul, "tensor.pointwise", backward=True)
    traced_backward = tr.traced(tracer, backward, "tensor.backward")
    x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    with Tape() as tape:
        loss = tsum(traced_mul(x, 2.0))
    traced_backward(tape, loss)
    names = [s.name for s in tracer.spans]
    assert names == ["tensor.pointwise", "tensor.backward", "tensor.pointwise.bwd"]
    assert tracer.spans[2].parent == 1
    np.testing.assert_allclose(x.grad, 2.0)


def test_layer_metrics_cover_every_declared_metric_per_operation():
    spans = [span("nn.conv_depthwise", 0.0, 2.0), span("nn.conv_depthwise.bwd", 2.0, 6.0)]
    values = tr.layer_metrics(spans, ops=2, extra={})
    assert list(values) == [name for name, _ in tr.PER_LAYER]
    assert values["nn.conv_depthwise.fwd_s"] == 1.0
    assert values["nn.conv_depthwise.bwd_s"] == 2.0
    assert values["nn.conv_depthwise.calls"] == 0.5


def test_benchmark_json_lists_the_metrics_the_run_prints():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["per_layer"]] == [name for name, _ in tr.PER_LAYER]
    assert [m["unit"] for m in bench["per_layer"]] == [unit for _, unit in tr.PER_LAYER]
    import run

    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == run.END_TO_END
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


def test_generated_inputs_depend_only_on_the_seed(tmp_path):
    def files(seed, name):
        out = tmp_path / name
        gen_inputs.generate("train-step", seed, out)
        return {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*.wav"))}

    first, again, other = files(3, "a"), files(3, "b"), files(4, "c")
    assert len(first) == 2 * gen_inputs.TRAIN_PAIRS + 2
    assert first == again
    assert first != other


def test_end_to_end_without_operations_keeps_the_metrics_it_has():
    import run

    jobs = [{"ops": [], "cycles": [], "peak_rss_mib": 100.0, "machine": "m"}]
    values, _ = run.end_to_end(jobs, [0.5], attempted=4, failed=3)
    assert values == {"setup_s": 0.5, "peak_rss_mib": 100.0, "success_rate": 0.25}


def test_cycles_run_from_start_to_start_and_drop_a_partial_epoch():
    import worker

    ops = [[0.0, 1.0, 1.0], [2.0, 3.0, 1.0], [5.0, 6.0, 1.0]]
    assert worker.cycles("enhance-short", ops, 6.5) == [(1.0, 2.0), (1.0, 3.0), (1.0, 1.5)]
    # train: two steps an epoch, so the third step's epoch is incomplete
    assert worker.cycles("train-step", ops, 6.5) == [(2.0, 5.0)]
    assert worker.cycles("train-step", ops + [[7.0, 8.0, 1.0]], 9.0) == [(2.0, 5.0), (2.0, 4.0)]
