"""Whole-model tests: parameter accounting, shape flow, and gradients.

The parameter oracle below rebuilds the count from the config arithmetic
alone, layer by layer, so a wiring mistake in the builder cannot hide.
"""

import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import manner.attention
import manner.model
from manner.attention import gated_unit
from manner.checkpoint import save_checkpoint
from manner.loss import weighted_total_loss
from manner.model import (
    ModelConfig,
    build_model,
    conv_bn_relu,
    init_rescon,
    manner_forward,
    num_params,
    rescon,
    trainable,
)
from manner.nn import ParamInit, conv1d, conv_out_length, conv_transpose1d
from manner.tensor import Tape, Tensor, backward, finite_diff_check, reshape, tsum

# ---------------------------------------------------------------------
# parameter-count oracle


def conv_count(cout, cin, k, groups=1):
    return cout * (cin // groups) * k + cout


def bn_count(ch):
    return 2 * ch  # gamma and beta; running stats are buffers


def rescon_count(cin, cout):
    mid = 2 * cin
    return (
        conv_count(mid, cin, 1)
        + bn_count(mid)
        + conv_count(mid, mid, 31, groups=mid)
        + bn_count(mid)
        + conv_count(cout, mid, 1)
        + conv_count(cout, cin, 1)
    )


def ma_count(ch, chunk, use_c=True, use_g=True, use_l=True):
    third = ch // 3
    n = 3 * conv_count(third, ch, 1)  # entry split
    if use_c:
        n += third * (third // 2) * 2  # bias-free squeeze/expand pair
    if use_g:
        n += 4 * chunk * chunk  # bias-free Q/K/V/out
    if use_l:
        n += conv_count(third, third, chunk // 2 - 1, groups=third)
        n += conv_count(1, 2, 7)
    n += 3 * conv_count(ch, ch, 1)  # exit and the two gate convs
    return n


def model_count(cfg: ModelConfig) -> int:
    n, k = cfg.base_channels, cfg.kernel_size
    total = conv_count(n, 1, 1) + bn_count(n)
    for layer in range(1, cfg.depth + 1):
        cin = n * 2 ** (layer - 1)
        cout = n * 2 ** layer
        total += conv_count(cin, cin, k) + bn_count(cin)
        total += rescon_count(cin, cout)
        if cfg.has_attention(layer):
            total += ma_count(cout, cfg.chunk_size, cfg.channel_attention,
                              cfg.global_attention, cfg.local_attention)
    deep = n * 2 ** cfg.depth
    total += conv_count(deep, deep, 1)
    for layer in range(cfg.depth, 0, -1):
        cin = n * 2 ** layer
        cout = n * 2 ** (layer - 1)
        total += rescon_count(cin, cout)
        if cfg.has_attention(layer):
            total += ma_count(cout, cfg.chunk_size, cfg.channel_attention,
                              cfg.global_attention, cfg.local_attention)
        total += conv_count(cout, cout, k) + bn_count(cout)  # up conv keeps width
    total += 2 * conv_count(n, n, 1)  # mask gate pair
    total += conv_count(1, n, 1)
    return total


TOY = dict(base_channels=6, depth=2, chunk_size=8)


# ---------------------------------------------------------------------
# config validation


def test_default_config_is_valid():
    cfg = ModelConfig().validate()
    assert (cfg.kernel_size, cfg.stride, cfg.base_channels, cfg.depth, cfg.chunk_size) == (
        8, 4, 60, 4, 64)
    assert cfg.down_padding == 2


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(kernel_size=2, stride=4),       # kernel below stride
        dict(kernel_size=7, stride=4),       # odd kernel-stride gap
        dict(stride=0),
        dict(depth=0),
        dict(base_channels=00),
        dict(base_channels=8),               # not a multiple of 6
        dict(chunk_size=6),                  # not a multiple of 4
        dict(chunk_size=0),
        dict(variant="tiny"),
    ],
)
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        ModelConfig(**kwargs).validate()


def test_config_dict_roundtrip():
    cfg = ModelConfig(variant="small", local_attention=False)
    assert ModelConfig.from_dict(cfg.to_dict()) == cfg


def test_encoder_channel_ladder():
    cfg = ModelConfig()
    assert [cfg.encoder_channels(i) for i in range(5)] == [60, 120, 240, 480, 960]


def test_attention_placement_by_variant():
    full = ModelConfig()
    small = ModelConfig(variant="small")
    assert [full.has_attention(i) for i in range(1, 5)] == [True] * 4
    assert [small.has_attention(i) for i in range(1, 5)] == [False, False, False, True]


# ---------------------------------------------------------------------
# parameter accounting


def test_param_count_matches_oracle_full():
    cfg = ModelConfig()
    expected = model_count(cfg)
    assert expected == 19_229_573
    params = build_model(cfg, seed=0)
    assert num_params(params) == expected


def test_param_count_matches_oracle_small():
    cfg = ModelConfig(variant="small")
    expected = model_count(cfg)
    assert expected == 17_558_699
    params = build_model(cfg, seed=0)
    assert num_params(params) == expected
    assert expected < 19_229_573


@pytest.mark.parametrize("variant", ["full", "small"])
@pytest.mark.parametrize("base,depth,chunk", [(6, 1, 8), (6, 2, 8), (12, 3, 16)])
def test_param_count_matches_oracle_toy(variant, base, depth, chunk):
    cfg = ModelConfig(base_channels=base, depth=depth, chunk_size=chunk, variant=variant)
    params = build_model(cfg, seed=1)
    assert num_params(params) == model_count(cfg)


@pytest.mark.parametrize(
    "switch", ["channel_attention", "global_attention", "local_attention"]
)
def test_param_count_ablation_delta(switch):
    base = ModelConfig(**TOY)
    cut = ModelConfig(**TOY, **{switch: False})
    per_block = {
        "channel_attention": lambda ch: (ch // 3) * (ch // 6) * 2,
        "global_attention": lambda ch: 4 * 8 * 8,
        "local_attention": lambda ch: conv_count(ch // 3, ch // 3, 3, groups=ch // 3)
        + conv_count(1, 2, 7),
    }[switch]
    # encoder blocks run post-growth, decoder blocks post-shrink
    enc_widths = [base.encoder_channels(i) for i in (1, 2)]
    dec_widths = [base.encoder_channels(i - 1) for i in (1, 2)]
    expected_delta = sum(per_block(ch) for ch in enc_widths + dec_widths)
    full_n = num_params(build_model(base, seed=0))
    cut_n = num_params(build_model(cut, seed=0))
    assert full_n - cut_n == expected_delta


def test_small_variant_drops_shallow_attention_names():
    cfg = ModelConfig(variant="small")
    names = list(build_model(cfg, seed=0))
    assert any(n.startswith("enc4.ma.") for n in names)
    assert any(n.startswith("dec4.ma.") for n in names)
    for layer in (1, 2, 3):
        assert not any(n.startswith(f"enc{layer}.ma.") for n in names)
        assert not any(n.startswith(f"dec{layer}.ma.") for n in names)


def test_bottleneck_sits_at_deepest_width():
    params = build_model(ModelConfig(), seed=0)
    assert params["bottleneck.weight"].shape == (960, 960, 1)


def test_build_is_deterministic():
    a = build_model(ModelConfig(**TOY), seed=5)
    b = build_model(ModelConfig(**TOY), seed=5)
    c = build_model(ModelConfig(**TOY), seed=6)
    for (name, ta), (_, tb) in zip(a.items(), b.items()):
        assert np.array_equal(ta.data, tb.data), name
    assert any(
        not np.array_equal(ta.data, tc.data)
        for (_, ta), (_, tc) in zip(a.items(), c.items())
    )


# ---------------------------------------------------------------------
# shape flow


def test_downsample_length_ladder():
    """64000 divides cleanly through four stride-4 layers down to 250."""
    t = 64000
    for expected in (16000, 4000, 1000, 250):
        t = conv_out_length(t, 8, 4, 2)
        assert t == expected


def test_rescon_changes_width_only():
    rng = np.random.default_rng(0)
    init = ParamInit({}, rng, np.float64)
    init_rescon(init, "grow", 6, 12)
    init_rescon(init, "shrink", 12, 6)
    x = Tensor(rng.standard_normal((2, 6, 40)))
    h = rescon(x, init.params, "grow", training=False)
    assert h.shape == (2, 12, 40)
    assert rescon(h, init.params, "shrink", training=False).shape == (2, 6, 40)


def test_up_conv_inverts_down_conv_shape():
    rng = np.random.default_rng(1)
    cfg = ModelConfig(**TOY)
    init = ParamInit({}, rng, np.float64)
    init.conv("down.conv", 6, 6, 8)
    init.batch_norm("down.bn", 6)
    init.conv_transpose("up.conv", 6, 6, 8)
    init.batch_norm("up.bn", 6)
    x = Tensor(rng.standard_normal((1, 6, 64)))
    resample = dict(stride=cfg.stride, padding=cfg.down_padding)
    h = conv_bn_relu(x, init.params, "down.conv", "down.bn", False, conv1d, **resample)
    assert h.shape == (1, 6, 16)
    up = conv_bn_relu(h, init.params, "up.conv", "up.bn", False, conv_transpose1d, **resample)
    assert up.shape == (1, 6, 64)


def test_mask_gate_range_and_zero_case():
    rng = np.random.default_rng(2)
    params = build_model(ModelConfig(**TOY), seed=0, dtype=np.float64)
    d = Tensor(rng.standard_normal((2, 6, 30)))
    m = gated_unit(d, params, "mask.a", "mask.b").data
    assert m.shape == (2, 6, 30)
    assert np.all(m >= 0.0) and np.all(m < 1.0)

    params["mask.a.weight"].data[:] = 0.0
    params["mask.b.weight"].data[:] = 0.0
    params["mask.b.bias"].data[:] = 0.0
    np.testing.assert_array_equal(gated_unit(d, params, "mask.a", "mask.b").data, np.zeros((2, 6, 30)))


@pytest.mark.parametrize("t", [1, 5, 16, 63, 64, 255, 256, 1000])
@pytest.mark.parametrize("variant", ["full", "small"])
def test_forward_preserves_any_length(t, variant):
    cfg = ModelConfig(**TOY, variant=variant)
    params = build_model(cfg, seed=0)
    x = Tensor(np.random.default_rng(t).standard_normal((1, 1, t)).astype(np.float32))
    out = manner_forward(x, params, cfg)
    assert out.shape == (1, 1, t)
    assert out.dtype == np.float32
    assert np.all(np.isfinite(out.data))


def test_forward_defaults_off_block_length():
    """Default geometry pads 997 up to 1024 internally, then trims back."""
    cfg = ModelConfig()
    params = build_model(cfg, seed=0)
    x = Tensor(0.1 * np.random.default_rng(3).standard_normal((1, 1, 997)).astype(np.float32))
    out = manner_forward(x, params, cfg)
    assert out.shape == (1, 1, 997)


def test_forward_batch_axis():
    cfg = ModelConfig(**TOY)
    params = build_model(cfg, seed=0)
    x = Tensor(np.random.default_rng(4).standard_normal((3, 1, 100)).astype(np.float32))
    assert manner_forward(x, params, cfg).shape == (3, 1, 100)


def test_forward_rejects_bad_input():
    cfg = ModelConfig(**TOY)
    params = build_model(cfg, seed=0)
    with pytest.raises(ValueError):
        manner_forward(Tensor(np.zeros((1, 2, 50), dtype=np.float32)), params, cfg)
    with pytest.raises(ValueError):
        manner_forward(Tensor(np.zeros((4, 50), dtype=np.float32)), params, cfg)
    with pytest.raises(ValueError):
        manner_forward(Tensor(np.zeros((1, 1, 0), dtype=np.float32)), params, cfg)


def test_forward_is_deterministic_in_eval():
    cfg = ModelConfig(**TOY)
    params = build_model(cfg, seed=0)
    x = Tensor(np.random.default_rng(5).standard_normal((1, 1, 200)).astype(np.float32))
    a = manner_forward(x, params, cfg).data
    b = manner_forward(x, params, cfg).data
    assert np.array_equal(a, b)


def test_taped_training_forward_holds_only_what_backward_reads():
    """Full model, B=2 x 1 s, weighted loss: activations held by the tape.

    When every node kept its input and output tensors this forward peaked
    at 636 MiB in tracemalloc; with nodes holding only what their backward
    reads it peaks at about 310 MiB.
    """
    params = build_model(ModelConfig().validate(), seed=0)
    rng = np.random.default_rng(5)
    x, y = (0.1 * rng.standard_normal((2, 2, 16000))).astype(np.float32)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with Tape():
            est = manner_forward(Tensor(x[:, None, :]), params, params.config, training=True)
            weighted_total_loss(Tensor(x), Tensor(y), reshape(est, x.shape))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 450 * 2**20, f"{peak / 2**20:.0f} MiB"


def test_full_eval_forward_of_10_s_peaks_under_195_mib():
    """Eval batch norm folded into its conv, with the ReLU in place on the
    conv's output, and a one-buffer sigmoid write each full-length
    activation once; with a fresh buffer per step this forward peaked at
    220 MiB in tracemalloc (in the mask's sigmoid at [1, 60, 160000])."""
    params = build_model(ModelConfig(), seed=0)
    x = Tensor(0.1 * np.random.default_rng(5).standard_normal((1, 1, 160000)).astype(np.float32))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        manner_forward(x, params, params.config)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 195 * 2**20, f"{peak / 2**20:.1f} MiB"


def count_wrapped_calls(monkeypatch, variant: str, training: bool):
    """(calls by name, params) of one forward, counting the model's calls
    through each module attribute that perfbench/worker.py replaces."""
    calls = Counter()

    def count(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for module, name in ((manner.model, "conv1d"), (manner.model, "conv_transpose1d"),
                         (manner.model, "batch_norm"), (manner.attention, "conv1d")):
        count(module, name)
    params = build_model(ModelConfig(variant=variant), seed=0)
    x = Tensor(0.1 * np.random.default_rng(6).standard_normal((1, 1, 1024)).astype(np.float32))
    with Tape():
        manner_forward(x, params, params.config, training=training)
    return calls, params


def conv_weights(params) -> list[str]:
    return [name for name, t in params.items() if name.endswith(".weight") and t.ndim == 3]


@pytest.mark.parametrize("variant, convs", [("full", 109), ("small", 61)])
def test_every_conv_and_batch_norm_runs_through_the_names_perfbench_wraps(monkeypatch, variant, convs):
    """perfbench's tracer sees an op only if the model reaches it through
    the module attribute it replaces (perfbench/worker.py). A call that
    bypasses the attribute, as an `op=conv1d` default bound at import
    would, runs untraced."""
    calls, params = count_wrapped_calls(monkeypatch, variant, training=True)
    assert calls["conv1d"] + calls["conv_transpose1d"] == len(conv_weights(params)) == convs
    assert calls["batch_norm"] == sum(name.endswith(".gamma") for name in params) == 25
    assert calls["conv_transpose1d"] == sum(name.endswith(".up.conv.weight") for name in params) == 4


@pytest.mark.parametrize("variant, convs", [("full", 109), ("small", 61)])
def test_every_eval_conv_runs_through_the_names_perfbench_wraps(monkeypatch, variant, convs):
    """Eval folds each batch norm into its conv, so the folded convs must
    still be reached through model.conv1d and model.conv_transpose1d, and
    no batch_norm call is left."""
    calls, params = count_wrapped_calls(monkeypatch, variant, training=False)
    assert calls["conv1d"] + calls["conv_transpose1d"] == len(conv_weights(params)) == convs
    assert calls["batch_norm"] == 0
    assert calls["conv_transpose1d"] == 4


def test_eval_forward_leaves_batch_norm_buffers_and_training_moves_them():
    """Eval reads every running_mean and running_var through the fold and
    leaves each bit-identical; a training forward updates every one."""
    params = build_model(ModelConfig(variant="small"), seed=0)
    names = [name for name in params if name.endswith((".running_mean", ".running_var"))]
    assert len(names) == 50
    before = {name: params[name].data.copy() for name in names}
    x = Tensor(0.1 * np.random.default_rng(7).standard_normal((1, 1, 1024)).astype(np.float32))
    manner_forward(x, params, params.config, training=False)
    for name in names:
        np.testing.assert_array_equal(params[name].data, before[name], err_msg=name)
    manner_forward(x, params, params.config, training=True)
    assert [name for name in names if np.array_equal(params[name].data, before[name])] == []


# ---------------------------------------------------------------------
# gradients


def model_gradcheck_error(batch: int, training: bool) -> float:
    cfg = ModelConfig(**TOY)
    params = build_model(cfg, seed=0, dtype=np.float64)
    rng = np.random.default_rng(6)
    # fresh biases are zero, which parks relu inputs and pooled maxima
    # exactly on their kinks where central differences are undefined
    for t in trainable(params).values():
        if not t.data.any():
            t.data += rng.uniform(0.05, 0.15, size=t.shape)
    x = Tensor(rng.standard_normal((batch, 1, 64)), requires_grad=True)
    tensors = [x] + list(trainable(params).values())

    def f(*_):
        return tsum(manner_forward(x, params, cfg, training=training))

    return finite_diff_check(f, tensors, max_checks_per_input=2, rng=np.random.default_rng(0))


def test_model_gradcheck():
    """Finite differences through the whole eval net, batch norm folded
    into its convs, on a toy geometry."""
    assert model_gradcheck_error(1, training=False) < 1e-6


def test_model_gradcheck_training():
    """The same through the training forward that Adam differentiates:
    batch statistics, each batch norm's ReLU in its one node, and the
    buffers its backward reads after the forward has moved on."""
    assert model_gradcheck_error(2, training=True) < 1e-6


def test_every_gradient_is_c_contiguous_in_its_parameter_shape():
    """Adam walks each gradient beside its parameter and moments; a
    transposed view (a conv weight gradient written as gw.T) makes it read
    most of the model against memory order."""
    params = build_model(ModelConfig(), seed=0)
    rng = np.random.default_rng(5)
    x, y = (0.1 * rng.standard_normal((2, 2, 16000))).astype(np.float32)
    with Tape() as tape:
        est = manner_forward(Tensor(x[:, None, :]), params, params.config, training=True)
        loss, _ = weighted_total_loss(Tensor(x), Tensor(y), reshape(est, x.shape))
    backward(tape, loss)
    bad = [name for name, t in trainable(params).items()
           if t.grad.shape != t.shape or not t.grad.flags.c_contiguous]
    assert not bad, f"{len(bad)} of {len(trainable(params))}: {bad[:5]}"


# ---------------------------------------------------------------------
# page faults of short forwards


FAULTS_SCRIPT = """
import resource, sys
import numpy as np
from manner.checkpoint import load_checkpoint
from manner.model import manner_forward
from manner.tensor import Tensor
params = load_checkpoint(sys.argv[1])[0]
x = Tensor(0.1 * np.random.default_rng(0).standard_normal((1, 1, 16000)).astype(np.float32))
manner_forward(x, params, params.config, training=False)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(5):
    manner_forward(x, params, params.config, training=False)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def test_short_forwards_after_load_reuse_heap_pages(tmp_path):
    """Five small-model 1 s forwards after a checkpoint load and one warmup
    take at most 100 minor page faults in a fresh process. The float64 weight
    zeros ParamInit frees while load_checkpoint builds the model lift glibc's
    mmap threshold above the forward's temporaries, which then reuse heap
    pages; built as float32 zeros they left ~3,000 faults per forward."""
    path = tmp_path / "small.ckpt"
    save_checkpoint(path, build_model(ModelConfig(variant="small"), seed=0))
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, MANNER_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", FAULTS_SCRIPT, str(path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) <= 100
