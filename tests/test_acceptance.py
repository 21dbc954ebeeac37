"""Release checklist: one test per shipping gate.

Each test carries an `acceptance` marker so the terminal summary prints a
PASS/FAIL line per gate. Numeric thresholds that depend on measurement
(the overfit run, the efficiency ordering) were frozen from the first
passing run on the reference machine and act as regression bounds.
"""

import math
import time

import numpy as np
import pytest

from manner.attention import (
    channel_attention,
    gated_unit,
    global_attention,
    init_channel_attention,
    init_global_attention,
    init_local_attention,
    init_ma_block,
    local_attention,
    ma_block,
)
from manner.audio import TARGET_RATE, AudioClip, CorpusPair
from manner.bench import BenchRow, forward_peak_bytes
from manner.checkpoint import load_checkpoint
from manner.chunker import chunk, merge
from manner.config import parse_run_config
from manner.loss import StftConfig, hann_window, stft_loss, stft_magnitude, weighted_total_loss
from manner.metrics import si_snr
from manner.model import (
    ModelConfig,
    build_model,
    conv_bn_relu,
    init_rescon,
    manner_forward,
    num_params,
    rescon,
)
from manner.nn import ParamInit, batch_norm, conv1d, conv_tensors, conv_transpose1d
from manner.tensor import Tensor, finite_diff_check, mul, tsum
from manner.trainer import TrainSettings, train

SMALL_RES = (StftConfig(64, 16, 32), StftConfig(128, 32, 64))


def _sq(t):
    """Scalarize so every gradient depends on the value, not just the graph."""
    return tsum(mul(t, t))


def _wake_kinks(tensors, rng):
    # zero-initialized biases park relu inputs and pooled maxima exactly on
    # their kinks, where central differences measure half the subgradient
    for t in tensors:
        if not t.data.any():
            t.data += rng.uniform(0.05, 0.15, size=t.shape).astype(t.dtype)


def _block(init_fn, rng, dtype, *args):
    """Register one block's tensors under "p"; return (trainable ones, whole map)."""
    init = ParamInit({}, rng, dtype)
    init_fn(init, "p", *args)
    return [t for t in init.params.values() if t.requires_grad], init.params


LOCAL_SEED, LOCAL_EPS32 = 22, 1e-2
MA_SEED, MA_EPS32 = 26, 1e-2
RESCON_SEED, RESCON_EPS32 = 29, 5e-3
MASK_SEED, MASK_EPS32 = 28, 5e-3
STFT_SEED, STFT_EPS32 = 21, 2e-2
TOTAL_SEED, TOTAL_EPS32 = 22, 1e-2


def _loud_signal(rng, t, dtype, fft=64):
    """Every transform bin populated well above zero.

    Central differences through |z| and log|z| fold at near-empty bins, so
    the spectral-loss checks use signals whose spectra have no quiet bins.
    """
    grid = np.arange(t)
    x = np.zeros(t)
    for k in range(fft // 2 + 1):
        x += rng.uniform(1.5, 2.5) * np.cos(2 * np.pi * k * grid / fft
                                            + rng.uniform(0, 2 * np.pi))
    return x.astype(dtype)


def _gradcheck_cases(dtype):
    """(name, scalar fn, inputs, checks cap, fd step) per differentiable block.

    Each case draws from its own fixed seed; the float32 steps were chosen
    where the finite-difference error bottoms out between curvature and
    rounding, and the seeds keep the draws clear of relu and max-pool kinks.
    """
    f32 = dtype == np.float32
    cases = []

    def make_rng(seed):
        return np.random.default_rng(seed)

    rng = make_rng(10)
    x = Tensor(rng.standard_normal((2, 3, 12)).astype(dtype), requires_grad=True)
    w = Tensor(0.4 * rng.standard_normal((4, 3, 3)).astype(dtype), requires_grad=True)
    b = Tensor(rng.uniform(0.05, 0.15, 4).astype(dtype), requires_grad=True)
    cases.append(("conv1d",
                  lambda *_: _sq(conv1d(x, w, b, stride=2, padding=1)),
                  [x, w, b], None, None))

    rng = make_rng(11)
    xt = Tensor(rng.standard_normal((2, 3, 6)).astype(dtype), requires_grad=True)
    wt = Tensor(0.4 * rng.standard_normal((3, 2, 4)).astype(dtype), requires_grad=True)
    bt = Tensor(rng.uniform(0.05, 0.15, 2).astype(dtype), requires_grad=True)
    cases.append(("conv_transpose1d",
                  lambda *_: _sq(conv_transpose1d(xt, wt, bt, stride=2, padding=1)),
                  [xt, wt, bt], None, None))

    rng = make_rng(12)
    xb = Tensor(rng.standard_normal((3, 4, 6)).astype(dtype), requires_grad=True)
    gamma = Tensor(rng.uniform(0.8, 1.2, 4).astype(dtype), requires_grad=True)
    beta = Tensor(rng.uniform(0.05, 0.15, 4).astype(dtype), requires_grad=True)
    rm, rv = Tensor(np.zeros(4, dtype)), Tensor(np.ones(4, dtype))
    cases.append(("batch_norm",
                  lambda *_: _sq(batch_norm(xb, gamma, beta, rm, rv, True)),
                  [xb, gamma, beta], None, None))

    rng = make_rng(13)
    ca, _ = _block(init_channel_attention, rng, dtype, 4)
    xc = Tensor(rng.standard_normal((2, 4, 10)).astype(dtype), requires_grad=True)
    cases.append(("channel attention",
                  lambda *_: _sq(channel_attention(xc, *ca)),
                  [xc] + ca, None, None))

    rng = make_rng(14)
    ga, _ = _block(init_global_attention, rng, dtype, 8)
    vg = Tensor(rng.standard_normal((1, 3, 4, 8)).astype(dtype), requires_grad=True)
    cases.append(("global attention",
                  lambda *_: _sq(global_attention(vg, *ga)),
                  [vg] + ga, None, None))

    rng = make_rng(LOCAL_SEED)
    la, _ = _block(init_local_attention, rng, dtype, 4, 8)
    _wake_kinks(la, rng)
    vl = Tensor(rng.standard_normal((1, 4, 3, 8)).astype(dtype), requires_grad=True)
    cases.append(("local attention",
                  lambda *_: _sq(local_attention(vl, *la)),
                  [vl] + la, None,
                  LOCAL_EPS32 if f32 else None))

    rng = make_rng(MA_SEED)
    mv, mv_params = _block(init_ma_block, rng, dtype, 6, 8)
    _wake_kinks(mv, rng)
    xm = Tensor(rng.standard_normal((1, 6, 16)).astype(dtype), requires_grad=True)
    cases.append(("ma_block",
                  lambda *_: _sq(ma_block(xm, mv_params, "p", 8)),
                  [xm] + mv, 4, MA_EPS32 if f32 else None))

    rng = make_rng(RESCON_SEED)
    rc, rc_params = _block(init_rescon, rng, dtype, 4, 8)
    _wake_kinks(rc, rng)
    xr = Tensor(rng.standard_normal((1, 4, 12)).astype(dtype), requires_grad=True)
    cases.append(("rescon",
                  lambda *_: _sq(rescon(xr, rc_params, "p", True)),
                  [xr] + rc, 6, RESCON_EPS32 if f32 else None))

    rng = make_rng(MASK_SEED)
    toy = build_model(ModelConfig(base_channels=6, depth=2, chunk_size=8),
                      seed=0, dtype=dtype)
    _wake_kinks([toy["mask.a.bias"], toy["mask.b.bias"]], rng)
    d = Tensor(rng.standard_normal((1, 6, 16)).astype(dtype), requires_grad=True)
    cases.append(("mask_gate",
                  lambda *_: _sq(gated_unit(d, toy, "mask.a", "mask.b")),
                  [d, *conv_tensors(toy, "mask.a"), *conv_tensors(toy, "mask.b")], None,
                  MASK_EPS32 if f32 else None))

    cfg = StftConfig(64, 16, 32)
    rng = make_rng(STFT_SEED)
    ys = Tensor(_loud_signal(rng, 48, dtype)[None, :], requires_grad=True)
    es = Tensor(_loud_signal(rng, 48, dtype)[None, :], requires_grad=True)

    def stft_case(*_):
        sc, mag = stft_loss(ys, es, cfg)
        return (sc + mag).sum()

    cases.append(("stft_loss", stft_case, [ys, es], 48,
                  STFT_EPS32 if f32 else None))

    rng = make_rng(TOTAL_SEED)
    yn = Tensor(_loud_signal(rng, 48, dtype)[None, :])
    xn = Tensor(yn.data + 0.5 * _loud_signal(rng, 48, dtype)[None, :])
    gap = (0.6 + 0.8 * rng.random(48)) * rng.choice([-1.0, 1.0], 48)
    en = Tensor((yn.data + gap[None, :]).astype(dtype), requires_grad=True)
    cases.append(("weighted_total_loss",
                  lambda *_: weighted_total_loss(xn, yn, en, (cfg,))[0],
                  [en], 48, TOTAL_EPS32 if f32 else None))
    return cases


@pytest.mark.acceptance("1 gradient correctness in both precisions")
def test_gradients_every_block():
    start = time.perf_counter()
    for dtype, bound in ((np.float32, 1e-3), (np.float64, 1e-6)):
        for name, f, inputs, cap, eps in _gradcheck_cases(dtype):
            err = finite_diff_check(f, inputs, eps=eps, max_checks_per_input=cap,
                                    rng=np.random.default_rng(1))
            assert err < bound, f"{name} [{np.dtype(dtype).name}]: {err:.3g}"
    assert time.perf_counter() - start < 120.0


@pytest.mark.acceptance("2 chunk-merge roundtrip")
def test_chunk_merge_roundtrip():
    rng = np.random.default_rng(0)
    for _ in range(60):
        c = int(rng.choice([2, 4, 8, 16, 64]))
        t = int(rng.integers(1, 400))
        x = Tensor(rng.standard_normal((2, 3, t)).astype(np.float32))
        back = merge(chunk(x, c), t)
        assert back.shape == x.shape
        assert np.max(np.abs(back.data - x.data)) < 1e-6
    for t, c, p in ((31, 64, 1), (64, 64, 1), (1000, 64, 31)):
        x = Tensor(rng.standard_normal((1, 2, t)).astype(np.float32))
        parts = chunk(x, c)
        assert parts.shape[-2] == p
        assert np.max(np.abs(merge(parts, t).data - x.data)) < 1e-6


@pytest.mark.acceptance("3 default-config shape ladder")
def test_default_config_shapes():
    cfg = ModelConfig()
    params = build_model(cfg, seed=0)
    rng = np.random.default_rng(0)
    x = Tensor(0.1 * rng.standard_normal((1, 1, 64000)).astype(np.float32))

    x0 = conv_bn_relu(x, params, "first.conv", "first.bn", False, conv1d)
    assert x0.shape == (1, 60, 64000)
    h = x0
    for layer, (ch, t) in enumerate(((120, 16000), (240, 4000), (480, 1000), (960, 250)), 1):
        h = conv_bn_relu(h, params, f"enc{layer}.down.conv", f"enc{layer}.down.bn", False,
                         conv1d, stride=cfg.stride, padding=cfg.down_padding)
        assert h.shape[-1] == t
        h = rescon(h, params, f"enc{layer}.rescon", False)
        h = ma_block(h, params, f"enc{layer}.ma", cfg.chunk_size)
        assert h.shape == (1, ch, t)

    assert manner_forward(x, params, cfg, training=False).shape == (1, 1, 64000)
    ragged = Tensor(0.1 * rng.standard_normal((1, 1, 63999)).astype(np.float32))
    assert manner_forward(ragged, params, cfg, training=False).shape == (1, 1, 63999)


@pytest.mark.acceptance("4 loss identities")
def test_loss_identities():
    rng = np.random.default_rng(0)
    y = Tensor(rng.standard_normal((1, 600)))
    x = Tensor(y.data + 0.1 * rng.standard_normal((1, 600)))
    total, _ = weighted_total_loss(x, y, Tensor(y.data.copy()), SMALL_RES)
    assert abs(total.item()) <= 1e-6

    sc, _ = stft_loss(y, Tensor(np.zeros_like(y.data)), SMALL_RES[0])
    assert sc.item() == 1.0

    u = np.ones(300)
    clean = Tensor((np.sqrt(3.0) * u)[None, :])
    noisy = Tensor((np.sqrt(3.0) * u + u)[None, :])  # speech:noise energy 3:1
    est = Tensor(0.5 * u[None, :])
    _, report = weighted_total_loss(noisy, clean, est, SMALL_RES)
    np.testing.assert_allclose(report.alpha, 0.75, rtol=1e-9)
    _, report = weighted_total_loss(clean, clean, est, SMALL_RES)
    assert report.alpha == 1.0


@pytest.mark.acceptance("5 windowed transform matches direct summation")
def test_stft_against_naive_dft():
    cfg = StftConfig(fft_size=64, hop=16, win_length=32)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(256)
    got = stft_magnitude(Tensor(x), cfg).data

    win = hann_window(32)
    frames = (256 - 32) // 16 + 1
    naive = np.zeros((frames, 33))
    for f in range(frames):
        seg = x[f * 16 : f * 16 + 32] * win
        for k in range(33):
            re = sum(seg[t] * math.cos(2 * math.pi * k * t / 64) for t in range(32))
            im = -sum(seg[t] * math.sin(2 * math.pi * k * t / 64) for t in range(32))
            naive[f, k] = math.hypot(re, im)
    assert got.shape == naive.shape
    assert np.max(np.abs(got - naive)) < 1e-4


@pytest.mark.acceptance("6 single-pair overfit convergence")
def test_overfit_one_utterance():
    """Memorize one noisy/clean second from scratch.

    The pair is broadband on purpose: a spectrally sparse target (a bare
    tone) leaves the log-magnitude terms indifferent between silence and
    speech, and the run stalls in a near-silent local minimum. Step count,
    seeds, and rates are the first passing configuration, kept fixed.
    """
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    t = 16000
    grid = np.arange(t) / 16000.0
    voiced = np.zeros(t)
    for k in range(1, 16):
        voiced += (1.0 / k) * np.sin(2 * np.pi * 110.0 * k * grid + rng.uniform(0, 2 * np.pi))
    voiced *= 0.6 + 0.4 * np.sin(2 * np.pi * 3.0 * grid)
    clean = voiced + 0.35 * rng.standard_normal(t)
    clean = (0.2 * clean / np.sqrt((clean ** 2).mean())).astype(np.float32)
    noisy = clean + 0.015 * rng.standard_normal(t).astype(np.float32)
    corpus = [CorpusPair("utt", AudioClip(noisy), AudioClip(clean))]

    cfg = ModelConfig(base_channels=12, depth=2, chunk_size=16)
    params = build_model(cfg, seed=1)
    settings = TrainSettings(epochs=600, batch_size=1, seed=0,
                             segment_seconds=1.0, hop_seconds=1.0,
                             tempo_augment=False, weighted_loss=True,
                             lr_min=1e-5, lr_max=2e-3, warmup_frac=0.3,
                             val_every=600)
    result = train(params, corpus, settings)
    assert result.steps == 600

    est = manner_forward(Tensor(noisy[None, None, :]), params, cfg, training=False)
    snr = si_snr(est.data[0, 0], clean)
    ratio = result.train_losses[-1] / result.train_losses[0]
    assert snr >= 20.0, f"enhanced SI-SNR {snr:.2f} dB"
    assert ratio <= 0.25, f"final/initial loss {ratio:.3f}"
    assert time.perf_counter() - start < 600.0


@pytest.mark.acceptance("7 small-variant efficiency ordering")
def test_variant_time_and_memory():
    start = time.perf_counter()
    lengths = list(range(1, 11))
    models = {variant: build_model(ModelConfig(variant=variant).validate(), seed=0)
              for variant in ("full", "small")}
    rows = {variant: [] for variant in models}

    def measure(params, s):
        """run_bench's row for one length, timed in CPU time: a wall clock
        would also count the time another process holds the CPU."""
        x = 0.1 * np.random.default_rng(0).standard_normal(s * TARGET_RATE).astype(np.float32)
        x = Tensor(x[None, None, :])
        peak = forward_peak_bytes(params, x)
        times = []
        for _ in range(3):
            t0 = time.process_time()
            out = manner_forward(x, params, params.config)
            times.append((time.process_time() - t0) * 1000.0)
            del out
        return BenchRow(length_s=s, median_ms=float(np.median(times)), peak_bytes=peak)

    # the variants alternate per length, so a burst of CPU contention from
    # another process lands on both sides of each comparison
    for s in lengths:
        order = ("full", "small") if s % 2 else ("small", "full")
        for variant in order:
            rows[variant].append(measure(models[variant], s))

    for full_row, small_row in zip(rows["full"], rows["small"]):
        assert small_row.median_ms <= full_row.median_ms, f"at {full_row.length_s}s"
    for variant_rows in rows.values():
        base = variant_rows[0].median_ms
        for row in variant_rows[1:]:
            assert row.median_ms <= base * row.length_s ** 2  # no worse than quadratic
        peaks = [r.peak_bytes for r in variant_rows]
        assert peaks == sorted(peaks)
    assert time.perf_counter() - start < 300.0


@pytest.mark.acceptance("8 determinism and bit-exact resume")
def test_seed_determinism_and_resume(tmp_path):
    rng = np.random.default_rng(0)
    corpus = []
    for i, freq in enumerate((300.0, 360.0)):
        t = 16000
        clean = (0.3 * np.sin(2 * np.pi * freq * np.arange(t) / 16000)).astype(np.float32)
        noisy = clean + 0.05 * rng.standard_normal(t).astype(np.float32)
        corpus.append(CorpusPair(f"p{i}", AudioClip(noisy), AudioClip(clean)))

    def settings(max_steps=0):
        return TrainSettings(epochs=2, batch_size=2, seed=0, segment_seconds=0.5,
                             hop_seconds=0.375, tempo_augment=True, weighted_loss=True,
                             lr_min=1e-5, lr_max=1e-3, warmup_frac=0.3,
                             max_steps=max_steps)

    runs = []
    for name in ("a", "b"):
        params = build_model(ModelConfig(base_channels=6, depth=2, chunk_size=8), seed=1)
        runs.append(train(params, corpus, settings(), out_dir=tmp_path / name,
                          resolutions=SMALL_RES))
    assert runs[0].log_lines == runs[1].log_lines

    # interrupt at the epoch boundary; epochs stays 2 so the lr schedule
    # spans the same horizon as the uninterrupted runs
    half = runs[0].steps // 2
    params = build_model(ModelConfig(base_channels=6, depth=2, chunk_size=8), seed=1)
    train(params, corpus, settings(max_steps=half), out_dir=tmp_path / "c",
          resolutions=SMALL_RES)
    params, opt, step, epoch = load_checkpoint(tmp_path / "c" / "last.ckpt")
    assert (step, epoch) == (half, 1)
    resumed = train(params, corpus, settings(), out_dir=tmp_path / "c",
                    resolutions=SMALL_RES, adam_state=opt, start_epoch=epoch)
    tail = runs[0].log_lines[-len(resumed.log_lines):]
    assert resumed.log_lines == tail

    full_params, _, _, _ = load_checkpoint(tmp_path / "a" / "last.ckpt")
    res_params, _, _, _ = load_checkpoint(tmp_path / "c" / "last.ckpt")
    for (name, a), (_, b) in zip(full_params.items(), res_params.items()):
        assert np.array_equal(a.data, b.data), name


@pytest.mark.acceptance("9 ablation switches")
def test_ablation_switches(tmp_path):
    rng = np.random.default_rng(0)
    t = 8000
    clean = (0.3 * np.sin(2 * np.pi * 330.0 * np.arange(t) / 16000)).astype(np.float32)
    noisy = clean + 0.05 * rng.standard_normal(t).astype(np.float32)
    corpus = [CorpusPair("p", AudioClip(noisy), AudioClip(clean))]

    def build_from(model_extra="", trainer_extra=""):
        text = ("[model]\nbase_channels = 6\ndepth = 2\nchunk_size = 8\n"
                + model_extra
                + "[trainer]\nepochs = 1\nbatch_size = 1\nsegment_seconds = 0.5\n"
                "hop_seconds = 0.5\ntempo_augment = no\nmax_steps = 1\n"
                + trainer_extra
                + "[loss]\nresolutions = 64:16:32,128:32:64\n")
        path = tmp_path / f"cfg{abs(hash(text))}.ini"
        path.write_text(text)
        cfg = parse_run_config(path)
        return cfg, build_model(cfg.model, seed=0)

    cfg, base = build_from("")
    base_count = num_params(base)
    widths = [cfg.model.encoder_channels(i) for i in range(1, cfg.model.depth + 1)]
    widths += [cfg.model.encoder_channels(i - 1) for i in range(1, cfg.model.depth + 1)]
    thirds = [w // 3 for w in widths]
    kernel = cfg.model.chunk_size // 2 - 1
    expected_drop = {
        "channel_attention": sum(2 * th * (th // 2) for th in thirds),
        "global_attention": 4 * cfg.model.chunk_size ** 2 * len(widths),
        "local_attention": sum(th * kernel + th + (1 * 2 * 7 + 1) for th in thirds),
    }

    for switch, drop in expected_drop.items():
        ablated_cfg, ablated = build_from(model_extra=f"{switch} = no\n")
        assert base_count - num_params(ablated) == drop, switch
        result = train(ablated, corpus, ablated_cfg.trainer,
                       resolutions=ablated_cfg.resolutions)
        assert result.steps == 1 and math.isfinite(result.train_losses[0])

    plain_cfg, plain = build_from(trainer_extra="weighted_loss = no\n")
    assert num_params(plain) == base_count
    result = train(plain, corpus, plain_cfg.trainer, resolutions=plain_cfg.resolutions)
    assert result.steps == 1
    assert result.log_lines[0].endswith("alpha=1")
