"""Optimizer, schedule, checkpoint, and training-loop tests.

The training runs here use a toy geometry and short tones so a full
train/resume comparison stays under a second.
"""

import hashlib
import math
import struct

import numpy as np
import pytest

from manner.checkpoint import load_checkpoint, save_checkpoint
from manner.errors import CheckpointError, TrainingDiverged
from manner.loss import StftConfig
from manner.model import ModelConfig, build_model, num_params
from manner.tensor import Tensor
from manner.trainer import (
    AdamState,
    ScheduleConfig,
    TrainSettings,
    adam_step,
    init_adam,
    onecycle_lr,
    train,
)

SMALL_RES = (StftConfig(64, 16, 32).validate(), StftConfig(128, 32, 64).validate())
TOY = dict(base_channels=6, depth=2, chunk_size=8)


def make_params(*shapes):
    rng = np.random.default_rng(0)
    return {f"p{i}": Tensor(rng.standard_normal(shape).astype(np.float32), requires_grad=True)
            for i, shape in enumerate(shapes)}


# ---------------------------------------------------------------------
# Adam


def test_adam_zero_gradient_changes_nothing_but_advances():
    params = make_params((3,), (2, 2))
    before = {n: t.data.copy() for n, t in params.items()}
    state = init_adam(params)
    adam_step(params, {n: np.zeros_like(t.data) for n, t in params.items()}, state, lr=0.1)
    assert state.t == 1
    for n, t in params.items():
        np.testing.assert_array_equal(t.data, before[n])


def test_adam_missing_gradient_is_treated_as_zero():
    params = make_params((4,))
    before = params["p0"].data.copy()
    adam_step(params, {}, init_adam(params), lr=0.1)
    np.testing.assert_array_equal(params["p0"].data, before)


def test_adam_first_step_moves_by_lr_against_the_gradient():
    """Bias correction makes step one lr * sign(g) up to eps rounding."""
    params = make_params((5,))
    before = params["p0"].data.copy()
    g = np.array([1.0, -2.0, 0.5, -0.1, 3.0], dtype=np.float32)
    adam_step(params, {"p0": g}, init_adam(params), lr=1e-3)
    delta = params["p0"].data - before
    # float32 params plus the eps guard bound the relative slack at ~1e-5
    np.testing.assert_allclose(delta, -1e-3 * np.sign(g), rtol=1e-4)


def test_adam_constant_gradient_keeps_unit_steps():
    params = make_params((4,))
    state = init_adam(params)
    g = np.array([0.3, -0.7, 2.0, -5.0], dtype=np.float32)
    lr = 1e-2
    for _ in range(20):
        before = params["p0"].data.copy()
        adam_step(params, {"p0": g}, state, lr)
        step = np.abs(params["p0"].data - before)
        np.testing.assert_allclose(step, lr, rtol=1e-4)
    assert state.t == 20


def test_adam_rejects_shape_mismatch():
    params = make_params((3,))
    with pytest.raises(ValueError, match="shape"):
        adam_step(params, {"p0": np.zeros(4, dtype=np.float32)}, init_adam(params), lr=0.1)


# ---------------------------------------------------------------------
# one-cycle schedule


def test_onecycle_endpoints_are_exact():
    cfg = ScheduleConfig(lr_min=1e-5, lr_max=1e-2, warmup_frac=0.3, total_steps=100)
    assert onecycle_lr(0, cfg) == 1e-5
    assert abs(onecycle_lr(30, cfg) - 1e-2) < 1e-15
    assert abs(onecycle_lr(100, cfg) - 1e-5) < 1e-15


def test_onecycle_rises_then_falls():
    cfg = ScheduleConfig(lr_min=1e-5, lr_max=1e-2, warmup_frac=0.3, total_steps=100)
    values = [onecycle_lr(s, cfg) for s in range(101)]
    assert all(b > a for a, b in zip(values[:30], values[1:31]))
    assert all(b < a for a, b in zip(values[30:100], values[31:101]))
    assert max(values) <= 1e-2 + 1e-15
    assert min(values) >= 1e-5 - 1e-18


@pytest.mark.parametrize("step", [-1, 101])
def test_onecycle_rejects_out_of_range_steps(step):
    cfg = ScheduleConfig(total_steps=100)
    with pytest.raises(ValueError, match="out of range"):
        onecycle_lr(step, cfg)


def test_onecycle_per_epoch_wraps():
    cfg = ScheduleConfig(lr_min=1e-5, lr_max=1e-2, warmup_frac=0.25,
                         total_steps=1, cycle_per_epoch=True, steps_per_epoch=40)
    for s in (0, 7, 23, 39):
        assert onecycle_lr(s, cfg) == onecycle_lr(s + 40, cfg)
        assert onecycle_lr(s, cfg) == onecycle_lr(s + 400, cfg)
    with pytest.raises(ValueError):
        onecycle_lr(-1, cfg)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(lr_min=1e-2, lr_max=1e-2),
        dict(lr_min=0.0),
        dict(lr_min=2e-2, lr_max=1e-2),
        dict(warmup_frac=0.0),
        dict(warmup_frac=1.0),
        dict(total_steps=0),
        dict(cycle_per_epoch=True, steps_per_epoch=0),
    ],
)
def test_schedule_rejects_bad_configs(kwargs):
    with pytest.raises(ValueError):
        ScheduleConfig(**kwargs).validate()


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(epochs=0),
        dict(batch_size=0),
        dict(val_every=0),
        dict(hop_seconds=5.0, segment_seconds=4.0),
        dict(hop_seconds=0.0),
        dict(max_steps=-1),
        dict(lr_min=1e-2, lr_max=1e-3),
    ],
)
def test_train_settings_reject_bad_values(kwargs):
    with pytest.raises(ValueError):
        TrainSettings(**kwargs).validate()


# ---------------------------------------------------------------------
# checkpoints


def toy_params(seed=0):
    return build_model(ModelConfig(**TOY), seed=seed)


def randomized_state(params):
    state = init_adam(params)
    rng = np.random.default_rng(42)
    state.t = 17
    for n in state.m:
        state.m[n] = rng.standard_normal(state.m[n].shape).astype(np.float32)
        state.v[n] = rng.uniform(0.0, 1.0, state.v[n].shape).astype(np.float32)
    return state


def test_checkpoint_roundtrip_is_bit_exact(tmp_path):
    params = toy_params(seed=3)
    state = randomized_state(params)
    path = tmp_path / "a.ckpt"
    save_checkpoint(path, params, state, step=123, epoch=4)

    loaded, opt, step, epoch = load_checkpoint(path)
    assert (step, epoch) == (123, 4)
    assert loaded.config == params.config
    for (name, orig), (name2, back) in zip(params.items(), loaded.items()):
        assert name == name2
        assert np.array_equal(orig.data, back.data), name
    assert opt.t == 17 and opt.beta1 == 0.9 and opt.beta2 == 0.999 and opt.eps == 1e-8
    for n in state.m:
        assert np.array_equal(opt.m[n], state.m[n])
        assert np.array_equal(opt.v[n], state.v[n])

    # saving what was loaded reproduces the file byte for byte
    path2 = tmp_path / "b.ckpt"
    save_checkpoint(path2, loaded, opt, step=123, epoch=4)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_load_draws_no_random_weights(tmp_path, monkeypatch):
    params = toy_params(seed=3)
    path = tmp_path / "a.ckpt"
    save_checkpoint(path, params)

    def no_draws(*args, **kwargs):
        raise AssertionError("load_checkpoint drew weights it then overwrote")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    loaded, _, _, _ = load_checkpoint(path)
    assert list(loaded) == list(params)
    for name, t in params.items():
        assert np.array_equal(loaded[name].data, t.data), name


def test_checkpoint_write_failure_keeps_previous_file(tmp_path, monkeypatch):
    """A save that dies mid-payload leaves the last good checkpoint whole."""
    path = tmp_path / "last.ckpt"
    save_checkpoint(path, toy_params(seed=3), step=1)
    before = path.read_bytes()

    real = np.ascontiguousarray
    calls = []

    def disk_full(*args, **kwargs):
        calls.append(1)
        if len(calls) == 5:
            raise OSError(28, "No space left on device")
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "ascontiguousarray", disk_full)
    with pytest.raises(OSError):
        save_checkpoint(path, toy_params(seed=4), step=2)
    monkeypatch.undo()

    assert len(calls) == 5
    assert path.read_bytes() == before
    _, _, step, _ = load_checkpoint(path)
    assert step == 1
    assert [p.name for p in tmp_path.iterdir()] == ["last.ckpt"]


# sha256 of save_checkpoint(build_model(cfg, seed=0)) bytes, recorded before
# the parameter store was flattened: they pin the manifest (names, order,
# shapes), the seeded init bits and the v1 layout together.
MANIFEST_SHA256 = {
    "toy": "328f2622ecf89c884e897dce31bbf23f0f9342a84675af5776575c285028064e",
    "full": "53fbd95092f7c305c61bee2591a248f8018d39314c1041d4da449ce6eb10cdf4",
    "small": "2093ce95a95f176733b3f52cad27338c914707c4016ddb9535799e1c09424d33",
}


@pytest.mark.parametrize("name", sorted(MANIFEST_SHA256))
def test_checkpoint_bytes_match_recorded_manifest(tmp_path, name):
    if name == "toy":
        params = toy_params()
        state = init_adam(params)
    else:
        params = build_model(ModelConfig(variant=name), seed=0)
        state = None
    path = tmp_path / f"{name}.ckpt"
    save_checkpoint(path, params, state)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == MANIFEST_SHA256[name]


def test_checkpoint_without_optimizer(tmp_path):
    params = toy_params()
    path = tmp_path / "a.ckpt"
    save_checkpoint(path, params)
    loaded, opt, step, epoch = load_checkpoint(path)
    assert opt is None and step == 0 and epoch == 0
    assert num_params(loaded) == num_params(params)


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "a.ckpt"
    save_checkpoint(path, toy_params())
    blob = bytearray(path.read_bytes())
    blob[:8] = b"NOTMAGIC"
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="bad magic"):
        load_checkpoint(path)


def test_checkpoint_rejects_unknown_version(tmp_path):
    path = tmp_path / "a.ckpt"
    save_checkpoint(path, toy_params())
    blob = bytearray(path.read_bytes())
    blob[8:12] = struct.pack("<I", 99)
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


def test_checkpoint_rejects_truncation(tmp_path):
    path = tmp_path / "a.ckpt"
    save_checkpoint(path, toy_params())
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 64])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


def test_checkpoint_rejects_trailing_bytes(tmp_path):
    path = tmp_path / "a.ckpt"
    save_checkpoint(path, toy_params())
    path.write_bytes(path.read_bytes() + b"x")
    with pytest.raises(CheckpointError, match="trailing"):
        load_checkpoint(path)


def test_checkpoint_rejects_corrupt_header(tmp_path):
    path = tmp_path / "a.ckpt"
    save_checkpoint(path, toy_params())
    blob = bytearray(path.read_bytes())
    blob[20:24] = b"\xff\xfe\x00\x01"
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_missing_file(tmp_path):
    with pytest.raises(CheckpointError, match="no such checkpoint"):
        load_checkpoint(tmp_path / "absent.ckpt")


# ---------------------------------------------------------------------
# the training loop


def tone_corpus(n_pairs=2, t=16000, sr=16000):
    from manner.audio import AudioClip, CorpusPair

    pairs = []
    for i in range(n_pairs):
        rng = np.random.default_rng(100 + i)
        grid = np.arange(t) / sr
        clean = 0.4 * np.sin(2 * np.pi * (300 + 60 * i) * grid).astype(np.float32)
        noisy = clean + 0.05 * rng.standard_normal(t).astype(np.float32)
        pairs.append(CorpusPair(name=f"utt{i}.wav",
                                noisy=AudioClip(noisy, sr), clean=AudioClip(clean, sr)))
    return pairs


def toy_settings(**overrides):
    base = dict(
        epochs=2,
        batch_size=2,
        seed=0,
        segment_seconds=0.5,
        hop_seconds=0.375,
        tempo_augment=True,
        weighted_loss=True,
        lr_min=1e-5,
        lr_max=1e-3,
        warmup_frac=0.3,
    )
    base.update(overrides)
    return TrainSettings(**base)


def test_fixed_seed_runs_produce_identical_logs(tmp_path):
    corpus = tone_corpus()
    a = train(build_model(ModelConfig(**TOY), seed=1), corpus, toy_settings(),
              out_dir=tmp_path / "a", resolutions=SMALL_RES)
    b = train(build_model(ModelConfig(**TOY), seed=1), corpus, toy_settings(),
              out_dir=tmp_path / "b", resolutions=SMALL_RES)
    assert a.log_lines == b.log_lines
    assert a.steps == b.steps > 0
    log_a = (tmp_path / "a" / "train_log.txt").read_text().splitlines()
    assert log_a == a.log_lines


def test_log_lines_carry_no_timestamps(tmp_path):
    corpus = tone_corpus(n_pairs=1)
    result = train(build_model(ModelConfig(**TOY), seed=1), corpus,
                   toy_settings(epochs=1), out_dir=tmp_path, resolutions=SMALL_RES)
    for line in result.log_lines:
        assert line.startswith("step=") or line.startswith("val epoch=")


def test_resume_from_checkpoint_matches_uninterrupted_run(tmp_path):
    corpus = tone_corpus()

    full = train(build_model(ModelConfig(**TOY), seed=1), corpus, toy_settings(),
                 out_dir=tmp_path / "full", resolutions=SMALL_RES)

    # interrupt at the first epoch boundary; epochs stays 2 so the lr
    # schedule spans the same horizon as the uninterrupted run
    steps_per_epoch = full.steps // 2
    train(build_model(ModelConfig(**TOY), seed=1), corpus,
          toy_settings(max_steps=steps_per_epoch),
          out_dir=tmp_path / "part", resolutions=SMALL_RES)
    params, opt, step, epoch = load_checkpoint(tmp_path / "part" / "last.ckpt")
    assert epoch == 1 and step == steps_per_epoch
    resumed = train(params, corpus, toy_settings(), out_dir=tmp_path / "part",
                    resolutions=SMALL_RES, adam_state=opt, start_epoch=epoch)

    # the resumed epoch reproduces the uninterrupted run's lines and weights
    n_tail = len(resumed.log_lines)
    assert resumed.log_lines == full.log_lines[-n_tail:]
    full_again, _, _, _ = load_checkpoint(tmp_path / "full" / "last.ckpt")
    resumed_again, _, _, _ = load_checkpoint(tmp_path / "part" / "last.ckpt")
    for (name, ta), (_, tb) in zip(full_again.items(), resumed_again.items()):
        assert np.array_equal(ta.data, tb.data), name
    part_log = (tmp_path / "part" / "train_log.txt").read_text().splitlines()
    full_log = (tmp_path / "full" / "train_log.txt").read_text().splitlines()
    assert part_log == full_log


def test_best_val_never_exceeds_history(tmp_path):
    corpus = tone_corpus(n_pairs=1)
    result = train(build_model(ModelConfig(**TOY), seed=2), corpus,
                   toy_settings(epochs=3), out_dir=tmp_path, resolutions=SMALL_RES)
    vals = [v for _, v in result.val_history]
    assert result.best_val == min(vals)
    assert (tmp_path / "best.ckpt").exists()
    assert (tmp_path / "last.ckpt").exists()


def test_max_steps_caps_the_run():
    corpus = tone_corpus()
    result = train(build_model(ModelConfig(**TOY), seed=1), corpus,
                   toy_settings(max_steps=2), resolutions=SMALL_RES)
    assert result.steps == 2
    assert result.best_path is None and result.last_path is None


def test_nan_parameters_raise_diverged():
    corpus = tone_corpus(n_pairs=1)
    params = build_model(ModelConfig(**TOY), seed=1)
    params["first.conv.weight"].data[:] = np.nan
    with pytest.raises(TrainingDiverged):
        train(params, corpus, toy_settings(epochs=1), resolutions=SMALL_RES)


def test_empty_corpus_rejected():
    with pytest.raises(ValueError, match="empty"):
        train(build_model(ModelConfig(**TOY), seed=0), [], toy_settings())


def test_wrong_sample_rate_rejected():
    from manner.errors import DataError

    corpus = tone_corpus(n_pairs=1, sr=8000)
    with pytest.raises(DataError, match="sample rate"):
        train(build_model(ModelConfig(**TOY), seed=0), corpus, toy_settings())


def test_unweighted_training_runs():
    corpus = tone_corpus(n_pairs=1)
    result = train(build_model(ModelConfig(**TOY), seed=1), corpus,
                   toy_settings(epochs=1, weighted_loss=False, tempo_augment=False),
                   resolutions=SMALL_RES)
    assert result.steps > 0
    assert all(math.isfinite(v) for v in result.train_losses)
