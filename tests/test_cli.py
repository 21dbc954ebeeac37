"""Config file parsing and the command-line entry points.

CLI tests drive main() in-process and assert on exit codes plus the files
each subcommand leaves behind. A toy model keeps every run under a second.
"""

import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.io import wavfile

from manner.audio import TARGET_RATE, AudioClip, read_wav, write_wav
from manner.bench import run_bench
from manner.checkpoint import save_checkpoint
from manner import cli
from manner.cli import main
from manner.config import RunConfig, parse_run_config
from manner.errors import ConfigError
from manner.loss import default_resolutions
from manner.metrics import si_snr
from manner.model import ModelConfig, build_model, manner_forward
from manner.tensor import Tensor
from manner.trainer import TrainSettings

TOY_MODEL = "[model]\nbase_channels = 6\ndepth = 2\nchunk_size = 8\n"


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def toy_train_cfg(noisy_dir, clean_dir):
    return (
        TOY_MODEL
        + "[trainer]\n"
        + "epochs = 1\nbatch_size = 2\nseed = 0\n"
        + "segment_seconds = 0.5\nhop_seconds = 0.5\n"
        + "tempo_augment = no\nmax_steps = 2\n"
        + "lr_min = 1e-5\nlr_max = 1e-4\n"
        + f"[data]\nnoisy_dir = {noisy_dir}\nclean_dir = {clean_dir}\n"
        + "[loss]\nresolutions = 64:16:32,128:32:64\n"
    )


def toy_checkpoint(tmp_path, name="toy.ckpt"):
    params = build_model(ModelConfig(base_channels=6, depth=2, chunk_size=8), seed=0)
    path = tmp_path / name
    save_checkpoint(path, params)
    return path


# ---------------------------------------------------------------- config

def test_empty_config_gives_defaults(tmp_path):
    cfg = parse_run_config(write_cfg(tmp_path, ""))
    ref = RunConfig()
    assert cfg.model.to_dict() == ref.model.to_dict()
    assert cfg.trainer == ref.trainer
    assert cfg.noisy_dir is None and cfg.clean_dir is None
    assert cfg.val_noisy_dir is None and cfg.val_clean_dir is None
    assert cfg.resolutions == default_resolutions()


def test_config_full_parse(tmp_path):
    text = (
        "[model]\n"
        "kernel_size = 8\nstride = 4\nbase_channels = 12\ndepth = 3\n"
        "chunk_size = 16\nvariant = small\n"
        "channel_attention = yes\nglobal_attention = off\nlocal_attention = 1\n"
        "[trainer]\n"
        "epochs = 5\nbatch_size = 3\nseed = 11\n"
        "segment_seconds = 2.5\nhop_seconds = 1.5\n"
        "tempo_augment = false\nweighted_loss = true\n"
        "lr_min = 1e-6\nlr_max = 0.005\nwarmup_frac = 0.25\n"
        "cycle_per_epoch = on\nval_every = 2\nmax_steps = 40\n"
        "[data]\n"
        "noisy_dir = /tmp/a\nclean_dir = /tmp/b\n"
        "val_noisy_dir = /tmp/c\nval_clean_dir = /tmp/d\n"
        "[loss]\n"
        "resolutions = 64:16:32, 256:64:128\n"
    )
    cfg = parse_run_config(write_cfg(tmp_path, text))
    assert cfg.model.base_channels == 12 and cfg.model.depth == 3
    assert cfg.model.variant == "small"
    assert cfg.model.channel_attention is True
    assert cfg.model.global_attention is False
    assert cfg.model.local_attention is True
    tr = cfg.trainer
    assert tr.epochs == 5 and tr.batch_size == 3 and tr.seed == 11
    assert tr.segment_seconds == 2.5 and tr.hop_seconds == 1.5
    assert tr.tempo_augment is False and tr.weighted_loss is True
    assert tr.lr_min == 1e-6 and tr.lr_max == 0.005 and tr.warmup_frac == 0.25
    assert tr.cycle_per_epoch is True and tr.val_every == 2 and tr.max_steps == 40
    assert cfg.noisy_dir == "/tmp/a" and cfg.val_clean_dir == "/tmp/d"
    assert len(cfg.resolutions) == 2
    assert cfg.resolutions[0].fft_size == 64 and cfg.resolutions[0].hop == 16
    assert cfg.resolutions[1].win_length == 128


@pytest.mark.parametrize("raw,expected", [
    ("1", True), ("yes", True), ("TRUE", True), ("On", True),
    ("0", False), ("no", False), ("False", False), ("OFF", False),
])
def test_config_bool_spellings(tmp_path, raw, expected):
    cfg = parse_run_config(write_cfg(tmp_path, f"[trainer]\ntempo_augment = {raw}\n"))
    assert cfg.trainer.tempo_augment is expected


@pytest.mark.parametrize("text,fragment", [
    ("[mdl]\nbase_channels = 6\n", "unknown section"),
    ("[model]\nbase_chans = 6\n", "unknown key"),
    ("[model]\ndepth = two\n", "bad value"),
    ("[trainer]\ntempo_augment = maybe\n", "not a boolean"),
    ("[loss]\nresolutions = 64:16\n", "fft:hop:win"),
    ("[loss]\nresolutions = 64:16:32:8\n", "fft:hop:win"),
    ("[loss]\nresolutions = 64:x:32\n", "bad value"),
    ("[loss]\nresolutions = 0:16:32\n", "bad value"),
    ("[model]\nbase_channels = 8\n", "multiple of 6"),
    ("[trainer]\nsegment_seconds = 1.0\nhop_seconds = 2.0\n", "hop"),
    ("[trainer]\nlr_min = 0.1\nlr_max = 0.01\n", "lr"),
    ("[trainer]\nsegment_seconds = 0.25\nhop_seconds = 0.00001\n", "one sample"),
    ("[trainer]\nsegment_seconds = 0.00001\nhop_seconds = 0.00001\n", "one sample"),
    ("[data]\nmodel = full\n", "unknown key"),
    ("[data]\nresolutions = 64:16:32\n", "unknown key"),
    ("[trainer]\ntotal_steps = 10\n", "unknown key"),
    ("[trainer]\nsteps_per_epoch = 10\n", "unknown key"),
    ("key_without_section = 1\n", "section"),
])
def test_config_rejects(tmp_path, text, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_run_config(write_cfg(tmp_path, text))


def test_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="no such config file"):
        parse_run_config(tmp_path / "absent.cfg")


def test_config_no_interpolation(tmp_path):
    cfg = parse_run_config(write_cfg(tmp_path, "[data]\nnoisy_dir = /tmp/%dir\n"))
    assert cfg.noisy_dir == "/tmp/%dir"


def test_readme_run_file_parses_to_defaults(tmp_path):
    """The README's example run file is accepted and lists every default."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    text = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    cfg = parse_run_config(write_cfg(tmp_path, text))
    assert cfg.model == ModelConfig()
    assert cfg.trainer == TrainSettings()
    assert cfg.resolutions == default_resolutions()


# ------------------------------------------------------------- arg errors

def test_no_subcommand_exits_2(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_unknown_subcommand_exits_2(capsys):
    assert main(["paint"]) == 2
    capsys.readouterr()


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "train" in capsys.readouterr().out


# ------------------------------------------------------------------ train

def test_train_missing_config_exits_2(tmp_path, capsys):
    assert main(["train", "--config", str(tmp_path / "none.cfg"),
                 "--out", str(tmp_path / "run")]) == 2
    assert "config error" in capsys.readouterr().err


def test_train_requires_data_dirs(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TOY_MODEL)
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
    assert "noisy_dir" in capsys.readouterr().err


def test_train_rejects_half_val_corpus(tmp_path, corpus_dirs, capsys):
    noisy, clean = corpus_dirs
    text = toy_train_cfg(noisy, clean).replace(
        f"clean_dir = {clean}\n",
        f"clean_dir = {clean}\nval_noisy_dir = {noisy}\n")
    assert main(["train", "--config", str(write_cfg(tmp_path, text)),
                 "--out", str(tmp_path / "run")]) == 2
    assert "val_clean_dir" in capsys.readouterr().err


def test_train_smoke(tmp_path, corpus_dirs, capsys):
    noisy, clean = corpus_dirs
    cfg = write_cfg(tmp_path, toy_train_cfg(noisy, clean))
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "trained 2 steps" in stdout
    assert (out / "last.ckpt").is_file()
    assert (out / "best.ckpt").is_file()
    log_lines = (out / "train_log.txt").read_text().splitlines()
    assert len(log_lines) > 0
    assert all(l.startswith(("step=", "val ")) for l in log_lines)


def test_train_seed_override_changes_model(tmp_path, corpus_dirs, capsys):
    noisy, clean = corpus_dirs
    cfg = write_cfg(tmp_path, toy_train_cfg(noisy, clean))
    for seed, out in (("0", "a"), ("7", "b")):
        assert main(["train", "--config", str(cfg), "--seed", seed,
                     "--out", str(tmp_path / out)]) == 0
    capsys.readouterr()
    a = (tmp_path / "a" / "train_log.txt").read_text()
    b = (tmp_path / "b" / "train_log.txt").read_text()
    assert a != b


def test_train_missing_corpus_exits_3(tmp_path, capsys):
    text = toy_train_cfg(tmp_path / "nope_n", tmp_path / "nope_c")
    assert main(["train", "--config", str(write_cfg(tmp_path, text)),
                 "--out", str(tmp_path / "run")]) == 3
    assert "data error" in capsys.readouterr().err


# ---------------------------------------------------------------- enhance

def test_enhance_directory(tmp_path, corpus_dirs, capsys):
    noisy, clean = corpus_dirs
    ckpt = toy_checkpoint(tmp_path)
    out = tmp_path / "enh"
    assert main(["enhance", str(noisy), "--checkpoint", str(ckpt),
                 "--out", str(out)]) == 0
    capsys.readouterr()
    for src in sorted(noisy.glob("*.wav")):
        dst = out / src.name
        assert dst.is_file()
        a, b = read_wav(src), read_wav(dst)
        assert b.samples.shape == a.samples.shape
        assert np.all(np.abs(b.samples) <= 1.0)


def test_enhance_single_file_odd_length(tmp_path, capsys):
    t = 12345  # not a multiple of the model's total stride
    rng = np.random.default_rng(3)
    wav = tmp_path / "odd.wav"
    write_wav(wav, AudioClip(0.1 * rng.standard_normal(t).astype(np.float32)))
    ckpt = toy_checkpoint(tmp_path)
    out = tmp_path / "enh"
    assert main(["enhance", str(wav), "--checkpoint", str(ckpt),
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert read_wav(out / "odd.wav").samples.shape == (t,)


def test_enhance_deterministic(tmp_path, corpus_dirs, capsys):
    noisy, _ = corpus_dirs
    ckpt = toy_checkpoint(tmp_path)
    for out in ("e1", "e2"):
        assert main(["enhance", str(noisy / "utt0.wav"), "--checkpoint", str(ckpt),
                     "--out", str(tmp_path / out)]) == 0
    capsys.readouterr()
    first = (tmp_path / "e1" / "utt0.wav").read_bytes()
    second = (tmp_path / "e2" / "utt0.wav").read_bytes()
    assert first == second


def test_enhance_missing_input_exits_3(tmp_path, capsys):
    ckpt = toy_checkpoint(tmp_path)
    assert main(["enhance", str(tmp_path / "ghost.wav"), "--checkpoint", str(ckpt),
                 "--out", str(tmp_path / "enh")]) == 3
    assert "data error" in capsys.readouterr().err


def test_enhance_empty_directory_exits_3(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    ckpt = toy_checkpoint(tmp_path)
    assert main(["enhance", str(empty), "--checkpoint", str(ckpt),
                 "--out", str(tmp_path / "enh")]) == 3
    assert "no WAV files" in capsys.readouterr().err


def test_enhance_non_finite_input_exits_3(tmp_path, capsys):
    samples = np.full(1600, 0.1, dtype=np.float32)
    samples[100] = np.nan
    wav = tmp_path / "nan.wav"
    wavfile.write(wav, 16000, samples)
    ckpt = toy_checkpoint(tmp_path)
    out = tmp_path / "enh"
    assert main(["enhance", str(wav), "--checkpoint", str(ckpt), "--out", str(out)]) == 3
    assert "non-finite" in capsys.readouterr().err
    assert not (out / "nan.wav").exists()


def test_enhance_empty_wav_exits_3(tmp_path, capsys):
    wav = tmp_path / "empty.wav"
    wavfile.write(wav, 16000, np.zeros(0, dtype=np.int16))
    ckpt = toy_checkpoint(tmp_path)
    out = tmp_path / "enh"
    assert main(["enhance", str(wav), "--checkpoint", str(ckpt), "--out", str(out)]) == 3
    assert f"{wav}: no samples" in capsys.readouterr().err
    assert not (out / "empty.wav").exists()


def test_enhance_non_finite_output_exits_4(tmp_path, corpus_dirs, capsys):
    """A NaN weight gives a NaN output, which must not be written as silence."""
    noisy, clean = corpus_dirs
    params = build_model(ModelConfig(base_channels=6, depth=2, chunk_size=8), seed=0)
    params["out.bias"].data[:] = np.nan
    ckpt = tmp_path / "nan.ckpt"
    save_checkpoint(ckpt, params)
    wav, out = noisy / "utt0.wav", tmp_path / "enh"
    assert main(["enhance", str(wav), "--checkpoint", str(ckpt), "--out", str(out)]) == 4
    assert f"{wav}: enhanced output is not finite" in capsys.readouterr().err
    assert not (out / "utt0.wav").exists()
    assert main(["eval", str(noisy), str(clean), "--checkpoint", str(ckpt)]) == 4
    assert "utt0.wav: enhanced output is not finite" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["enhance", "eval"])
def test_wrong_rate_file_exits_3_naming_it(tmp_path, corpus_dirs, capsys, command):
    noisy, clean = corpus_dirs
    bad = (noisy if command == "enhance" else clean) / "utt1.wav"
    wavfile.write(bad, 8000, wavfile.read(bad)[1])
    argv = [str(noisy)] if command == "enhance" else [str(noisy), str(clean)]
    assert main([command, *argv, "--checkpoint", str(toy_checkpoint(tmp_path)),
                 "--out", str(tmp_path / "out")]) == 3
    assert f"{bad}: sample rate 8000 Hz, expected 16000 Hz" in capsys.readouterr().err


def test_enhance_corrupt_checkpoint_exits_3(tmp_path, corpus_dirs, capsys):
    noisy, _ = corpus_dirs
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"not a checkpoint at all")
    assert main(["enhance", str(noisy), "--checkpoint", str(bad),
                 "--out", str(tmp_path / "enh")]) == 3
    assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize("length", [2**62, 2**64 - 1], ids=["2^62", "2^64-1"])
def test_enhance_damaged_header_length_exits_3(tmp_path, corpus_dirs, capsys, length):
    """A header-length field larger than the file is refused before any read."""
    noisy, _ = corpus_dirs
    ckpt = toy_checkpoint(tmp_path)
    blob = bytearray(ckpt.read_bytes())
    blob[12:20] = struct.pack("<Q", length)
    ckpt.write_bytes(bytes(blob))
    assert main(["enhance", str(noisy), "--checkpoint", str(ckpt),
                 "--out", str(tmp_path / "enh")]) == 3
    assert "truncated checkpoint while reading header" in capsys.readouterr().err


def test_out_of_memory_exits_4(tmp_path, corpus_dirs, capsys, monkeypatch):
    def out_of_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "manner_forward", out_of_memory)
    noisy, _ = corpus_dirs
    assert main(["enhance", str(noisy), "--checkpoint", str(toy_checkpoint(tmp_path)),
                 "--out", str(tmp_path / "enh")]) == 4
    assert capsys.readouterr().err.startswith("error: out of memory")


def test_enhance_checkpoint_entry_without_shape_exits_3(tmp_path, corpus_dirs, rewrite_header,
                                                        capsys):
    noisy, _ = corpus_dirs
    ckpt = toy_checkpoint(tmp_path)
    rewrite_header(ckpt, lambda h: h["params"][0].pop("shape"))
    out = tmp_path / "enh"
    assert main(["enhance", str(noisy), "--checkpoint", str(ckpt), "--out", str(out)]) == 3
    assert "malformed header" in capsys.readouterr().err
    assert not out.exists()


def test_enhance_two_inputs_with_one_name_exits_3(tmp_path, corpus_dirs, capsys):
    """Two directories both holding utt0.wav would write one output twice."""
    noisy, clean = corpus_dirs
    ckpt = toy_checkpoint(tmp_path)
    out = tmp_path / "enh"
    assert main(["enhance", str(noisy), str(clean), "--checkpoint", str(ckpt),
                 "--out", str(out)]) == 3
    assert "would both be written" in capsys.readouterr().err
    assert not out.exists()


def test_enhance_out_over_an_input_exits_3(tmp_path, corpus_dirs, capsys):
    noisy, _ = corpus_dirs
    before = {p.name: p.read_bytes() for p in noisy.glob("*.wav")}
    ckpt = toy_checkpoint(tmp_path)
    assert main(["enhance", str(noisy), "--checkpoint", str(ckpt), "--out", str(noisy)]) == 3
    assert "would overwrite an input" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in noisy.glob("*.wav")} == before


# ------------------------------------------------------------------- eval

def test_eval_table_and_csv(tmp_path, corpus_dirs, capsys):
    noisy, clean = corpus_dirs
    ckpt = toy_checkpoint(tmp_path)
    out = tmp_path / "report"
    assert main(["eval", str(noisy), str(clean), "--checkpoint", str(ckpt),
                 "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "utterance" in stdout and "mean" in stdout
    lines = (out / "eval.csv").read_text().splitlines()
    assert lines[0] == "utterance,si_snr_noisy_db,si_snr_enhanced_db,delta_db"
    assert len(lines) == 4  # header + three utterances
    for i, line in enumerate(lines[1:]):
        name, before, after, delta = line.split(",")
        assert name == f"utt{i}.wav"
        ref = si_snr(read_wav(noisy / name).samples,
                     read_wav(clean / name).samples)
        assert abs(float(before) - ref) < 1e-3
        assert abs(float(delta) - (float(after) - float(before))) < 2e-4


def test_eval_without_out_writes_nothing(tmp_path, corpus_dirs, capsys):
    noisy, clean = corpus_dirs
    ckpt = toy_checkpoint(tmp_path)
    before = set(tmp_path.rglob("*.csv"))
    assert main(["eval", str(noisy), str(clean), "--checkpoint", str(ckpt)]) == 0
    capsys.readouterr()
    assert set(tmp_path.rglob("*.csv")) == before


def test_eval_silent_reference_is_unscored(tmp_path, corpus_dirs, capsys):
    noisy, clean = corpus_dirs
    silent = read_wav(clean / "utt1.wav")
    write_wav(clean / "utt1.wav", AudioClip(np.zeros_like(silent.samples)))
    ckpt = toy_checkpoint(tmp_path)
    out = tmp_path / "report"
    assert main(["eval", str(noisy), str(clean), "--checkpoint", str(ckpt),
                 "--out", str(out)]) == 0
    assert "unscored" in capsys.readouterr().out
    lines = (out / "eval.csv").read_text().splitlines()
    assert lines[2] == "utt1.wav,,,"
    scored = [line.split(",") for line in lines[1:] if not line.endswith(",,,")]
    assert [row[0] for row in scored] == ["utt0.wav", "utt2.wav"]
    assert all(np.isfinite(float(v)) for row in scored for v in row[1:])


def test_eval_every_reference_silent_exits_3(tmp_path, corpus_dirs, capsys):
    noisy, clean = corpus_dirs
    for path in clean.glob("*.wav"):
        clip = read_wav(path)
        write_wav(path, AudioClip(np.zeros_like(clip.samples)))
    ckpt = toy_checkpoint(tmp_path)
    assert main(["eval", str(noisy), str(clean), "--checkpoint", str(ckpt)]) == 3
    assert "no utterance could be scored" in capsys.readouterr().err


def test_eval_unpaired_corpus_exits_3(tmp_path, corpus_dirs, capsys):
    noisy, _ = corpus_dirs
    empty = tmp_path / "empty_clean"
    empty.mkdir()
    ckpt = toy_checkpoint(tmp_path)
    assert main(["eval", str(noisy), str(empty), "--checkpoint", str(ckpt)]) == 3
    capsys.readouterr()


# ------------------------------------------------------------------ bench

def test_bench_both_variants(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TOY_MODEL)
    out = tmp_path / "bench"
    assert main(["bench", "--config", str(cfg), "--lengths", "1,2", "--runs", "2",
                 "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "full ms" in stdout and "small ms" in stdout
    for variant in ("full", "small"):
        lines = (out / f"bench_{variant}.csv").read_text().splitlines()
        assert lines[0] == "length_s,median_ms,peak_bytes"
        assert len(lines) == 3
        secs = []
        for line in lines[1:]:
            s, ms, peak = line.split(",")
            secs.append(int(s))
            assert float(ms) > 0.0
            assert int(peak) > 0
        assert secs == [1, 2]


def test_bench_single_variant(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TOY_MODEL)
    out = tmp_path / "bench"
    assert main(["bench", "--config", str(cfg), "--variant", "small",
                 "--lengths", "1", "--runs", "1", "--out", str(out)]) == 0
    capsys.readouterr()
    assert (out / "bench_small.csv").is_file()
    assert not (out / "bench_full.csv").exists()


def test_bench_both_reports_each_variant_alone(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TOY_MODEL)

    def peaks(variant):
        out = tmp_path / variant
        assert main(["bench", "--config", str(cfg), "--variant", variant, "--lengths", "1",
                     "--runs", "1", "--out", str(out)]) == 0
        capsys.readouterr()
        return {v: int((out / f"bench_{v}.csv").read_text().splitlines()[1].split(",")[2])
                for v in ("full", "small") if (out / f"bench_{v}.csv").is_file()}

    # tracemalloc peaks of repeated forwards differ by a few KB; a variant
    # that also counted the other's weights would add their 64-69 KB
    both, alone = peaks("both"), {**peaks("full"), **peaks("small")}
    assert both.keys() == alone.keys()
    for variant in both:
        assert abs(both[variant] - alone[variant]) <= 16 * 1024, variant


def test_bench_peak_agrees_with_a_traced_forward():
    """The MiB column is the parameter bytes plus what one forward
    allocates: within 10% of a directly traced forward's tracemalloc peak."""
    params = build_model(ModelConfig(variant="small").validate(), seed=0)
    row = run_bench(params, [1], runs=1, seed=0).rows[0]
    x = 0.1 * np.random.default_rng(0).standard_normal(TARGET_RATE).astype(np.float32)
    x = Tensor(x[None, None, :])
    tracemalloc.start()
    try:
        manner_forward(x, params, params.config)
        traced = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    forward = row.peak_bytes - sum(t.data.nbytes for t in params.values())
    assert abs(forward - traced) <= 0.1 * traced, (forward, traced)


def test_bench_from_checkpoint(tmp_path, capsys):
    ckpt = toy_checkpoint(tmp_path)
    out = tmp_path / "bench"
    assert main(["bench", "--checkpoint", str(ckpt), "--lengths", "1",
                 "--runs", "1", "--out", str(out)]) == 0
    capsys.readouterr()
    lines = (out / "bench_full.csv").read_text().splitlines()
    assert lines[0] == "length_s,median_ms,peak_bytes"
    assert len(lines) == 2


@pytest.mark.parametrize("argv_tail", [
    ["--lengths", "abc"],
    ["--lengths", "0,1"],
    ["--lengths", ","],
    ["--runs", "0"],
])
def test_bench_bad_flags_exit_2(tmp_path, capsys, argv_tail):
    cfg = write_cfg(tmp_path, TOY_MODEL)
    rc = main(["bench", "--config", str(cfg), "--out", str(tmp_path / "b")] + argv_tail)
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_bench_bad_variant_exits_2(tmp_path, capsys):
    rc = main(["bench", "--variant", "tiny", "--out", str(tmp_path / "b")])
    assert rc == 2
    capsys.readouterr()
