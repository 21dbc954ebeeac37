"""Audio I/O, segmentation, tempo perturbation, pairing, and SI-SNR."""

import logging
import math
import re

import numpy as np
import pytest
from scipy.io import wavfile

from manner.audio import (
    AudioClip,
    pair_corpus,
    read_wav,
    segment,
    tempo_perturb,
    write_wav,
)
from manner.errors import DataError
from manner.metrics import si_snr
from manner.nn import num_windows

# ---------------------------------------------------------------------
# WAV round trips and rejects


def test_pcm16_roundtrip_quantizes_within_one_step(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.uniform(-0.9, 0.9, size=1600).astype(np.float32)
    path = tmp_path / "x.wav"
    write_wav(path, AudioClip(x))
    assert wavfile.read(path)[0] == 16000
    back = read_wav(path)
    assert back.samples.dtype == np.float32
    assert np.max(np.abs(back.samples - x)) <= 1.0 / 32768.0


def test_float32_roundtrip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(1)
    x = rng.uniform(-1.0, 1.0, size=777).astype(np.float32)
    path = tmp_path / "x.wav"
    wavfile.write(path, 16000, x)
    assert np.array_equal(read_wav(path).samples, x)


def test_write_wav_clips_out_of_range_values(tmp_path):
    x = np.array([2.0, -2.0, 0.0], dtype=np.float32)
    path = tmp_path / "x.wav"
    write_wav(path, AudioClip(x))
    back = read_wav(path).samples
    assert back[0] == 32767 / 32768.0
    assert back[1] == -1.0


def test_read_rejects_stereo(tmp_path):
    path = tmp_path / "stereo.wav"
    wavfile.write(path, 16000, np.zeros((100, 2), dtype=np.int16))
    with pytest.raises(DataError, match="channels"):
        read_wav(path)


def test_read_rejects_unsupported_encoding(tmp_path):
    path = tmp_path / "i32.wav"
    wavfile.write(path, 16000, np.zeros(100, dtype=np.int32))
    with pytest.raises(DataError, match="encoding"):
        read_wav(path)


def test_read_rejects_garbage_and_missing(tmp_path):
    path = tmp_path / "bad.wav"
    path.write_bytes(b"this is not RIFF data")
    with pytest.raises(DataError, match="malformed"):
        read_wav(path)
    with pytest.raises(DataError, match="no such file"):
        read_wav(tmp_path / "absent.wav")


def test_read_wav_rejects_wrong_rate_naming_the_path(tmp_path):
    path = tmp_path / "utt7.wav"
    wavfile.write(path, 8000, np.zeros(80, dtype=np.int16))
    with pytest.raises(DataError, match=re.escape(f"{path}: sample rate 8000 Hz, expected 16000 Hz")):
        read_wav(path)


def test_clip_rejects_non_mono_and_reports_duration():
    with pytest.raises(DataError):
        AudioClip(np.zeros((2, 100)))
    assert AudioClip(np.zeros(8000)).duration == 0.5


# ---------------------------------------------------------------------
# segmentation


def test_ten_seconds_gives_three_training_windows():
    """4 s windows every 3 s over 10 s of audio start at 0, 3, and 6 s."""
    sr = 16000
    x = np.arange(10 * sr, dtype=np.float32)
    segs = segment(x, 4 * sr, 3 * sr)
    assert len(segs) == 3
    for i, s in enumerate(segs):
        assert len(s) == 4 * sr
        assert s[0] == i * 3 * sr
    assert segs[2][-1] == 10 * sr - 1  # last window is exact, no padding


def test_short_signal_pads_single_window():
    x = np.ones(32000, dtype=np.float32)
    segs = segment(x, 64000, 48000)
    assert len(segs) == 1
    assert np.all(segs[0][:32000] == 1.0)
    assert np.all(segs[0][32000:] == 0.0)


def test_exact_signal_is_one_unpadded_window():
    x = np.arange(64000, dtype=np.float32)
    segs = segment(x, 64000, 48000)
    assert len(segs) == 1
    assert np.array_equal(segs[0], x)


@pytest.mark.parametrize("t", [1, 100, 47999, 48000, 48001, 64000, 64001, 160000])
def test_every_sample_is_covered(t):
    seg, hop = 64000, 48000
    n = num_windows(t, seg, hop)
    assert n == math.ceil(max(t - seg, 0) / hop) + 1
    assert (n - 1) * hop + seg >= t  # last window reaches the end
    if n > 1:
        assert (n - 2) * hop + seg < t  # and the one before it does not


@pytest.mark.parametrize("seg,hop", [(0, 1), (10, 0), (10, 11), (-5, 1)])
def test_segment_rejects_bad_geometry(seg, hop):
    with pytest.raises(ValueError):
        segment(np.zeros(100), seg, hop)


def test_segment_rejects_empty_signal():
    with pytest.raises(ValueError):
        segment(np.zeros(0), 10, 5)


# ---------------------------------------------------------------------
# tempo perturbation


@pytest.mark.parametrize("rate,expected", [(1.1, 58182), (0.9, 71111), (1.0, 64000)])
def test_tempo_length_frozen(rate, expected):
    clip = AudioClip(np.zeros(64000, dtype=np.float32))
    assert len(tempo_perturb(clip, rate=rate).samples) == expected


def test_tempo_identity_rate_is_bit_exact():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(5000).astype(np.float32)
    out = tempo_perturb(AudioClip(x), rate=1.0)
    assert np.array_equal(out.samples, x)


def test_tempo_resamples_a_ramp_linearly():
    """Linear interpolation reproduces a linear signal exactly."""
    t = 1000
    x = (np.arange(t) / t).astype(np.float32)
    out = tempo_perturb(AudioClip(x), rate=1.05).samples
    expected = np.arange(len(out)) * 1.05 / t
    np.testing.assert_allclose(out, expected, atol=1e-6)


@pytest.mark.parametrize("rate", [0.89, 1.11, 0.0, -1.0])
def test_tempo_rejects_out_of_range(rate):
    with pytest.raises(ValueError):
        tempo_perturb(AudioClip(np.zeros(100)), rate=rate)


# ---------------------------------------------------------------------
# corpus pairing


def write_tone(path, freq, n, noise=None, seed=0):
    t = np.arange(n) / 16000
    x = 0.4 * np.sin(2 * np.pi * freq * t)
    if noise is not None:
        x = x + noise * np.random.default_rng(seed).standard_normal(n)
    write_wav(path, AudioClip(x.astype(np.float32)))


def make_corpus(root, names, n=8000):
    noisy, clean = root / "noisy", root / "clean"
    noisy.mkdir()
    clean.mkdir()
    for i, name in enumerate(names):
        write_tone(clean / name, 300 + 50 * i, n)
        write_tone(noisy / name, 300 + 50 * i, n, noise=0.05, seed=i)
    return noisy, clean


def test_pair_corpus_matches_by_name_sorted(tmp_path):
    noisy, clean = make_corpus(tmp_path, ["b.wav", "a.wav", "c.wav"])
    pairs = pair_corpus(noisy, clean)
    assert [p.name for p in pairs] == ["a.wav", "b.wav", "c.wav"]
    for p in pairs:
        assert len(p.noisy.samples) == len(p.clean.samples) == 8000


def test_pair_corpus_warns_on_orphans(tmp_path, caplog):
    noisy, clean = make_corpus(tmp_path, ["a.wav"])
    write_tone(noisy / "only_noisy.wav", 200, 4000)
    write_tone(clean / "only_clean.wav", 200, 4000)
    with caplog.at_level(logging.WARNING, logger="manner.audio"):
        pairs = pair_corpus(noisy, clean)
    assert [p.name for p in pairs] == ["a.wav"]
    messages = " ".join(r.getMessage() for r in caplog.records)
    assert "only_noisy.wav" in messages and "only_clean.wav" in messages


def test_pair_corpus_length_mismatch_names_utterance(tmp_path):
    noisy, clean = make_corpus(tmp_path, ["a.wav"])
    write_tone(noisy / "bad.wav", 200, 4000)
    write_tone(clean / "bad.wav", 200, 5000)
    with pytest.raises(DataError, match="bad.wav"):
        pair_corpus(noisy, clean)


def test_pair_corpus_rejects_empty_overlap(tmp_path):
    noisy, clean = make_corpus(tmp_path, ["a.wav"])
    (noisy / "a.wav").unlink()
    write_tone(noisy / "z.wav", 200, 4000)
    with pytest.raises(DataError, match="no paired"):
        pair_corpus(noisy, clean)


def test_pair_corpus_rejects_missing_directory(tmp_path):
    with pytest.raises(DataError, match="not a directory"):
        pair_corpus(tmp_path / "nope", tmp_path)


def test_pair_corpus_rejects_rate_mismatch(tmp_path):
    noisy, clean = make_corpus(tmp_path, ["a.wav"])
    x = np.zeros(8000, dtype=np.float32)
    wavfile.write(noisy / "r.wav", 8000, x)
    write_wav(clean / "r.wav", AudioClip(x))
    with pytest.raises(DataError, match=re.escape(f"{noisy / 'r.wav'}: sample rate 8000 Hz")):
        pair_corpus(noisy, clean)


# ---------------------------------------------------------------------
# SI-SNR


def orthogonal_pair(t=64):
    """Zero-mean reference and a zero-mean signal orthogonal to it."""
    ref = np.tile([1.0, -1.0], t // 2)
    orth = np.tile([1.0, 1.0, -1.0, -1.0], t // 4)
    assert abs(np.dot(ref, orth)) < 1e-12
    return ref, orth


def test_si_snr_identical_signals_hit_the_cap():
    rng = np.random.default_rng(4)
    x = rng.standard_normal(1000)
    assert si_snr(x, x.copy()) == 60.0


def test_si_snr_known_orthogonal_noise_level():
    """Noise at 1/100 the energy of the target reads exactly 20 dB."""
    ref, orth = orthogonal_pair()
    assert abs(si_snr(ref + 0.1 * orth, ref) - 20.0) < 1e-9
    assert abs(si_snr(ref + 0.01 * orth, ref) - 40.0) < 1e-9


def test_si_snr_orthogonal_estimate_floors():
    ref, orth = orthogonal_pair()
    assert si_snr(orth, ref) == -60.0


def test_si_snr_is_invariant_to_estimate_gain():
    rng = np.random.default_rng(5)
    ref = rng.standard_normal(500)
    est = ref + 0.2 * rng.standard_normal(500)
    base = si_snr(est, ref)
    for gain in (0.1, 3.0, 250.0):
        assert abs(si_snr(gain * est, ref) - base) < 1e-9


def test_si_snr_decreases_with_more_noise():
    rng = np.random.default_rng(6)
    ref = rng.standard_normal(500)
    noise = rng.standard_normal(500)
    assert si_snr(ref + 0.1 * noise, ref) > si_snr(ref + 0.5 * noise, ref)


def test_si_snr_rejects_silence_and_bad_shapes():
    with pytest.raises(ValueError, match="silent"):
        si_snr(np.ones(10), np.zeros(10))
    with pytest.raises(ValueError):
        si_snr(np.zeros(10), np.zeros(11))
    with pytest.raises(ValueError):
        si_snr(np.zeros((2, 5)), np.zeros((2, 5)))
