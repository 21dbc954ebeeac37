"""Shared fixtures and the acceptance-checklist summary."""

import json
import struct

import numpy as np
import pytest

from manner.audio import TARGET_RATE, AudioClip, write_wav

_ACCEPTANCE: dict[str, str] = {}


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    marker = item.get_closest_marker("acceptance")
    if marker is not None and report.when == "call":
        _ACCEPTANCE[marker.args[0]] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance checklist")
    for label in sorted(_ACCEPTANCE):
        outcome = _ACCEPTANCE[label]
        word = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(f"[{word}] {label}")


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def make_tone_pair(rng, seconds=1.0, freq=440.0, noise_scale=0.05):
    """A clean 16 kHz tone and its noisy mixture, the standard tiny fixture."""
    t = int(seconds * TARGET_RATE)
    clean = (0.3 * np.sin(2 * np.pi * freq * np.arange(t) / TARGET_RATE)).astype(np.float32)
    noisy = clean + noise_scale * rng.standard_normal(t).astype(np.float32)
    return AudioClip(noisy), AudioClip(clean)


@pytest.fixture
def corpus_dirs(tmp_path, rng):
    """Three paired utterances on disk, as (noisy_dir, clean_dir)."""
    noisy_dir = tmp_path / "noisy"
    clean_dir = tmp_path / "clean"
    noisy_dir.mkdir()
    clean_dir.mkdir()
    for i, freq in enumerate((330.0, 440.0, 550.0)):
        noisy, clean = make_tone_pair(rng, seconds=1.0 + 0.25 * i, freq=freq)
        write_wav(noisy_dir / f"utt{i}.wav", noisy)
        write_wav(clean_dir / f"utt{i}.wav", clean)
    return noisy_dir, clean_dir


@pytest.fixture
def rewrite_header():
    """rewrite(path, edit): applies `edit` to the decoded JSON header of a
    checkpoint file in place, keeping its payload."""

    def rewrite(path, edit):
        blob = path.read_bytes()
        (hlen,) = struct.unpack("<Q", blob[12:20])
        header = json.loads(blob[20 : 20 + hlen])
        edit(header)
        new = json.dumps(header).encode("utf-8")
        path.write_bytes(blob[:12] + struct.pack("<Q", len(new)) + new + blob[20 + hlen :])

    return rewrite
