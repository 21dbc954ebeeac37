"""Loss tests: the STFT primitive against a naive DFT, then the stacked
losses against identities and an independently written reference."""

import logging
import math

import numpy as np
import pytest

from manner.loss import (
    DEFAULT_RESOLUTIONS,
    LossReport,
    StftConfig,
    default_resolutions,
    hann_window,
    num_frames,
    stft_loss,
    stft_magnitude,
    weighted_total_loss,
)
from manner.tensor import Tape, Tensor, backward, finite_diff_check, tsum

# ---------------------------------------------------------------------
# oracles


def stft_magnitude_dft(x, fft_size, hop, win_length):
    """Naive O(T^2) DFT magnitudes, one sample and one bin at a time."""
    window = [0.5 - 0.5 * math.cos(2.0 * math.pi * n / win_length) for n in range(win_length)]
    frames = (len(x) - win_length) // hop + 1
    bins = fft_size // 2 + 1
    out = np.zeros((frames, bins))
    for f in range(frames):
        seg = [float(x[f * hop + n]) * window[n] for n in range(win_length)]
        for k in range(bins):
            re = sum(seg[n] * math.cos(2.0 * math.pi * k * n / fft_size) for n in range(win_length))
            im = -sum(seg[n] * math.sin(2.0 * math.pi * k * n / fft_size) for n in range(win_length))
            out[f, k] = math.hypot(re, im)
    return out


def multires_reference(clean, est, resolutions):
    """Plain-numpy restatement of the multi-resolution loss."""

    def mags(sig, fft, hop, win):
        w = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(win) / win)
        rows = [sig[s : s + win] * w for s in range(0, len(sig) - win + 1, hop)]
        return np.abs(np.fft.rfft(np.stack(rows), n=fft, axis=-1))

    total, used = 0.0, 0
    for fft, hop, win in resolutions:
        if len(clean) < win:
            continue
        mc = mags(clean, fft, hop, win)
        me = mags(est, fft, hop, win)
        sc = np.linalg.norm(mc - me) / max(np.linalg.norm(mc), 1e-12)
        mag = np.mean(np.abs(np.log(np.maximum(mc, 1e-8)) - np.log(np.maximum(me, 1e-8))))
        total += sc + mag
        used += 1
    return total / used


# ---------------------------------------------------------------------
# config and window


def test_default_resolutions_frozen():
    assert DEFAULT_RESOLUTIONS == ((512, 50, 240), (1024, 120, 600), (2048, 240, 1200))
    assert [c.bins for c in default_resolutions()] == [257, 513, 1025]


@pytest.mark.parametrize(
    "fft,hop,win",
    [(63, 16, 32), (0, 1, 1), (64, 16, 128), (64, 32, 32), (64, 64, 32), (64, 0, 32)],
)
def test_stft_config_rejects(fft, hop, win):
    with pytest.raises(ValueError):
        StftConfig(fft, hop, win).validate()


def test_hann_window_is_periodic():
    w = hann_window(16)
    assert w[0] == 0.0
    assert w[8] == 1.0
    np.testing.assert_allclose(w[1:], w[:0:-1], rtol=1e-12)  # mirror around N/2
    assert abs(w.sum() - 8.0) < 1e-12  # full cosine period sums to N/2


@pytest.mark.parametrize("t,win,hop,expected", [(256, 64, 16, 13), (64, 64, 16, 1), (512, 32, 16, 31)])
def test_num_frames_frozen(t, win, hop, expected):
    assert num_frames(t, StftConfig(64, hop, win).validate()) == expected


# ---------------------------------------------------------------------
# the magnitude primitive


@pytest.mark.parametrize("hop,win", [(16, 64), (16, 32), (8, 24)])
def test_stft_magnitude_matches_naive_dft(hop, win):
    rng = np.random.default_rng(hop * 100 + win)
    x = rng.standard_normal(256)
    cfg = StftConfig(64, hop, win).validate()
    got = stft_magnitude(Tensor(x), cfg).data
    expected = stft_magnitude_dft(x, 64, hop, win)
    assert got.shape == expected.shape == (num_frames(256, cfg), 33)
    np.testing.assert_allclose(got, expected, atol=1e-4)


def test_stft_magnitude_pure_tone_peaks_at_its_bin():
    """A bin-aligned cosine concentrates energy at that bin in every frame."""
    fft = 64
    k0 = 5
    n = np.arange(512)
    x = np.cos(2.0 * np.pi * k0 * n / fft)
    cfg = StftConfig(fft, 16, fft).validate()
    mag = stft_magnitude(Tensor(x), cfg).data
    assert np.all(np.argmax(mag, axis=-1) == k0)


def test_stft_magnitude_zero_signal():
    cfg = StftConfig(64, 16, 32).validate()
    mag = stft_magnitude(Tensor(np.zeros(128)), cfg).data
    np.testing.assert_array_equal(mag, np.zeros_like(mag))


def test_stft_magnitude_batch_matches_single():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, 200))
    cfg = StftConfig(64, 16, 32).validate()
    batched = stft_magnitude(Tensor(x), cfg).data
    for i in range(3):
        np.testing.assert_array_equal(batched[i], stft_magnitude(Tensor(x[i]), cfg).data)


def test_stft_magnitude_rejects_short_signal():
    with pytest.raises(ValueError):
        stft_magnitude(Tensor(np.zeros(31)), StftConfig(64, 16, 32))


def test_stft_magnitude_gradcheck():
    rng = np.random.default_rng(1)
    x = Tensor(rng.standard_normal(96), requires_grad=True)
    cfg = StftConfig(32, 8, 16).validate()
    err = finite_diff_check(lambda v: tsum(stft_magnitude(v, cfg)), [x])
    assert err < 1e-6


def test_stft_magnitude_is_c_contiguous():
    """Frames are laid out frame-major, so reductions over the magnitudes
    run over plain memory."""
    x = np.random.default_rng(2).standard_normal((2, 16000)).astype(np.float32)
    mag = stft_magnitude(Tensor(x), default_resolutions()[0]).data
    assert mag.dtype == np.float32
    assert mag.flags.c_contiguous


def test_stft_magnitude_float32_gradient_stays_float32(monkeypatch):
    """numpy 1.x runs float32 transforms in float64; the input gradient
    must come back as float32 all the same, or float64 spreads up the
    model's backward into every parameter gradient."""
    irfft = np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft", lambda *a, **k: irfft(*a, **k).astype(np.float64))
    x = Tensor(np.random.default_rng(3).standard_normal((2, 400)).astype(np.float32), requires_grad=True)
    with Tape() as tape:
        loss = tsum(stft_magnitude(x, StftConfig(64, 16, 32).validate()))
    backward(tape, loss)
    assert x.grad.dtype == np.float32


# ---------------------------------------------------------------------
# single-resolution loss identities


def test_stft_loss_zero_for_perfect_estimate():
    rng = np.random.default_rng(2)
    y = rng.standard_normal(512)
    cfg = StftConfig(64, 16, 32).validate()
    sc, mag = stft_loss(Tensor(y), Tensor(y.copy()), cfg)
    assert abs(sc.item()) < 1e-6
    assert abs(mag.item()) < 1e-6


def test_stft_loss_sc_is_one_for_zero_estimate():
    """Zero estimate leaves the numerator equal to the denominator."""
    rng = np.random.default_rng(3)
    y = rng.standard_normal(512)
    cfg = StftConfig(64, 16, 32).validate()
    sc, _ = stft_loss(Tensor(y), Tensor(np.zeros(512)), cfg)
    assert sc.item() == 1.0


def test_stft_loss_sc_is_scale_invariant():
    rng = np.random.default_rng(4)
    y = rng.standard_normal(400)
    e = rng.standard_normal(400)
    cfg = StftConfig(64, 16, 32).validate()
    sc1, _ = stft_loss(Tensor(y), Tensor(e), cfg)
    sc2, _ = stft_loss(Tensor(7.0 * y), Tensor(7.0 * e), cfg)
    np.testing.assert_allclose(sc1.item(), sc2.item(), rtol=1e-10)


def test_stft_loss_nonnegative_and_batched():
    rng = np.random.default_rng(5)
    y = rng.standard_normal((4, 300))
    e = y + 0.3 * rng.standard_normal((4, 300))
    cfg = StftConfig(64, 16, 32).validate()
    sc, mag = stft_loss(Tensor(y), Tensor(e), cfg)
    assert sc.shape == mag.shape == (4,)
    assert np.all(sc.data >= 0.0) and np.all(mag.data >= 0.0)
    for i in range(4):
        si, mi = stft_loss(Tensor(y[i]), Tensor(e[i]), cfg)
        np.testing.assert_allclose(sc.data[i], si.item(), rtol=1e-12)
        np.testing.assert_allclose(mag.data[i], mi.item(), rtol=1e-12)


def test_stft_loss_gradcheck():
    rng = np.random.default_rng(6)
    y = Tensor(rng.standard_normal(512), requires_grad=True)
    e = Tensor(rng.standard_normal(512), requires_grad=True)
    cfg = StftConfig(64, 16, 32).validate()

    def f(yv, ev):
        sc, mag = stft_loss(yv, ev, cfg)
        return sc + mag

    err = finite_diff_check(f, [y, e], max_checks_per_input=48,
                            rng=np.random.default_rng(0))
    assert err < 1e-6


# ---------------------------------------------------------------------
# multi-resolution objective, one branch (weighted=False)


SMALL_RES = tuple(
    StftConfig(*r).validate() for r in ((64, 16, 32), (128, 32, 64), (256, 64, 128))
)


def unweighted(clean, est, resolutions=SMALL_RES):
    """The clean branch alone: the noisy input only has to match in shape."""
    return weighted_total_loss(Tensor(clean), Tensor(clean), Tensor(est), resolutions, weighted=False)


def test_multires_matches_reference():
    rng = np.random.default_rng(7)
    y = rng.standard_normal(512)
    e = y + 0.5 * rng.standard_normal(512)
    loss, report = unweighted(y, e)
    expected = multires_reference(y, e, ((64, 16, 32), (128, 32, 64), (256, 64, 128)))
    np.testing.assert_allclose(loss.item() - report.l1, expected, rtol=1e-9)
    np.testing.assert_allclose(report.l1, np.mean(np.abs(y - e)), rtol=1e-12)
    assert len(report.sc) == len(report.mag) == 3
    np.testing.assert_allclose(loss.item() - report.l1,
                               np.mean(np.add(report.sc, report.mag)), rtol=1e-6)


def test_multires_skips_short_resolutions(caplog):
    rng = np.random.default_rng(8)
    y = rng.standard_normal(100)
    e = rng.standard_normal(100)
    with caplog.at_level(logging.WARNING, logger="manner.loss"):
        loss, report = unweighted(y, e)
    assert any("skipping" in r.message for r in caplog.records)
    assert not math.isnan(report.sc[0]) and not math.isnan(report.sc[1])
    assert math.isnan(report.sc[2]) and math.isnan(report.mag[2])
    only_two = unweighted(y, e, SMALL_RES[:2])[0]
    np.testing.assert_allclose(loss.item(), only_two.item(), rtol=1e-12)


def test_multires_all_skipped_is_zero(caplog):
    """With no resolution left, the spectral term is zero: the loss is
    the waveform L1 alone."""
    with caplog.at_level(logging.WARNING, logger="manner.loss"):
        loss, report = unweighted(np.ones(16), np.zeros(16))
    assert any("all STFT resolutions skipped" in r.message for r in caplog.records)
    assert loss.item() == report.l1 == 1.0
    assert all(math.isnan(s) and math.isnan(m) for s, m in zip(report.sc, report.mag))


def test_constant_offset_hits_l1():
    y = np.zeros(512)
    e = np.full(512, -0.25)
    _, report = unweighted(y + 1.0, y + 1.0 + e)
    assert abs(report.l1 - 0.25) < 1e-12


def test_l1_scales_spectral_terms_do_not_budge():
    """Doubling both signals doubles L1; sc and the log ratios stay put."""
    rng = np.random.default_rng(9)
    y = rng.standard_normal(512)
    e = y + 0.4 * rng.standard_normal(512)
    _, r1 = unweighted(y, e)
    _, r2 = unweighted(2.0 * y, 2.0 * e)
    assert abs(r2.l1 - 2.0 * r1.l1) < 1e-12
    np.testing.assert_allclose(r1.sc, r2.sc, rtol=1e-9)
    np.testing.assert_allclose(r1.mag, r2.mag, rtol=1e-9)


# ---------------------------------------------------------------------
# weighted total


def test_alpha_three_to_one_energy():
    """Speech at 3x the noise energy weighs its branch at exactly 0.75."""
    rng = np.random.default_rng(10)
    u = rng.choice([-1.0, 1.0], size=512)
    v = rng.choice([-1.0, 1.0], size=512)
    clean = math.sqrt(3.0) * u
    noisy = clean + v
    _, report = weighted_total_loss(Tensor(noisy), Tensor(clean),
                                    Tensor(0.5 * noisy), SMALL_RES)
    np.testing.assert_allclose(report.alpha, 0.75, rtol=1e-9)


def test_alpha_is_one_without_noise():
    rng = np.random.default_rng(11)
    clean = rng.standard_normal(512)
    _, report = weighted_total_loss(Tensor(clean.copy()), Tensor(clean),
                                    Tensor(0.9 * clean), SMALL_RES)
    assert report.alpha == 1.0


def test_alpha_degenerate_silence_splits_evenly():
    z = np.zeros(512)
    est = 0.01 * np.ones(512)
    _, report = weighted_total_loss(Tensor(z), Tensor(z.copy()), Tensor(est), SMALL_RES)
    assert report.alpha == 0.5


def test_unweighted_reports_alpha_one_and_clean_branch_only():
    rng = np.random.default_rng(12)
    clean = rng.standard_normal(512)
    noisy = clean + rng.standard_normal(512)
    est = clean + 0.2 * rng.standard_normal(512)
    total, report = weighted_total_loss(Tensor(noisy), Tensor(clean), Tensor(est),
                                        SMALL_RES, weighted=False)
    assert report.alpha == 1.0
    # the noisy input does not reach the loss, and the loss is the
    # clean branch's waveform L1 plus its multi-resolution term
    assert total.item() == unweighted(clean, est)[0].item()
    expected = np.mean(np.abs(clean - est)) + multires_reference(
        clean, est, ((64, 16, 32), (128, 32, 64), (256, 64, 128)))
    np.testing.assert_allclose(total.item(), expected, rtol=1e-9)


def test_weighted_total_is_mean_of_per_example_totals():
    """A batch of two scores the mean of the two single-example runs."""
    rng = np.random.default_rng(13)
    clean = rng.standard_normal((2, 512))
    clean[1] *= 3.0  # different alpha per example
    noise = rng.standard_normal((2, 512))
    noisy = clean + noise
    est = clean + 0.3 * noise
    batch_total, _ = weighted_total_loss(Tensor(noisy), Tensor(clean), Tensor(est), SMALL_RES)
    singles = [
        weighted_total_loss(Tensor(noisy[i]), Tensor(clean[i]), Tensor(est[i]), SMALL_RES)[0].item()
        for i in range(2)
    ]
    np.testing.assert_allclose(batch_total.item(), np.mean(singles), rtol=1e-9)


def test_weighted_total_perfect_estimate_is_zero():
    rng = np.random.default_rng(14)
    clean = rng.standard_normal(512)
    noisy = clean + 0.5 * rng.standard_normal(512)
    total, _ = weighted_total_loss(Tensor(noisy), Tensor(clean), Tensor(clean.copy()), SMALL_RES)
    assert abs(total.item()) < 1e-6


def test_weighted_total_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        weighted_total_loss(Tensor(np.zeros(64)), Tensor(np.zeros(64)),
                            Tensor(np.zeros(65)), SMALL_RES)
    with pytest.raises(ValueError):
        weighted_total_loss(Tensor(np.zeros((1, 2, 64))), Tensor(np.zeros((1, 2, 64))),
                            Tensor(np.zeros((1, 2, 64))), SMALL_RES)


def test_weighted_total_gradcheck():
    rng = np.random.default_rng(15)
    clean = rng.standard_normal(256)
    noisy = clean + 0.5 * rng.standard_normal(256)
    est = Tensor(clean + 0.3 * rng.standard_normal(256), requires_grad=True)
    res = SMALL_RES[:2]

    def f(ev):
        return weighted_total_loss(Tensor(noisy), Tensor(clean), ev, res)[0]

    err = finite_diff_check(f, [est], max_checks_per_input=48,
                            rng=np.random.default_rng(0))
    assert err < 1e-6


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_weighted_total_float32_matches_float64(seed):
    """On 2 x 1 s signals at the default resolutions the float32 loss stays
    within 3e-7 of float64: the magnitude sums reduce pairwise over
    contiguous memory."""
    rng = np.random.default_rng(seed)
    clean = 0.1 * rng.standard_normal((2, 16000))
    noisy = clean + 0.05 * rng.standard_normal((2, 16000))
    est = clean + 0.02 * rng.standard_normal((2, 16000))
    signals = [a.astype(np.float32) for a in (noisy, clean, est)]
    l32 = weighted_total_loss(*(Tensor(a) for a in signals))[0].item()
    l64 = weighted_total_loss(*(Tensor(a.astype(np.float64)) for a in signals))[0].item()
    assert abs(l32 - l64) <= 3e-7 * abs(l64)


# ---------------------------------------------------------------------
# reporting


def test_log_line_format_frozen():
    report = LossReport(total=1.5, l1=0.25, sc=(0.5,), mag=(0.75,), alpha=0.9)
    assert report.log_line(step=3, epoch=1, lr=1e-4) == (
        "step=3 epoch=1 lr=0.0001 total=1.5 l1=0.25 sc1=0.5 mag1=0.75 alpha=0.9"
    )


def test_log_line_numbers_resolutions():
    report = LossReport(total=2.0, l1=0.1, sc=(0.2, 0.3, 0.4), mag=(0.5, 0.6, 0.7), alpha=1.0)
    line = report.log_line(step=10, epoch=2, lr=0.01)
    for token in ("sc1=0.2", "mag1=0.5", "sc2=0.3", "mag2=0.6", "sc3=0.4", "mag3=0.7"):
        assert token in line
